"""Descriptor files: strict JSON parsing and validation.

Schema version 1.  Top level: {"schema_version": 1, "type": ..., ...} with
type one of "group", "manifold", "knot", "link".  Unknown fields are
rejected; all numbers must be exact integers; null in an optional field
means the field is absent.  A group descriptor holds at most
MAX_CONSTRUCTIONS constructions, and a multiplication table at most
MAX_TABLE_ORDER elements.  Error messages carry the JSON path of the
offending value.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from ._lazy import lazy_module
from .groups.base import INFINITE, FiniteGroupTable, GroupUsageError, Letter, Record, StructuredGroup
from .groups.cyclic import FiniteCyclic, InfiniteCyclic
from .groups.free_product import FreeProduct

# Executed on first use: a call parses one kind of descriptor, which needs
# either the manifold types or some of the group constructions.
amalgam = lazy_module("iccdec.groups.amalgam")
direct_product = lazy_module("iccdec.groups.direct_product")
hnn = lazy_module("iccdec.groups.hnn")
semidirect = lazy_module("iccdec.groups.semidirect")
surface = lazy_module("iccdec.groups.surface")
eisenstein = lazy_module("iccdec.eisenstein")
manifolds = lazy_module("iccdec.manifolds")

SCHEMA_VERSION = 1
# Nested constructions are parsed recursively.  A flat free_product checks
# its names once, but each FreeProduct of a nested chain checks every name of
# the chain below it, so a chain's parse cost grows faster than linearly.
MAX_CONSTRUCTIONS = 64
# FiniteGroupTable checks associativity in O(order^3) steps, so a table's
# order is checked against this before any row is read.
MAX_TABLE_ORDER = 64


class DescriptorError(ValueError):
    """A parse or schema violation, annotated with its JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class Descriptor(Record):
    kind: str  # "group" | "manifold" | "knot" | "link"
    group: Optional[StructuredGroup] = None
    manifold: Optional[manifolds.ManifoldDescriptor] = None
    knot: Optional[manifolds.KnotDescriptor] = None
    link: Optional[manifolds.LinkDescriptor] = None


# ---------------------------------------------------------------------------
# word syntax: whitespace-separated generator names, ' for inverse, ^k powers

_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)('?)(?:\^(-?\d+))?$")


def parse_word(text: str) -> list[Letter]:
    """e.g. "a b' a^2" -> [("a", 1), ("b", -1), ("a", 2)]."""
    letters: list[Letter] = []
    stripped = text.strip()
    if stripped in ("", "1"):
        return letters
    for token in stripped.split():
        match = _TOKEN.match(token)
        if match is None:
            raise GroupUsageError(
                f"bad word token {token!r}: expected NAME, NAME', or NAME^k"
            )
        name, inverse, power = match.groups()
        exponent = int(power) if power is not None else 1
        if inverse:
            exponent = -exponent
        if exponent:
            letters.append((name, exponent))
    return letters


def format_word(letters: list[Letter]) -> str:
    if not letters:
        return "1"
    parts = []
    for name, exp in letters:
        if exp == 1:
            parts.append(name)
        elif exp == -1:
            parts.append(f"{name}'")
        else:
            parts.append(f"{name}^{exp}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# strict field access

_REQUIRED = object()
_EXPECTED = {
    dict: "an object",
    list: "an array",
    int: "an exact integer",
    bool: "a boolean",
    str: "a string",
}


def _is(value, kind) -> bool:
    """isinstance, except that an exact integer is never a boolean."""
    return type(value) is kind or (kind is not int and isinstance(value, kind))


def _type_error(path: str, value, kind) -> DescriptorError:
    got = f", got {type(value).__name__}" if kind is dict or kind is list else ""
    return DescriptorError(path, f"expected {_EXPECTED[kind]}{got}")


def _at(path: str, make, *args):
    """make(*args), with a model's GroupUsageError reported as a
    DescriptorError at path.  A call rather than a context manager: entering
    a with-block costs about ten times a try, and the parser wraps every
    construction, piece and word."""
    try:
        return make(*args)
    except GroupUsageError as exc:
        raise DescriptorError(path, str(exc)) from None


def _array(value, path: str, shape: tuple, kind):
    """A nested JSON array, checked level by level from the outside in.

    shape has one entry per level: None for any length, or (length, message)
    for a fixed length.  The innermost level holds values of kind.
    """
    if not isinstance(value, list):
        raise _type_error(path, value, list)
    if shape[0] is not None and len(value) != shape[0][0]:
        raise DescriptorError(path, shape[0][1])
    if len(shape) > 1:
        for i, item in enumerate(value):
            _array(item, f"{path}[{i}]", shape[1:], kind)
    else:
        for i, x in enumerate(value):
            if type(x) is not kind and not _is(x, kind):
                raise _type_error(f"{path}[{i}]", x, kind)
    return value


class _Fields:
    """One JSON object being read.  Each read names its key and the kind it
    expects; finish() rejects the keys that no read asked for."""

    __slots__ = ("data", "path", "used")

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise _type_error(path, data, dict)
        self.data = data
        self.path = path
        self.used: set[str] = set()

    def get(self, key: str, kind=object, default=_REQUIRED):
        """The value under key, of kind dict, list, int, bool, str, or
        object for any.  An optional field that is absent or null gives
        default."""
        self.used.add(key)
        value = self.data.get(key)
        if value is None:
            if default is not _REQUIRED:
                return default
            if key not in self.data:
                raise DescriptorError(self.path, f"missing required field {key!r}")
        if kind is object or type(value) is kind or _is(value, kind):
            return value
        raise _type_error(f"{self.path}.{key}", value, kind)

    def nested(self, key: str) -> "_Fields":
        return _Fields(self.get(key), f"{self.path}.{key}")

    def array(self, key: str, shape: tuple, kind=int, default=_REQUIRED):
        value = self.get(key, object, default)
        return value if value is default else _array(value, f"{self.path}.{key}", shape, kind)

    def construction(self, key: str, build: "_GroupBuild") -> StructuredGroup:
        return _parse_construction(self.get(key), f"{self.path}.{key}", build)

    def finish(self):
        unknown = set(self.data) - self.used
        if unknown:
            raise DescriptorError(
                self.path, f"unknown field(s) {sorted(unknown)!r} rejected"
            )


_ROWS = (None, None)
_LIST = (None,)


# ---------------------------------------------------------------------------
# group constructions


_DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"


class _GroupBuild:
    """What the constructions of one group descriptor share: the generator
    names claimed so far, the names its surface groups claim (read on the
    first default name), and the number of constructions parsed."""

    def __init__(self, data):
        self.data = data
        self.used: set[str] = set()
        self.reserved: Optional[set[str]] = None
        self.cursor = 0
        self.constructions = 0

    def free(self, name: str) -> bool:
        """Whether name is claimed by nothing, now or later, so that it can be
        handed out as a default."""
        if self.reserved is None:
            self.reserved = _surface_names(self.data)
        return name not in self.used and name not in self.reserved

    def claim(self, name: str, path: str) -> str:
        if name in self.used:
            raise DescriptorError(path, f"generator name {name!r} is not unique")
        self.used.add(name)
        return name

    def claim_all(self, group: StructuredGroup, path: str) -> None:
        for name in group.generator_names():
            self.claim(name, path)

    def fresh(self, path: str) -> str:
        while self.cursor < len(_DEFAULT_NAMES):
            candidate = _DEFAULT_NAMES[self.cursor]
            self.cursor += 1
            if self.free(candidate):
                self.used.add(candidate)
                return candidate
        raise DescriptorError(path, "ran out of default generator names; name them explicitly")


# The keys under which a construction nests others, in the order parsed.
_NESTED = {"amalgam": ("left", "right"), "hnn": ("base",), "direct_with_finite": ("h",)}


def _surface_names(data) -> set[str]:
    """The names of the surface groups among the first MAX_CONSTRUCTIONS
    constructions in data, in parse order; one that fails to parse has none."""
    names: set[str] = set()
    stack = [data]
    for _ in range(MAX_CONSTRUCTIONS):
        if not stack:
            break
        node = stack.pop()
        for key, body in node.items() if isinstance(node, dict) else ():
            if key == "free_product" and isinstance(body, list):
                stack += reversed(body)
            elif key in _NESTED and isinstance(body, dict):
                stack += [body.get(part) for part in reversed(_NESTED[key])]
            elif key == "surface_group" and isinstance(body, dict):
                try:
                    names.update(_surface(_Fields(body, ""), "", _GroupBuild(None)).generator_names())
                except (DescriptorError, GroupUsageError):
                    pass
    return names


def _parse_table(fields: _Fields) -> FiniteGroupTable:
    order = fields.get("order", int)
    if order > MAX_TABLE_ORDER:
        raise DescriptorError(
            f"{fields.path}.order", f"a table has at most {MAX_TABLE_ORDER} elements, not {order}"
        )
    table = fields.array("table", _ROWS)
    if len(table) != order:
        raise DescriptorError(f"{fields.path}.table", f"table must have {order} rows")
    names = fields.array("names", _LIST, str, None)
    return _at(fields.path, FiniteGroupTable, table, names)


def _embed_words(group: StructuredGroup, fields: _Fields, key: str) -> list:
    path = f"{fields.path}.{key}"
    payloads = []
    for i, text in enumerate(fields.array(key, _LIST, str)):
        payloads.append(_at(f"{path}[{i}]", _word_payload, group, text))
    return payloads


def _word_payload(group: StructuredGroup, text: str):
    return group.reduce_letters(parse_word(text)).payload


# Each builder reads the fields of one construction and returns its group.
# The fields of "cyclic" and "free_product" sit beside the construction key;
# every other construction nests them in an object under its key.


def _cyclic(fields: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    order = fields.get("cyclic", int)
    name = fields.get("name", str, None)
    name = build.claim(name, f"{path}.name") if name is not None else build.fresh(path)
    return FiniteCyclic(order, name)


def _infinite_cyclic(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    name = body.get("name", str, None)
    name = build.claim(name, f"{body.path}.name") if name is not None else build.fresh(path)
    return InfiniteCyclic(name)


def _free_product(fields: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    factors = fields.get("free_product", list)
    if len(factors) < 2:
        raise DescriptorError(f"{path}.free_product", "needs at least two factors")
    groups = [
        _parse_construction(f, f"{path}.free_product[{i}]", build)
        for i, f in enumerate(factors)
    ]
    return FreeProduct(*groups)


def _amalgam(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    left = body.construction("left", build)
    right = body.construction("right", build)
    edge = body.nested("edge")
    table = _parse_table(edge)
    embed_left = _embed_words(left, edge, "embed_left")
    embed_right = _embed_words(right, edge, "embed_right")
    edge.finish()
    return amalgam.Amalgam(left, right, amalgam.AmalgamEdge(table, embed_left, embed_right))


def _hnn(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    base = body.construction("base", build)
    letter = body.get("stable_letter", str, None)
    if letter is None and build.free("t"):
        letter = "t"
    letter = (
        build.claim(letter, f"{body.path}.stable_letter")
        if letter is not None
        else build.fresh(path)
    )
    edge = body.nested("edge")
    edge_kind = edge.get("kind", str)
    if edge_kind == "cyclic_power":
        hnn_edge = hnn.CyclicPowerEdge(edge.get("domain_power", int), edge.get("range_power", int))
    elif edge_kind == "finite":
        table = _parse_table(edge)
        hnn_edge = hnn.FiniteHnnEdge(
            table,
            _embed_words(base, edge, "embed_domain"),
            _embed_words(base, edge, "embed_range"),
            edge.array("iso", _LIST, int, None),
        )
    else:
        raise DescriptorError(f"{edge.path}.kind", f"unknown edge kind {edge_kind!r}")
    edge.finish()
    return hnn.Hnn(base, hnn_edge, stable_letter=letter)


def _semidirect(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    group = semidirect.SemidirectZnByZ(body.get("rank", int), body.array("matrix", _ROWS))
    build.claim_all(group, path)
    return group


def _direct_with_finite(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    h = body.construction("h", build)
    f = body.nested("f")
    table = _parse_table(f)
    f.finish()
    for name in table.names[1:]:
        build.claim(name, path)
    return direct_product.DirectWithFinite(h, table)


def _surface(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    group = surface.SurfaceGroup(
        body.get("genus", int), body.get("orientable", bool), body.get("boundary_components", int)
    )
    build.claim_all(group, path)
    return group


def _eisenstein(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    shape = (
        None,
        (2, "expected 2 rows"),
        (2, "expected 2 entries"),
        (2, "expected [a, b] for a + b*w"),
    )
    generators = body.array("generators", shape)
    names = body.array("names", _LIST, str, None)
    for name in names or ():
        build.claim(name, path)
    group = eisenstein.MatrixGroupSL2Eisenstein(generators, names)
    if names is None:
        build.claim_all(group, path)
    return group


def _figure_eight(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    group = eisenstein.figure8_group()
    build.claim_all(group, path)
    return group


_CONSTRUCTIONS = {
    "cyclic": _cyclic,
    "infinite_cyclic": _infinite_cyclic,
    "free_product": _free_product,
    "amalgam": _amalgam,
    "hnn": _hnn,
    "semidirect_zn_by_z": _semidirect,
    "direct_with_finite": _direct_with_finite,
    "surface_group": _surface,
    "matrix_group_sl2_eisenstein": _eisenstein,
    "figure_eight_matrix_group": _figure_eight,
}


def _parse_construction(data, path: str, build: _GroupBuild) -> StructuredGroup:
    build.constructions += 1
    if build.constructions > MAX_CONSTRUCTIONS:
        raise DescriptorError(
            path, f"more than {MAX_CONSTRUCTIONS} constructions in one descriptor"
        )
    fields = _Fields(data, path)
    keys = [k for k in _CONSTRUCTIONS if k in fields.data]
    if len(keys) != 1:
        raise DescriptorError(
            path, f"expected exactly one construction key, found {keys or sorted(fields.data)}"
        )
    kind = keys[0]
    body = fields if kind in ("cyclic", "free_product") else fields.nested(kind)
    group = _at(path, _CONSTRUCTIONS[kind], body, path, build)
    body.finish()
    if body is not fields:
        fields.finish()
    return group


# ---------------------------------------------------------------------------
# manifold / knot / link parsing

_PI1_FLAGS = ("normal_cyclic_infinite_subgroup", "contains_nonstandard_p2xi", "seifert_mod_p")


def _seifert(fields: _Fields) -> manifolds.PrimePiece:
    return manifolds.SeifertPiece(
        manifolds.SeifertInvariants(
            fields.get("base_genus", int),
            fields.get("base_orientable", bool),
            fields.get("boundary_components", int),
            fields.array("exceptional_fibers", (None, (2, "expected [alpha, beta]")), int, ()),
            fields.get("euler_obstruction", int, None),
        )
    )


def _other_irreducible(fields: _Fields) -> manifolds.PrimePiece:
    order = INFINITE if fields.get("pi1_order") == "infinite" else fields.get("pi1_order", int)
    return manifolds.OtherIrreduciblePiece(
        order, *(fields.get(key, bool, None) for key in _PI1_FLAGS)
    )


_PIECES = {
    "seifert": _seifert,
    "hyperbolic": lambda fields: manifolds.HyperbolicPiece(fields.get("finite_volume", bool, True)),
    "torus_bundle": lambda fields: manifolds.TorusBundlePiece(fields.array("monodromy", _ROWS)),
    "sphere_bundle": lambda fields: manifolds.SphereBundlePiece(
        fields.get("orientable_bundle", bool)
    ),
    "homotopy_sphere": lambda fields: manifolds.HomotopySpherePiece(),
    "other_irreducible": _other_irreducible,
}


def _parse_piece(data, path: str) -> manifolds.PrimePiece:
    fields = _Fields(data, path)
    kind = fields.get("kind", str)
    parse = _PIECES.get(kind)
    if parse is None:
        raise DescriptorError(f"{path}.kind", f"unknown piece kind {kind!r}")
    piece = _at(path, parse, fields)
    fields.finish()
    return piece


def _parse_manifold(fields: _Fields) -> manifolds.ManifoldDescriptor:
    orientable = fields.get("orientable", bool)
    pieces = tuple(
        _parse_piece(p, f"{fields.path}.pieces[{i}]")
        for i, p in enumerate(fields.get("pieces", list))
    )
    capped = fields.get("boundary_spheres_capped", bool, False)
    return manifolds.ManifoldDescriptor(orientable, pieces, capped)


def _parse_knot(fields: _Fields) -> manifolds.KnotDescriptor:
    if "torus" in fields.data:
        return manifolds.TorusKnot(*fields.array("torus", ((2, "expected [p, q]"),)))
    if "hyperbolic" in fields.data:
        if not fields.get("hyperbolic", bool):
            raise DescriptorError(f"{fields.path}.hyperbolic", "must be true when present")
        return manifolds.HyperbolicKnot()
    if "other" in fields.data:
        body = fields.nested("other")
        knot = manifolds.OtherKnot(body.get("is_torus", bool))
        body.finish()
        return knot
    raise DescriptorError(fields.path, "knot needs one of: torus, hyperbolic, other")


def _parse_link(fields: _Fields) -> manifolds.LinkDescriptor:
    components = fields.get("components", int)
    return manifolds.LinkDescriptor(components, fields.get("is_seifert_fiber_union", bool, None))


_TOP_LEVEL = {"manifold": _parse_manifold, "knot": _parse_knot, "link": _parse_link}


def parse_descriptor_data(data) -> Descriptor:
    fields = _Fields(data, "$")
    version = fields.get("schema_version", int)
    if version != SCHEMA_VERSION:
        raise DescriptorError("$.schema_version", f"unsupported schema version {version}")
    kind = fields.get("type", str)
    if kind == "group":
        construction = fields.get("construction")
        fields.finish()
        group = _parse_construction(construction, "$.construction", _GroupBuild(construction))
        return Descriptor(kind, group=group)
    parse = _TOP_LEVEL.get(kind)
    if parse is None:
        raise DescriptorError("$.type", f"unknown descriptor type {kind!r}")
    value = _at("$", parse, fields)
    fields.finish()
    return Descriptor(kind, **{kind: value})


def load_descriptor(path: str) -> Descriptor:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DescriptorError(
                f"{path}:{exc.lineno}:{exc.colno}", f"invalid JSON: {exc.msg}"
            ) from None
        except RecursionError:
            raise DescriptorError(path, "invalid JSON: nested too deeply") from None
        except UnicodeDecodeError as exc:
            raise DescriptorError(
                path, f"not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None
    return parse_descriptor_data(data)

