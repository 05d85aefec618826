"""Descriptor files: strict JSON parsing and validation.

Schema version 1.  Top level: {"schema_version": 1, "type": ..., ...} with
type one of "group", "manifold", "knot", "link".  Unknown fields are
rejected; all numbers must be exact integers; null in an optional field
means the field is absent.  A group descriptor holds at most
MAX_CONSTRUCTIONS constructions, a multiplication table at most
MAX_TABLE_ORDER elements, and a surface (a surface group, or the base of a
Seifert piece) genus and boundary count at most MAX_SURFACE_COUNT each.
Error messages carry the JSON path of the offending value.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Optional

import iccdec

from .groups.base import INFINITE, GroupUsageError, Letter, Record, StructuredGroup

SCHEMA_VERSION = 1
# Nested constructions are parsed recursively.  A flat free_product checks
# its names once, but each FreeProduct of a nested chain checks every name of
# the chain below it, so a chain's parse cost grows faster than linearly.
MAX_CONSTRUCTIONS = 64
# FiniteGroupTable checks associativity in O(order^3) steps, so a table's
# order is checked against this before any row is read.
MAX_TABLE_ORDER = 64
# A surface's genus and its boundary count each become as many generators,
# relators or factors, so each is checked against this before anything is built.
MAX_SURFACE_COUNT = 64


class DescriptorError(ValueError):
    """A parse or schema violation, annotated with its JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class Descriptor(Record):
    kind: str  # "group" | "manifold" | "knot" | "link"
    group: Optional[StructuredGroup] = None
    manifold: Optional[iccdec.manifolds.ManifoldDescriptor] = None
    knot: Optional[iccdec.manifolds.KnotDescriptor] = None
    link: Optional[iccdec.manifolds.LinkDescriptor] = None


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
        exponent = 1 if power is None else _exponent(name, power)
        if inverse:
            exponent = -exponent
        if exponent:
            letters.append((name, exponent))
    return letters


def _exponent(name: str, power: str) -> int:
    """int(power), or a GroupUsageError when it has more digits than Python
    converts from a string (no check when that limit is 0)."""
    limit = sys.get_int_max_str_digits()
    if limit and len(power.lstrip("-")) > limit:
        raise GroupUsageError(f"exponent of {name!r} has more than {limit} digits")
    return int(power)


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

    def finish(self):
        unknown = set(self.data) - self.used
        if unknown:
            raise DescriptorError(
                self.path, f"unknown field(s) {sorted(unknown)!r} rejected"
            )


_ROWS = (None, None)


def _surface_count(fields: _Fields, key: str) -> int:
    """A genus or boundary count, checked against MAX_SURFACE_COUNT."""
    value = fields.get(key, int)
    if value > MAX_SURFACE_COUNT:
        what = "genus at most {}" if key.endswith("genus") else "at most {} boundary components"
        raise DescriptorError(
            f"{fields.path}.{key}", f"a surface has {what.format(MAX_SURFACE_COUNT)}, not {value}"
        )
    return value


# ---------------------------------------------------------------------------
# manifold / knot / link parsing

_PI1_FLAGS = ("normal_cyclic_infinite_subgroup", "contains_nonstandard_p2xi", "seifert_mod_p")


def _seifert(fields: _Fields) -> iccdec.manifolds.PrimePiece:
    return iccdec.manifolds.SeifertPiece(
        iccdec.manifolds.SeifertInvariants(
            _surface_count(fields, "base_genus"),
            fields.get("base_orientable", bool),
            _surface_count(fields, "boundary_components"),
            fields.array("exceptional_fibers", (None, (2, "expected [alpha, beta]")), int, ()),
            fields.get("euler_obstruction", int, None),
        )
    )


def _other_irreducible(fields: _Fields) -> iccdec.manifolds.PrimePiece:
    order = INFINITE if fields.get("pi1_order") == "infinite" else fields.get("pi1_order", int)
    return iccdec.manifolds.OtherIrreduciblePiece(
        order, *(fields.get(key, bool, None) for key in _PI1_FLAGS)
    )


_PIECES = {
    "seifert": _seifert,
    "hyperbolic": lambda fields: iccdec.manifolds.HyperbolicPiece(
        fields.get("finite_volume", bool, True)
    ),
    "torus_bundle": lambda fields: iccdec.manifolds.TorusBundlePiece(
        fields.array("monodromy", _ROWS)
    ),
    "sphere_bundle": lambda fields: iccdec.manifolds.SphereBundlePiece(
        fields.get("orientable_bundle", bool)
    ),
    "homotopy_sphere": lambda fields: iccdec.manifolds.HomotopySpherePiece(),
    "other_irreducible": _other_irreducible,
}


def _parse_piece(data, path: str) -> iccdec.manifolds.PrimePiece:
    fields = _Fields(data, path)
    kind = fields.get("kind", str)
    parse = _PIECES.get(kind)
    if parse is None:
        raise DescriptorError(f"{path}.kind", f"unknown piece kind {kind!r}")
    piece = _at(path, parse, fields)
    fields.finish()
    return piece


def _parse_manifold(fields: _Fields) -> iccdec.manifolds.ManifoldDescriptor:
    orientable = fields.get("orientable", bool)
    pieces = tuple(
        _parse_piece(p, f"{fields.path}.pieces[{i}]")
        for i, p in enumerate(fields.get("pieces", list))
    )
    capped = fields.get("boundary_spheres_capped", bool, False)
    return iccdec.manifolds.ManifoldDescriptor(orientable, pieces, capped)


def _parse_knot(fields: _Fields) -> iccdec.manifolds.KnotDescriptor:
    if "torus" in fields.data:
        return iccdec.manifolds.TorusKnot(*fields.array("torus", ((2, "expected [p, q]"),)))
    if "hyperbolic" in fields.data:
        if not fields.get("hyperbolic", bool):
            raise DescriptorError(f"{fields.path}.hyperbolic", "must be true when present")
        return iccdec.manifolds.HyperbolicKnot()
    if "other" in fields.data:
        body = fields.nested("other")
        knot = iccdec.manifolds.OtherKnot(body.get("is_torus", bool))
        body.finish()
        return knot
    raise DescriptorError(fields.path, "knot needs one of: torus, hyperbolic, other")


def _parse_link(fields: _Fields) -> iccdec.manifolds.LinkDescriptor:
    components = fields.get("components", int)
    fibered = fields.get("is_seifert_fiber_union", bool, None)
    return iccdec.manifolds.LinkDescriptor(components, fibered)


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
        return Descriptor(kind, group=iccdec.constructions.parse_group(construction))
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
        except ValueError:  # an integer past the int-string conversion limit
            limit = sys.get_int_max_str_digits()
            raise DescriptorError(
                path, f"invalid JSON: an integer has more than {limit} digits"
            ) from None
    return parse_descriptor_data(data)

