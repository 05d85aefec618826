"""The group-construction half of the descriptor parser.

parse_group reads the "construction" of a "type": "group" descriptor into a
StructuredGroup.  iccdec.descriptors reaches this module through the package
only for a group descriptor, so a manifold, knot or link call never executes
it; field access, JSON paths and limits are those of iccdec.descriptors.
"""

from __future__ import annotations

from typing import Optional

import iccdec

from . import groups
from .descriptors import (
    MAX_CONSTRUCTIONS,
    MAX_TABLE_ORDER,
    _ROWS,
    DescriptorError,
    _at,
    _Fields,
    _surface_count,
    parse_word,
)
from .groups.base import FiniteGroupTable, GroupUsageError, StructuredGroup
from .groups.cyclic import FiniteCyclic, InfiniteCyclic

_LIST = (None,)
_DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"


class _Reserve(Exception):
    """A construction fixes for itself a name that a default already holds:
    parse again with the name reserved.  Not a GroupUsageError, which _at
    would report as an error.  Its one argument is the name."""


class _GroupBuild:
    """What the constructions of one group descriptor share: the generator
    names claimed so far (each marked True when it is a default), the names
    no default may take, the number of constructions parsed, and the first
    error of a group over an edge (see hold)."""

    def __init__(self, reserved: set[str]):
        self.used: dict[str, bool] = {}
        self.reserved = reserved
        self.cursor = 0
        self.constructions = 0
        self.error: Optional[DescriptorError] = None

    def claim(self, name: str, path: str) -> str:
        if name in self.used:
            raise DescriptorError(path, f"generator name {name!r} is not unique")
        self.used[name] = False
        return name

    def claim_all(self, group: StructuredGroup, path: str) -> None:
        """Claim the names that the group fixes for itself; one that a
        default holds is reserved, and the descriptor parsed again."""
        for name in group.generator_names():
            if self.used.get(name):
                raise _Reserve(name)
            self.claim(name, path)

    def name(self, fields: _Fields, key: str, path: str, preferred: Optional[str] = None) -> str:
        """The name the file gives at key, claimed; else a default name:
        preferred if it is free, else the next free one of _DEFAULT_NAMES."""
        name = fields.get(key, str, None)
        if name is not None:
            return self.claim(name, f"{fields.path}.{key}")
        name = preferred
        while name is None or name in self.used or name in self.reserved:
            if self.cursor == len(_DEFAULT_NAMES):
                raise DescriptorError(
                    path, "ran out of default generator names; name them explicitly"
                )
            name = _DEFAULT_NAMES[self.cursor]
            self.cursor += 1
        self.used[name] = True
        return name

    def hold(self, path: str, error: ValueError, group: StructuredGroup) -> StructuredGroup:
        """group, in place of a group over an edge that failed with error.  The
        edge's words read the names claimed so far, and a construction parsed
        later may still take a default name that one reads; so the first such
        error is raised when the parse ends, unless a re-parse comes first."""
        if self.error is None:
            described = isinstance(error, DescriptorError)
            self.error = error if described else DescriptorError(path, str(error))
        return group


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


def _construction(fields: _Fields, key: str, build: _GroupBuild) -> StructuredGroup:
    return _parse_construction(fields.get(key), f"{fields.path}.{key}", build)


def _embed_words(group: StructuredGroup, fields: _Fields, key: str) -> list:
    path = f"{fields.path}.{key}"
    return [
        _at(f"{path}[{i}]", _word_payload, group, text)
        for i, text in enumerate(fields.array(key, _LIST, str))
    ]


def _word_payload(group: StructuredGroup, text: str):
    return group.reduce_letters(parse_word(text)).payload


# Each builder reads the fields of one construction and returns its group.
# The fields of "cyclic" and "free_product" sit beside the construction key;
# every other construction nests them in an object under its key.


def _cyclic(fields: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    order = fields.get("cyclic", int)
    return FiniteCyclic(order, build.name(fields, "name", path))


def _infinite_cyclic(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    return InfiniteCyclic(build.name(body, "name", path))


def _free_product(fields: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    factors = fields.get("free_product", list)
    if len(factors) < 2:
        raise DescriptorError(f"{path}.free_product", "needs at least two factors")
    return groups.free_product.FreeProduct(
        *(_parse_construction(f, f"{path}.free_product[{i}]", build) for i, f in enumerate(factors))
    )


def _amalgam(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    left = _construction(body, "left", build)
    right = _construction(body, "right", build)
    try:
        edge = body.nested("edge")
        table = _parse_table(edge)
        embed_left = _embed_words(left, edge, "embed_left")
        embed_right = _embed_words(right, edge, "embed_right")
        edge.finish()
        return groups.amalgam.Amalgam(
            left, right, groups.amalgam.AmalgamEdge(table, embed_left, embed_right)
        )
    except (DescriptorError, GroupUsageError) as exc:
        return build.hold(path, exc, left)


def _hnn(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    base = _construction(body, "base", build)
    letter = build.name(body, "stable_letter", path, "t")
    try:
        edge = body.nested("edge")
        edge_kind = edge.get("kind", str)
        if edge_kind == "cyclic_power":
            hnn_edge = groups.hnn.CyclicPowerEdge(
                edge.get("domain_power", int), edge.get("range_power", int)
            )
        elif edge_kind == "finite":
            table = _parse_table(edge)
            hnn_edge = groups.hnn.FiniteHnnEdge(
                table,
                _embed_words(base, edge, "embed_domain"),
                _embed_words(base, edge, "embed_range"),
                edge.array("iso", _LIST, int, None),
            )
        else:
            raise DescriptorError(f"{edge.path}.kind", f"unknown edge kind {edge_kind!r}")
        edge.finish()
        return groups.hnn.Hnn(base, hnn_edge, stable_letter=letter)
    except (DescriptorError, GroupUsageError) as exc:
        return build.hold(path, exc, base)


def _semidirect(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    group = groups.semidirect.SemidirectZnByZ(body.get("rank", int), body.array("matrix", _ROWS))
    build.claim_all(group, path)
    return group


def _direct_with_finite(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    h = _construction(body, "h", build)
    f = body.nested("f")
    table = _parse_table(f)
    f.finish()
    for name in table.names[1:]:
        build.claim(name, path)
    return groups.direct_product.DirectWithFinite(h, table)


def _surface(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    group = groups.surface.SurfaceGroup(
        _surface_count(body, "genus"),
        body.get("orientable", bool),
        _surface_count(body, "boundary_components"),
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
    group = iccdec.eisenstein.MatrixGroupSL2Eisenstein(generators, names)
    if names is None:
        build.claim_all(group, path)
    return group


def _figure_eight(body: _Fields, path: str, build: _GroupBuild) -> StructuredGroup:
    group = iccdec.eisenstein.figure8_group()
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


def parse_group(construction) -> StructuredGroup:
    """The group of a group descriptor's "construction" field, at
    $.construction."""
    reserved: set[str] = set()
    while True:
        build = _GroupBuild(reserved)
        try:
            group = _parse_construction(construction, "$.construction", build)
        except _Reserve as signal:
            # a reserved name is never a default again: each parse reserves a new one
            reserved.add(signal.args[0])
            continue
        except DescriptorError as exc:
            raise build.error or exc from None  # an edge's error came first
        if build.error is not None:
            raise build.error
        return group
