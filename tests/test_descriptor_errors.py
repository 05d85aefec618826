"""The parser's error text at each site, pinned.

One malformed document per parser site: each construction and piece kind,
the three knot forms, links, tables, words, matrices and names.  The full
error text is pinned, JSON path included.
"""

import json
import sys

import pytest

from iccdec.cli import main
from iccdec.descriptors import DescriptorError, parse_descriptor_data


def group(construction):
    return {"schema_version": 1, "type": "group", "construction": construction}


def manifold(piece, **extra):
    return {
        "schema_version": 1, "type": "manifold", "orientable": True, "pieces": [piece], **extra
    }


def knot(**fields):
    return {"schema_version": 1, "type": "knot", **fields}


def link(**fields):
    return {"schema_version": 1, "type": "link", **fields}


Z2 = {"order": 2, "table": [[0, 1], [1, 0]]}
C2 = {"cyclic": 2, "name": "a"}
C4 = {"cyclic": 4, "name": "b"}


def amalgam(**edge):
    edge = {**Z2, "embed_left": ["1", "a"], "embed_right": ["1", "b^2"], **edge}
    return group({"amalgam": {"left": C2, "right": C4, "edge": edge}})


Z = {"infinite_cyclic": {}}


def hnn_power(m, n, base=Z, **body):
    edge = {"kind": "cyclic_power", "domain_power": m, "range_power": n}
    return group({"hnn": {"base": base, "edge": edge, **body}})


def hnn_finite(**edge):
    f = {**Z2, "names": ["1", "z"]}
    base = {"direct_with_finite": {"h": {"infinite_cyclic": {"name": "x"}}, "f": f}}
    edge = {"kind": "finite", **Z2, "embed_domain": ["1", "z"], "embed_range": ["1", "z"], **edge}
    return group({"hnn": {"base": base, "edge": edge}})


def eisenstein(**body):
    gen = [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]
    return group({"matrix_group_sl2_eisenstein": {"generators": [gen], **body}})


def seifert(**fields):
    return manifold({
        "kind": "seifert", "base_genus": 0, "base_orientable": True,
        "boundary_components": 0, "euler_obstruction": 1, **fields,
    })


CASES = {
    "top: not an object": (
        [],
        '$: expected an object, got list',
    ),
    "top: schema version": (
        {"schema_version": 2, "type": "knot", "torus": [2, 3]},
        '$.schema_version: unsupported schema version 2',
    ),
    "top: unknown type": (
        {"schema_version": 1, "type": "orbifold"},
        "$.type: unknown descriptor type 'orbifold'",
    ),
    "construction: no key": (
        group({"name": "a"}),
        "$.construction: expected exactly one construction key, found ['name']",
    ),
    "construction: two keys": (
        group({"cyclic": 2, "infinite_cyclic": {}}),
        "$.construction: expected exactly one construction key, found ['cyclic', 'infinite_cyclic']",
    ),
    "cyclic: order": (
        group({"cyclic": "2"}),
        '$.construction.cyclic: expected an exact integer',
    ),
    "cyclic: name": (
        group({"cyclic": 2, "name": 5}),
        '$.construction.name: expected a string',
    ),
    "cyclic: model": (
        group({"cyclic": 0}),
        '$.construction: FiniteCyclic order must be an integer >= 1',
    ),
    "infinite_cyclic: body": (
        group({"infinite_cyclic": []}),
        '$.construction.infinite_cyclic: expected an object, got list',
    ),
    "infinite_cyclic: duplicate name": (
        group({"free_product": [C2, {"infinite_cyclic": {"name": "a"}}]}),
        "$.construction.free_product[1].infinite_cyclic.name: generator name 'a' is not unique",
    ),
    "free_product: one factor": (
        group({"free_product": [C2]}),
        '$.construction.free_product: needs at least two factors',
    ),
    "free_product: not an array": (
        group({"free_product": {}}),
        '$.construction.free_product: expected an array, got dict',
    ),
    "free_product: unknown sibling": (
        group({"free_product": [C2, C4], "name": "g"}),
        "$.construction: unknown field(s) ['name'] rejected",
    ),
    "amalgam: missing edge": (
        group({"amalgam": {"left": C2, "right": C4}}),
        "$.construction.amalgam: missing required field 'edge'",
    ),
    "amalgam: model": (
        amalgam(embed_right=["1", "b"]),
        '$.construction: edge embedding is not a homomorphism',
    ),
    "amalgam: embedding length": (
        amalgam(embed_left=["1"]),
        '$.construction: left embedding must list one image per edge element',
    ),
    "amalgam: embedding not injective": (
        amalgam(embed_right=["1", "1"]),
        '$.construction: right embedding is not injective',
    ),
    "amalgam: edge identity": (
        amalgam(embed_left=["a", "1"]),
        '$.construction: edge identity must embed to the factor identity',
    ),
    "hnn: cyclic_power model": (
        hnn_power(0, 1),
        '$.construction: domain power must be an integer >= 1',
    ),
    "hnn: unknown edge kind": (
        group({"hnn": {"base": {"infinite_cyclic": {}}, "edge": {"kind": "loop"}}}),
        "$.construction.hnn.edge.kind: unknown edge kind 'loop'",
    ),
    "hnn: duplicate stable letter": (
        hnn_power(1, 2, base={"infinite_cyclic": {"name": "t"}}, stable_letter="t"),
        "$.construction.hnn.stable_letter: generator name 't' is not unique",
    ),
    "hnn: iso entry": (
        hnn_finite(iso=[0, "1"]),
        '$.construction.hnn.edge.iso[1]: expected an exact integer',
    ),
    "hnn: embedding length": (
        hnn_finite(embed_domain=["1"]),
        '$.construction: domain embedding must list one image per edge element',
    ),
    "hnn: embedding not injective": (
        hnn_finite(embed_domain=["z", "z"]),
        '$.construction: domain embedding is not injective',
    ),
    "hnn: edge identity": (
        hnn_finite(embed_domain=["z", "1"]),
        '$.construction: edge identity must embed to the base identity',
    ),
    "hnn: iso not a permutation": (
        hnn_finite(iso=[0, 0]),
        '$.construction: iso must be a permutation of the edge indices',
    ),
    "hnn: iso not an automorphism": (
        hnn_finite(iso=[1, 0]),
        '$.construction: iso is not an automorphism of the edge group',
    ),
    "semidirect: matrix entry": (
        group({"semidirect_zn_by_z": {"rank": 2, "matrix": [[2, 1], [1.0, 1]]}}),
        '$.construction.semidirect_zn_by_z.matrix[1][0]: expected an exact integer',
    ),
    "semidirect: matrix row": (
        group({"semidirect_zn_by_z": {"rank": 2, "matrix": [[2, 1], 1]}}),
        '$.construction.semidirect_zn_by_z.matrix[1]: expected an array, got int',
    ),
    "semidirect: model": (
        group({"semidirect_zn_by_z": {"rank": 2, "matrix": [[2, 0], [0, 1]]}}),
        '$.construction: phi must have determinant +1 or -1',
    ),
    "direct_with_finite: duplicate element name": (
        group({"direct_with_finite": {"h": C2, "f": {**Z2, "names": ["1", "a"]}}}),
        "$.construction: generator name 'a' is not unique",
    ),
    "surface_group: orientable": (
        group({"surface_group": {"genus": 1, "orientable": 1, "boundary_components": 0}}),
        '$.construction.surface_group.orientable: expected a boolean',
    ),
    "figure_eight: unknown field": (
        group({"figure_eight_matrix_group": {"size": 1}}),
        "$.construction.figure_eight_matrix_group: unknown field(s) ['size'] rejected",
    ),
    "table: row count": (
        group({"direct_with_finite": {"h": C2, "f": {"order": 3, "table": [[0, 1], [1, 0]]}}}),
        '$.construction.direct_with_finite.f.table: table must have 3 rows',
    ),
    "table: entry": (
        group({"direct_with_finite": {"h": C2, "f": {"order": 2, "table": [[0, 1], [1, True]]}}}),
        '$.construction.direct_with_finite.f.table[1][1]: expected an exact integer',
    ),
    "table: name": (
        group({"direct_with_finite": {"h": C2, "f": {**Z2, "names": ["1", 2]}}}),
        '$.construction.direct_with_finite.f.names[1]: expected a string',
    ),
    "table: model": (
        group({"direct_with_finite": {"h": C2, "f": {"order": 2, "table": [[0, 1], [1, 1]]}}}),
        '$.construction.direct_with_finite.f: table rows and columns must be permutations',
    ),
    "words: not a string": (
        amalgam(embed_left=["1", 1]),
        '$.construction.amalgam.edge.embed_left[1]: expected a string',
    ),
    "words: bad token": (
        amalgam(embed_left=["1", "a^"]),
        "$.construction.amalgam.edge.embed_left[1]: bad word token 'a^': expected NAME, NAME', or NAME^k",
    ),
    "words: exponent past the digit limit": (
        amalgam(embed_left=["1", "a^" + "9" * (sys.get_int_max_str_digits() + 1)]),
        "$.construction.amalgam.edge.embed_left[1]: exponent of 'a' has more than "
        f"{sys.get_int_max_str_digits()} digits",
    ),
    "words: unknown generator": (
        amalgam(embed_left=["1", "q"]),
        "$.construction.amalgam.edge.embed_left[1]: unknown generator 'q'; this group has ['a']",
    ),
    "eisenstein: rows": (
        eisenstein(generators=[[[[1, 0], [1, 0]]]]),
        '$.construction.matrix_group_sl2_eisenstein.generators[0]: expected 2 rows',
    ),
    "eisenstein: entries": (
        eisenstein(generators=[[[[1, 0]], [[0, 0], [1, 0]]]]),
        '$.construction.matrix_group_sl2_eisenstein.generators[0][0]: expected 2 entries',
    ),
    "eisenstein: cell": (
        eisenstein(generators=[[[[1, 0, 0], [1, 0]], [[0, 0], [1, 0]]]]),
        '$.construction.matrix_group_sl2_eisenstein.generators[0][0][0]: expected [a, b] for a + b*w',
    ),
    "eisenstein: cell entry": (
        eisenstein(generators=[[[[1, 0], [1, "0"]], [[0, 0], [1, 0]]]]),
        '$.construction.matrix_group_sl2_eisenstein.generators[0][0][1][1]: expected an exact integer',
    ),
    "eisenstein: model": (
        eisenstein(generators=[[[[2, 0], [0, 0]], [[0, 0], [1, 0]]]]),
        '$.construction: every generator must have determinant 1',
    ),
    "seifert: fiber pair": (
        seifert(exceptional_fibers=[[2]]),
        '$.pieces[0].exceptional_fibers[0]: expected [alpha, beta]',
    ),
    "seifert: fiber entry": (
        seifert(exceptional_fibers=[[2, None]]),
        '$.pieces[0].exceptional_fibers[0][1]: expected an exact integer',
    ),
    "seifert: euler": (
        seifert(euler_obstruction="1"),
        '$.pieces[0].euler_obstruction: expected an exact integer',
    ),
    "seifert: model": (
        seifert(exceptional_fibers=[[4, 2]]),
        '$.pieces[0]: exceptional fiber pairs must be coprime',
    ),
    "hyperbolic: finite_volume": (
        manifold({"kind": "hyperbolic", "finite_volume": "yes"}),
        '$.pieces[0].finite_volume: expected a boolean',
    ),
    "torus_bundle: monodromy entry": (
        manifold({"kind": "torus_bundle", "monodromy": [[2, 1], [1, "1"]]}),
        '$.pieces[0].monodromy[1][1]: expected an exact integer',
    ),
    "torus_bundle: model": (
        manifold({"kind": "torus_bundle", "monodromy": [[2, 0], [0, 1]]}),
        '$.pieces[0]: monodromy must have determinant +1 or -1',
    ),
    "sphere_bundle: missing": (
        manifold({"kind": "sphere_bundle"}),
        "$.pieces[0]: missing required field 'orientable_bundle'",
    ),
    "homotopy_sphere: unknown field": (
        manifold({"kind": "homotopy_sphere", "genus": 0}),
        "$.pieces[0]: unknown field(s) ['genus'] rejected",
    ),
    "other_irreducible: order": (
        manifold({"kind": "other_irreducible", "pi1_order": "many"}),
        '$.pieces[0].pi1_order: expected an exact integer',
    ),
    "other_irreducible: flag": (
        manifold({"kind": "other_irreducible", "pi1_order": "infinite", "seifert_mod_p": 0}),
        '$.pieces[0].seifert_mod_p: expected a boolean',
    ),
    "other_irreducible: model": (
        manifold({"kind": "other_irreducible", "pi1_order": 2, "normal_cyclic_infinite_subgroup": True}),
        '$.pieces[0]: a finite group cannot contain an infinite cyclic normal subgroup',
    ),
    "piece: unknown kind": (
        manifold({"kind": "lens"}),
        "$.pieces[0].kind: unknown piece kind 'lens'",
    ),
    "piece: not an object": (
        manifold("seifert"),
        '$.pieces[0]: expected an object, got str',
    ),
    "manifold: no pieces": (
        {"schema_version": 1, "type": "manifold", "orientable": True, "pieces": []},
        '$: a manifold descriptor needs at least one piece',
    ),
    "manifold: capped": (
        manifold({"kind": "homotopy_sphere"}, boundary_spheres_capped="no"),
        '$.boundary_spheres_capped: expected a boolean',
    ),
    "knot: torus pair": (
        knot(torus=[2]),
        '$.torus: expected [p, q]',
    ),
    "knot: torus model": (
        knot(torus=[2, 4]),
        '$: torus knot parameters must be coprime',
    ),
    "knot: hyperbolic false": (
        knot(hyperbolic=False),
        '$.hyperbolic: must be true when present',
    ),
    "knot: other": (
        knot(other={"is_torus": None}),
        '$.other.is_torus: expected a boolean',
    ),
    "knot: no form": (
        knot(),
        '$: knot needs one of: torus, hyperbolic, other',
    ),
    "link: components": (
        link(components=0),
        '$: a link has at least one component',
    ),
    "link: flag": (
        link(components=2, is_seifert_fiber_union="yes"),
        '$.is_seifert_fiber_union: expected a boolean',
    ),
}


@pytest.mark.parametrize("label", list(CASES))
def test_error_text_is_pinned(label):
    document, message = CASES[label]
    with pytest.raises(DescriptorError) as err:
        parse_descriptor_data(document)
    assert str(err.value) == message


_EDGE_ROWS = [
    "amalgam: embedding length",
    "amalgam: embedding not injective",
    "amalgam: edge identity",
    "hnn: embedding length",
    "hnn: embedding not injective",
    "hnn: edge identity",
    "hnn: iso not a permutation",
    "hnn: iso not an automorphism",
]


@pytest.mark.parametrize("label", _EDGE_ROWS)
def test_edge_error_text_through_decide(label, tmp_path, capsys):
    # the checks FiniteEdge makes for amalgams and HNN extensions alike
    document, message = CASES[label]
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(document))
    assert main(["decide", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
