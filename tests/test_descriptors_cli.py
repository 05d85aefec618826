"""Descriptor files and the command-line interface."""

import json

import pytest

from iccdec import descriptors
from iccdec.cli import main
from iccdec.descriptors import (
    MAX_CONSTRUCTIONS,
    DescriptorError,
    descriptor_to_data,
    format_word,
    load_descriptor,
    parse_descriptor_data,
    parse_word,
)
from iccdec.groups import GroupUsageError
from conftest import load_corpus_descriptor


# ---------------------------------------------------------------------------
# word syntax


def test_word_syntax():
    assert parse_word("a b' a^2") == [("a", 1), ("b", -1), ("a", 2)]
    assert parse_word("t'^3 x^-2") == [("t", -3), ("x", -2)]
    assert parse_word("1") == []
    assert parse_word("") == []
    assert format_word([("a", 1), ("b", -1), ("a", 2)]) == "a b' a^2"
    with pytest.raises(GroupUsageError):
        parse_word("a^b")
    with pytest.raises(GroupUsageError):
        parse_word("2x")


# ---------------------------------------------------------------------------
# schema strictness


def test_schema_version_required():
    with pytest.raises(DescriptorError):
        parse_descriptor_data({"type": "knot", "torus": [2, 3]})
    with pytest.raises(DescriptorError):
        parse_descriptor_data({"schema_version": 2, "type": "knot", "torus": [2, 3]})


def test_unknown_fields_rejected():
    with pytest.raises(DescriptorError) as err:
        parse_descriptor_data(
            {"schema_version": 1, "type": "knot", "torus": [2, 3], "color": "red"}
        )
    assert "color" in str(err.value)


def test_floats_rejected():
    with pytest.raises(DescriptorError) as err:
        parse_descriptor_data(
            {"schema_version": 1, "type": "group", "construction": {"cyclic": 2.0}}
        )
    assert "exact integer" in str(err.value)


def test_error_paths_annotated():
    with pytest.raises(DescriptorError) as err:
        parse_descriptor_data(
            {
                "schema_version": 1,
                "type": "manifold",
                "orientable": True,
                "pieces": [{"kind": "torus_bundle", "monodromy": [[2, 0], [0, 1]]}],
            }
        )
    assert "$.pieces[0]" in str(err.value)


def test_duplicate_generator_names_rejected():
    with pytest.raises(DescriptorError):
        parse_descriptor_data(
            {
                "schema_version": 1,
                "type": "group",
                "construction": {
                    "free_product": [
                        {"cyclic": 2, "name": "a"},
                        {"cyclic": 3, "name": "a"},
                    ]
                },
            }
        )


def test_default_names_assigned_in_leaf_order():
    descriptor = parse_descriptor_data(
        {
            "schema_version": 1,
            "type": "group",
            "construction": {"free_product": [{"cyclic": 2}, {"cyclic": 2}]},
        }
    )
    assert [n for n, _ in descriptor.group.generator_payloads()] == ["a", "b"]


def test_round_trip_whole_corpus(corpus_dir, manifest):
    from iccdec.cli import _decide

    for section in ("groups", "manifolds", "knots_links"):
        for entry in manifest[section]:
            descriptor = load_corpus_descriptor(corpus_dir, entry["file"])
            data = descriptor_to_data(descriptor)
            reparsed = parse_descriptor_data(data)
            assert descriptor_to_data(reparsed) == data, entry["file"]
            assert _decide(reparsed).status == _decide(descriptor).status


def _seifert_piece(**fields):
    return {
        "schema_version": 1,
        "type": "manifold",
        "orientable": True,
        "pieces": [
            {
                "kind": "seifert",
                "base_genus": 0,
                "base_orientable": True,
                "boundary_components": 0,
                "euler_obstruction": 1,
                **fields,
            }
        ],
    }


@pytest.mark.parametrize("value", [0, False, {}, ""])
def test_exceptional_fibers_must_be_an_array(value):
    with pytest.raises(DescriptorError) as err:
        parse_descriptor_data(_seifert_piece(exceptional_fibers=value))
    assert str(err.value).startswith("$.pieces[0].exceptional_fibers: expected an array")


def test_null_optional_field_means_absent():
    absent = parse_descriptor_data(_seifert_piece())
    assert parse_descriptor_data(_seifert_piece(exceptional_fibers=None)) == absent
    assert absent.manifold.pieces[0].invariants.exceptional_fibers == ()


def test_eisenstein_name_errors_carry_the_construction_path():
    generator = [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]
    with pytest.raises(DescriptorError) as err:
        parse_descriptor_data(
            {
                "schema_version": 1,
                "type": "group",
                "construction": {
                    "matrix_group_sl2_eisenstein": {"generators": [generator], "names": [7]}
                },
            }
        )
    assert str(err.value) == (
        "$.construction.matrix_group_sl2_eisenstein.names[0]: expected a string"
    )


def test_bad_embed_word_token_reported_at_the_word(corpus_dir, tmp_path, capsys):
    raw = json.loads((corpus_dir / "group_psl2z_amalgam.json").read_text())
    raw["construction"]["amalgam"]["edge"]["embed_left"][1] = "p^"
    path = tmp_path / "bad_embed.json"
    path.write_text(json.dumps(raw))
    assert main(["decide", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: $.construction.amalgam.edge.embed_left[1]: "
        "bad word token 'p^': expected NAME, NAME', or NAME^k\n"
    )


# ---------------------------------------------------------------------------
# construction limit


def _flat_free_product(factors):
    construction = {"free_product": [{"cyclic": 2, "name": f"g{i}"} for i in range(factors)]}
    return {"schema_version": 1, "type": "group", "construction": construction}


def _nested_free_product(depth):
    construction = {"cyclic": 2, "name": "g0"}
    for i in range(depth):
        construction = {"free_product": [construction, {"cyclic": 2, "name": f"g{i + 1}"}]}
    return {"schema_version": 1, "type": "group", "construction": construction}


def test_construction_limit_admits_64(tmp_path, capsys):
    # the free product plus 63 factors: 64 constructions
    data = _flat_free_product(MAX_CONSTRUCTIONS - 1)
    assert len(parse_descriptor_data(data).group.generator_payloads()) == 63
    path = tmp_path / "limit.json"
    path.write_text(json.dumps(data))
    assert main(["decide", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ICC"
    enumerate_args = ["--element", "g0", "--radius", "2", "--window", "1", "--json"]
    assert main(["enumerate", str(path), *enumerate_args]) == 0
    assert json.loads(capsys.readouterr().out)["counts_by_radius"] == [1, 63, 3907]


@pytest.mark.parametrize(
    "data, path",
    [
        (_flat_free_product(MAX_CONSTRUCTIONS), "$.construction.free_product[63]"),
        (_flat_free_product(2000), "$.construction.free_product[63]"),
        (_nested_free_product(600), "$.construction" + ".free_product[0]" * 64),
    ],
    ids=["65", "2000 factors", "600 deep"],
)
def test_construction_limit_rejects_before_building(monkeypatch, data, path):
    def build(*factors):
        raise AssertionError("a group was built")

    monkeypatch.setattr(descriptors, "FreeProduct", build)
    with pytest.raises(DescriptorError) as err:
        parse_descriptor_data(data)
    assert err.value.path == path
    assert "more than 64 constructions" in str(err.value)


def test_cli_rejects_deep_nesting_with_one_line(tmp_path, capsys):
    text = '{"cyclic": 2, "name": "g0"}'
    for i in range(600):
        text = f'{{"free_product": [{text}, {{"cyclic": 2, "name": "g{i + 1}"}}]}}'
    path = tmp_path / "deep.json"
    path.write_text(f'{{"schema_version": 1, "type": "group", "construction": {text}}}')
    assert main(["decide", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# CLI


def corpus_path(corpus_dir, name):
    return str(corpus_dir / name)


def test_cli_decide_knot(tmp_path, capsys):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps({"schema_version": 1, "type": "knot", "torus": [2, 3]}))
    code = main(["decide", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "NotICC" in out and "Cor 20" in out and "x^2" in out


def test_cli_decide_dihedral_group(corpus_dir, capsys):
    code = main(["decide", corpus_path(corpus_dir, "group_dihedral_infinite.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "NotICC" in out and "Infinite dihedral" in out


def test_cli_decide_torus_bundle(corpus_dir, capsys):
    code = main(["decide", corpus_path(corpus_dir, "manifold_torus_bundle_hyperbolic.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "ICC" in out and "Lemma 10" in out and "hyperbolic" in out


def test_cli_unknown_exit_code(corpus_dir, capsys):
    code = main(["decide", corpus_path(corpus_dir, "group_psl2z_amalgam.json")])
    assert code == 2
    assert "Unknown" in capsys.readouterr().out


def test_cli_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decide", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["decide", str(tmp_path / "missing.json")]) == 1


def test_cli_json_deterministic(corpus_dir, capsys):
    path = corpus_path(corpus_dir, "manifold_trefoil_complement.json")
    main(["decide", path, "--json"])
    first = capsys.readouterr().out
    main(["decide", path, "--json"])
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["status"] == "NotICC"
    assert data["witness"]["element"] == "h"


def test_cli_enumerate_dihedral(corpus_dir, capsys):
    code = main([
        "enumerate",
        corpus_path(corpus_dir, "group_dihedral_infinite.json"),
        "--element", "a b", "--radius", "6",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1, 2, 2, 2, 2, 2, 2]" in out
    assert "stabilized: True" in out


def test_cli_enumerate_trefoil_central(tmp_path, capsys):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps({"schema_version": 1, "type": "knot", "torus": [2, 3]}))
    code = main(["enumerate", str(path), "--element", "x x", "--radius", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "central (symbolically verified" in out
    assert "[1, 1, 1, 1, 1, 1, 1]" in out


def test_cli_enumerate_free_group_growth(corpus_dir, capsys):
    code = main([
        "enumerate",
        corpus_path(corpus_dir, "group_free_rank2.json"),
        "--element", "x", "--radius", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "stabilized: False" in out


def test_cli_witness_f2(corpus_dir, capsys):
    code = main([
        "witness",
        corpus_path(corpus_dir, "group_free_rank2.json"),
        "--set", "x", "--length", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified sequence of length 3" in out


def test_cli_witness_exhaustion(corpus_dir, capsys):
    code = main([
        "witness",
        corpus_path(corpus_dir, "group_dihedral_infinite.json"),
        "--set", "a b", "--length", "3", "--radius", "8",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "exhausted" in out


def test_cli_witness_figure_eight(corpus_dir, capsys):
    code = main([
        "witness",
        corpus_path(corpus_dir, "group_figure_eight_matrix.json"),
        "--set", "A", "--length", "5", "--radius", "6",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified sequence of length 5" in out


def test_cli_witness_closed_orbit_stops_early(corpus_dir, capsys):
    # the class of the central z is {z}: the search stops once level 1 adds
    # no conjugate; without that stop it enumerates the radius-14 ball
    code = main([
        "witness",
        corpus_path(corpus_dir, "group_f2_x_z2.json"),
        "--set", "z", "--length", "3", "--radius", "14", "--json",
    ])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["gammas"] == ["(1, 1)"]  # the identity of F2 x Z/2
    assert data["verified"] is False
    assert data["used_radius"] == 0
    assert data["search_radius"] == 14


def test_cli_explain(corpus_dir, capsys):
    code = main(["explain", corpus_path(corpus_dir, "manifold_trefoil_complement.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "Poincare variety" in out
    assert "presentation" in out
    assert "cited statements:" in out


def test_cli_explain_all_sphere_manifold_drops_the_piece(corpus_dir, capsys):
    # the substituted trivial piece equals the dropped one by value, so the
    # drop must be counted by piece kind
    code = main(["explain", corpus_path(corpus_dir, "manifold_homotopy_sphere.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "dropped 1 homotopy-sphere piece(s)" in out
    assert "no homotopy-sphere pieces to drop" not in out


def test_cli_enumerate_large_monodromy_power(corpus_dir, capsys):
    # phi^3000 once overflowed the recursion limit
    code = main([
        "enumerate",
        corpus_path(corpus_dir, "group_torus_bundle_hyperbolic.json"),
        "--element", "t^3000",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "canonical form ((0, 0), 3000)" in out
    assert "counts_by_radius: [1, 5, 17, 45, 101, 225, 489]" in out


def test_cli_enumerate_bad_element(corpus_dir, capsys):
    code = main([
        "enumerate",
        corpus_path(corpus_dir, "group_dihedral_infinite.json"),
        "--element", "nope",
    ])
    assert code == 1
    assert "unknown generator" in capsys.readouterr().err


def test_cli_enumerate_link_rejected(corpus_dir, capsys):
    code = main([
        "enumerate",
        corpus_path(corpus_dir, "link_hopf.json"),
        "--element", "a",
    ])
    assert code == 1


def test_corpus_validates_against_shipped_schema(corpus_dir, manifest):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    schema = json.loads(
        (resources.files("iccdec") / "schema" / "descriptor_v1.json").read_text()
    )
    jsonschema.Draft7Validator.check_schema(schema)
    validator = jsonschema.Draft7Validator(schema)
    for section in ("groups", "manifolds", "knots_links"):
        for entry in manifest[section]:
            data = json.loads((corpus_dir / entry["file"]).read_text())
            errors = list(validator.iter_errors(data))
            assert not errors, (entry["file"], [e.message for e in errors])
