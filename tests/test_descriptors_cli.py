"""Descriptor files and the command-line interface."""

import json
import sys

import pytest

from iccdec import cli, constructions, descriptors
from iccdec.cli import main
from iccdec.descriptors import (
    MAX_CONSTRUCTIONS,
    MAX_SURFACE_COUNT,
    MAX_TABLE_ORDER,
    DescriptorError,
    format_word,
    load_descriptor,
    parse_descriptor_data,
    parse_word,
)
from iccdec.groups import GroupUsageError
from iccdec.rules import decide_structured_group


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


def test_parse_is_deterministic_on_whole_corpus(corpus_dir, manifest):
    # a Descriptor is a frozen dataclass and groups compare by signature, so
    # two parses of one document are equal exactly when they build the same
    # models
    from iccdec.cli import _decide

    for section in ("groups", "manifolds", "knots_links"):
        for entry in manifest[section]:
            data = json.loads((corpus_dir / entry["file"]).read_text())
            first, second = parse_descriptor_data(data), parse_descriptor_data(data)
            assert first == second, entry["file"]
            assert _decide(first) == _decide(second), entry["file"]


def test_schema_names_the_parsers_constructions_and_pieces():
    from importlib import resources

    schema = json.loads(
        (resources.files("iccdec") / "schema" / "descriptor_v1.json").read_text()
    )
    definitions = schema["definitions"]
    construction_keys = set(definitions["construction"]["properties"]) - {"name"}
    assert construction_keys == set(constructions._CONSTRUCTIONS)
    assert set(definitions["piece"]["properties"]["kind"]["enum"]) == set(descriptors._PIECES)


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


# words with more digits than Python converts between int and str (4300 by
# default): an exponent past the limit, and a product that prints past it
_PAST_LIMIT = "9" * (sys.get_int_max_str_digits() + 700)
_AT_LIMIT = "9" * sys.get_int_max_str_digits()


def _assert_one_error_line(capsys, code, message):
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_embed_word_exponent_past_the_digit_limit_is_an_error_at_the_word(
    corpus_dir, tmp_path, capsys
):
    raw = json.loads((corpus_dir / "group_psl2z_amalgam.json").read_text())
    raw["construction"]["amalgam"]["edge"]["embed_left"][1] = f"p^{_PAST_LIMIT}"
    path = tmp_path / "big_exponent.json"
    path.write_text(json.dumps(raw))
    message = (f"$.construction.amalgam.edge.embed_left[1]: exponent of 'p' has more than "
               f"{sys.get_int_max_str_digits()} digits")
    _assert_one_error_line(capsys, main(["decide", str(path)]), message)


@pytest.mark.parametrize("command, option", [("enumerate", "--element"), ("witness", "--set")])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_cli_word_exponent_past_the_digit_limit_is_one_error_line(
    corpus_dir, capsys, command, option, json_flag
):
    path = corpus_path(corpus_dir, "group_free_rank2.json")
    code = main([command, path, option, f"x^{_PAST_LIMIT}", "--radius", "1", *json_flag])
    message = f"exponent of 'x' has more than {sys.get_int_max_str_digits()} digits"
    _assert_one_error_line(capsys, code, message)


@pytest.mark.parametrize(
    "command, extra",
    [("enumerate", ["--element", f"x^{_AT_LIMIT} x^{_AT_LIMIT}", "--window", "1"]),
     ("witness", ["--set", f"x^{_AT_LIMIT} x^{_AT_LIMIT}"])],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_cli_element_past_the_printing_limit_leaves_no_partial_report(
    corpus_dir, capsys, command, extra, json_flag
):
    # each exponent parses, but their sum has one digit more than prints
    path = corpus_path(corpus_dir, "group_free_rank2.json")
    code = main([command, path, *extra, "--radius", "1", *json_flag])
    message = (f"element has an integer of more than {sys.get_int_max_str_digits()} digits, "
               "too long to print")
    _assert_one_error_line(capsys, code, message)


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

    monkeypatch.setattr("iccdec.groups.free_product.FreeProduct", build)
    with pytest.raises(DescriptorError) as err:
        parse_descriptor_data(data)
    assert err.value.path == path
    assert "more than 64 constructions" in str(err.value)


@pytest.mark.parametrize(
    "matrix, status",
    [([[1, 1], [0, 1]], "NotICC"), ([[0, -1], [1, 0]], "NotICC"), ([[2, 1], [1, 1]], "ICC")],
    ids=["parabolic", "elliptic", "hyperbolic"],
)
def test_semidirect_names_its_generators_without_building_them(
    monkeypatch, tmp_path, capsys, matrix, status
):
    def build(self):
        raise AssertionError("generator payloads were built")

    monkeypatch.setattr("iccdec.groups.semidirect.SemidirectZnByZ.generator_payloads", build)
    data = {"schema_version": 1, "type": "group",
            "construction": {"semidirect_zn_by_z": {"rank": 2, "matrix": matrix}}}
    group = parse_descriptor_data(data).group
    assert group.generator_names() == ["e1", "e2", "t"]
    path = tmp_path / "semidirect.json"
    path.write_text(json.dumps(data))
    assert main(["decide", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"status: {status}\n")
    assert main(["explain", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == status


# ---------------------------------------------------------------------------
# table size limit


def _cyclic_rows(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _group_with_table(kind, order, rows):
    table = {"order": order, "table": rows}
    z = {"infinite_cyclic": {"name": "a"}}
    construction = {
        "direct_with_finite": {"h": z, "f": table},
        "amalgam": {
            "left": z,
            "right": {"infinite_cyclic": {"name": "b"}},
            "edge": {**table, "embed_left": ["1"], "embed_right": ["1"]},
        },
        "hnn": {"base": z, "edge": {"kind": "finite", **table, "embed_domain": ["1"], "embed_range": ["1"]}},
    }[kind]
    return {"schema_version": 1, "type": "group", "construction": {kind: construction}}


@pytest.mark.parametrize(
    "kind, path",
    [
        ("direct_with_finite", "$.construction.direct_with_finite.f.order"),
        ("amalgam", "$.construction.amalgam.edge.order"),
        ("hnn", "$.construction.hnn.edge.order"),
    ],
)
@pytest.mark.parametrize("order", [MAX_TABLE_ORDER + 1, 10**9])
def test_table_order_limit_rejects_before_reading_rows(
    monkeypatch, tmp_path, capsys, kind, path, order
):
    # FiniteGroupTable validates in O(order^3): a large order used to hang
    def build(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(constructions, "FiniteGroupTable", build)
    rows = _cyclic_rows(order) if order == MAX_TABLE_ORDER + 1 else []
    file = tmp_path / "big_table.json"
    file.write_text(json.dumps(_group_with_table(kind, order, rows)))
    assert main(["decide", str(file)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: a table has at most {MAX_TABLE_ORDER} elements, not {order}\n"
    )


def test_table_order_limit_admits_64(tmp_path, capsys):
    file = tmp_path / "table_64.json"
    data = _group_with_table("direct_with_finite", MAX_TABLE_ORDER, _cyclic_rows(MAX_TABLE_ORDER))
    file.write_text(json.dumps(data))
    assert main(["decide", str(file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "NotICC"


_SURFACE_COUNTS = [
    ("surface_group", "genus", f"genus at most {MAX_SURFACE_COUNT}"),
    (
        "surface_group",
        "boundary_components",
        f"at most {MAX_SURFACE_COUNT} boundary components",
    ),
    ("seifert", "base_genus", f"genus at most {MAX_SURFACE_COUNT}"),
    ("seifert", "boundary_components", f"at most {MAX_SURFACE_COUNT} boundary components"),
]


def _surface_file(tmp_path, kind, key, value):
    """A surface group, or a manifold of one Seifert piece, with value at key
    and genus 1 and one boundary component otherwise; and the JSON path of
    its fields."""
    if kind == "surface_group":
        surface = {"genus": 1, "orientable": True, "boundary_components": 1, key: value}
        data = {"schema_version": 1, "type": "group", "construction": {kind: surface}}
        path = "$.construction.surface_group"
    else:
        piece = {
            "kind": "seifert", "base_genus": 1, "base_orientable": True,
            "boundary_components": 1, "exceptional_fibers": [], key: value,
        }
        data = {"schema_version": 1, "type": "manifold", "orientable": True, "pieces": [piece]}
        path = "$.pieces[0]"
    file = tmp_path / "surface.json"
    file.write_text(json.dumps(data))
    return str(file), path


@pytest.mark.parametrize("kind, key, bound", _SURFACE_COUNTS)
def test_surface_count_limit_admits_64(tmp_path, capsys, kind, key, bound):
    file, _ = _surface_file(tmp_path, kind, key, MAX_SURFACE_COUNT)
    assert main(["decide", file]) == 0
    expected = "status: ICC\n" if kind == "surface_group" else "status: NotICC\n"
    assert capsys.readouterr().out.startswith(expected)


@pytest.mark.parametrize("value", [MAX_SURFACE_COUNT + 1, 10**9])
@pytest.mark.parametrize("kind, key, bound", _SURFACE_COUNTS)
def test_surface_count_limit_rejects_before_building(
    monkeypatch, tmp_path, capsys, kind, key, bound, value
):
    # each unit of genus or boundary became generators, relators or factors:
    # a genus of 200,000 took over a second and 150 MB to decide
    def build(*args):
        raise AssertionError("a surface was built")

    monkeypatch.setattr("iccdec.groups.surface.SurfaceGroup", build)
    monkeypatch.setattr("iccdec.manifolds.SeifertInvariants", build)
    file, path = _surface_file(tmp_path, kind, key, value)
    assert main(["decide", file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}.{key}: a surface has {bound}, not {value}\n"


def _schema_maxima(key: str) -> list:
    """The maximum of every property named key in the descriptor schema."""
    from importlib import resources

    schema = json.loads(
        (resources.files("iccdec") / "schema" / "descriptor_v1.json").read_text()
    )
    maxima = []

    def walk(node):
        if isinstance(node, dict):
            properties = node.get("properties", {})
            if key in properties:
                maxima.append(properties[key].get("maximum"))
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(schema)
    return maxima


def test_schema_table_order_maximum_is_the_parser_limit():
    # direct_with_finite, the amalgam edge and the HNN edge
    assert _schema_maxima("order") == [MAX_TABLE_ORDER] * 3


@pytest.mark.parametrize(
    "key, count",
    # the surface group's genus and boundary count, and a Seifert piece's
    [("genus", 1), ("base_genus", 1), ("boundary_components", 2)],
)
def test_schema_surface_count_maximum_is_the_parser_limit(key, count):
    assert _schema_maxima(key) == [MAX_SURFACE_COUNT] * count


def test_cli_rejects_deep_nesting_with_one_line(tmp_path, capsys):
    text = '{"cyclic": 2, "name": "g0"}'
    for i in range(600):
        text = f'{{"free_product": [{text}, {{"cyclic": 2, "name": "g{i + 1}"}}]}}'
    path = tmp_path / "deep.json"
    path.write_text(f'{{"schema_version": 1, "type": "group", "construction": {text}}}')
    assert main(["decide", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_utf8_file_is_a_descriptor_error_at_the_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    message = f"{path}: not UTF-8 text: invalid start byte at byte 0"
    with pytest.raises(DescriptorError) as err:
        load_descriptor(str(path))
    assert err.value.path == str(path)
    assert str(err.value) == message
    assert main(["decide", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_overlong_integer_is_a_descriptor_error_at_the_path(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "long.json"
    path.write_text('{"schema_version": 1, "components": ' + "9" * (limit + 1) + "}")
    message = f"{path}: invalid JSON: an integer has more than {limit} digits"
    with pytest.raises(DescriptorError) as err:
        load_descriptor(str(path))
    assert err.value.path == str(path)
    assert str(err.value) == message
    assert main(["decide", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_turns_an_unexpected_exception_into_one_line(monkeypatch, tmp_path, capsys):
    def broken(path):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "load_descriptor", broken)
    for command in ("decide", "explain"):
        assert main([command, str(tmp_path / "any.json")]) == 1
        err = capsys.readouterr().err
        assert err == "error: unexpected RuntimeError: first line second line\n"


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


@pytest.mark.parametrize(
    "name", ["group_torus_bundle_hyperbolic", "manifold_torus_bundle_hyperbolic"]
)
@pytest.mark.parametrize("word", ["t^11000", "t^9000 t^9000", "t^100000", "t^10000000"])
@pytest.mark.parametrize("command, option", [("enumerate", "--element"), ("witness", "--set")])
def test_cli_hyperbolic_power_past_the_printing_limit_is_one_error_line(
    corpus_dir, capsys, name, word, command, option
):
    # phi^m of a hyperbolic monodromy has entries of O(m) digits: the power
    # is refused where it is built, before any report line is printed
    path = corpus_path(corpus_dir, f"{name}.json")
    extra = ["--window", "1"] if command == "enumerate" else ["--length", "2"]
    code = main([command, path, option, word, "--radius", "2", *extra])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: phi^") and "or more digits" in err and err.count("\n") == 1


@pytest.mark.parametrize("name", ["group_torus_bundle_parabolic", "group_torus_bundle_elliptic",
                                  "manifold_torus_bundle_parabolic"])
def test_cli_non_hyperbolic_power_answers(corpus_dir, capsys, name):
    path = corpus_path(corpus_dir, f"{name}.json")
    code = main(["enumerate", path, "--element", "t^100000", "--radius", "2", "--window", "1"])
    assert code == 0
    assert "canonical form ((0, 0), 100000)" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "command, option", [("enumerate", ["--element", "x1"]), ("witness", ["--set", "x1"])]
)
def test_cli_closed_surface_is_one_error_line(tmp_path, capsys, command, option):
    # the surface group's own carrier refuses, with the text the CLI checked for
    surface = {"surface_group": {"genus": 2, "orientable": True, "boundary_components": 0}}
    path = tmp_path / "genus2.json"
    path.write_text(json.dumps({"schema_version": 1, "type": "group", "construction": surface}))
    assert main([command, str(path), *option]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: Surface(genus=2, orientable, boundary=0) has no implemented normal form "
        "(closed, negative Euler characteristic)\n"
    )


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_cli_witness_rejects_a_negative_radius(corpus_dir, capsys, json_flag):
    # it used to exit 0 with "exhausted ball of radius -1"
    path = corpus_path(corpus_dir, "group_z2_star_z3.json")
    assert main(["witness", path, "--set", "a", "--radius", "-1", *json_flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: search radius must be >= 0\n"


_PROJECTIVE_PLANE = {"surface_group": {"genus": 1, "orientable": False, "boundary_components": 0}}


def _write_group(tmp_path, construction) -> str:
    path = tmp_path / "group.json"
    data = {"schema_version": 1, "type": "group", "construction": construction}
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_surface_names_are_claimed_before_default_names(tmp_path, capsys):
    # the projective plane's generator is 'a', so Z/3 is named 'b'; both
    # used to be 'a', an unplaced clash
    construction = {"free_product": [_PROJECTIVE_PLANE, {"cyclic": 3}]}
    assert main(["decide", _write_group(tmp_path, construction), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "ICC"
    assert data["reasons"][0]["label"] == "Prop 3(i)"


_TORUS = {"surface_group": {"genus": 1, "orientable": True, "boundary_components": 0}}
_BS12 = {"hnn": {"base": {"infinite_cyclic": {}}, "edge": {
    "kind": "cyclic_power", "domain_power": 1, "range_power": 2}}}
# Z ⋊ Z, the Klein bottle group: it fixes 'e1' and 't' for itself as the torus does
_KLEIN_SEMIDIRECT = {"semidirect_zn_by_z": {"rank": 1, "matrix": [[-1]]}}


@pytest.mark.parametrize(
    "factors, names",
    [
        ([{"cyclic": 3}, _PROJECTIVE_PLANE], "b, a"),
        ([_BS12, _TORUS], "a, b, e1, t"),
        # the stable letter's default 't' used to fail at Z ⋊ Z
        ([_BS12, _KLEIN_SEMIDIRECT], "a, b, e1, t"),
        # 'a' is reserved on one parse and 't' on the next
        ([{"cyclic": 3}, _BS12, _PROJECTIVE_PLANE, _TORUS], "b, c, d, a, e1, t"),
    ],
    ids=["z3-p2", "bs12-torus", "bs12-semidirect", "z3-bs12-p2-torus"],
)
def test_default_names_skip_a_later_surface_s_names(tmp_path, capsys, factors, names):
    # the default names 'a' and stable letter 't' were handed out before the
    # surface claimed them, and the surface then failed on them
    path = _write_group(tmp_path, {"free_product": factors})
    assert main(["decide", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("status: ICC\n") and "  - Prop 3(i)" in out
    assert main(["explain", "--json", path]) == 0
    trace = json.loads(capsys.readouterr().out)["trace"]
    assert f"designated generators: {names}" in trace


_Z_NAMED_T = {"infinite_cyclic": {"name": "t"}}


@pytest.mark.parametrize(
    "factors, message",
    [
        (
            [_Z_NAMED_T, _KLEIN_SEMIDIRECT],
            "$.construction.free_product[1]: generator name 't' is not unique",
        ),
        (
            [_KLEIN_SEMIDIRECT, _Z_NAMED_T],
            "$.construction.free_product[1].infinite_cyclic.name: generator name 't' is not unique",
        ),
        (
            [{"cyclic": 2}, {"infinite_cyclic": {"name": "a"}}, _PROJECTIVE_PLANE],
            "$.construction.free_product[1].infinite_cyclic.name: generator name 'a' is not unique",
        ),
    ],
    ids=["named-then-fixed", "fixed-then-named", "default-named-fixed"],
)
def test_a_name_the_file_gives_is_never_reserved(tmp_path, capsys, factors, message):
    # only a default yields to a fixed name; a given name that clashes is an
    # error where the clash is found
    assert main(["decide", _write_group(tmp_path, {"free_product": factors})]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_Z2_EDGE = {"order": 2, "table": [[0, 1], [1, 0]]}


def _amalgam_over_z2(left, word):
    edge = dict(_Z2_EDGE, embed_left=["1", word], embed_right=["1", "z^2"])
    return {"amalgam": {"left": left, "right": {"cyclic": 4, "name": "z"}, "edge": edge}}


def _hnn_over_z2(word):
    edge = dict(_Z2_EDGE, kind="finite", embed_domain=["1", word], embed_range=["1", word])
    return {"hnn": {"base": {"cyclic": 2}, "edge": edge}}


@pytest.mark.parametrize(
    "factors, names",
    [
        ([_amalgam_over_z2({"cyclic": 2}, "b"), _PROJECTIVE_PLANE], "b, z, a"),
        # on the first parse 'b' is the order-3 generator, not a homomorphism
        (
            [_amalgam_over_z2({"free_product": [{"cyclic": 2}, {"cyclic": 3}]}, "b"),
             _PROJECTIVE_PLANE],
            "b, c, z, a",
        ),
        ([_hnn_over_z2("b"), _PROJECTIVE_PLANE], "b, t, a"),
    ],
    ids=["amalgam-p2", "amalgam-z2-z3-p2", "hnn-p2"],
)
def test_an_edge_word_names_the_generators_of_the_last_parse(tmp_path, capsys, factors, names):
    # the projective plane displaces the default 'a' only after the edge's
    # words are met; an edge's error waits until the parse ends
    path = _write_group(tmp_path, {"free_product": factors})
    assert main(["decide", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("status: ICC\n") and "  - Prop 3(i)" in out
    assert main(["explain", "--json", path]) == 0
    trace = json.loads(capsys.readouterr().out)["trace"]
    assert f"designated generators: {names}" in trace


@pytest.mark.parametrize(
    "factors, message",
    [
        (
            [_amalgam_over_z2({"cyclic": 2}, "a"), _PROJECTIVE_PLANE],
            "$.construction.free_product[0].amalgam.edge.embed_left[1]: "
            "unknown generator 'a'; this group has ['b']",
        ),
        # the edge's error comes first in parse order, before the unknown field
        (
            [_amalgam_over_z2({"cyclic": 2}, "q"), {"cyclic": 3, "size": 3}],
            "$.construction.free_product[0].amalgam.edge.embed_left[1]: "
            "unknown generator 'q'; this group has ['a']",
        ),
    ],
    ids=["displaced-word", "edge-error-first"],
)
def test_an_edge_error_is_raised_when_the_parse_ends(tmp_path, capsys, factors, message):
    assert main(["decide", _write_group(tmp_path, {"free_product": factors})]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("factors", [[_PROJECTIVE_PLANE, _PROJECTIVE_PLANE]], ids=["p2-p2"])
def test_cli_surface_name_clash_is_placed_at_the_surface(tmp_path, capsys, factors):
    assert main(["decide", _write_group(tmp_path, {"free_product": factors})]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: $.construction.free_product[1]: generator name 'a' is not unique\n"
    )


def test_hnn_over_a_torus_takes_a_default_stable_letter():
    # the torus claims 't', so the stable letter is the first free default
    edge = {"kind": "finite", "order": 1, "table": [[0]], "embed_domain": ["1"], "embed_range": ["1"]}
    construction = {"hnn": {"base": _TORUS, "edge": edge}}
    descriptor = parse_descriptor_data(
        {"schema_version": 1, "type": "group", "construction": construction}
    )
    assert [n for n, _ in descriptor.group.generator_payloads()] == ["e1", "t", "a"]


_GENUS_2 = {"surface_group": {"genus": 2, "orientable": True, "boundary_components": 0}}


@pytest.mark.parametrize("command", [["decide"], ["explain", "--json"]])
@pytest.mark.parametrize(
    "construction, label, names",
    [
        ({"free_product": [{"infinite_cyclic": {}}, _GENUS_2]}, "Prop 3(i)", "a"),
        (
            {"direct_with_finite": {"h": _GENUS_2, "f": {"order": 1, "table": [[0]]}}},
            "Surface classification",
            "(none)",
        ),
    ],
    ids=["free product", "trivial direct factor"],
)
def test_closed_genus_2_surface_factor_is_decided(
    tmp_path, capsys, command, construction, label, names
):
    # the surface has no normal form, but its (empty) list of names is all
    # the construction and the explain trace need
    assert main([*command, _write_group(tmp_path, construction)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == ["decide"]:
        assert captured.out.startswith("status: ICC\n")
        assert f"  - {label}" in captured.out
    else:
        out = json.loads(captured.out)
        assert out["status"] == "ICC"
        assert out["reasons"][0]["label"] == label
        assert f"designated generators: {names}" in out["trace"]


_NO_NORMAL_FORM = "no implemented normal form"
_TRIVIAL_EDGE = {"order": 1, "table": [[0]]}


@pytest.mark.parametrize(
    "construction, command",
    [
        ({"free_product": [{"infinite_cyclic": {}}, _GENUS_2]}, ["enumerate", "--element", "a"]),
        ({"free_product": [{"infinite_cyclic": {}}, _GENUS_2]}, ["witness", "--set", "a"]),
        (
            {"amalgam": {"left": _GENUS_2, "right": {"infinite_cyclic": {}}, "edge": {
                **_TRIVIAL_EDGE, "embed_left": ["1"], "embed_right": ["1"]}}},
            ["decide"],
        ),
        (
            {"hnn": {"base": _GENUS_2, "edge": {
                "kind": "finite", **_TRIVIAL_EDGE, "embed_domain": ["1"], "embed_range": ["1"]}}},
            ["decide"],
        ),
    ],
    ids=["enumerate", "witness", "amalgam", "hnn"],
)
def test_surface_without_normal_form_still_errors_where_payloads_are_needed(
    tmp_path, capsys, construction, command
):
    assert main([*command, _write_group(tmp_path, construction)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert _NO_NORMAL_FORM in captured.err


@pytest.mark.parametrize("command", [["enumerate", "--element", "a"], ["witness", "--set", "a"]])
@pytest.mark.parametrize(
    "genus, orientable, described",
    [(2, True, "genus=2, orientable"), (3, False, "genus=3, non-orientable")],
)
def test_a_surface_factor_without_normal_form_is_named(
    tmp_path, capsys, command, genus, orientable, described
):
    # the error used to read "this surface group has ...", naming no factor
    surface = {"surface_group": {"genus": genus, "orientable": orientable, "boundary_components": 0}}
    path = _write_group(tmp_path, {"free_product": [{"infinite_cyclic": {}}, surface]})
    assert main([*command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: Surface({described}, boundary=0) has no implemented normal form "
        "(closed, negative Euler characteristic)\n"
    )


@pytest.mark.parametrize("command", [["decide"], ["decide", "--json"], ["explain", "--json"]])
def test_finite_direct_factor_of_a_surface_without_normal_form_is_not_icc(
    tmp_path, capsys, command
):
    # the finite factor alone settles NotICC; building the element witness
    # needed the surface's identity, and the call ended in an error
    f = {"order": 2, "table": [[0, 1], [1, 0]], "names": ["1", "z"]}
    path = _write_group(tmp_path, {"direct_with_finite": {"h": _GENUS_2, "f": f}})
    assert main([*command, path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == ["decide"]:
        assert captured.out.startswith("status: NotICC\nwitness: finite-factor element (1, z)\n")
        return
    out = json.loads(captured.out)
    assert out["status"] == "NotICC"
    assert out["reasons"][0]["label"] == "Finite direct factor"
    assert out["witness"] == {
        "description": "finite-factor element (1, z)", "element": None, "kind": "symbolic"
    }


def test_finite_direct_factor_of_an_enumerable_group_keeps_its_element(corpus_dir):
    # the same text as the symbolic witness above, with the element attached
    group = load_descriptor(corpus_path(corpus_dir, "group_f2_x_z2.json")).group
    witness = decide_structured_group(group).witness
    assert witness.kind == "element"
    assert witness.description == "finite-factor element (1, z)"
    assert witness.element == group.finite_element(1)


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
