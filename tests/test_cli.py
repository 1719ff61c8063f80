"""End-to-end runs of the command line interface."""

import json

import pytest

from ribbonorders import CORPUS_NAMES, cli, corpus_quiver, find_sigma_stable, parse_field
from ribbonorders.cli import main
from ribbonorders.fdalg import build_quotient_algebra, socle
from ribbonorders.polarize import quotient_polarization


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_corpus_loop2(capsys):
    code, out, _ = run(capsys, "validate", "corpus:loop2")
    assert code == 0
    assert "valid complete gentle quiver" in out
    assert "(a b)" in out


def test_validate_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertices: 1\narrow a: 1 -> 1\narrow b: 1 -> 1\narrow c: 1 -> 1\nsigma: (a b c)\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "out-degree 3" in out


def test_graph_line4(capsys):
    code, out, _ = run(capsys, "graph", "corpus:line4")
    assert code == 0
    assert "bipartite; coloring" in out
    assert "5 nodes, 4 edges" in out


def test_graph_ribbon_flag(capsys):
    code, out, _ = run(capsys, "graph", "corpus:oneorbit", "--ribbon")
    assert code == 0
    assert "cyclic edge orders" in out
    assert "not bipartite" in out


def test_basis_loop2(capsys):
    code, out, _ = run(capsys, "basis", "corpus:loop2")
    assert code == 0
    assert "canonical basis (4 elements)" in out
    assert "rank formula sum m(v_a) n(a) = 4" in out


def test_frobenius_nodal(capsys):
    code, out, _ = run(capsys, "frobenius", "corpus:nodal", "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out if False else out)
    assert payload["nu_symmetric"] and payload["nonzero_pairs_match_expected"]
    pairs = {tuple(p) for p in payload["nonzero_pairs"]}
    assert pairs == {("x(1)", "x(1)"), ("x(1)", "e(1)"), ("e(1)", "x(1)")}


def test_cartan_triangle(capsys):
    code, out, _ = run(capsys, "cartan", "corpus:triangle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert payload["rank"] == 3 and not payload["rank_criterion_matches"]


def test_quotient_loop2_gf3(capsys):
    code, out, _ = run(capsys, "quotient", "corpus:loop2", "--field", "gf3")
    assert code == 0
    assert "dimension 4" in out
    assert "not-symmetric" in out


def test_quotient_untwisted(capsys):
    code, out, _ = run(capsys, "quotient", "corpus:loop2", "--field", "gf3", "--untwisted")
    assert code == 0
    assert "Brauer graph algebra over GF(3)" in out
    assert "oracle: symmetric" in out


def test_quotient_multiplicity_flag(capsys):
    code, out, _ = run(capsys, "quotient", "corpus:loop2", "--field", "gf2", "-m", "2", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 8


@pytest.mark.parametrize("untwisted", [[], ["--untwisted"]])
def test_quotient_socle_matches_dense_view(capsys, untwisted):
    # the command lists the socle from its basis-path indices; the dense
    # rows of the fdalg.socle paths must name the same elements
    for name in CORPUS_NAMES:
        for field, m in (("gf3", "1"), ("q", "2")):
            code, out, _ = run(capsys, "quotient", f"corpus:{name}", "--field", field, "-m", m, "--json", *untwisted)
            assert code == 0
            fld = parse_field(field)
            q = corpus_quiver(name)
            eps = quotient_polarization(q, find_sigma_stable(q))
            alg = build_quotient_algebra(q, fld, int(m), eps, twisted=not untwisted)
            rows = [alg.dense({p: fld.one}) for p in socle(alg)]
            dense = [alg.element_str({i: c for i, c in enumerate(v) if c}) for v in rows]
            payload = json.loads(out)
            assert payload["socle"] == dense and payload["socle_dimension"] == len(dense)


def test_decide_loop2_gf3(capsys):
    code, out, _ = run(capsys, "decide", "corpus:loop2", "--field", "gf3")
    assert code == 0
    assert "(2) twisted quotient symmetric: false" in out
    assert "(3) graph bipartite or char 2: false" in out
    assert "consistency: ok" in out


def test_decide_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "decide", "corpus:line3", "--field", "Q", "--json")
    code2, out2, _ = run(capsys, "decide", "corpus:line3", "--field", "Q", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["conditions"]["c5"]["status"] == "true"


def test_decide_file_input(tmp_path, capsys):
    f = tmp_path / "c3.quiver"
    f.write_text(
        "vertices: 1 2 3\n"
        "arrow a1: 1 -> 2\narrow b1: 2 -> 1\n"
        "arrow a2: 2 -> 3\narrow b2: 3 -> 2\n"
        "arrow a3: 3 -> 1\narrow b3: 1 -> 3\n"
        "sigma: (a1 b1)(a2 b2)(a3 b3)\n"
    )
    code, out, _ = run(capsys, "decide", str(f), "--field", "gf3")
    assert code == 0
    assert "(3) graph bipartite or char 2: false" in out


def test_resolve(capsys):
    code, out, _ = run(capsys, "resolve", "corpus:nodal", "--json")
    assert code == 0
    assert json.loads(out)["periods"] == {"x": 2, "y": 2}


def test_serialize_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "serialize", "corpus:mixed")
    assert code == 0
    f = tmp_path / "mixed.quiver"
    f.write_text(out)
    code2, out2, _ = run(capsys, "validate", str(f))
    assert code2 == 0


def test_corpus_restricted(capsys):
    code, out, _ = run(
        capsys, "corpus", "--field", "gf2", "--multiplicity-grid", "1"
    )
    assert code == 0
    assert "consistency violations: none" in out
    assert "loop2" in out and "circ6" in out


def test_corpus_json_deterministic(capsys):
    args = ("corpus", "--field", "gf3", "--multiplicity-grid", "1", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["consistent"] and len(payload["reports"]) == 15


def test_quotient_per_orbit_multiplicity(capsys):
    code, out, _ = run(
        capsys, "quotient", "corpus:mixed", "--field", "gf2", "-m", "a=2,c=1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    # orbit of a (size 3) doubled: 1 + 2*3*3 + 4*4 + 2*2 = 39
    assert payload["dimension"] == 39
    assert payload["multiplicity"] == {"a": 2, "c": 1, "e": 1, "x": 1}


def test_unknown_corpus_entry(capsys):
    code, _, err = run(capsys, "decide", "corpus:nope", "--field", "gf3")
    assert code == 1
    assert "unknown corpus entry" in err


def test_internal_key_error_is_not_a_user_error(monkeypatch, capsys):
    # a failed lookup inside a command is a bug, not bad input: it must
    # propagate instead of exiting 1 with "error: ..."
    def broken(q):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cartan_report", broken)
    with pytest.raises(KeyError):
        main(["cartan", "corpus:loop2"])


def test_internal_value_error_is_not_a_user_error(monkeypatch, capsys):
    # a ValueError raised by the package itself (a failed unpack, int() on
    # bad data) is a bug: only the user-input error classes exit 1
    def broken(q):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "cartan_report", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["cartan", "corpus:loop2"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("decide", "corpus:loop2", "--field", "gf4"), "bad field spec 'gf4'"),
        (("decide", "corpus:loop2", "--field", "R"), "unknown field spec 'R'"),
        (("corpus", "--field", "gf2", "--multiplicity-grid", "1", "two"), "bad --multiplicity-grid value"),
    ],
)
def test_bad_field_and_grid_values_are_user_errors(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and message in err


def test_spec_error_exit_code(tmp_path, capsys):
    f = tmp_path / "broken.quiver"
    f.write_text("vertices: 1\ngibberish\n")
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 1
    assert "INVALID" in out and "line 2" in out
    # other commands report parse errors on stderr with exit code 2
    code2, _, err = run(capsys, "graph", str(f))
    assert code2 == 2
    assert "line 2" in err


def test_ribbon_graph_input_through_cli(tmp_path, capsys):
    f = tmp_path / "circle.ribbon"
    f.write_text("ribbon_graph {\n  node u: 1 2\n  node v: 2 1\n}\n")
    code, out, _ = run(capsys, "graph", str(f), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bipartite"] is True
    assert len(payload["edges"]) == 2
