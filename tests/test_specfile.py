"""The plain-text spec format: parsing, errors with line numbers, roundtrips."""

import pytest

from ribbonorders import CORPUS_NAMES, corpus_quiver, quiver_isomorphism
from ribbonorders.specfile import SpecFileError, parse_spec, serialize_quiver

LOOP2 = """\
# the two-loop quiver
vertices: 1
arrow a: 1 -> 1
arrow b: 1 -> 1
sigma: (a b)
"""

TRIANGLE_RELATIONS = """\
vertices: 1 2 3
arrow a: 1 -> 2
arrow b: 2 -> 1
arrow c: 2 -> 3
arrow d: 3 -> 2
arrow e: 3 -> 1
arrow f: 1 -> 3
relations: ca, ae, ec, db, bf, fd
""".replace("ca", "c.a").replace("ae", "a.e").replace("ec", "e.c").replace(
    "db", "d.b"
).replace("bf", "b.f").replace("fd", "f.d")

RIBBON = """\
ribbon_graph {
  node u: 1 1 2
  node v: 2 3 3
}
"""


def test_parse_loop2():
    parsed = parse_spec(LOOP2)
    assert parsed.source_kind == "quiver"
    assert quiver_isomorphism(parsed.quiver, corpus_quiver("loop2")) is not None


def test_parse_triangle_via_relations():
    parsed = parse_spec(TRIANGLE_RELATIONS)
    assert parsed.quiver.sigma == corpus_quiver("triangle").sigma


def test_relations_resolve_composable_reading():
    # "d.b" is only composable as b-then-d, "b.d" only as d-then-b;
    # either spelling must produce the same relation
    alt = TRIANGLE_RELATIONS.replace("d.b", "b.d")
    assert parse_spec(alt).quiver.sigma == corpus_quiver("triangle").sigma


def test_parse_ribbon_graph():
    parsed = parse_spec(RIBBON)
    assert parsed.source_kind == "ribbon"
    assert len(parsed.quiver.vertices) == 3  # one per edge
    sizes = sorted(len(o) for _, o in parsed.quiver.sigma_orbits())
    assert sizes == [3, 3]


def test_parse_multiplicity():
    text = LOOP2 + "multiplicity: a = 2\n"
    parsed = parse_spec(text)
    assert parsed.multiplicity == {"a": 2}


def test_error_line_numbers():
    with pytest.raises(SpecFileError) as err:
        parse_spec("vertices: 1\nnonsense here\n")
    assert err.value.line == 2

    with pytest.raises(SpecFileError) as err:
        parse_spec("vertices: 1\narrow a: 1 ->\n")
    assert err.value.line == 2


def test_error_requires_sigma_or_relations():
    with pytest.raises(SpecFileError, match="exactly one"):
        parse_spec("vertices: 1\narrow a: 1 -> 1\narrow b: 1 -> 1\n")
    with pytest.raises(SpecFileError, match="exactly one"):
        parse_spec(LOOP2 + "relations: a.a\n")


def test_error_degree_caught():
    bad = """\
vertices: 1
arrow a: 1 -> 1
arrow b: 1 -> 1
arrow c: 1 -> 1
sigma: (a b c)
"""
    with pytest.raises(SpecFileError, match="out-degree 3"):
        parse_spec(bad)


def test_error_sigma_unknown_arrow():
    with pytest.raises(SpecFileError, match="unknown arrow"):
        parse_spec("vertices: 1\narrow a: 1 -> 1\narrow b: 1 -> 1\nsigma: (a z)\n")


def test_error_noncomposable_relation():
    bad = """\
vertices: 1 2
arrow x: 1 -> 1
arrow a: 1 -> 2
arrow b: 2 -> 1
arrow y: 2 -> 2
relations: x.y, a.x, b.y, y.b
"""
    with pytest.raises(SpecFileError, match="not composable"):
        parse_spec(bad)


def test_error_duplicate_vertices_line():
    with pytest.raises(SpecFileError, match="duplicate vertices"):
        parse_spec("vertices: 1\nvertices: 2\n")


def test_error_mixed_ribbon_and_quiver():
    with pytest.raises(SpecFileError, match="mixed"):
        parse_spec("vertices: 1\n" + RIBBON)


def test_error_unterminated_ribbon_block():
    with pytest.raises(SpecFileError, match="unterminated"):
        parse_spec("ribbon_graph {\n  node u: 1 1\n")


def test_error_ribbon_edge_count():
    with pytest.raises(SpecFileError):
        parse_spec("ribbon_graph {\n  node u: 1 1 1\n}\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("ribbon_graphs {\n  node u: 1 1\n}\n", 1, "cannot parse 'ribbon_graphs {'"),
        ("ribbon_graph\n  node u: 1 1\n}\n", 1, "cannot parse 'ribbon_graph'"),
        ("ribbon_graph: u\n", 1, "unknown directive 'ribbon_graph'"),
        ("ribbon_graph {\n  node u: 1 1\n}\nribbon_graph{\n}\n", 4, "duplicate ribbon_graph block"),
    ],
    ids=["plural", "bare", "directive", "duplicate"],
)
def test_ribbon_block_opening_errors(text, line, message):
    # only "ribbon_graph" with optional space and "{" opens a block; any
    # other line falls through to the directive parser's errors
    with pytest.raises(SpecFileError) as info:
        parse_spec(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def test_ribbon_block_opens_without_space():
    assert parse_spec("ribbon_graph{\n  node u: 1 1\n}\n").quiver.vertices == ("1",)


def test_sigma_fixed_points_may_be_omitted():
    text = """\
vertices: 1
arrow x: 1 -> 1
arrow y: 1 -> 1
sigma: (x)
"""
    parsed = parse_spec(text)
    assert parsed.quiver.sigma == {"x": "x", "y": "y"}


def test_corpus_serialization_roundtrip():
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        text = serialize_quiver(q)
        back = parse_spec(text).quiver
        assert back.vertices == q.vertices
        assert back.arrows == q.arrows
        assert back.sigma == q.sigma


def test_serialize_with_multiplicity_roundtrip():
    q = corpus_quiver("mixed")
    text = serialize_quiver(q, {"a": 2, "c": 3})
    parsed = parse_spec(text)
    assert parsed.multiplicity == {"a": 2, "c": 3}
