"""Core quiver layer: validation, orbits, cycles, subquivers, periods."""

import random
import sys
from pathlib import Path as FilePath

import pytest

from ribbonorders import CORPUS_NAMES, corpus_quiver, idempotent_subquiver, quiver_isomorphism
from ribbonorders.quiver import (
    GentleQuiver,
    Path,
    QuiverError,
    disjoint_union,
    validate_complete_gentle,
)
from ribbonorders.ribbon import graph_of_quiver, quiver_from_ribbon_graph
from ribbonorders.specfile import parse_spec, serialize_quiver

sys.path.insert(0, str(FilePath(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)


def test_loop2_valid():
    q = validate_complete_gentle(
        ["1"], [("a", "1", "1"), ("b", "1", "1")], sigma={"a": "b", "b": "a"}
    )
    assert q.sigma["a"] == "b" and q.sigma["b"] == "a"


def test_out_degree_three_rejected():
    with pytest.raises(QuiverError, match="out-degree 3"):
        validate_complete_gentle(
            ["1"],
            [("a", "1", "1"), ("b", "1", "1"), ("c", "1", "1")],
            sigma={"a": "b", "b": "c", "c": "a"},
        )


def test_in_degree_violation_rejected():
    with pytest.raises(QuiverError, match="degree"):
        validate_complete_gentle(
            ["1", "2"],
            [("a", "1", "1"), ("b", "1", "1"), ("c", "2", "2"), ("d", "2", "1")],
            sigma={"a": "b", "b": "a", "c": "c", "d": "d"},
        )


def test_sigma_not_permutation_rejected():
    with pytest.raises(QuiverError, match="permutation"):
        validate_complete_gentle(
            ["1"], [("a", "1", "1"), ("b", "1", "1")], sigma={"a": "b", "b": "b"}
        )


def test_sigma_source_target_mismatch_rejected():
    with pytest.raises(QuiverError, match="source"):
        validate_complete_gentle(
            ["1", "2"],
            [("a", "1", "2"), ("b", "2", "1"), ("x", "1", "1"), ("y", "2", "2")],
            sigma={"a": "y", "y": "a", "b": "x", "x": "b"},
        )


def test_triangle_from_relations_matches_sigma():
    # the relation strings follow the published mixed-order convention;
    # the parser resolves each through composability
    q = validate_complete_gentle(
        ["1", "2", "3"],
        [
            ("a", "1", "2"),
            ("b", "2", "1"),
            ("c", "2", "3"),
            ("d", "3", "2"),
            ("e", "3", "1"),
            ("f", "1", "3"),
        ],
        relations=[("c", "a"), ("a", "e"), ("e", "c"), ("b", "d"), ("f", "b"), ("d", "f")],
    )
    assert q.sigma == corpus_quiver("triangle").sigma


def test_relations_inconsistent_with_gentle_condition():
    with pytest.raises(QuiverError, match="permitted successors"):
        validate_complete_gentle(
            ["1"],
            [("a", "1", "1"), ("b", "1", "1")],
            relations=[("a", "a"), ("b", "a")],  # both successors of a forbidden
        )


def test_derived_relations_of_triangle():
    # the derived zero relations agree with the published length-two list
    # once each string is read in its unique composable order
    rels = set(corpus_quiver("triangle").relations())
    assert rels == {("c", "a"), ("a", "e"), ("e", "c"), ("b", "d"), ("f", "b"), ("d", "f")}


def test_sigma_orbits():
    assert corpus_quiver("oneorbit").sigma_orbits() == [
        ("a", ("a", "b", "c", "d", "e", "f"))
    ]
    assert corpus_quiver("loop2").sigma_orbits() == [("a", ("a", "b"))]
    assert corpus_quiver("nodal").sigma_orbits() == [("x", ("x",)), ("y", ("y",))]


def test_orbits_cover_disjointly():
    for name in ("triangle", "mixed", "line4", "circ5"):
        q = corpus_quiver(name)
        seen = [a for _, orbit in q.sigma_orbits() for a in orbit]
        assert sorted(seen) == sorted(q.arrow_names)


def test_cycle_of():
    loop2 = corpus_quiver("loop2")
    c = loop2.cycle_of("a")
    assert c.arrows == ("a", "b") and c.length == 2

    nodal = corpus_quiver("nodal")
    assert nodal.cycle_of("x").arrows == ("x",)

    oneorbit = corpus_quiver("oneorbit")
    c6 = oneorbit.cycle_of("a")
    assert c6.length == 6 and c6.arrows == ("a", "b", "c", "d", "e", "f")


def test_sigma_invariants():
    for name in ("loop2", "nodal", "triangle", "oneorbit", "mixed", "line3", "circ4"):
        q = corpus_quiver(name)
        for a in q.arrow_names:
            assert q.source(q.sigma[a]) == q.target(a)
            n = q.cycle_length(a)
            assert q.sigma_power(a, n) == a


def test_normalization_cycle_types():
    sizes = sorted(c.size for c in corpus_quiver("mixed").normalization())
    assert sizes == [1, 2, 3, 4]
    assert [c.size for c in corpus_quiver("loop2").normalization()] == [2]
    assert sorted(c.size for c in corpus_quiver("nodal").normalization()) == [1, 1]


def test_normalization_preserves_arrow_count():
    for name in ("triangle", "mixed", "oneorbit", "line4"):
        q = corpus_quiver(name)
        assert sum(c.size for c in q.normalization()) == len(q.arrows)


def test_idempotent_subquiver_mixed_inner_triangle():
    sub = idempotent_subquiver(corpus_quiver("mixed"), ["2", "4", "5"])
    assert quiver_isomorphism(sub.quiver, corpus_quiver("triangle")) is not None
    # the arrow c of the subquiver is realized by the length-3 parent path
    assert sub.realization["c"].length == 3
    assert sub.realization["b"].length == 1


def test_idempotent_subquiver_circ3_two_vertices():
    sub = idempotent_subquiver(corpus_quiver("circ3"), ["1", "2"])
    q = sub.quiver
    # line-shaped: two fixed loops plus a doubled edge
    sizes = sorted(len(o) for _, o in q.sigma_orbits())
    assert sizes == [1, 1, 2]
    from ribbonorders.ribbon import graph_of_quiver

    assert len(graph_of_quiver(q).edges) == 2
    assert quiver_isomorphism(q, corpus_quiver("line2")) is not None


def test_idempotent_subquiver_is_always_gentle():
    # every proper nonempty restriction revalidates
    for name in ("mixed", "line4", "circ4", "triangle"):
        q = corpus_quiver(name)
        verts = list(q.vertices)
        for k in range(1, len(verts)):
            sub = idempotent_subquiver(q, verts[:k])
            assert isinstance(sub.quiver, GentleQuiver)


def test_idempotent_subquiver_bad_subsets():
    q = corpus_quiver("triangle")
    with pytest.raises(QuiverError):
        idempotent_subquiver(q, [])
    with pytest.raises(QuiverError):
        idempotent_subquiver(q, ["1", "2", "3"])


def test_resolution_periods():
    nodal = corpus_quiver("nodal")
    assert nodal.resolution_period("x") == 2
    assert nodal.resolution_period("y") == 2

    loop2 = corpus_quiver("loop2")
    assert loop2.resolution_period("a") == 1

    triangle = corpus_quiver("triangle")
    periods = {a: triangle.resolution_period(a) for a in triangle.arrow_names}
    # phi-orbits {a, c, e} and {b, f, d}: all periods equal within an orbit
    assert periods == {a: 3 for a in triangle.arrow_names}


def test_resolution_successor_is_permutation():
    for name in ("loop2", "nodal", "triangle", "mixed", "oneorbit", "line4"):
        q = corpus_quiver(name)
        images = {q.resolution_successor(a) for a in q.arrow_names}
        assert images == set(q.arrow_names)


def test_path_composition_follows_sigma():
    q = corpus_quiver("loop2")
    a1 = q.path_from("a", 1)
    b1 = q.path_from("b", 1)
    assert q.compose(a1, a1) is None  # sigma(a) = b, so a*a = 0
    ba = q.compose(b1, a1)
    assert ba is not None and ba.arrows == ("a", "b")
    # every nonzero path is a_m for its first arrow
    assert q.compose(b1, a1) == q.path_from("a", 2)


def test_idempotent_paths():
    q = corpus_quiver("triangle")
    e2 = q.idempotent("2")
    assert e2.is_idempotent and q.path_end(e2) == "2"
    a1 = q.path_from("a", 1)
    assert q.compose(e2, a1) == a1  # e_{t(a)} * a = a
    assert q.compose(a1, q.idempotent("1")) == a1
    assert q.compose(q.idempotent("1"), a1) is None  # vertex mismatch


def test_disjoint_union_componentwise():
    q = disjoint_union(corpus_quiver("loop2"), corpus_quiver("nodal"))
    assert len(q.vertices) == 2 and len(q.arrows) == 4
    sizes = sorted(len(o) for _, o in q.sigma_orbits())
    assert sizes == [1, 1, 2]


def test_quiver_isomorphism_detects_difference():
    assert quiver_isomorphism(corpus_quiver("triangle"), corpus_quiver("oneorbit")) is None
    assert quiver_isomorphism(corpus_quiver("loop2"), corpus_quiver("circ1")) is not None
    assert quiver_isomorphism(corpus_quiver("nodal"), corpus_quiver("line1")) is not None
    assert quiver_isomorphism(corpus_quiver("loop2"), corpus_quiver("nodal")) is None


# ---------------------------------------------------------------------------
# the orbit data stored at construction, against a fresh walk along sigma


def reference_orbit_data(q):
    """The sorted (representative, orbit) pairs and, per arrow, its
    (orbit, position), from a walk along sigma."""
    orbits, place = [], {}
    for a in sorted(q.arrow_names):
        if a in place:
            continue
        orbit = [a]
        while q.sigma[orbit[-1]] != a:
            orbit.append(q.sigma[orbit[-1]])
        orbits.append((a, tuple(orbit)))
        for k, b in enumerate(orbit):
            place[b] = (tuple(orbit), k)
    return orbits, place


def assert_orbit_data(q):
    orbits, place = reference_orbit_data(q)
    assert q.sigma_orbits() == orbits
    assert q._place == place
    assert q.arrow_names == tuple(a for a, _, _ in q.arrows)
    for a, (orbit, k) in place.items():
        n = len(orbit)
        assert q.orbit_rep(a) == orbit[0] == min(orbit)
        assert q.cycle_length(a) == n
        assert q.orbit_of(a) == orbit[k:] + orbit[:k]
        walk = [a]
        for p in range(1, 2 * n + 2):
            walk.append(q.sigma[walk[-1]])
            assert q.sigma_power(a, p) == walk[p]
            assert q.sigma_power(walk[p], -p) == a
        for m in (0, 1, n, 2 * n + 1):
            assert q.path_from(a, m) == Path(start=q.source(a), arrows=tuple(walk[:m]))
    assert q == parse_spec(serialize_quiver(q)).quiver


def reference_subquiver(q, kept):
    """idempotent_subquiver's sigma' and realizations by walking sigma."""
    kept = set(kept)
    sigma, realization = {}, {}
    for a in q.arrow_names:
        if q.source(a) not in kept:
            continue
        b, m = q.sigma[a], 1
        while q.source(b) not in kept:
            b, m = q.sigma[b], m + 1
        sigma[a] = b
        realization[a] = q.path_from(a, m)
    return sigma, realization


def seeded_quivers():
    """Seeded random quivers whose ribbon graphs include loops and
    valency-one nodes (orbits of size one)."""
    rng = random.Random(7)
    profiles = [(1, 1, 2, 4), (3, 3, 2), (6,), (5, 1, 2), (4, 4, 4, 4), (3, 3, 2, 2, 2, 2, 2)]
    graphs = [gen.random_ribbon_graph(rng, profiles[k % len(profiles)]) for k in range(36)]
    assert any(g.is_loop(e) for g in graphs for e in g.edges)
    return [quiver_from_ribbon_graph(g) for g in graphs]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_orbit_data_corpus(name):
    assert_orbit_data(corpus_quiver(name))


def test_orbit_data_random_quivers():
    for q in seeded_quivers():
        assert_orbit_data(q)
        assert_orbit_data(quiver_from_ribbon_graph(graph_of_quiver(q)))


def test_orbit_data_derived_quivers():
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES] + seeded_quivers()[:12]
    for q1, q2 in zip(quivers, quivers[1:]):
        assert_orbit_data(disjoint_union(q1, q2))
    for q in quivers:
        verts = list(q.vertices)
        for k in range(1, len(verts)):
            for kept in (verts[:k], verts[k:]):
                sub = idempotent_subquiver(q, kept)
                assert_orbit_data(sub.quiver)
                sigma, realization = reference_subquiver(q, kept)
                assert sub.quiver.sigma == sigma and sub.realization == realization
