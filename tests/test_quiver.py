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


@pytest.mark.parametrize(
    "kept, message",
    [
        (["1", "zz"], "unknown vertex 'zz'"),
        (["zz"], "unknown vertex 'zz'"),
        (["1", "2", "3", "4", "zz"], "unknown vertex 'zz'"),
        (["1", "2", "3", "4"], "kept vertex set must be a proper subset of Q_0"),
        (["4", "3", "2", "1", "2"], "kept vertex set must be a proper subset of Q_0"),
        ([], "kept vertex set is empty"),
    ],
)
def test_idempotent_subquiver_errors(kept, message):
    # names are checked before the subset is, so an unknown one is named
    with pytest.raises(QuiverError) as err:
        idempotent_subquiver(corpus_quiver("circ4"), kept)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the one-pass construction: every stored map against a recomputation from
# the three fields, and every QuiverError of validate_complete_gentle


def assert_stored_maps(q):
    """source, target, arrows_out, position, tau and the orbit data, each
    recomputed from ``vertices``, ``arrows`` and ``sigma`` alone."""
    source = {a: s for a, s, _ in q.arrows}
    target = {a: t for a, _, t in q.arrows}
    out = {v: tuple(sorted(a for a, s, _ in q.arrows if s == v)) for v in q.vertices}
    tau = {a: next(b for b in out[source[a]] if b != a) for a in source}
    for k, v in enumerate(q.vertices):
        assert q.position(v) == k
        assert q.arrows_out(v) == out[v]
    for a in q.arrow_names:
        assert (q.source(a), q.target(a)) == (source[a], target[a])
        assert q.other_arrow_at(source[a], a) == tau[a]
        assert q.resolution_successor(a) == next(b for b in out[target[a]] if b != q.sigma[a])
    assert q._tau == tau
    assert_orbit_data(q)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_stored_maps_corpus(name):
    assert_stored_maps(corpus_quiver(name))


def test_stored_maps_generated_and_ribbon_quivers():
    # gen.py draws by valency profile; relabel shuffles every declaration,
    # so no map can lean on declared order
    rng = random.Random(11)
    profiles = [(1, 1, 2, 4), (3, 3, 2), (6,), (4, 4, 4, 4), (3, 3, 2, 2, 2, 2, 2), (2, 2, 2, 2, 2)]
    for k in range(24):
        q = gen.random_quiver(rng, profiles[k % len(profiles)])
        for r in (q, gen.relabel(rng, q), quiver_from_ribbon_graph(graph_of_quiver(q))):
            assert_stored_maps(r)
    for q in seeded_quivers():
        assert_stored_maps(q)


def test_names_are_coerced_to_str():
    q = validate_complete_gentle([1], [("a", 1, 1), ("b", 1, 1)], sigma={"a": "b", "b": "a"})
    assert q.vertices == ("1",) and q.arrows == (("a", "1", "1"), ("b", "1", "1"))
    assert q == corpus_quiver("loop2") and q.arrows_out("1") == ("a", "b")


def test_other_arrow_at_refuses_an_arrow_from_another_vertex():
    with pytest.raises(QuiverError, match="does not start at"):
        corpus_quiver("line2").other_arrow_at("2", "x")


LOOPS = [("a", "1", "1"), ("b", "1", "1")]
# a: 1 -> 2, b: 2 -> 1 and a loop at each end
TWO = [("a", "1", "2"), ("b", "2", "1"), ("x", "1", "1"), ("y", "2", "2")]
TWO_SIGMA = {"a": "b", "b": "a", "x": "x", "y": "y"}
THREE_LOOPS = LOOPS + [("c", "1", "1")]
PERM = "sigma is not a permutation of the arrow set"
EXACTLY_ONE = "give exactly one of sigma and relations"

# (vertices, arrows, sigma, relations, message); the cases after the first
# blank line break two rules at once and pin which one is reported
QUIVER_ERRORS = {
    "duplicate_vertex": (["1", "1"], LOOPS, {"a": "b", "b": "a"}, None, "duplicate vertex names"),
    "duplicate_arrow": (["1"], [("a", "1", "1"), ("a", "1", "1")], {"a": "a"}, None, "duplicate arrow names"),
    "undeclared_vertex": (["1"], [("a", "1", "1"), ("b", "1", "9")], {"a": "b", "b": "a"}, None,
                          "arrow 'b' uses undeclared vertex"),
    "out_degree": (["1"], THREE_LOOPS, {"a": "b", "b": "c", "c": "a"}, None, "vertex '1' has out-degree 3 != 2"),
    "in_degree": (["1", "2"], [("a", "1", "1"), ("b", "1", "2"), ("c", "2", "2"), ("d", "2", "2")],
                  {"a": "b", "b": "c", "c": "d", "d": "a"}, None, "vertex '1' has in-degree 1 != 2"),
    "neither": (["1"], LOOPS, None, None, EXACTLY_ONE),
    "both": (["1"], LOOPS, {"a": "b", "b": "a"}, [("a", "a")], EXACTLY_ONE),
    "relation_unknown_arrow": (["1"], LOOPS, None, [("b", "z")], "relation b.z uses unknown arrow"),
    "relation_not_composable": (["1", "2"], TWO, None, [("a", "a")],
                                "relation a.a is not composable: source(a) != target(a)"),
    # the forbidden arrows are listed in declared order
    "no_successor": (["1"], LOOPS[::-1], None, [("a", "a"), ("b", "a"), ("a", "b")],
                     "arrow 'a' has 0 permitted successors (relations forbid ['b', 'a']); "
                     "the gentle condition needs exactly one"),
    "two_successors": (["1"], LOOPS, None, [],
                       "arrow 'a' has 2 permitted successors (relations forbid []); "
                       "the gentle condition needs exactly one"),
    "sigma_not_injective": (["1"], LOOPS, {"a": "b", "b": "b"}, None, PERM),
    "sigma_missing_arrow": (["1"], LOOPS, {"a": "b"}, None, PERM),
    "sigma_extra_arrow": (["1"], LOOPS, {"a": "b", "b": "a", "z": "z"}, None, PERM),
    "relations_not_injective": (["1", "2"], TWO, None, [("y", "a"), ("y", "y"), ("x", "b"), ("x", "x")], PERM),
    "sigma_source_target": (["1", "2"], TWO, {"a": "x", "x": "a", "b": "y", "y": "b"}, None,
                            "sigma(a) = x but source(x) = 1 != target(a) = 2"),

    "duplicate_vertex_and_arrow": (["1", "1"], [("a", "1", "1"), ("a", "1", "1")], {"a": "a"}, None,
                                   "duplicate vertex names"),
    "duplicate_arrow_and_undeclared": (["1"], [("b", "1", "9"), ("a", "1", "1"), ("a", "1", "1")], {"a": "a"},
                                       None, "duplicate arrow names"),
    "undeclared_and_out_degree": (["1"], THREE_LOOPS + [("d", "9", "1")], None, None,
                                  "arrow 'd' uses undeclared vertex"),
    "in_degree_first_vertex_and_out_degree_second": (
        ["1", "2"], [("a", "1", "1"), ("b", "1", "2"), ("c", "2", "2"), ("d", "2", "2"), ("e", "2", "2")],
        None, None, "vertex '1' has in-degree 1 != 2"),
    "out_and_in_degree_one_vertex": (["1"], THREE_LOOPS, {"a": "b", "b": "c", "c": "a"}, None,
                                     "vertex '1' has out-degree 3 != 2"),
    "degree_and_neither": (["1"], THREE_LOOPS, None, None, "vertex '1' has out-degree 3 != 2"),
    "degree_and_bad_relation": (["1"], THREE_LOOPS, None, [("z", "a")], "vertex '1' has out-degree 3 != 2"),
    "undeclared_and_both": (["1"], [("a", "1", "1"), ("b", "1", "9")], {"a": "b"}, [("a", "b")],
                            "arrow 'b' uses undeclared vertex"),
    "both_and_bad_relation": (["1"], LOOPS, {"a": "b", "b": "a"}, [("z", "z")], EXACTLY_ONE),
    "not_composable_then_unknown": (["1", "2"], TWO, None, [("a", "a"), ("z", "a")],
                                    "relation a.a is not composable: source(a) != target(a)"),
    "unknown_then_not_composable": (["1", "2"], TWO, None, [("z", "a"), ("a", "a")],
                                    "relation z.a uses unknown arrow"),
    "late_bad_relation_and_successors": (["1"], LOOPS, None, [("a", "a"), ("b", "z")],
                                         "relation b.z uses unknown arrow"),
    "not_permutation_and_source_target": (["1", "2"], TWO, {"a": "x", "b": "x", "x": "a", "y": "b"}, None, PERM),
    # b is declared first, so its mismatch is named before a's
    "two_source_target_mismatches": (["1", "2"], [TWO[1], TWO[0], TWO[2], TWO[3]],
                                     {"a": "x", "x": "a", "b": "y", "y": "b"}, None,
                                     "sigma(b) = y but source(y) = 2 != target(b) = 1"),
}


@pytest.mark.parametrize("case", QUIVER_ERRORS)
def test_validate_complete_gentle_errors(case):
    vertices, arrows, sigma, relations, message = QUIVER_ERRORS[case]
    with pytest.raises(QuiverError) as err:
        validate_complete_gentle(vertices, arrows, sigma=sigma, relations=relations)
    assert str(err.value) == message


def test_the_two_point_quiver_of_the_error_cases_is_valid():
    q = validate_complete_gentle(["1", "2"], TWO, sigma=TWO_SIGMA)
    assert quiver_isomorphism(q, corpus_quiver("line2")) is not None
    assert validate_complete_gentle(["1", "2"], TWO, relations=q.relations()) == q


@pytest.mark.parametrize("case", [c for c, (_, _, s, r, _) in QUIVER_ERRORS.items() if s is not None and r is None])
def test_direct_construction_raises_as_validation_does(case):
    # the checks live in the constructor, so a quiver built from its three
    # fields without validate_complete_gentle is checked alike
    vertices, arrows, sigma, _, message = QUIVER_ERRORS[case]
    with pytest.raises(QuiverError) as err:
        GentleQuiver(tuple(vertices), tuple(arrows), dict(sigma))
    assert str(err.value) == message
