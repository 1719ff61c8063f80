"""Ribbon graphs: construction, bipartiteness, circles, inverse, roundtrips."""

import collections
import dataclasses
import itertools
import random
import sys
from pathlib import Path

import pytest

from ribbonorders import (
    circular_subgraphs,
    connected_components,
    corpus_quiver,
    graph_of_quiver,
    is_bipartite,
    quiver_from_ribbon_graph,
    quiver_isomorphism,
    ribbon_isomorphic,
)
from ribbonorders.quiver import QuiverError, disjoint_union
from ribbonorders.ribbon import RibbonGraph

from test_random_instances import random_ribbon_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

CORPUS = [
    "loop2", "nodal", "line1", "line2", "line3", "line4",
    "triangle", "oneorbit", "mixed",
    "circ1", "circ2", "circ3", "circ4", "circ5", "circ6",
]


def test_loop2_graph_is_a_loop():
    g = graph_of_quiver(corpus_quiver("loop2"))
    assert len(g.nodes) == 1 and len(g.edges) == 1
    assert g.is_loop("1")
    assert g.valency(g.nodes[0]) == 2  # a loop occupies two slots


def test_line_graph_shape():
    for n in (1, 2, 3, 4):
        g = graph_of_quiver(corpus_quiver(f"line{n}"))
        assert len(g.edges) == n and len(g.nodes) == n + 1
        valencies = sorted(g.valency(v) for v in g.nodes)
        assert valencies == [1, 1] + [2] * (n - 1)


def test_oneorbit_graph_three_loops_slot_cycle():
    g = graph_of_quiver(corpus_quiver("oneorbit"))
    assert len(g.nodes) == 1 and len(g.edges) == 3
    assert all(g.is_loop(e) for e in g.edges)
    v = g.nodes[0]
    assert g.valency(v) == 6
    # slot cycle follows the sources of the orbit in sigma order
    assert g.slots[v] == ("1", "2", "3", "1", "2", "3")


def test_mixed_graph_shape():
    g = graph_of_quiver(corpus_quiver("mixed"))
    assert len(g.nodes) == 4 and len(g.edges) == 5
    assert sum(1 for e in g.edges if g.is_loop(e)) == 1


def test_edge_count_equals_vertex_count():
    for name in CORPUS:
        q = corpus_quiver(name)
        g = graph_of_quiver(q)
        assert len(g.edges) == len(q.vertices)
        assert len(g.nodes) == len(q.sigma_orbits())
        assert sum(g.valency(v) for v in g.nodes) == 2 * len(g.edges)


def test_bipartite_certificates():
    expected = {
        "loop2": False, "nodal": True, "line1": True, "line2": True,
        "line3": True, "line4": True, "triangle": False, "oneorbit": False,
        "mixed": False, "circ1": False, "circ2": True, "circ3": False,
        "circ4": True, "circ5": False, "circ6": True,
    }
    for name, want in expected.items():
        cert = is_bipartite(graph_of_quiver(corpus_quiver(name)))
        assert cert.is_bipartite == want, name


def test_coloring_is_proper():
    for name in ("nodal", "line4", "circ6"):
        g = graph_of_quiver(corpus_quiver(name))
        cert = is_bipartite(g)
        for e in g.edges:
            u, v = g.endpoints(e)
            assert cert.coloring[u] != cert.coloring[v]


def _walk_closes(g, walk):
    """True when the edge sequence can be traversed as a closed walk."""

    def extend(i, at):
        if i == len(walk):
            return at == start
        u, v = g.endpoints(walk[i])
        if u == at and extend(i + 1, v):
            return True
        return v == at and extend(i + 1, u)

    for start in set(g.endpoints(walk[0])):
        if extend(0, start):
            return True
    return False


def test_odd_walk_is_closed_and_odd():
    for name in ("loop2", "triangle", "circ5", "oneorbit", "mixed"):
        g = graph_of_quiver(corpus_quiver(name))
        cert = is_bipartite(g)
        walk = cert.odd_walk
        assert walk is not None and len(walk) % 2 == 1
        assert _walk_closes(g, walk), (name, walk)


def test_line_graph_coloring_alternates():
    g = graph_of_quiver(corpus_quiver("line4"))
    cert = is_bipartite(g)
    # the line v_x - v_a1 - v_a2 - v_a3 - v_y alternates
    assert cert.coloring["x"] != cert.coloring["a1"]
    assert cert.coloring["a1"] != cert.coloring["a2"]
    assert cert.coloring["a2"] != cert.coloring["a3"]
    assert cert.coloring["a3"] != cert.coloring["y"]


def test_connected_components():
    assert len(connected_components(graph_of_quiver(corpus_quiver("line3")))) == 1
    assert len(connected_components(graph_of_quiver(corpus_quiver("mixed")))) == 1
    union = disjoint_union(corpus_quiver("loop2"), corpus_quiver("nodal"))
    assert len(connected_components(graph_of_quiver(union))) == 2


def test_circular_subgraphs():
    tri = circular_subgraphs(graph_of_quiver(corpus_quiver("triangle")))
    assert len(tri) == 1 and len(tri[0][1]) == 3

    line = circular_subgraphs(graph_of_quiver(corpus_quiver("line4")))
    assert line == []

    loop = circular_subgraphs(graph_of_quiver(corpus_quiver("loop2")))
    assert len(loop) == 1 and len(loop[0][1]) == 1

    circ2 = circular_subgraphs(graph_of_quiver(corpus_quiver("circ2")))
    assert len(circ2) == 1 and len(circ2[0][1]) == 2

    mixed = circular_subgraphs(graph_of_quiver(corpus_quiver("mixed")))
    assert sorted(len(c[1]) for c in mixed) == [1, 3]


def brute_force_circles(g):
    """Edge sets of the circular subgraphs: the nonempty connected edge
    subsets in which every node has degree two (a loop counts two)."""
    circles = []
    for size in range(1, len(g.edges) + 1):
        for subset in itertools.combinations(g.edges, size):
            degree = collections.Counter(x for e in subset for x in g.endpoints(e))
            reached = set(g.endpoints(subset[0]))
            for _ in subset:  # grow by every edge that touches a reached node
                reached |= {x for e in subset if reached.intersection(g.endpoints(e)) for x in g.endpoints(e)}
            if set(degree.values()) == {2} and reached == set(degree):
                circles.append(frozenset(subset))
    return circles


def test_circular_subgraphs_match_brute_force():
    # 3 to 6 nodes of valency 1 to 3: at most 9 edges
    rng = random.Random(20)
    long_cycles = 0
    for _ in range(30):
        valencies = [rng.randint(1, 3) for _ in range(rng.randint(3, 6))]
        valencies[0] += sum(valencies) % 2
        g = gen.random_ribbon_graph(rng, valencies)
        assert len(g.edges) <= 9
        circles = circular_subgraphs(g)
        found = [frozenset(edges) for _, edges in circles]
        assert len(found) == len(set(found))  # each circle once
        assert set(found) == set(brute_force_circles(g))
        long_cycles += sum(len(nodes) >= 3 for nodes, _ in circles)
    assert long_cycles


def test_bipartite_iff_no_odd_circle():
    for name in CORPUS:
        g = graph_of_quiver(corpus_quiver(name))
        has_odd = any(len(edges) % 2 == 1 for _, edges in circular_subgraphs(g))
        assert is_bipartite(g).is_bipartite == (not has_odd), name


def test_leaf_iff_sigma_fixed_point():
    for name in CORPUS:
        q = corpus_quiver(name)
        g = graph_of_quiver(q)
        for rep, orbit in q.sigma_orbits():
            is_leaf = g.valency(rep) == 1
            assert is_leaf == (len(orbit) == 1), (name, rep)


def test_quiver_from_ribbon_graph_single_edge():
    # one ordinary edge between two 1-valent nodes: the nodal quiver
    g = RibbonGraph(nodes=["u", "v"], edges=["1"], slots={"u": ("1",), "v": ("1",)})
    q = quiver_from_ribbon_graph(g)
    assert quiver_isomorphism(q, corpus_quiver("nodal")) is not None


def test_quiver_from_ribbon_graph_circle():
    # a circular ribbon graph of length 3 gives the circular quiver
    g = RibbonGraph(
        nodes=["u", "v", "w"],
        edges=["1", "2", "3"],
        slots={"u": ("1", "2"), "v": ("2", "3"), "w": ("3", "1")},
    )
    q = quiver_from_ribbon_graph(g)
    assert quiver_isomorphism(q, corpus_quiver("circ3")) is not None


def test_quiver_from_ribbon_graph_rejects_bad_slots():
    with pytest.raises(QuiverError):
        RibbonGraph(nodes=["u"], edges=["1"], slots={"u": ("1",)})  # edge once
    with pytest.raises(QuiverError):
        RibbonGraph(nodes=["u", "v"], edges=["1"], slots={"u": ("1", "1"), "v": ("1",)})


def test_roundtrip_all_corpus():
    for name in CORPUS:
        q = corpus_quiver(name)
        g = graph_of_quiver(q)
        q2 = quiver_from_ribbon_graph(g)
        assert quiver_isomorphism(q, q2) is not None, name
        assert ribbon_isomorphic(g, graph_of_quiver(q2)), name


def test_subquiver_graph_is_edge_removal():
    # restricting away one vertex removes that edge from the ribbon graph
    # (and drops nodes left with no incident edges)
    from ribbonorders import idempotent_subquiver

    for name in ("triangle", "mixed", "line3", "circ4"):
        q = corpus_quiver(name)
        g = graph_of_quiver(q)
        for dropped in q.vertices:
            kept = [v for v in q.vertices if v != dropped]
            sub = idempotent_subquiver(q, kept).quiver
            slots = {
                v: tuple(e for e in g.slots[v] if e != dropped) for v in g.nodes
            }
            slots = {v: s for v, s in slots.items() if s}
            reduced = RibbonGraph(
                nodes=[v for v in g.nodes if v in slots],
                edges=[e for e in g.edges if e != dropped],
                slots=slots,
            )
            assert ribbon_isomorphic(graph_of_quiver(sub), reduced), (name, dropped)


def test_ribbon_isomorphism_distinguishes_cyclic_orders():
    # triangle vs oneorbit share vertex/arrow counts but not ribbon structure
    g1 = graph_of_quiver(corpus_quiver("triangle"))
    g2 = graph_of_quiver(corpus_quiver("oneorbit"))
    assert not ribbon_isomorphic(g1, g2)


def slot_scan_endpoints(g, e):
    """The endpoints by scanning every slot of every node."""
    found = [v for v in g.nodes for x in g.slots[v] if x == e]
    return found[0], found[1]


def test_endpoints_match_slot_scan_on_corpus():
    for name in CORPUS:
        g = graph_of_quiver(corpus_quiver(name))
        for e in g.edges:
            assert g.endpoints(e) == slot_scan_endpoints(g, e), (name, e)


def test_endpoints_match_slot_scan_on_random_graphs_with_loops():
    rng = random.Random(11)
    loops = 0
    for _ in range(200):
        g = random_ribbon_graph(rng, max_edges=8)
        for e in g.edges:
            assert g.endpoints(e) == slot_scan_endpoints(g, e)
            loops += g.is_loop(e)
    assert loops > 0


def test_endpoint_map_leaves_equality_on_the_three_fields():
    g = graph_of_quiver(corpus_quiver("mixed"))
    h = RibbonGraph(nodes=g.nodes, edges=g.edges, slots=dict(g.slots))
    assert g == h
    assert [f.name for f in dataclasses.fields(g)] == ["nodes", "edges", "slots"]


# leaves (valency 1) and loops: profiles like the generator certificate's
GRAPH_PROFILES = (
    (1, 1, 2, 2), (1, 3, 2), (1, 1, 1, 3), (1, 2, 3, 2), (1, 1, 4), (1, 5), (1, 1), (2, 2, 2), (3, 3), (4,)
)


def assert_same_as_validated(q):
    # the constructor run again on the graph's own tables must give the
    # same graph, endpoints and adjacency
    g = graph_of_quiver(q)
    h = RibbonGraph(nodes=g.nodes, edges=g.edges, slots=dict(g.slots))
    assert g == h and (type(g.nodes), type(g.edges)) == (tuple, tuple)
    assert [g.endpoints(e) for e in g.edges] == [h.endpoints(e) for e in h.edges]
    assert g.adjacency() == h.adjacency()
    return g


def test_graph_of_quiver_equals_validated_graph():
    for name in CORPUS:
        assert_same_as_validated(corpus_quiver(name))
    rng = random.Random(20261022)
    loops = leaves = 0
    for k in range(300):
        g = assert_same_as_validated(gen.random_quiver(rng, GRAPH_PROFILES[k % len(GRAPH_PROFILES)]))
        loops += sum(map(g.is_loop, g.edges))
        leaves += sum(g.valency(v) == 1 for v in g.nodes)
    assert loops and leaves
