"""One component walk of the ribbon graph against reference traversals.

``is_bipartite``, ``connected_components`` and ``cartan_report`` read one
BFS per component.  Here they are compared with a BFS that stops at the
first odd walk and a DFS (``tests/reference.py``), certificate for
certificate, and the closed-form Cartan rank with the dense rank over
Q, on the corpus, on seeded random graphs, and on disjoint unions of
three and more components that mix bipartite and non-bipartite ones.
"""

import functools
import random
import sys
from pathlib import Path

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    cartan_matrix,
    cartan_rank,
    cartan_report,
    connected_components,
    corpus_quiver,
    graph_of_quiver,
    is_bipartite,
    quiver_from_ribbon_graph,
)
from ribbonorders.quiver import disjoint_union

from reference import bfs_bipartite, dfs_components
from test_random_instances import profile_ribbon_graph, random_ribbon_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

GEN_PROFILES = ((4, 4, 4, 4), (3, 3, 2, 2, 2, 2), (2, 2, 2, 2, 2), (1, 3, 2, 2, 1, 1), (6, 2, 2, 2), (1, 1, 2, 2))


def union(*names):
    return functools.reduce(disjoint_union, map(corpus_quiver, names))


def assert_matches_reference(q):
    g = graph_of_quiver(q)
    assert is_bipartite(g) == bfs_bipartite(g)
    comps = connected_components(g)
    assert comps == dfs_components(g)
    rep = cartan_report(q)
    assert rep.rank == cartan_rank(cartan_matrix(q))
    assert rep.components == len(comps)
    assert rep.rank_criterion_matches == is_bipartite(g).is_bipartite


def seeded_graphs():
    rng = random.Random(25)
    for draw in range(120):
        yield gen.random_ribbon_graph(rng, GEN_PROFILES[draw % len(GEN_PROFILES)])
    for _ in range(120):
        yield profile_ribbon_graph(rng)
    for _ in range(80):
        yield random_ribbon_graph(rng, max_edges=8)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_matches_reference(name):
    assert_matches_reference(corpus_quiver(name))


def test_seeded_draws_match_reference():
    draws = list(seeded_graphs())
    assert len(draws) == 320
    seen = {"bipartite": 0, "loop": 0, "loop-free odd": 0, "disconnected": 0}
    for g in draws:
        assert is_bipartite(g) == bfs_bipartite(g), g.slots
        assert connected_components(g) == dfs_components(g), g.slots
        assert_matches_reference(quiver_from_ribbon_graph(g))
        cert = is_bipartite(g)
        seen["bipartite" if cert.is_bipartite else "loop" if len(cert.odd_walk) == 1 else "loop-free odd"] += 1
        seen["disconnected"] += len(connected_components(g)) > 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize(
    "names, bipartite",
    [
        (("line2", "circ4", "nodal"), 3),
        (("circ3", "line1", "circ6", "circ5"), 2),
        (("circ2", "triangle", "circ4"), 2),
        (("triangle", "line2", "loop2"), 1),
        (("circ5", "mixed", "circ3"), 0),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v),
)
def test_unions_match_reference(names, bipartite):
    # rank C = |G_0| minus the bipartite components only
    q = union(*names)
    assert_matches_reference(q)
    rep = cartan_report(q)
    assert (rep.components, rep.rank) == (len(names), rep.nodes - bipartite)
    assert rep.rank_criterion_matches == (bipartite == len(names))


def test_seeded_unions_match_reference():
    rng = random.Random(26)
    kinds = set()
    for _ in range(30):
        parts = [quiver_from_ribbon_graph(profile_ribbon_graph(rng, max_edges=5)) for _ in range(rng.randint(3, 4))]
        assert_matches_reference(functools.reduce(disjoint_union, parts))
        kinds.add(tuple(is_bipartite(graph_of_quiver(p)).is_bipartite for p in parts))
    # bipartite and non-bipartite parts, in several orders
    assert len([k for k in kinds if len(set(k)) == 2]) >= 4


def test_a_later_loop_wins_over_an_earlier_odd_cycle():
    # the triangle's odd cycle comes first in node and in edge order,
    # the loop of loop2 last; a loop anywhere is the certificate
    g = graph_of_quiver(union("triangle", "line2", "loop2"))
    assert [e for e in g.edges if g.is_loop(e)] == ["R.1"]
    assert is_bipartite(g).odd_walk == ("R.1",) == bfs_bipartite(g).odd_walk
