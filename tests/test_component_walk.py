"""One component walk of the ribbon graph against reference traversals.

``is_bipartite``, ``connected_components``, ``bipartite_components``,
``cartan_report`` and ``find_sigma_stable`` read one BFS per component;
the first four walk ``graph_of_quiver(q)``, and the last walks the
sigma-orbits with the adjacency read off the quiver, building no ribbon
graph.  Here they are compared with a BFS that stops at the first odd
walk and a DFS (``tests/reference.py``), certificate for certificate,
with each other (``find_sigma_stable`` is the pullback of
``is_bipartite`` of the quiver's graph), and the closed-form Cartan rank
with the dense rank over Q, on the corpus, on seeded random graphs, and on disjoint unions
of three and more components that mix bipartite and non-bipartite ones.
"""

import functools
import random
import sys
from pathlib import Path

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    Polarization,
    RibbonGraph,
    cartan_matrix,
    cartan_rank,
    cartan_report,
    connected_components,
    corpus_quiver,
    decide,
    find_sigma_stable,
    graph_of_quiver,
    is_bipartite,
    quiver_from_ribbon_graph,
)
from ribbonorders.fields import GF2, GF3, GF5, QQ
from ribbonorders.quiver import disjoint_union
from ribbonorders.ribbon import bipartite_components

from reference import bfs_bipartite, dfs_components
from test_random_instances import profile_ribbon_graph, random_ribbon_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

GEN_PROFILES = ((4, 4, 4, 4), (3, 3, 2, 2, 2, 2), (2, 2, 2, 2, 2), (1, 3, 2, 2, 1, 1), (6, 2, 2, 2), (1, 1, 2, 2))


def union(*names):
    return functools.reduce(disjoint_union, map(corpus_quiver, names))


def pullback(q):
    """is_bipartite of q's ribbon graph, its coloring pulled back to the
    arrows along the orbit map: what find_sigma_stable(q) returns."""
    cert = is_bipartite(graph_of_quiver(q))
    if not cert.is_bipartite:
        return cert
    return Polarization(signs={a: cert.coloring[q.orbit_rep(a)] for a in q.arrow_names})


def assert_matches_reference(q):
    g = graph_of_quiver(q)
    assert is_bipartite(g) == bfs_bipartite(g)
    comps = connected_components(g)
    assert comps == dfs_components(g)
    assert bipartite_components(g) == (is_bipartite(g), comps)
    stable = find_sigma_stable(q)
    assert stable == pullback(q)
    if isinstance(stable, Polarization):  # signs listed in arrow order, like the pullback's
        assert list(stable.signs) == list(q.arrow_names)
    rep = cartan_report(q)
    assert rep.rank == cartan_rank(cartan_matrix(q))
    assert (rep.nodes, rep.components) == (len(g.nodes), len(comps))
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


def test_a_decision_builds_no_ribbon_graph(monkeypatch):
    # the bipartite certificate walks the sigma-orbits of the quiver
    # itself
    def refuse(self, *args, **kwargs):
        raise AssertionError("a ribbon graph was built")

    monkeypatch.setattr(RibbonGraph, "__init__", refuse)
    with pytest.raises(AssertionError, match="ribbon graph was built"):
        graph_of_quiver(corpus_quiver("line2"))
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in (GF2, GF3, GF5, QQ):
            for m in (1, 2):
                assert decide(q, field, m).consistency_ok
    for names in (("triangle", "line2", "loop2"), ("circ3", "line1", "circ6", "circ5")):
        q = union(*names)
        find_sigma_stable(q)
