"""Randomized cross-checks on generated instances.

Random ribbon graphs (random slot pairings and cyclic orders) give
arbitrary complete gentle quivers through the inverse construction, so
the structural theorems can be exercised well beyond the built-in
corpus.  Seeds are fixed; sizes stay small so the whole file runs in a
few seconds.
"""

import random

from ribbonorders import (
    check_nu_symmetry,
    decide,
    enumerate_polarizations,
    graph_of_quiver,
    is_bipartite,
    is_symmetric_oracle,
    build_twisted_bga,
    build_bga,
    quiver_from_ribbon_graph,
    quiver_isomorphism,
    ribbon_isomorphic,
    verify_theta_psi,
)
from ribbonorders.fields import GF2, GF3, QQ
from ribbonorders.ribbon import RibbonGraph


def random_ribbon_graph(rng: random.Random, max_edges: int = 4) -> RibbonGraph:
    edges = rng.randint(1, max_edges)
    slots = 2 * edges
    node_count = rng.randint(1, slots)
    cuts = sorted(rng.sample(range(1, slots), node_count - 1)) if node_count > 1 else []
    valencies = [b - a for a, b in zip([0] + cuts, cuts + [slots])]
    labels = [f"E{k}" for k in range(edges)] * 2
    rng.shuffle(labels)
    table = {}
    pos = 0
    for i, v in enumerate(valencies):
        table[f"n{i}"] = tuple(labels[pos : pos + v])
        pos += v
    return RibbonGraph(
        nodes=[f"n{i}" for i in range(node_count)],
        edges=[f"E{k}" for k in range(edges)],
        slots=table,
    )


def test_random_quivers_roundtrip():
    rng = random.Random(2024)
    for _ in range(30):
        g = random_ribbon_graph(rng)
        q = quiver_from_ribbon_graph(g)
        assert ribbon_isomorphic(g, graph_of_quiver(q))
        q2 = quiver_from_ribbon_graph(graph_of_quiver(q))
        assert quiver_isomorphism(q, q2) is not None


def test_random_quivers_nu_symmetry_and_dual():
    rng = random.Random(7)
    for _ in range(10):
        q = quiver_from_ribbon_graph(random_ribbon_graph(rng, max_edges=3))
        eps = enumerate_polarizations(q)[0]
        rep = check_nu_symmetry(q, eps, GF3)
        assert rep.ok and rep.pairs_match
        tp = verify_theta_psi(q, eps, GF3)
        assert tp.ok


def test_random_quivers_symmetry_equivalence():
    # the quotient is symmetric exactly when the graph is bipartite or
    # the characteristic is two, on instances the corpus never saw
    rng = random.Random(99)
    for _ in range(20):
        g = random_ribbon_graph(rng)
        q = quiver_from_ribbon_graph(g)
        bip = is_bipartite(g).is_bipartite
        for field in (GF2, GF3):
            verdict = is_symmetric_oracle(build_twisted_bga(q, field, 1))
            want = "symmetric" if (bip or field.char == 2) else "not-symmetric"
            assert verdict.kind == want, (g.slots, field.name)
        plain = is_symmetric_oracle(build_bga(q, GF3, 1))
        assert plain.kind == "symmetric", g.slots


def test_random_quivers_decision_consistency():
    rng = random.Random(41)
    for i in range(8):
        q = quiver_from_ribbon_graph(random_ribbon_graph(rng, max_edges=3))
        rep = decide(q, QQ, 1, instance=f"random{i}")
        assert rep.consistency_ok, rep.violations
        assert rep.conditions["c2"].status in ("true", "false")
        assert rep.conditions["c3"].status == rep.conditions["c4"].status
