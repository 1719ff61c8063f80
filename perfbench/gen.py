"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of a ``random.Random``: the same seed
gives the same ribbon graphs, polarizations and relabellings, and the
package under test only ever receives the finished inputs.

Random ribbon graphs follow the slot-shuffling construction of the
test suite's generator (random pairing of edge ends into slots, random
cyclic order at each node), with two changes that keep the cost of a
run steady from seed to seed: the node valencies are fixed, so the edge
count, quotient dimension and canonical basis size are fixed, and the
caller may ask for a bipartite or a non-bipartite graph, which fixes the
branch the decision procedure takes.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple

import ribbonorders as ro

PLUS = "+"
MINUS = "-"
DRAWS = 10000  # attempts to meet a bipartiteness request before giving up


def random_ribbon_graph(
    rng: random.Random,
    valencies: Sequence[int],
    bipartite: Optional[bool] = None,
) -> ro.RibbonGraph:
    """A ribbon graph with the given node valencies (their sum is even).

    The edge count is sum(valencies) / 2.  Edge ends are shuffled into
    the slots, which fixes both the incidence and the cyclic order at
    each node.  With ``bipartite`` set, graphs are drawn until their
    bipartiteness matches; a profile that never matches raises.
    """
    slots = sum(valencies)
    if slots % 2:
        raise ValueError("valencies must sum to an even number")
    edges = [f"E{k}" for k in range(slots // 2)]
    nodes = [f"n{i}" for i in range(len(valencies))]
    for _ in range(DRAWS):
        labels = edges * 2
        rng.shuffle(labels)
        table: Dict[str, Tuple[str, ...]] = {}
        pos = 0
        for node, v in zip(nodes, valencies):
            table[node] = tuple(labels[pos : pos + v])
            pos += v
        g = ro.RibbonGraph(nodes=nodes, edges=edges, slots=table)
        if bipartite is None or ro.is_bipartite(g).is_bipartite == bipartite:
            return g
    raise ValueError(f"no graph with valencies {tuple(valencies)} and bipartite={bipartite}")


def random_quiver(
    rng: random.Random, valencies: Sequence[int], bipartite: Optional[bool] = None
) -> ro.GentleQuiver:
    return ro.quiver_from_ribbon_graph(random_ribbon_graph(rng, valencies, bipartite))


def random_polarization(rng: random.Random, q: ro.GentleQuiver) -> ro.Polarization:
    """One of the 2^|Q_0| polarizations, drawn uniformly."""
    signs: Dict[str, str] = {}
    for v in q.vertices:
        a, b = q.arrows_out(v)
        first, second = (PLUS, MINUS) if rng.random() < 0.5 else (MINUS, PLUS)
        signs[a] = first
        signs[b] = second
    return ro.Polarization(signs=signs)


def relabel(rng: random.Random, q: ro.GentleQuiver) -> ro.GentleQuiver:
    """An isomorphic copy with fresh vertex and arrow names, declared in a
    shuffled order, so that no name or position gives the match away."""
    vertices = list(q.vertices)
    arrows = [a for a, _, _ in q.arrows]
    vnames = [f"w{i}" for i in range(len(vertices))]
    anames = [f"r{i}" for i in range(len(arrows))]
    rng.shuffle(vnames)
    rng.shuffle(anames)
    vmap = dict(zip(vertices, vnames))
    amap = dict(zip(arrows, anames))
    new_arrows = [(amap[a], vmap[s], vmap[t]) for a, s, t in q.arrows]
    rng.shuffle(new_arrows)
    new_vertices = [vmap[v] for v in vertices]
    rng.shuffle(new_vertices)
    sigma = {amap[a]: amap[b] for a, b in q.sigma.items()}
    return ro.validate_complete_gentle(new_vertices, new_arrows, sigma=sigma)
