"""Ribbon graphs of complete gentle quivers and the inverse construction.

Nodes are sigma-orbits, edges are quiver vertices, and each node carries a
cyclic order on its incident edge *slots*.  A loop edge occupies two
distinct slots at its node, so cyclic orders stay well defined; the slot
cycle at a node is started at the orbit's lexicographically least arrow to
make output deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .quiver import GentleQuiver, QuiverError, quiver_isomorphism, validate_complete_gentle


@dataclass(frozen=True)
class RibbonGraph:
    """An abstract ribbon graph: per-node cyclic sequences of edge slots.

    ``slots[v]`` lists the edges incident to node v in cyclic order; a
    slot is a position in that tuple.  Every edge name occurs exactly
    twice across all nodes (twice at the same node for a loop).  The
    validating slot pass also records each edge's endpoints, so
    ``endpoints`` is a lookup; equality still compares the three fields.
    """

    nodes: Tuple[str, ...]
    edges: Tuple[str, ...]
    slots: Dict[str, Tuple[str, ...]]

    def __init__(self, nodes: Sequence[str], edges: Sequence[str], slots: Dict[str, Sequence[str]]):
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "slots", {v: tuple(s) for v, s in slots.items()})
        self._check()

    def _check(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise QuiverError("duplicate node names")
        if len(set(self.edges)) != len(self.edges):
            raise QuiverError("duplicate edge names")
        if set(self.slots) != set(self.nodes):
            raise QuiverError("slot table must cover exactly the node set")
        # edge -> the nodes of its slots, in node order and then slot order
        ends: Dict[str, List[str]] = {e: [] for e in self.edges}
        for v in self.nodes:
            if not self.slots[v]:
                raise QuiverError(f"node {v!r} has no incident edges")
            for e in self.slots[v]:
                if e not in ends:
                    raise QuiverError(f"unknown edge {e!r} at node {v!r}")
                ends[e].append(v)
        bad = [e for e, vs in ends.items() if len(vs) != 2]
        if bad:
            raise QuiverError(f"edges {bad} do not occupy exactly two slots")
        object.__setattr__(self, "_ends", ends)

    def valency(self, v: str) -> int:
        return len(self.slots[v])

    def endpoints(self, e: str) -> Tuple[str, str]:
        """The two endpoint nodes of an edge (equal for a loop)."""
        u, v = self._ends[e]
        return u, v

    def is_loop(self, e: str) -> bool:
        u, v = self.endpoints(e)
        return u == v

    def adjacency(self) -> Dict[str, List[Tuple[str, str]]]:
        """node -> list of (neighbour node, edge), loops listed once."""
        adj: Dict[str, List[Tuple[str, str]]] = {v: [] for v in self.nodes}
        for e, (u, v) in self._ends.items():  # in edge order
            adj[u].append((v, e))
            if u != v:
                adj[v].append((u, e))
        return adj

    def __str__(self) -> str:
        lines = [f"{len(self.nodes)} nodes, {len(self.edges)} edges"]
        for v in self.nodes:
            lines.append(f"  {v}: ({' '.join(self.slots[v])})")
        return "\n".join(lines)


@dataclass(frozen=True)
class BipartiteCertificate:
    """Either a two-coloring of the nodes or an odd closed edge walk."""

    coloring: Optional[Dict[str, str]] = None
    odd_walk: Optional[Tuple[str, ...]] = None

    @property
    def is_bipartite(self) -> bool:
        return self.coloring is not None


def graph_of_quiver(q: GentleQuiver) -> RibbonGraph:
    """The ribbon graph of a quiver: nodes = orbits, one edge per vertex.

    The slot sequence at the node of an orbit (in sigma-cycle order,
    starting at the representative) is e_{s(a)} for the orbit's arrows a;
    the induced slot rotation is exactly e_{s(a)} -> e_{t(a)}.
    """
    orbits = q.sigma_orbits()
    nodes = [rep for rep, _ in orbits]
    slots = {rep: tuple(q.source(a) for a in orbit) for rep, orbit in orbits}
    return RibbonGraph(nodes=nodes, edges=q.vertices, slots=slots)


def is_bipartite(g: RibbonGraph) -> BipartiteCertificate:
    """Two-color the nodes or exhibit an odd closed walk.

    BFS per component (:func:`_component_walk`), seeded at the
    lexicographically least node of the component, which takes '-': the
    '-' class is the one whose orbits get rescaled when comparing the
    twisted quotient with the Brauer graph algebra, and this choice
    reproduces the familiar alternating signs on line graphs.  A loop
    edge, the first in edge order, is an immediate length-one witness;
    otherwise the first component with a monochromatic edge (u, v)
    yields the closed walk root -> u -> v -> root of odd length.
    """
    for e, (u, v) in g._ends.items():  # in edge order
        if u == v:
            return BipartiteCertificate(odd_walk=(e,))
    color: Dict[str, str] = {}
    for _, odd in _component_walk(g, color):
        if odd:
            return BipartiteCertificate(odd_walk=odd)
    return BipartiteCertificate(coloring=color)


def _component_walk(
    g: RibbonGraph, color: Dict[str, str]
) -> Iterator[Tuple[List[str], Optional[Tuple[str, ...]]]]:
    """Yield (members in BFS order, first odd closed walk or None) per
    component, filling ``color`` with each node's '-' or '+'.

    Roots are taken in sorted order, so each is its component's least
    node and takes '-'; neighbours are visited in sorted (node, edge)
    order, each first reached one taking the color opposite its
    parent's.  The first edge (u, v) with equal colors (a loop is one)
    closes the odd walk root -> u -> v -> root; the component is walked
    to the end either way.  A parent always has the opposite color, so
    its tree edge never closes a walk.
    """
    adj = g.adjacency()
    parent: Dict[str, Tuple[str, str]] = {}
    for root in sorted(g.nodes):
        if root in color:
            continue
        color[root] = "-"
        members = [root]
        odd = None
        for u in members:  # the list is the BFS queue
            cu = color[u]
            for v, e in sorted(adj[u]):
                if v not in color:
                    color[v] = "+" if cu == "-" else "-"
                    parent[v] = (u, e)
                    members.append(v)
                elif odd is None and color[v] == cu:
                    odd = (*reversed(_path_to_root(u, parent)), e, *_path_to_root(v, parent))
        yield members, odd


def _path_to_root(v, parent) -> List[str]:
    edges = []
    while v in parent:
        v, e = parent[v]
        edges.append(e)
    return edges


def connected_components(g: RibbonGraph) -> List[Tuple[str, ...]]:
    """Node partition into components, each sorted, sorted by first node
    (each component's root is its least node, and the roots ascend)."""
    return [tuple(sorted(members)) for members, _ in _component_walk(g, {})]


def circular_subgraphs(g: RibbonGraph) -> List[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """All circular subgraphs as (node cycle, edge cycle) pairs.

    A circular subgraph is a closed walk with no repeated edge whose
    nodes all have valency two within the walk: a loop (length 1), a pair
    of parallel edges (length 2), or a simple cycle of length >= 3 with
    one choice of connecting edge per step.  Deduplicated up to rotation
    and reflection.
    """
    out = []
    for e in g.edges:
        if g.is_loop(e):
            u, _ = g.endpoints(e)
            out.append(((u,), (e,)))

    pair_edges: Dict[Tuple[str, str], List[str]] = {}
    for e in g.edges:
        u, v = g.endpoints(e)
        if u != v:
            pair_edges.setdefault(tuple(sorted((u, v))), []).append(e)
    for (u, v), es in sorted(pair_edges.items()):
        es = sorted(es)
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                out.append(((u, v), (es[i], es[j])))

    out.extend(_long_cycles(g, pair_edges))
    return out


def _long_cycles(g, pair_edges):
    nodes = sorted(g.nodes)
    neighbours: Dict[str, List[str]] = {v: [] for v in nodes}
    for (u, v) in pair_edges:
        neighbours[u].append(v)
        neighbours[v].append(u)

    results = []

    # each cycle starts at its least node and is walked both ways; keep
    # the direction whose second node is less than its last
    def dfs(start, current, visited, node_path):
        for nxt in sorted(neighbours[current]):
            if nxt == start and len(node_path) >= 3:
                if node_path[1] < node_path[-1]:
                    results.append(tuple(node_path))
            elif nxt not in visited and nxt > start:
                dfs(start, nxt, visited | {nxt}, node_path + [nxt])

    for start in nodes:
        dfs(start, start, {start}, [start])

    out = []
    for cycle in sorted(results):
        steps = [
            tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
            for i in range(len(cycle))
        ]
        choices = [sorted(pair_edges[s]) for s in steps]
        out.extend((cycle, combo) for combo in itertools.product(*choices))
    return out


def quiver_from_ribbon_graph(g: RibbonGraph) -> GentleQuiver:
    """Inverse construction: one arrow per slot, following cyclic orders.

    Quiver vertices are the edges of g; the slot at position i of node v
    with edge e contributes an arrow "v_i": e -> next edge, and sigma
    sends it to the arrow of the next slot.  The result always validates
    as complete gentle and round-trips through graph_of_quiver.
    """
    arrows = []
    sigma = {}
    for v in g.nodes:
        seq = g.slots[v]
        k = len(seq)
        for i, e in enumerate(seq):
            name = f"{v}_{i}"
            arrows.append((name, e, seq[(i + 1) % k]))
            sigma[name] = f"{v}_{(i + 1) % k}"
    return validate_complete_gentle(g.edges, arrows, sigma=sigma)


def ribbon_isomorphic(g1: RibbonGraph, g2: RibbonGraph) -> bool:
    """Ribbon graph isomorphism (incidence plus cyclic orders).

    Ribbon graphs correspond to complete gentle quivers up to
    isomorphism, so this reduces to isomorphism of the derived quivers.
    """
    return quiver_isomorphism(quiver_from_ribbon_graph(g1), quiver_from_ribbon_graph(g2)) is not None
