"""Reference implementations that only the tests use.

Each function here is a slower or more general way to compute something
the package computes another way, or a small helper over the package's
types that no library path needs: dense-table multiplication in a
quotient, the residue of any parent-order path, the pairing involution
read off the products that land on the top cycles, the socle quotient
comparison, the Frobenius form's closed form on paths, z-adic expansion
of canonical coordinates, an involution's sign on a path and the
involution applied to an order element, polarization queries, the
ribbon graph's bipartite certificate and components by a BFS and a DFS
of their own, random field scalars, and k[t] evaluation and printing.
The tests compare the package against them.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from ribbonorders.fdalg import FdAlgebra, socle
from ribbonorders.fields import Field, PolyRing, PrimeField
from ribbonorders.order import (
    CanonicalBasis,
    OrderElement,
    add,
    element_power,
    multiply,
    path_element,
    scale,
    zero_element,
)
from ribbonorders.polarize import MINUS, PLUS, Involution, Polarization
from ribbonorders.quiver import GentleQuiver, Path
from ribbonorders.ribbon import BipartiteCertificate, RibbonGraph

Sparse = Dict[int, object]


# ---------------------------------------------------------------------------
# quotient algebras


def unit(alg: FdAlgebra) -> Sparse:
    """The unit: the sum of the idempotents."""
    return {alg.index[lab]: alg.field.one for lab in alg.basis[: len(alg.quiver.vertices)]}


def label_vector(alg: FdAlgebra, label: str) -> Sparse:
    """The basis element with this label, as a sparse element."""
    return {alg.index[label]: alg.field.one}


def reduce_path(alg: FdAlgebra, p: Path) -> Sparse:
    """Residue of a parent-order path in the normal-form basis."""
    if p.is_idempotent:
        return {alg.index[f"e({p.start})"]: alg.field.one}
    r = alg.residue(p.arrows[0], p.length)
    return {} if r is None else {r[0]: r[1]}


def field_products(alg: FdAlgebra) -> list:
    """The products (i, j, k, c) with each sign mapped into the field."""
    return [(i, j, k, alg.scalar[s]) for i, j, k, s in alg.products]


def sign_form(alg: FdAlgebra, phi: list) -> list:
    """A field-valued form with values 0, 1 and -1 as the sign form (native
    ints) that ``pairing_det`` reads; any other value raises."""
    signs = {alg.scalar[s]: s for s in (-1, 1, 0)}  # +1 wins over -1 in char 2
    return [signs[c] for c in phi]


def mul(alg: FdAlgebra, u: Sparse, v: Sparse) -> Sparse:
    """The product of two sparse elements, read off the dim^2 table."""
    f = alg.field
    out: Sparse = {}
    for i, ci in u.items():
        row = alg.table[i]
        for j, cj in v.items():
            c = f.mul(ci, cj)
            for k, ck in row[j].items():
                s = f.add(out.get(k, f.zero), f.mul(c, ck))
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return out


def landing_involution(n: int, landing: list) -> Optional[List[int]]:
    """pi as the list of pi(i) when the pairs (i, j) of the products
    (i, j, k, s) in landing are the graph of an involution pi of the n
    basis indices, else None: the pairing read off the products, which
    the layout's closed-form ``pi`` must equal."""
    if len(landing) != n:
        return None
    pi = [-1] * n
    for p in landing:
        pi[p[0]] = p[1]
    if -1 not in pi and [pi[j] for j in pi] == list(range(n)):
        return pi
    return None


def socle_is_top_span(alg: FdAlgebra) -> bool:
    """The socle should be exactly the span of the top cycle residues."""
    tops = sorted(set(alg.top_index.values()))
    return socle(alg) == tops


def socle_quotient_tables_equal(a: FdAlgebra, b: FdAlgebra) -> bool:
    """Compare the two quotients after killing their socles.

    Both socles are spans of top cycle residues here, so the quotient
    products are the original ones with every product that has a top
    index (as a factor or as the result) dropped.  A future
    instance where the socles are not basis-aligned would need an honest
    Morita comparison instead; that case is detected and raised.
    """
    if a.basis != b.basis:
        return False
    if not (socle_is_top_span(a) and socle_is_top_span(b)):
        raise AssertionError("socle is not spanned by top cycles; table comparison invalid")
    tops = set(a.top_index.values())

    def below_top(alg: FdAlgebra) -> Dict[Tuple[int, int, int], object]:
        return {(i, j, k): c for i, j, k, c in field_products(alg) if tops.isdisjoint((i, j, k))}

    return below_top(a) == below_top(b)


# ---------------------------------------------------------------------------
# the order


def path_sign(inv: Involution, p: Path):
    """The involution's sign on the path p, arrow by arrow: the product
    of the signs of its arrows."""
    f = inv.field
    acc = f.one
    for a in p.arrows:
        acc = f.mul(acc, inv.signs[a])
    return acc


def apply_involution(inv: Involution, x: OrderElement) -> OrderElement:
    """nu(x): each path scaled by its path sign."""
    f = x.field
    terms = {p: f.mul(path_sign(inv, p), c) for p, c in x.terms.items()}
    return OrderElement(x.quiver, f, {p: c for p, c in terms.items() if c})


def expand_coordinates(
    basis: CanonicalBasis, ring: PolyRing, coords: Mapping[str, tuple], z: OrderElement
) -> OrderElement:
    """Inverse of to_canonical_coordinates: multiply out the t-powers by z."""
    q = basis.quiver
    f = ring.field
    acc = zero_element(q, f)
    for label, poly in coords.items():
        base = path_element(q, f, basis.paths[label])
        for r, c in enumerate(poly):
            if f.is_zero(c):
                continue
            acc = add(acc, scale(c, multiply(element_power(z, r), base)))
    return acc


def frobenius_closed_form(basis: CanonicalBasis, ring: PolyRing, p: Path) -> tuple:
    """Closed form on paths: full cycle powers c_a^r give eps_a * t^{r-1},
    everything else (including idempotents) gives zero."""
    q = basis.quiver
    f = ring.field
    if p.is_idempotent:
        return ring.zero
    a, length = q.first_arrow_form(p)
    n = q.cycle_length(a)
    r, m0 = divmod(length, n)
    if m0 != 0:
        return ring.zero
    sign = f.one if basis.eps.sign(a) == PLUS else f.neg(f.one)
    return ring.t_power(r - 1, sign)


# ---------------------------------------------------------------------------
# polarizations


def negative_arrow_at(eps: Polarization, q: GentleQuiver, vertex: str) -> str:
    a, b = q.arrows_out(vertex)
    return a if eps.signs[a] == MINUS else b


def is_sigma_stable(eps: Polarization, q: GentleQuiver) -> bool:
    return all(eps.signs[a] == eps.signs[q.sigma[a]] for a in q.arrow_names)


# ---------------------------------------------------------------------------
# ribbon graphs


def bfs_bipartite(g: RibbonGraph) -> BipartiteCertificate:
    """The bipartite certificate by a BFS of its own that stops at the
    first monochromatic edge: the first loop in edge order, else per
    component from its least node (colored '-'), neighbours in sorted
    order, the parent edge skipped."""
    adj = g.adjacency()
    color: Dict[str, str] = {}
    parent_edge: Dict[str, Optional[str]] = {}
    parent: Dict[str, Optional[str]] = {}

    for e in g.edges:
        if g.is_loop(e):
            return BipartiteCertificate(odd_walk=(e,))

    for root in sorted(g.nodes):
        if root in color:
            continue
        color[root] = "-"
        parent[root] = None
        parent_edge[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, e in sorted(adj[u]):
                if e == parent_edge[u] and v == parent[u]:
                    continue
                if v not in color:
                    color[v] = "+" if color[u] == "-" else "-"
                    parent[v] = u
                    parent_edge[v] = e
                    queue.append(v)
                elif color[v] == color[u]:
                    walk = _path_to_root(u, parent, parent_edge)
                    back = _path_to_root(v, parent, parent_edge)
                    return BipartiteCertificate(
                        odd_walk=tuple(reversed(walk)) + (e,) + tuple(back)
                    )
    return BipartiteCertificate(coloring=color)


def _path_to_root(v, parent, parent_edge) -> List[str]:
    edges = []
    while parent[v] is not None:
        edges.append(parent_edge[v])
        v = parent[v]
    return edges


def dfs_components(g: RibbonGraph) -> List[Tuple[str, ...]]:
    """The components by a DFS of its own: each sorted, sorted by first
    node."""
    adj = g.adjacency()
    seen = set()
    comps = []
    for root in sorted(g.nodes):
        if root in seen:
            continue
        comp = []
        stack = [root]
        seen.add(root)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v, _ in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


# ---------------------------------------------------------------------------
# fields and k[t]


def field_order(field: Field) -> Optional[int]:
    """Number of elements, or None for an infinite field."""
    return field.p if isinstance(field, PrimeField) else None


def random_scalar(field: Field, rng: random.Random, bound: int):
    """A random scalar; `bound` sizes the integer box for infinite fields."""
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return Fraction(rng.randint(-bound, bound))


def poly_eval(ring: PolyRing, p: tuple, x):
    """p(x), by Horner's rule."""
    f = ring.field
    acc = f.zero
    for c in reversed(p):
        acc = f.add(f.mul(acc, x), c)
    return acc


def poly_str(ring: PolyRing, p: tuple) -> str:
    if not p:
        return "0"
    f = ring.field
    parts = []
    for i, c in enumerate(p):
        if f.is_zero(c):
            continue
        if i == 0:
            parts.append(f.scalar_str(c))
        elif i == 1:
            parts.append("t" if c == f.one else f"{f.scalar_str(c)}*t")
        else:
            parts.append(f"t^{i}" if c == f.one else f"{f.scalar_str(c)}*t^{i}")
    return " + ".join(parts)
