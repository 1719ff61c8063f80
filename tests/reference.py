"""Reference implementations that only the tests use.

Each function here is a slower or more general way to compute something
the package computes another way, or a small helper over the package's
types that no library path needs: dense-table multiplication in a
quotient, the residue of any parent-order path, the socle, the
products that land on the top cycles with the pairing involution they
make, and the scaling map's check, each read off the listed products
(the decisions read the product rule instead), the socle and the
landing read through one call of the pointwise product rule per pair
(the decisions evaluate the rule inline), the socle quotient
comparison, the Frobenius form's closed form on paths, the order's phi
on basis pairs through one call of the coordinate rule per pair (the
checks apply the rule inline), z-adic expansion of canonical
coordinates, an involution's sign on a path and the involution applied
to an order element, an order report with its
views, theta psi and psi theta both computed,
polarization queries, the basis layout and the scaling map read
through one accessor call per fact, the
ribbon graph's bipartite certificate and components by a BFS and a DFS
of their own, random field scalars, and k[t] evaluation and printing.
The tests compare the package against them.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from operator import itemgetter

from ribbonorders.fdalg import FdAlgebra, Product, root_of_minus_one
from ribbonorders.fields import Field, PolyRing, PrimeField
from ribbonorders.order import (
    CanonicalBasis,
    NuSymmetryReport,
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


def products_socle(alg: FdAlgebra) -> List[int]:
    """The socle as basis-path indices, read off the listed products: the
    paths that no product with an arrow residue keeps.  The products are
    listed row by row, so left multiplication by b_g is injective iff no
    k repeats within row g, which a per-index stamp of the last row that
    reached k tests; right multiplication keeps a set of g * dim + k.
    Raises AssertionError when a residue is not one path or a
    multiplication is not injective, with the messages of ``fdalg.socle``."""
    n = alg.dim
    residue = bytearray(n)
    for a in alg.quiver.arrow_names:
        g = alg.arrow_residue(a)
        if len(g) != 1:
            raise AssertionError(f"arrow residue of {a} is not one basis path")
        for x in g:
            residue[x] = 1
    kept = bytearray(n)
    row = [-1] * n  # row[k]: the last residue row with a product on b_k
    right = set()  # g * n + k: b_x b_g is c b_k

    def not_injective(side, g):
        return AssertionError(f"{side} multiplication by {alg.label(g)} is not injective on basis paths")

    for i, j, k, _ in alg.products:
        if residue[i]:
            if row[k] == i:
                raise not_injective("left", i)
            row[k] = i
            kept[j] = 1
        if residue[j]:
            if j * n + k in right:
                raise not_injective("right", j)
            right.add(j * n + k)
            kept[i] = 1
    return [x for x, k in enumerate(kept) if not k]


def products_top_pairing(alg: FdAlgebra) -> Tuple[List[Product], Optional[List[int]]]:
    """(landing, pi): the listed products that land on a kept top cycle,
    in row order, and the layout's ``pi`` when they are its graph (one
    per row, at column pi(i)), else None."""
    top = alg.top_mask
    landing = [p for p in alg.products if top[p[2]]]
    rows, cols = [p[0] for p in landing], [p[1] for p in landing]
    return landing, alg.pi if cols == alg.pi and rows == list(range(alg.dim)) else None


def products_socle_landing(alg: FdAlgebra, paths: List[int]) -> List[Product]:
    """``fdalg._socle_landing`` read off the listed products
    (:func:`products_top_pairing`), with its messages: the socle paths
    must be the kept top cycles, the products landing on them pi's
    graph, and each sign 1 or -1."""
    top = alg.top_mask
    if len(paths) != len(alg.top_index) or not all(map(top.__getitem__, paths)):
        raise AssertionError("the socle is not the set of kept top cycles")
    landing, pi = products_top_pairing(alg)
    if pi is None:
        raise AssertionError("the products landing on the socle are not the graph of an involution")
    if not {1, -1}.issuperset(map(itemgetter(3), landing)):
        raise AssertionError("a product landing on the socle has a sign other than 1 and -1")
    return landing


def verify_scaling_map(tw: FdAlgebra, scales: Mapping[str, object]) -> bool:
    """psi(b) = d(b) b, with d(b) the product of the scalings along b,
    is an isomorphism from the twisted quotient onto the plain one, read
    off every listed product: psi is multiplicative iff s d(b_k) =
    d(b_i) d(b_j) for every product b_i b_j = s b_k, s = +-1, and
    bijective iff no d is zero.  A sign other than 1 and -1 raises
    AssertionError."""
    f = tw.field
    diag = tw.path_products(f, scales)
    if not all(diag):
        return False
    for i, j, k, s in tw.products:
        if s == 1:
            dk = diag[k]
        elif s == -1:
            dk = f.neg(diag[k])
        else:
            raise AssertionError(f"product {tw.label(i)} * {tw.label(j)} has sign {s!r}, not 1 or -1")
        if f.mul(diag[i], diag[j]) != dk:
            return False
    return True


def rule_socle(alg: FdAlgebra) -> List[int]:
    """``fdalg.socle`` with one call of the pointwise rule
    ``alg.product`` per pair, at the same pairs in the same order, with
    its messages: the reference for the socle's inline rule, on an
    honest or a corrupted layout."""
    residues = set()
    for a in alg.quiver.arrow_names:
        g = alg.arrow_residue(a)
        if len(g) != 1:
            raise AssertionError(f"arrow residue of {a} is not one basis path")
        residues.update(g)
    rule, walks, after, by_next, first, kept = alg.product, alg.walks, alg.after, alg.by_next, alg.first, alg.kept
    position, source = alg.quiver.position, alg.quiver.source
    reached = bytearray(alg.dim)
    stamp = [-1] * alg.dim

    def not_injective(side, g):
        return AssertionError(f"{side} multiplication by {alg.label(g)} is not injective on basis paths")

    for g in sorted(residues):
        s, a, _ = walks[g]
        side = 2 * g
        for j in (position(s), *by_next[a]):  # b_g b_j
            p = rule(g, j)
            if p is not None:
                if stamp[p[0]] == side:
                    raise not_injective("left", g)
                stamp[p[0]] = side
                reached[j] = 1
        b, side = after[g], side + 1
        for x in (position(source(b)), *range(first[b], first[b] + kept[b])):  # b_x b_g
            p = rule(x, g)
            if p is not None:
                if stamp[p[0]] == side:
                    raise not_injective("right", g)
                stamp[p[0]] = side
                reached[x] = 1
    return [x for x, r in enumerate(reached) if not r]


def rule_top_pairing(alg: FdAlgebra) -> Tuple[List[Product], Optional[List[int]]]:
    """``FdAlgebra.top_pairing`` with one call of the pointwise rule
    ``alg.product`` per pair (i, pi(i)): the reference for its inline
    rule, on an honest or a corrupted layout."""
    rule, pi, top = alg.product, alg.pi, alg.top_mask
    landing: List[Product] = []
    for i, j in enumerate(pi):
        p = rule(i, j)
        if p is None or not top[p[0]]:
            return landing, None
        landing.append((i, j) + p)
    return landing, pi


def with_sigma_rule(alg: FdAlgebra, **lists) -> FdAlgebra:
    """A copy of alg with its products unlisted, whose sigma-rule lists
    (``walks``, ``by_next``, ``after`` and ``pi``, and the ``by_end``
    view) are alg's, except those given: a corrupted layout, for the
    product rule and its inline readers."""
    copy = dataclasses.replace(alg, products=None)
    names = ("walks", "by_next", "after", "pi")
    copy.__dict__["_sigma_rule"] = tuple(lists.get(name, getattr(alg, name)) for name in names)
    copy.__dict__["by_end"] = lists.get("by_end", alg.by_end)
    return copy


def with_rule(alg: FdAlgebra, rule) -> FdAlgebra:
    """A copy of alg with its products unlisted, whose product rule is
    rule(alg.product, i, j): the copy's readers and its product list
    both read it."""
    copy = dataclasses.replace(alg, products=None)
    real = alg.product
    copy.product = lambda i, j: rule(real, i, j)
    return copy


def socle_is_top_span(alg: FdAlgebra) -> bool:
    """The socle, read off the products, should be exactly the span of
    the top cycle residues."""
    tops = sorted(set(alg.top_index.values()))
    return products_socle(alg) == tops


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


def terms_phi_of(basis: CanonicalBasis):
    """phi on basis pairs through :meth:`BasisLayout.terms`: the function
    (i, j) -> phi(b_i b_j) as [(degree, coefficient)], one coordinate
    rewrite per call, of b_i for b_j = e(v), else of b_j lengthened by
    b_i's length, keeping the terms at the kept top cycles."""
    walks, tops, terms = basis.walks, basis.top_mask, basis.terms

    def phi(i: int, j: int) -> List[Tuple[int, int]]:
        s, a, n = walks[j]
        return [(d, c) for k, d, c in (terms(*walks[i]) if a is None else terms(s, a, n + walks[i][2])) if tops[k]]

    return phi


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


def report_dict(rep, **views) -> dict:
    """``dataclasses.asdict`` of a ``NuSymmetryReport`` or ``ThetaPsiReport``
    plus its two views (``nonzero_pairs`` and ``expected_pairs``, or
    ``theta`` and ``psi``), which are built on read and are not fields;
    a view given in ``views`` is taken as it is, not read."""
    names = ("nonzero_pairs", "expected_pairs") if isinstance(rep, NuSymmetryReport) else ("theta", "psi")
    return {**dataclasses.asdict(rep), **{k: views[k] if k in views else getattr(rep, k) for k in names}}


def theta_psi_products(field: Field, theta, psi) -> Tuple[bool, bool]:
    """(theta psi = id, psi theta = id) over k[t], both products
    computed in full, for theta and psi given as columns of (row,
    degree, int coefficient) terms (``order._theta_psi_columns``): the
    two-product check that ``verify_theta_psi`` replaced by one product."""

    def is_identity(left, right) -> bool:
        for c, col in enumerate(right):
            acc: Dict[Tuple[int, int], int] = {}
            for s, d, x in col:
                for r, d2, y in left[s]:
                    acc[(r, d + d2)] = acc.get((r, d + d2), 0) + x * y
            acc[(c, 0)] = acc.get((c, 0), 0) - 1
            if any(field.from_int(v) for v in acc.values()):
                return False
        return True

    return is_identity(theta, psi), is_identity(psi, theta)


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


def accessor_layout(q: GentleQuiver, eps: Polarization, mm: Mapping[str, int]) -> dict:
    """The fields of :func:`order.basis_layout` (``first`` as its item
    list, in index order) and its sigma-rule views ``walks``, ``after``,
    ``by_next`` and ``pi``, read through one public accessor call per
    fact: ``orbit_rep``, ``cycle_length``, ``source``, ``sigma_power``,
    ``Polarization.sign`` and ``positive_arrow_at``.  pi is found by a
    lookup of the pairing path's walk, not by its closed form."""
    dim, first, kept, top = len(q.vertices), {}, {}, {}
    walks: List[tuple] = [(v, None, 0) for v in q.vertices]
    after: List[Optional[str]] = [None] * dim
    for a in sorted(q.arrow_names):
        top[a] = mm[q.orbit_rep(a)] * q.cycle_length(a)
        first[a] = dim
        kept[a] = top[a] if eps.sign(a) == PLUS else top[a] - 1
        dim += kept[a]
        for length in range(1, kept[a] + 1):
            walks.append((q.source(a), a, length))
            after.append(q.sigma_power(a, length))
    top_index = {}
    for v in q.vertices:
        a = eps.positive_arrow_at(q, v)
        top_index[v] = first[a] + top[a] - 1
    by_next: Dict[str, List[int]] = {a: [] for a in first}
    for r in range(len(q.vertices), dim):
        by_next[after[r]].append(r)
    index = {w: r for r, w in enumerate(walks)}
    pi = [0] * dim
    for r, (s, a, length) in enumerate(walks):
        if a is None:
            pi[r] = top_index[s]
        elif r == top_index[s]:
            pi[r] = q.position(s)
        else:  # the path that follows b_r along sigma up to the top length
            pi[r] = index[(q.source(after[r]), after[r], top[a] - length)]
    return {
        "dim": dim,
        "first": list(first.items()),
        "kept": kept,
        "top_index": top_index,
        "top_lengths": top,
        "walks": tuple(walks),
        "after": after,
        "by_next": by_next,
        "pi": pi,
    }


def per_orbit_psi(stable: Polarization, field: Field, mm: Mapping[str, int]) -> dict:
    """c5's scaling map on a bipartite quiver outside characteristic two,
    with one ``root_of_minus_one`` call per negative orbit, in orbit
    order: {"scales": {arrow: scale}}, or, at the first negative orbit
    whose multiplicity has no root, {"reason": ..., "witness": ...}."""
    scales = dict.fromkeys(stable.signs, field.one)
    for rep in sorted(mm):
        if stable.sign(rep) == MINUS:
            lam = root_of_minus_one(field, mm[rep])
            if lam is None:
                return {
                    "reason": f"no root of x^{mm[rep]} = -1 in {field.name}",
                    "witness": {"node": rep, "multiplicity": mm[rep]},
                }
            scales[rep] = lam
    return {"scales": scales}


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
