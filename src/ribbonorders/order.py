"""Exact arithmetic in a ribbon graph order over k[[t]].

Elements are finite k-linear combinations of nonzero paths; the central
element z = sum of the c_a^{m_a} realizes the k[[t]]-structure.  Every
computation below touches only finitely many paths, and in the canonical
basis all coefficients live in k[t], so polynomials replace power series
with no loss: there is nothing to truncate.

The canonical basis (for multiplicity one) is
    B = {e_i, x_i | i in Q_0}  u  {a_m | a in Q*_1, 1 <= m < n(a)},
where x_i is the full cycle of the positive arrow at i and Q*_1 is the
set of arrows with n(a) > 1.  Rewriting into B-coordinates follows the
two rules: a non-cyclic path a_{rn+m} equals t^r a_m, and a full cycle
power c_a^r equals t^{r-1} x_i, respectively t^r e_i - t^{r-1} x_i when
the sign of a is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from . import linalg
from .fields import Field, PolyRing, QQ
from .polarize import PLUS, Involution, Polarization, check_polarization, default_polarization, involution_of
from .quiver import GentleQuiver, Path, QuiverError


# ---------------------------------------------------------------------------
# multiplicity maps


def normalize_multiplicity(q: GentleQuiver, m: Union[int, Mapping[str, int], None]) -> Dict[str, int]:
    """Canonicalize a multiplicity map to {orbit representative: value}.

    Accepts None (all ones), a single positive integer (constant map), or
    a mapping keyed by any arrow of each orbit; the map must end up total
    on the orbit set.
    """
    reps = [rep for rep, _ in q.sigma_orbits()]
    if m is None:
        return {rep: 1 for rep in reps}
    if isinstance(m, int):
        if m < 1:
            raise QuiverError("multiplicity must be positive")
        return {rep: m for rep in reps}
    out = {rep: 1 for rep in reps}
    seen = set()
    names = set(q.arrow_names)
    for key, value in m.items():
        if key not in names:
            raise QuiverError(f"multiplicity key {key!r} is not an arrow")
        if int(value) < 1:
            raise QuiverError("multiplicity must be positive")
        rep = q.orbit_rep(key)
        if rep in seen:
            raise QuiverError(f"multiplicity given twice for orbit of {rep!r}")
        seen.add(rep)
        out[rep] = int(value)
    return out


def multiplicity_of_arrow(q: GentleQuiver, m: Dict[str, int], a: str) -> int:
    return m[q.orbit_rep(a)]


# ---------------------------------------------------------------------------
# order elements


@dataclass(frozen=True)
class OrderElement:
    """A finite k-linear combination of nonzero paths (zero coeffs dropped)."""

    quiver: GentleQuiver
    field: Field
    terms: Dict[Path, object]

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        f = self.field
        bits = []
        for p in sorted(self.terms, key=lambda p: (p.length, p.start, p.arrows)):
            bits.append(f"{f.scalar_str(self.terms[p])}*{p.label()}")
        return " + ".join(bits)


def _trim(field: Field, terms: Dict[Path, object]) -> Dict[Path, object]:
    return {p: c for p, c in terms.items() if not field.is_zero(c)}


def zero_element(q: GentleQuiver, field: Field) -> OrderElement:
    return OrderElement(q, field, {})


def path_element(q: GentleQuiver, field: Field, p: Path, coeff=None) -> OrderElement:
    if coeff is None:
        coeff = field.one
    return OrderElement(q, field, _trim(field, {p: coeff}))


def idempotent_element(q: GentleQuiver, field: Field, vertex: str) -> OrderElement:
    return path_element(q, field, q.idempotent(vertex))


def arrow_element(q: GentleQuiver, field: Field, a: str) -> OrderElement:
    return path_element(q, field, q.path_from(a, 1))


def one_element(q: GentleQuiver, field: Field) -> OrderElement:
    return OrderElement(q, field, {q.idempotent(v): field.one for v in q.vertices})


def add(x: OrderElement, y: OrderElement) -> OrderElement:
    _same(x, y)
    f = x.field
    terms = dict(x.terms)
    for p, c in y.terms.items():
        terms[p] = f.add(terms.get(p, f.zero), c)
    return OrderElement(x.quiver, f, _trim(f, terms))


def scale(c, x: OrderElement) -> OrderElement:
    f = x.field
    return OrderElement(x.quiver, f, _trim(f, {p: f.mul(c, v) for p, v in x.terms.items()}))


def sub(x: OrderElement, y: OrderElement) -> OrderElement:
    return add(x, scale(y.field.neg(y.field.one), y))


def multiply(x: OrderElement, y: OrderElement) -> OrderElement:
    """Bilinear extension of path composition; forbidden junctions give 0."""
    _same(x, y)
    f = x.field
    q = x.quiver
    terms: Dict[Path, object] = {}
    for px, cx in x.terms.items():
        for py, cy in y.terms.items():
            prod = q.compose(px, py)
            if prod is None:
                continue
            c = f.mul(cx, cy)
            terms[prod] = f.add(terms.get(prod, f.zero), c)
    return OrderElement(q, f, _trim(f, terms))


def element_power(x: OrderElement, n: int) -> OrderElement:
    acc = one_element(x.quiver, x.field)
    for _ in range(n):
        acc = multiply(acc, x)
    return acc


def elements_equal(x: OrderElement, y: OrderElement) -> bool:
    _same(x, y)
    return x.terms == y.terms


def apply_involution(inv: Involution, x: OrderElement) -> OrderElement:
    f = x.field
    terms = {p: f.mul(inv.path_sign(p), c) for p, c in x.terms.items()}
    return OrderElement(x.quiver, f, _trim(f, terms))


def _same(x: OrderElement, y: OrderElement) -> None:
    if x.quiver is not y.quiver and x.quiver != y.quiver:
        raise QuiverError("elements live over different quivers")
    if x.field != y.field:
        raise QuiverError("elements live over different fields")


def central_element_z(
    q: GentleQuiver, field: Field, m: Union[int, Mapping[str, int], None] = None
) -> OrderElement:
    """z = sum over arrows of c_a^{m_a}; centrality is verified on generators."""
    mm = normalize_multiplicity(q, m)
    z = zero_element(q, field)
    for a in q.arrow_names:
        cycle = q.path_from(a, q.cycle_length(a) * multiplicity_of_arrow(q, mm, a))
        z = add(z, path_element(q, field, cycle))
    for gen in _generator_elements(q, field):
        if not elements_equal(multiply(z, gen), multiply(gen, z)):
            raise AssertionError(f"z fails to commute with {gen}")
    return z


def _generator_elements(q: GentleQuiver, field: Field) -> List[OrderElement]:
    gens = [idempotent_element(q, field, v) for v in q.vertices]
    gens += [arrow_element(q, field, a) for a in q.arrow_names]
    return gens


# ---------------------------------------------------------------------------
# canonical basis and coordinates


@dataclass(frozen=True)
class BasisElement:
    kind: str  # "e", "x" or "a"
    label: str
    path: Path


@dataclass(frozen=True)
class CanonicalBasis:
    """The basis B of the order as a free k[[t]]-module (multiplicity one)."""

    quiver: GentleQuiver
    eps: Polarization
    elements: Tuple[BasisElement, ...]
    index: Dict[str, int]

    def __len__(self) -> int:
        return len(self.elements)

    def labels(self) -> List[str]:
        return [b.label for b in self.elements]

    def element(self, label: str) -> BasisElement:
        return self.elements[self.index[label]]


def canonical_basis(q: GentleQuiver, eps: Polarization) -> CanonicalBasis:
    """B = {e_i, x_i} u {a_m : a in Q*_1, 1 <= m < n(a)}; |B| = sum n(a).

    Defined for multiplicity one only; quotients handle general
    multiplicities.  x_i is the full cycle of the positive arrow at i.
    """
    check_polarization(q, eps)
    elems: List[BasisElement] = []
    for v in q.vertices:
        elems.append(BasisElement("e", f"e({v})", q.idempotent(v)))
    for v in q.vertices:
        a = eps.positive_arrow_at(q, v)
        elems.append(BasisElement("x", f"x({v})", q.path_from(a, q.cycle_length(a))))
    for a in sorted(q.arrow_names):
        n = q.cycle_length(a)
        if n == 1:
            continue
        for m in range(1, n):
            elems.append(BasisElement("a", f"{a}:{m}", q.path_from(a, m)))
    index = {b.label: i for i, b in enumerate(elems)}
    return CanonicalBasis(quiver=q, eps=eps, elements=tuple(elems), index=index)


def path_coordinates(basis: CanonicalBasis, ring: PolyRing, p: Path) -> Dict[str, tuple]:
    """Exact B-coordinates of a nonzero path, coefficients in k[t]."""
    q = basis.quiver
    f = ring.field
    if p.is_idempotent:
        return {f"e({p.start})": ring.one}
    a, length = q.first_arrow_form(p)
    n = q.cycle_length(a)
    r, m0 = divmod(length, n)
    if m0 != 0:
        return {f"{a}:{m0}": ring.t_power(r)}
    i = q.source(a)
    if basis.eps.sign(a) == PLUS:
        return {f"x({i})": ring.t_power(r - 1)}
    return {
        f"e({i})": ring.t_power(r),
        f"x({i})": ring.t_power(r - 1, f.neg(f.one)),
    }


def to_canonical_coordinates(
    basis: CanonicalBasis, ring: PolyRing, x: OrderElement
) -> Dict[str, tuple]:
    coords: Dict[str, tuple] = {}
    for p, c in x.terms.items():
        for label, poly in path_coordinates(basis, ring, p).items():
            coords[label] = ring.add(coords.get(label, ring.zero), ring.scale(c, poly))
    return {label: poly for label, poly in coords.items() if poly}


def expand_coordinates(
    basis: CanonicalBasis, ring: PolyRing, coords: Mapping[str, tuple], z: OrderElement
) -> OrderElement:
    """Inverse of to_canonical_coordinates: multiply out the t-powers by z."""
    q = basis.quiver
    f = ring.field
    acc = zero_element(q, f)
    for label, poly in coords.items():
        base = path_element(q, f, basis.element(label).path)
        for r, c in enumerate(poly):
            if f.is_zero(c):
                continue
            acc = add(acc, scale(c, multiply(element_power(z, r), base)))
    return acc


# ---------------------------------------------------------------------------
# Frobenius form


def frobenius_eval(basis: CanonicalBasis, ring: PolyRing, x: OrderElement) -> tuple:
    """The Frobenius form: sum of the x_i-coordinates, a polynomial in t."""
    coords = to_canonical_coordinates(basis, ring, x)
    acc = ring.zero
    for v in basis.quiver.vertices:
        acc = ring.add(acc, coords.get(f"x({v})", ring.zero))
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
# nu-symmetry of the Frobenius form


@dataclass
class NuSymmetryReport:
    ok: bool
    pair_count: int
    counterexamples: List[Tuple[str, str]]
    nonzero_pairs: List[Tuple[str, str]]
    expected_pairs: List[Tuple[str, str]]
    pairs_match: bool


def expected_nonzero_pairs(basis: CanonicalBasis) -> List[Tuple[str, str]]:
    """The exact list of basis pairs (q, p) with phi(q p) != 0:
    (x_i, x_i), (x_i, e_i), (e_i, x_i) per vertex, and the split-cycle
    pairs (derivative of c_a at m, a_m)."""
    q = basis.quiver
    pairs = []
    for v in q.vertices:
        pairs.extend([(f"x({v})", f"x({v})"), (f"x({v})", f"e({v})"), (f"e({v})", f"x({v})")])
    for a in sorted(q.arrow_names):
        n = q.cycle_length(a)
        for m in range(1, n):
            b = q.sigma_power(a, m)
            pairs.append((f"{b}:{n - m}", f"{a}:{m}"))
    return sorted(set(pairs))


def check_nu_symmetry(q: GentleQuiver, eps: Polarization, field: Field) -> NuSymmetryReport:
    """Verify phi(q p) = phi(nu(p) q) on all ordered basis pairs, and that
    the nonzero pairs are exactly the expected list."""
    basis = canonical_basis(q, eps)
    ring = PolyRing(field)
    inv = involution_of(q, eps, field)
    elems = [path_element(q, field, b.path) for b in basis.elements]
    labels = basis.labels()

    counterexamples = []
    nonzero = []
    for i, qe in enumerate(elems):
        for j, pe in enumerate(elems):
            lhs = frobenius_eval(basis, ring, multiply(qe, pe))
            rhs = frobenius_eval(basis, ring, multiply(apply_involution(inv, pe), qe))
            if lhs != rhs:
                counterexamples.append((labels[i], labels[j]))
            if lhs != ring.zero:
                nonzero.append((labels[i], labels[j]))
    nonzero = sorted(set(nonzero))
    expected = expected_nonzero_pairs(basis)
    return NuSymmetryReport(
        ok=not counterexamples,
        pair_count=len(elems) ** 2,
        counterexamples=counterexamples,
        nonzero_pairs=nonzero,
        expected_pairs=expected,
        pairs_match=nonzero == expected,
    )


# ---------------------------------------------------------------------------
# the bimodule isomorphism of the canonical dual


@dataclass
class ThetaPsiReport:
    ok: bool
    size: int
    theta: List[List[tuple]]
    psi: List[List[tuple]]
    theta_psi_identity: bool
    psi_theta_identity: bool
    det_theta_constant: object
    bimodule_ok: bool
    bimodule_counterexamples: List[str]


def _poly_mat_mul(ring: PolyRing, a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[ring.zero] * m for _ in range(n)]
    for i in range(n):
        for s in range(k):
            c = a[i][s]
            if not c:
                continue
            for j in range(m):
                if b[s][j]:
                    out[i][j] = ring.add(out[i][j], ring.mul(c, b[s][j]))
    return out


def _poly_identity(ring: PolyRing, n):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def theta_matrix(basis: CanonicalBasis, ring: PolyRing) -> List[List[tuple]]:
    """Matrix of p -> p . phi from B to the dual basis, over k[t]:
    e_i -> x_i*, x_i -> e_i* + t x_i*, a_m -> eps_a (split cycle)*."""
    q = basis.quiver
    f = ring.field
    n = len(basis)
    mat = [[ring.zero] * n for _ in range(n)]
    for col, b in enumerate(basis.elements):
        if b.kind == "e":
            v = b.path.start
            mat[basis.index[f"x({v})"]][col] = ring.one
        elif b.kind == "x":
            v = b.path.start
            mat[basis.index[f"e({v})"]][col] = ring.one
            mat[basis.index[f"x({v})"]][col] = ring.t_power(1)
        else:
            a, m = q.first_arrow_form(b.path)
            sign = f.one if basis.eps.sign(a) == PLUS else f.neg(f.one)
            dlabel = _deriv_label(q, a, m)
            mat[basis.index[dlabel]][col] = ring.constant(sign)
    return mat


def psi_matrix(basis: CanonicalBasis, ring: PolyRing) -> List[List[tuple]]:
    """Matrix of the inverse map from the dual basis back to B:
    x_i* -> e_i, e_i* -> x_i - t e_i, a_m* -> eps_{sigma^m(a)} (split cycle)."""
    q = basis.quiver
    f = ring.field
    n = len(basis)
    mat = [[ring.zero] * n for _ in range(n)]
    for col, b in enumerate(basis.elements):
        if b.kind == "x":
            v = b.path.start
            mat[basis.index[f"e({v})"]][col] = ring.one
        elif b.kind == "e":
            v = b.path.start
            mat[basis.index[f"x({v})"]][col] = ring.one
            mat[basis.index[f"e({v})"]][col] = ring.t_power(1, f.neg(f.one))
        else:
            a, m = q.first_arrow_form(b.path)
            b_arrow = q.sigma_power(a, m)
            sign = f.one if basis.eps.sign(b_arrow) == PLUS else f.neg(f.one)
            mat[basis.index[_deriv_label(q, a, m)]][col] = ring.constant(sign)
    return mat


def _deriv_label(q: GentleQuiver, a: str, m: int) -> str:
    n = q.cycle_length(a)
    return f"{q.sigma_power(a, m)}:{n - m}"


def verify_theta_psi(q: GentleQuiver, eps: Polarization, field: Field) -> ThetaPsiReport:
    """Check theta and psi are mutually inverse over k[t] and that theta is
    right-linear for the involution-twisted action on generators."""
    basis = canonical_basis(q, eps)
    ring = PolyRing(field)
    inv = involution_of(q, eps, field)
    n = len(basis)
    theta = theta_matrix(basis, ring)
    psi = psi_matrix(basis, ring)
    ident = _poly_identity(ring, n)
    tp = _poly_mat_mul(ring, theta, psi) == ident
    pt = _poly_mat_mul(ring, psi, theta) == ident

    det_const = None
    if tp and pt:
        # theta psi = id forces det(theta) to be a unit of k[t], i.e. a
        # nonzero constant; its value is det of theta at t = 0.
        theta0 = [[ring.eval(entry, field.zero) for entry in row] for row in theta]
        det_const = linalg.det(field, theta0)

    bad: List[str] = []
    gens = [(f"e({v})", idempotent_element(q, field, v)) for v in q.vertices]
    gens += [(a, arrow_element(q, field, a)) for a in sorted(q.arrow_names)]
    basis_elems = [path_element(q, field, b.path) for b in basis.elements]
    for col, u in enumerate(basis_elems):
        theta_u = [theta[row][col] for row in range(n)]
        for gname, g in gens:
            # theta(u * nu(g)) as a coordinate vector over the dual basis
            lhs_coords = to_canonical_coordinates(
                basis, ring, multiply(u, apply_involution(inv, g))
            )
            lhs = [ring.zero] * n
            for label, poly in lhs_coords.items():
                c = basis.index[label]
                for row in range(n):
                    if theta[row][c]:
                        lhs[row] = ring.add(lhs[row], ring.mul(poly, theta[row][c]))
            # (theta(u) . g) evaluated on each basis element r: theta(u)(g r)
            rhs = []
            for r in basis_elems:
                gr = to_canonical_coordinates(basis, ring, multiply(g, r))
                acc = ring.zero
                for label, poly in gr.items():
                    acc = ring.add(acc, ring.mul(poly, theta_u[basis.index[label]]))
                rhs.append(acc)
            if lhs != rhs:
                bad.append(f"theta(u * nu(g)) != theta(u).g for u={basis.elements[col].label}, g={gname}")

    return ThetaPsiReport(
        ok=tp and pt and not bad,
        size=n,
        theta=theta,
        psi=psi,
        theta_psi_identity=tp,
        psi_theta_identity=pt,
        det_theta_constant=det_const,
        bimodule_ok=not bad,
        bimodule_counterexamples=bad,
    )


# ---------------------------------------------------------------------------
# Cartan matrix and rank bookkeeping


@dataclass
class CartanReport:
    matrix: List[List[int]]
    rank: int
    nodes: int
    components: int
    rank_criterion_value: int
    rank_criterion_matches: bool


def cartan_matrix(q: GentleQuiver, eps: Optional[Polarization] = None) -> List[List[int]]:
    """Entry (j, i) counts canonical basis elements from vertex i to j.

    e_i and x_i sit on the diagonal; the counts do not depend on the
    polarization (x_i vs y_i are both cycles at i).
    """
    if eps is None:
        eps = default_polarization(q)
    basis = canonical_basis(q, eps)
    vindex = {v: i for i, v in enumerate(q.vertices)}
    n = len(q.vertices)
    mat = [[0] * n for _ in range(n)]
    for b in basis.elements:
        i = vindex[b.path.start]
        j = vindex[q.path_end(b.path)]
        mat[j][i] += 1
    return mat


def cartan_rank(mat: List[List[int]]) -> int:
    rows = [[QQ.from_int(x) for x in row] for row in mat]
    return linalg.rank(QQ, rows)


def cartan_report(q: GentleQuiver) -> CartanReport:
    """Cartan matrix, exact rank over the rationals, and the bipartiteness
    rank criterion rank(C) = |G_0| - c, reported (not asserted)."""
    from .ribbon import connected_components, graph_of_quiver

    mat = cartan_matrix(q)
    rk = cartan_rank(mat)
    g = graph_of_quiver(q)
    comps = connected_components(g)
    expected = len(g.nodes) - len(comps)
    return CartanReport(
        matrix=mat,
        rank=rk,
        nodes=len(g.nodes),
        components=len(comps),
        rank_criterion_value=expected,
        rank_criterion_matches=rk == expected,
    )


@dataclass
class RankReport:
    total_rank: int
    per_arrow: Dict[str, int]
    basis_size: Optional[int]
    matches_basis: Optional[bool]


def rank_formula_check(q: GentleQuiver, m: Union[int, Mapping[str, int], None] = None) -> RankReport:
    """rk Lambda = sum over arrows of m(v_a) n(a); for multiplicity one this
    must equal |B|, and the report says whether it does."""
    mm = normalize_multiplicity(q, m)
    per = {a: multiplicity_of_arrow(q, mm, a) * q.cycle_length(a) for a in q.arrow_names}
    total = sum(per.values())
    basis_size = None
    matches = None
    if all(v == 1 for v in mm.values()):
        basis_size = len(canonical_basis(q, default_polarization(q)))
        matches = basis_size == total
    return RankReport(total_rank=total, per_arrow=per, basis_size=basis_size, matches_basis=matches)
