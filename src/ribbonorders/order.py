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

The order-level checks never multiply path combinations.  They read
products of basis paths off the sigma-rule: write a basis path as
(start, first arrow a, length L), with a = None for e_v.  The product
b_i b_j (first b_j, then b_i) is nonzero exactly when one factor is the
idempotent at the junction, or b_i's first arrow is sigma^{L_j}(a_j); it
is then the other factor, respectively the path (start_j, a_j, L_j + L_i).
The order has no truncation, so no product of paths is ever cut off.

* ``check_nu_symmetry`` evaluates phi(b_i b_j) and nu(b_j) phi(b_j b_i)
  on P u P^T, where P is the set of pairs (i, j) with b_i b_j != 0;
  off that set both sides are phi(0) = 0.
* ``verify_theta_psi`` multiplies theta and psi as sparse columns (at
  most two entries each) and compares theta(u nu(g)) with theta(u) g
  only for the generators g with u nu(g) != 0, or with a nonzero
  product g b_r that has a coordinate in the support of theta_u; every
  other (u, g) pair is zero on both sides.

Both checks add and multiply terms (index, degree, coefficient), not
k[t] tuples.  The coordinate rule gives terms with coefficient 1 or -1;
theta, psi (any polynomial, read term by term) and the involution signs
are lifted to native ints where integral.  A compared vector is one
dict keyed (row, degree) holding the difference of its two sides, and
``Field.from_int`` maps its coefficients to k only when it is tested
for zero.  This is exact, as Z -> k is a ring homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from . import linalg
from .fields import Field, PolyRing, QQ
from .polarize import PLUS, Involution, Polarization, check_polarization, default_polarization, involution_of
from .quiver import GentleQuiver, Path, QuiverError
from .ribbon import connected_components, graph_of_quiver


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
        cycle = q.path_from(a, q.cycle_length(a) * mm[q.orbit_rep(a)])
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
    if p.is_idempotent:
        return {f"e({p.start})": ring.one}
    a, length = q.first_arrow_form(p)
    from_int = ring.field.from_int
    return {
        basis.elements[k].label: ring.t_power(d, from_int(c))
        for k, d, c in _coordinate_terms(length, *_rule_data(basis, a))
    }


def _rule_data(basis: CanonicalBasis, a: str) -> Tuple[int, bool, int, int, Optional[int]]:
    """What the coordinate rule reads of the arrow a: n(a), whether a is
    positive, the indices of e_i and x_i at the source i of a, and the
    index of a:1 (None when n(a) = 1); a:1, ..., a:n-1 sit at
    consecutive indices."""
    q, index, i = basis.quiver, basis.index, basis.quiver.source(a)
    positive = basis.eps.sign(a) == PLUS
    return q.cycle_length(a), positive, index[f"e({i})"], index[f"x({i})"], index.get(f"{a}:1")


def _coordinate_terms(length: int, n: int, positive: bool, e: int, x: int, base: Optional[int]):
    """B-coordinates of the path a_length as (index, degree, coefficient)
    terms, for the rule data of a (see :func:`_rule_data`).  x_i's
    positive arrow is a exactly when a is positive.  The coefficients
    are the integers 1 and -1, images of Z in every field."""
    r, m0 = divmod(length, n)
    if m0 != 0:
        return ((base + m0 - 1, r, 1),)
    if positive:
        return ((x, r - 1, 1),)
    return ((e, r, 1), (x, r - 1, -1))


def to_canonical_coordinates(
    basis: CanonicalBasis, ring: PolyRing, x: OrderElement
) -> Dict[str, tuple]:
    coords: Dict[str, tuple] = {}
    for p, c in x.terms.items():
        for label, poly in path_coordinates(basis, ring, p).items():
            coords[label] = ring.add(coords.get(label, ring.zero), ring.scale(c, poly))
    return {label: poly for label, poly in coords.items() if poly}


# ---------------------------------------------------------------------------
# Frobenius form


def frobenius_eval(basis: CanonicalBasis, ring: PolyRing, x: OrderElement) -> tuple:
    """The Frobenius form: sum of the x_i-coordinates, a polynomial in t."""
    coords = to_canonical_coordinates(basis, ring, x)
    acc = ring.zero
    for v in basis.quiver.vertices:
        acc = ring.add(acc, coords.get(f"x({v})", ring.zero))
    return acc


# ---------------------------------------------------------------------------
# the sigma-rule on basis paths


class _BasisPaths:
    """The canonical basis as paths (start, first arrow, length), with the
    data the sigma-rule and the coordinate rule read.

    Built per check call from the basis paths; cycle lengths and sigma
    steps are the quiver's orbit lookups.  The first arrow is None for
    e_v; ``nxt[r]`` is sigma of b_r's last arrow (None for e_v),
    ``nu_sign[r]`` is the involution's sign on b_r, lifted by
    :func:`_integral`, and ``rule[a]`` is :func:`_rule_data` of arrow a.
    """

    def __init__(self, basis: CanonicalBasis, inv: Optional[Involution] = None):
        q = basis.quiver
        self.rule = {a: _rule_data(basis, a) for a in q.arrow_names}
        self.e_index = {v: basis.index[f"e({v})"] for v in q.vertices}
        self.x_index = {v: basis.index[f"x({v})"] for v in q.vertices}
        self.is_x = [b.kind == "x" for b in basis.elements]
        self.paths: List[Tuple[str, Optional[str], int]] = []
        self.nxt: List[Optional[str]] = []
        self.by_end: Dict[str, List[int]] = {v: [] for v in q.vertices}
        self.by_next: Dict[str, List[int]] = {}
        for r, b in enumerate(basis.elements):
            arrows = b.path.arrows
            if arrows:
                self.paths.append((b.path.start, arrows[0], len(arrows)))
                self.nxt.append(q.sigma[arrows[-1]])
                self.by_end[q.target(arrows[-1])].append(r)
                self.by_next.setdefault(self.nxt[r], []).append(r)
            else:
                self.paths.append((b.path.start, None, 0))
                self.nxt.append(None)
                self.by_end[b.path.start].append(r)
        self.nu_sign = [_integral(inv.path_sign(b.path)) for b in basis.elements] if inv is not None else []

    def left_multiples(self, start: str, a: Optional[str], length: int):
        """[(r, p b_r)] over the basis paths b_r with p b_r != 0, where p is
        the path (start, a, length): b_r ends at start when p = e_start,
        and otherwise b_r = e_start or sigma of b_r's last arrow is a."""
        if a is None:
            return [(r, self.paths[r]) for r in self.by_end[start]]
        out = [(self.e_index[start], (start, a, length))]
        for r in self.by_next.get(a, ()):
            s, first, n = self.paths[r]
            out.append((r, (s, first, n + length)))
        return out

    def terms(self, start: str, a: Optional[str], length: int):
        """B-coordinates of the path (start, a, length) as (index, degree,
        coefficient) terms, by the rule of :func:`path_coordinates`."""
        if a is None:
            return ((self.e_index[start], 0, 1),)
        return _coordinate_terms(length, *self.rule[a])

    def deriv_index(self, r: int) -> int:
        """For b_r = a:m, the index of sigma^m(a):n-m, which closes it to
        the full cycle c_a."""
        n, _, _, _, base = self.rule[self.nxt[r]]
        return base + n - self.paths[r][2] - 1


def _integral(c):
    """A scalar as a native int where it is one (a residue of GF(p), an
    integral rational), else the scalar itself."""
    n = int(c)
    return n if n == c else c


def _nonzero(field: Field, acc: Mapping[object, object]) -> bool:
    """Whether a vector of lifted coefficients is nonzero over k."""
    from_int = field.from_int
    return any(from_int(c) for c in acc.values() if c)


def _term_columns(cols: List[Dict[int, tuple]]) -> List[List[Tuple[int, int, object]]]:
    """Sparse columns {row: polynomial} as lists of (row, degree,
    coefficient) terms, zero coefficients dropped.  Any polynomial reads
    in, not only a monomial."""
    return [[(r, d, _integral(c)) for r, poly in col.items() for d, c in enumerate(poly) if c] for col in cols]


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
    for _, orbit in q.sigma_orbits():
        n = len(orbit)
        for k, a in enumerate(orbit):
            for m in range(1, n):
                pairs.append((f"{orbit[(k + m) % n]}:{n - m}", f"{a}:{m}"))
    return sorted(set(pairs))


def check_nu_symmetry(q: GentleQuiver, eps: Polarization, field: Field) -> NuSymmetryReport:
    """Verify phi(q p) = phi(nu(p) q) on all |B|^2 ordered basis pairs, and
    that the nonzero pairs are exactly the expected list.

    Only the pairs in P u P^T are evaluated, where P lists the (i, j) with
    b_i b_j != 0 (the sigma-rule, see the module docstring): off that set
    both b_i b_j and b_j b_i are zero, so both sides of the identity are
    phi(0) = 0.  ``pair_count`` still counts all |B|^2 pairs covered.
    """
    basis = canonical_basis(q, eps)
    inv = involution_of(q, eps, field)
    bp = _BasisPaths(basis, inv)
    labels = basis.labels()
    is_x = bp.is_x
    # phi of each nonzero product as {degree: coefficient}: its x-term, if any
    phi = {}
    for i, path in enumerate(bp.paths):
        for j, prod in bp.left_multiples(*path):
            phi[(i, j)] = {d: c for k, d, c in bp.terms(*prod) if is_x[k]}
    pairs = set(phi)
    pairs.update((j, i) for i, j in phi)

    counterexamples = []
    nonzero = []
    none: Dict[int, int] = {}
    for i, j in sorted(pairs):
        lhs = phi.get((i, j), none)
        rhs = phi.get((j, i), none)
        if not (lhs or rhs):
            continue
        diff = dict(lhs)  # phi(b_i b_j) - nu(b_j) phi(b_j b_i)
        sign = bp.nu_sign[j]
        for d, c in rhs.items():
            diff[d] = diff.get(d, 0) - sign * c
        if _nonzero(field, diff):
            counterexamples.append((labels[i], labels[j]))
        if lhs:  # its one coefficient is 1 or -1, nonzero in every field
            nonzero.append((labels[i], labels[j]))
    nonzero = sorted(nonzero)
    expected = expected_nonzero_pairs(basis)
    return NuSymmetryReport(
        ok=not counterexamples,
        pair_count=len(basis) ** 2,
        counterexamples=counterexamples,
        nonzero_pairs=nonzero,
        expected_pairs=expected,
        pairs_match=nonzero == expected,
    )


# ---------------------------------------------------------------------------
# the bimodule isomorphism of the canonical dual


@dataclass
class ThetaPsiReport:
    """theta and psi are sparse columns {row: entry}, at most two entries
    each; ``_dense`` gives the |B| x |B| matrices."""

    ok: bool
    size: int
    theta: List[Dict[int, tuple]]
    psi: List[Dict[int, tuple]]
    theta_psi_identity: bool
    psi_theta_identity: bool
    det_theta_constant: object
    bimodule_ok: bool
    bimodule_counterexamples: List[str]


def _theta_psi_columns(basis: CanonicalBasis, bp: _BasisPaths, ring: PolyRing):
    """theta and psi as sparse columns {row: entry}, at most two each."""
    f = ring.field
    one, t, minus_t = ring.one, ring.t_power(1), ring.t_power(1, f.neg(f.one))
    minus = ring.constant(f.neg(f.one))
    theta: List[Dict[int, tuple]] = []
    psi: List[Dict[int, tuple]] = []
    for col, b in enumerate(basis.elements):
        if b.kind == "a":
            d = bp.deriv_index(col)  # rule[a][1] says whether a is positive
            theta.append({d: one if bp.rule[bp.paths[col][1]][1] else minus})
            psi.append({d: one if bp.rule[bp.nxt[col]][1] else minus})
            continue
        e, x = bp.e_index[b.path.start], bp.x_index[b.path.start]
        if b.kind == "e":
            theta.append({x: one})
            psi.append({x: one, e: minus_t})
        else:
            theta.append({e: one, x: t})
            psi.append({e: one})
    return theta, psi


def _dense(ring: PolyRing, cols: List[Dict[int, tuple]]) -> List[List[tuple]]:
    n = len(cols)
    mat = [[ring.zero] * n for _ in range(n)]
    for col, entries in enumerate(cols):
        for row, poly in entries.items():
            mat[row][col] = poly
    return mat


def theta_matrix(basis: CanonicalBasis, ring: PolyRing) -> List[List[tuple]]:
    """Matrix of p -> p . phi from B to the dual basis, over k[t]:
    e_i -> x_i*, x_i -> e_i* + t x_i*, a_m -> eps_a (split cycle)*.
    Its inverse psi sends x_i* -> e_i, e_i* -> x_i - t e_i and
    a_m* -> eps_{sigma^m(a)} (split cycle)."""
    return _dense(ring, _theta_psi_columns(basis, _BasisPaths(basis), ring)[0])


def _is_identity_product(field: Field, left, right) -> bool:
    """left @ right == identity, for matrices given as columns of terms."""
    for c, col in enumerate(right):
        acc = {(c, 0): -1}  # the product's column minus the unit column
        for s, d, x in col:
            for r, d2, y in left[s]:
                key = (r, d + d2)
                acc[key] = acc.get(key, 0) + x * y
        if _nonzero(field, acc):
            return False
    return True


def _signed_permutation_det(field: Field, cols: List[Dict[int, object]]):
    """det of a square matrix, given as sparse columns of nonzero scalars,
    with at most one nonzero entry per row and per column: 0 (a zero
    column) or sign(perm) times the product of the entries.  Raises
    AssertionError on a row or a column with two nonzero entries."""
    f = field
    n = len(cols)
    perm = [-1] * n
    taken = [False] * n
    values = []
    for c, entries in enumerate(cols):
        if not entries:
            return f.zero
        if len(entries) > 1:
            raise AssertionError(f"theta(0) has two nonzero entries in column {c}")
        ((r, x),) = entries.items()
        if taken[r]:
            raise AssertionError(f"theta(0) has two nonzero entries in row {r}")
        taken[r] = True
        perm[c] = r
        values.append(x)
    return linalg.signed_permutation_det(f, perm, values)


def verify_theta_psi(q: GentleQuiver, eps: Polarization, field: Field) -> ThetaPsiReport:
    """Check theta and psi are mutually inverse over k[t] and that theta is
    right-linear for the involution-twisted action on generators.

    theta and psi have at most two entries per column, so the inverse
    checks multiply sparse columns of terms, and theta(0) is a signed
    permutation matrix whose determinant is a sign times a product.
    """
    basis = canonical_basis(q, eps)
    inv = involution_of(q, eps, field)
    bp = _BasisPaths(basis)
    theta_cols, psi_cols = _theta_psi_columns(basis, bp, PolyRing(field))
    theta, psi = _term_columns(theta_cols), _term_columns(psi_cols)
    tp = _is_identity_product(field, theta, psi)
    pt = _is_identity_product(field, psi, theta)

    det_const = None
    if tp and pt:
        # theta psi = id forces det(theta) to be a unit of k[t], i.e. a
        # nonzero constant; its value is det of theta at t = 0.
        theta0 = [{r: p[0] for r, p in entries.items() if p and p[0]} for entries in theta_cols]
        det_const = _signed_permutation_det(field, theta0)

    bad = _bimodule_counterexamples(basis, bp, inv, theta)
    return ThetaPsiReport(
        ok=tp and pt and not bad,
        size=len(basis),
        theta=theta_cols,
        psi=psi_cols,
        theta_psi_identity=tp,
        psi_theta_identity=pt,
        det_theta_constant=det_const,
        bimodule_ok=not bad,
        bimodule_counterexamples=bad,
    )


def _bimodule_counterexamples(
    basis: CanonicalBasis, bp: _BasisPaths, inv: Involution, theta: List[List[Tuple[int, int, object]]]
) -> List[str]:
    """The (u, g) pairs, in basis order and then generator order, where
    theta(u nu(g)) and theta(u) g differ as vectors over the dual basis.

    Generators are e(v) in vertex order, then the arrows in sorted order.
    The left side needs u nu(g) != 0, which holds for g = e(start of u)
    and for the arrows whose sigma-successor starts u (the arrows into v
    when u = e(v)).  The right side, r -> theta_u(g b_r), needs a nonzero
    product g b_r with a coordinate in the support of theta_u.  Only
    those generators are compared; every other pair is zero on both sides.
    """
    q = basis.quiver
    arrows = sorted(q.arrow_names)
    gnames = [f"e({v})" for v in q.vertices] + arrows
    gpaths = [(v, None, 0) for v in q.vertices] + [(q.source(a), a, 1) for a in arrows]
    e_gen = {v: k for k, v in enumerate(q.vertices)}
    a_gen = {a: len(q.vertices) + k for k, a in enumerate(arrows)}
    nu = {a: _integral(inv.signs[a]) for a in arrows}
    arrows_into: Dict[str, List[str]] = {v: [] for v in q.vertices}
    for a in arrows:
        arrows_into[q.target(a)].append(a)

    # every nonzero product g b_r, listed once under each coordinate s
    # (a row of theta) as (g, r, degree, coefficient)
    by_coord: List[List[Tuple[int, int, int, int]]] = [[] for _ in bp.paths]
    for g, path in enumerate(gpaths):
        for r, prod in bp.left_multiples(*path):
            for s, d, c in bp.terms(*prod):
                by_coord[s].append((g, r, d, c))

    bad: List[str] = []
    for u, (su, au, lu) in enumerate(bp.paths):
        # theta(u nu(g)) - theta(u) g per generator g, keyed (row, degree)
        diff: Dict[int, Dict[Tuple[int, int], object]] = {}
        left = [(e_gen[su], bp.terms(su, au, lu), 1)]
        for a in arrows_into[su] if au is None else [q.sigma_power(au, -1)]:
            left.append((a_gen[a], bp.terms(q.source(a), a, lu + 1), nu[a]))
        for g, terms, sign in left:
            vec = diff.setdefault(g, {})
            for k, d, c in terms:
                c *= sign
                for row, d2, th in theta[k]:
                    key = (row, d + d2)
                    vec[key] = vec.get(key, 0) + c * th
        for s, d2, th in theta[u]:
            for g, r, d, c in by_coord[s]:
                vec = diff.setdefault(g, {})
                key = (r, d + d2)
                vec[key] = vec.get(key, 0) - c * th
        for g in sorted(diff):
            if _nonzero(inv.field, diff[g]):
                bad.append(
                    f"theta(u * nu(g)) != theta(u).g for u={basis.elements[u].label}, g={gnames[g]}"
                )
    return bad


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
    per = {a: mm[q.orbit_rep(a)] * q.cycle_length(a) for a in q.arrow_names}
    total = sum(per.values())
    basis_size = None
    matches = None
    if all(v == 1 for v in mm.values()):
        basis_size = len(canonical_basis(q, default_polarization(q)))
        matches = basis_size == total
    return RankReport(total_rank=total, per_arrow=per, basis_size=basis_size, matches_basis=matches)
