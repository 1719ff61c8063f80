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

One layout serves the order and every quotient: :func:`basis_layout`
puts e_v at v's position in the vertex list, then per arrow a, in sorted
order, a_1, ..., a_kept(a) at consecutive indices from first[a], the top
cycle of the positive arrow at v (kept) at top_index[v].  Lambda/z Lambda
is the twisted quotient at multiplicity one, and Lambda is free over
k[[z]], so the canonical basis is that quotient's basis lifted:
``canonical_basis`` is the layout at m = 1, with x_v the display label
at top_index[v], the end of its positive arrow's run.  The layout holds
the one sigma-rule of the order and its quotients: ``walks`` gives each
basis path as (start, first arrow, length), with no Path object,
``by_end``, ``by_next`` and ``left_multiples`` the nonzero products, and
``terms`` the coordinates, whose degree-0 part is a quotient's residue.
Its ``top_mask`` marks the kept top cycles, the support of the form phi
of the order (the x-coordinates) and of the standard form of each
quotient, and ``pi`` is that form's pairing involution at t = 0, in
closed form, which the order checks and the quotients read.  The
labels are for display: the layout holds none, and ``label(r)``
formats one from ``walks[r]``, on first read of the ``basis`` view or
where a report names a basis path.

* ``nu_counterexamples`` is the one evaluator of the twisted symmetry
  phi(b_i b_j) = nu(b_j) phi(b_j b_i), for the order's form and for a
  quotient's (``fdalg.check_canonical_bimodule_twist``, phi reduced
  modulo t): given phi on the pairs where it is nonzero, it evaluates
  those pairs and their transposes, and no other pair can fail.
* F is the set of pairs (i, j) with b_i b_j a full-cycle power: pi's
  graph and the (x_v, x_v), 3|Q_0| + sum over arrows of (n(a) - 1)
  pairs.  Only those products have an x-coordinate, so off F u F^T each
  side of the twisted symmetry is phi(0) = 0 or phi of a path with no
  x-coordinate, also 0.
* ``check_nu_symmetry`` certifies the twisted symmetry on generators
  (C2: phi(g y) = nu(g) phi(y g) for g = e(v) and the arrows in B, on
  O(|Q_0| + |Q_1|) pairs) and evaluates F u F^T only when C2 fails, to
  list the counterexamples.
* ``verify_theta_psi`` multiplies theta and psi as columns of at most
  two terms, checks theta column by column (C1: theta(u) is r ->
  phi(b_r b_u)), and compares theta(u nu(g)) with theta(u) g only when
  C1, C2 or nu(a) = 1 for an arrow a not in B fails: for the
  generators g with u nu(g) != 0, or with a nonzero product g b_r that
  has a coordinate in the support of theta_u.

The checks add and multiply terms (index, degree, coefficient), not
k[t] tuples.  The coordinate rule, theta and psi give terms with the
native int coefficients 1 and -1; the involution signs are lifted to
native ints where integral.  A compared vector is one dict keyed (row,
degree) holding the difference of its two sides, and ``Field.from_int``
maps its coefficients to k only when it is tested for zero.  This is
exact, as Z -> k is a ring homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from . import linalg
from .fields import Field, PolyRing, QQ
from .polarize import PLUS, Involution, Polarization, check_polarization, default_polarization, involution_of
from .quiver import GentleQuiver, Path, QuiverError
from .ribbon import _component_walk, orbit_adjacency


# ---------------------------------------------------------------------------
# multiplicity maps


def normalize_multiplicity(q: GentleQuiver, m: Union[int, Mapping[str, int], None]) -> Dict[str, int]:
    """Canonicalize a multiplicity map to {orbit representative: value}.

    Accepts None (all ones), a single positive integer (constant map), or
    a mapping keyed by any arrow of each orbit; the map must end up total
    on the orbit set.  A multiplicity must be an ``int`` (not a ``bool``):
    any other value raises QuiverError, naming its key.
    """
    reps = [rep for rep, _ in q.sigma_orbits()]
    if m is None:
        return {rep: 1 for rep in reps}
    if not hasattr(m, "items"):  # one value for every orbit
        m = _multiplicity_value(m, None)
        return {rep: m for rep in reps}
    out = {rep: 1 for rep in reps}
    seen = set()
    names = set(q.arrow_names)
    for key, value in m.items():
        if key not in names:
            raise QuiverError(f"multiplicity key {key!r} is not an arrow")
        rep = q.orbit_rep(key)
        if rep in seen:
            raise QuiverError(f"multiplicity given twice for orbit of {rep!r}")
        seen.add(rep)
        out[rep] = _multiplicity_value(value, key)
    return out


def _multiplicity_value(value, key: Optional[str]) -> int:
    """value itself if it is a positive int and not a bool, else QuiverError."""
    where = "multiplicity" if key is None else f"multiplicity of {key!r}"
    if not isinstance(value, int) or isinstance(value, bool):
        raise QuiverError(f"{where} must be an int, not {value!r}")
    if value < 1:
        raise QuiverError(f"{where} must be positive")
    return value


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


Walk = Tuple[str, Optional[str], int]  # (start, first arrow or None, length)


@dataclass
class BasisLayout:
    """The basis of the order or of one of its quotients, laid out by
    :func:`basis_layout`.

    e(v) sits at index pos(v) (the vertex's position in
    ``quiver.vertices``), then per arrow a, in sorted order, a:1, ...,
    a:kept[a] at consecutive indices from first[a].  top_lengths[a] is
    the length m(a) n(a) of the top cycle starting with a; a positive
    arrow keeps it (kept[a] = top_lengths[a]), at top_index[v] for its
    source v, and a negative arrow's is rewritten (kept[a] one less).
    dim is the number of basis paths.  ``walks`` (b_r as (start, first
    arrow, length)), the sigma-rule lists ``by_end``/``by_next`` and
    :attr:`pi` (the form's pairing involution) are one view, built on
    first read by one pass over each arrow run; the quotient builder,
    both order checks and the quotients' pairing read it.  ``top_mask``
    (the kept top cycles, the standard form's support) is a view of its
    own.  The labels are display-only: :meth:`label` formats the one of
    b_r, and ``basis`` (every label, label(r) at index r), ``index``
    (label -> index) and ``paths`` (label -> ``Path``) are views that no
    decision reads.  No view is a field.
    """

    quiver: GentleQuiver
    eps: Polarization
    dim: int
    first: Dict[str, int]  # arrow -> index of a:1
    kept: Dict[str, int]  # arrow -> number of paths a:l in the basis
    top_index: Dict[str, int]  # vertex -> index of its kept (positive) top cycle
    top_lengths: Dict[str, int]

    def label(self, r: int) -> str:
        """The display label of b_r: "e(v)" or "a:l"."""
        s, a, length = self.walks[r]
        return f"e({s})" if a is None else f"{a}:{length}"

    @cached_property
    def basis(self) -> Tuple[str, ...]:
        """Every display label, label(r) at index r, built on first read."""
        return tuple(map(self.label, range(self.dim)))

    @cached_property
    def top_mask(self) -> bytes:
        """1 at each kept top cycle (the top_index values), 0 elsewhere:
        the support of the standard form, built on first read."""
        mask = bytearray(self.dim)
        for k in self.top_index.values():
            mask[k] = 1
        return bytes(mask)

    @cached_property
    def index(self) -> Dict[str, int]:
        """{label: index}, built on first read."""
        return {lab: r for r, lab in enumerate(self.basis)}

    @cached_property
    def paths(self) -> Dict[str, Path]:
        """The parent-order path of each basis label, built on first read."""
        q = self.quiver
        paths = (q.idempotent(s) if a is None else q.path_from(a, n) for s, a, n in self.walks)
        return dict(zip(self.basis, paths))

    def __len__(self) -> int:
        return self.dim

    def labels(self) -> List[str]:
        return list(self.basis)

    @cached_property
    def _sigma_rule(self) -> Tuple[Tuple[Walk, ...], Dict[str, List[int]], Dict[str, List[int]], List[int]]:
        """(walks, by_end, by_next, pi) in one pass over each arrow run,
        built on first read: the views :attr:`walks`, ``by_end``,
        ``by_next`` and :attr:`pi`."""
        q = self.quiver
        sigma, source, first, top = q.sigma, q.source, self.first, self.top_lengths
        walks: List[Walk] = [(v, None, 0) for v in q.vertices]
        by_end = {v: [r] for r, v in enumerate(q.vertices)}
        by_next: Dict[str, List[int]] = {a: [] for a in first}
        pi = [0] * self.dim
        for a, base in first.items():  # in index order
            s = source(a)
            nxt, c = a, base + top[a] - 2  # pi[r] = first[sigma^L(a)] + T - L - 1, L = r - base + 1
            for r in range(base, base + self.kept[a]):
                walks.append((s, a, r - base + 1))
                nxt = sigma[nxt]
                by_end[source(nxt)].append(r)  # b_r ends where nxt starts
                by_next[nxt].append(r)
                pi[r] = first[nxt] + c - r
        for e, x in enumerate(self.top_index.values()):  # vertex order; overwrites the kept tops' entries
            pi[e], pi[x] = x, e
        return tuple(walks), by_end, by_next, pi

    @property
    def walks(self) -> Tuple[Walk, ...]:
        """walks[r] is b_r as (start, first arrow, length), the first arrow
        None for e(v)."""
        return self._sigma_rule[0]

    by_end = property(lambda self: self._sigma_rule[1])
    by_next = property(lambda self: self._sigma_rule[2])

    @property
    def pi(self) -> List[int]:
        """The pairing involution of the form phi at t = 0 (a quotient's
        standard form, 1 on each kept top cycle): pi[r] is the one index
        with b_r b_pi(r) a top cycle, built on first read in closed form,
        in the sigma-rule's pass over each arrow run.  e(v) and the kept
        top cycle x at v (top_index[v]) swap; a path (s, a, L) ending at
        t, L < T = top_lengths[a], pairs with (t, sigma^L(a), T - L), at
        index first[sigma^L(a)] + T - L - 1.

        Proof.  A top cycle, kept or rewritten to +-x, is a path of
        length T from its first arrow, and phi(b_r b_j) != 0 iff b_r b_j
        is one.  e(v) b_j = b_j for the b_j ending at v, of which x is
        the one kept top cycle; x e(v) = x, and every other x b_j is
        longer than T (zero in a quotient, of t-degree >= 1 in the
        order).  For b_r = (s, a, L): b_r e(s) = b_r, and b_r b_j for b_j
        = (t', b, l) with sigma^l(b) = a is (t', b, l + L), of length T
        iff l = T - L; then b = sigma^-l(a) = sigma^L(a), as sigma^T(a) =
        a, so t' = t, and b_j is a basis path, as l < T.  The second
        rule applied twice gives (s, sigma^T(a), L) = (s, a, L): pi is an
        involution.
        """
        return self._sigma_rule[3]

    def left_multiples(self, start: str, a: Optional[str], length: int) -> List[Tuple[int, Walk]]:
        """[(r, p b_r)] over the basis paths b_r with p b_r != 0, in
        increasing r, where p is the path (start, a, length): b_r ends at
        start when p = e_start, and otherwise b_r = e_start or sigma of
        b_r's last arrow is a.  p b_r is the concatenated path, first b_r
        and then p, as a walk; nothing is truncated or rewritten."""
        if a is None:
            return [(r, self.walks[r]) for r in self.by_end[start]]
        out = [(self.quiver.position(start), (start, a, length))]
        for r in self.by_next[a]:
            s, first, n = self.walks[r]
            out.append((r, (s, first, n + length)))
        return out

    def terms(self, start: str, a: Optional[str], length: int):
        """Coordinates of the path (start, a, length) over k[[z]], z = t,
        as (index, degree, coefficient) terms; the coefficients are the
        integers 1 and -1, images of Z in every field.  With r, l =
        divmod(length - 1, top_lengths[a]), the path is t^r a:(l + 1), a
        basis path unless a is negative and l + 1 is the top length: then
        it is t^(r+1) e(start) - t^r times the kept top cycle at start."""
        if a is None:
            return ((self.quiver.position(start), 0, 1),)
        r, m = divmod(length - 1, self.top_lengths[a])
        if m < self.kept[a]:
            return ((self.first[a] + m, r, 1),)
        return ((self.quiver.position(start), r + 1, 1), (self.top_index[start], r, -1))

    def path_products(self, field: Field, values: Mapping[str, object]) -> list:
        """The product of values[b] over the arrows b of each basis path,
        1 at e(v), one ``field.mul`` per path: a:1, a:2, ... sit at
        consecutive indices, so each is the previous one times the value
        of the next arrow along sigma.  The values are lifted by
        :func:`_integral` first, so +-1 over Q multiplies as native ints;
        an entry equals its field value, and ``field.from_int`` gives it."""
        lift = {a: _integral(c) for a, c in values.items()}
        mul, one, sigma = field.mul, _integral(field.one), self.quiver.sigma
        out = [one] * self.dim
        for a, base in self.first.items():
            acc, b = one, a
            for r in range(base, base + self.kept[a]):
                acc = out[r] = mul(acc, lift[b])
                b = sigma[b]
        return out


def basis_layout(q: GentleQuiver, eps: Polarization, mm: Mapping[str, int]) -> BasisLayout:
    """The one basis layout of the quotients for the polarization eps and
    the multiplicity map mm ({orbit representative: m}), in O(|Q_0| +
    |Q_1|): the indices of :class:`BasisLayout` and dim, with no label
    (``basis`` is a view).  Raises AssertionError when dim disagrees
    with the rank formula sum m(v_a) n(a)."""
    dim = len(q.vertices)
    top, first, kept = {}, {}, {}  # per arrow: see BasisLayout
    for a in sorted(q.arrow_names):
        top[a] = mm[q.orbit_rep(a)] * q.cycle_length(a)
        first[a] = dim
        kept[a] = top[a] if eps.sign(a) == PLUS else top[a] - 1
        dim += kept[a]
    if dim != sum(top.values()):
        raise AssertionError("quotient basis size disagrees with the rank formula")
    top_index = {}
    for v in q.vertices:
        a = eps.positive_arrow_at(q, v)
        top_index[v] = first[a] + top[a] - 1
    return BasisLayout(q, eps, dim, first, kept, top_index, top)


class CanonicalBasis(BasisLayout):
    """The basis B of the order as a free k[[t]]-module (multiplicity one):
    the layout of the twisted quotient at m = 1, whose kept top cycle at
    v is x(v): :meth:`label` shows it so, and with it the ``basis``
    view.  The order checks read it through the layout's sigma-rule
    lists and coordinate rule.
    """

    def label(self, r: int) -> str:
        s = self.walks[r][0]
        return f"x({s})" if self.top_index[s] == r else super().label(r)


def canonical_basis(q: GentleQuiver, eps: Polarization) -> CanonicalBasis:
    """B = {e_i, x_i} u {a_m : a in Q*_1, 1 <= m < n(a)}; |B| = sum n(a).

    Defined for multiplicity one only; quotients handle general
    multiplicities.  x_i is the full cycle of the positive arrow at i.
    :func:`basis_layout` at m = 1, in O(|Q_0| + |Q_1|), with x(v) as the
    label at top_index[v].
    """
    check_polarization(q, eps)
    return _canonical_basis(q, eps)


def _canonical_basis(q: GentleQuiver, eps: Polarization) -> CanonicalBasis:
    """:func:`canonical_basis` for a polarization already checked."""
    layout = basis_layout(q, eps, normalize_multiplicity(q, None))
    return CanonicalBasis(**{f.name: getattr(layout, f.name) for f in fields(BasisLayout)})  # not its cached views


def path_coordinates(basis: CanonicalBasis, ring: PolyRing, p: Path) -> Dict[str, tuple]:
    """Exact B-coordinates of a nonzero path, coefficients in k[t]."""
    terms = basis.terms(p.start, p.arrows[0] if p.arrows else None, p.length)
    from_int = ring.field.from_int
    return {basis.basis[k]: ring.t_power(d, from_int(c)) for k, d, c in terms}


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
    for k in basis.top_index.values():
        acc = ring.add(acc, coords.get(basis.basis[k], ring.zero))
    return acc


# ---------------------------------------------------------------------------
# the sigma-rule on basis paths


def _full_cycle_pairs(basis: CanonicalBasis):
    """F, the pairs (i, j) with b_i b_j a full-cycle power: (x(v), x(v))
    per vertex, then (i, pi(i)) per basis index."""
    yield from ((x, x) for x in basis.top_index.values())
    yield from enumerate(basis.pi)


def _phi_on(basis: CanonicalBasis, pairs, phi: Dict[Tuple[int, int], Dict[int, int]]):
    """phi, with phi(b_i b_j) as {degree: coefficient} added for each pair
    (i, j) of F not yet in it, one coordinate rewrite per pair: the
    product is b_i for b_j = e(v), else b_j lengthened by b_i's length,
    and phi of it its x-term, 1 or -1, nonzero in every field."""
    walks, tops, terms = basis.walks, basis.top_mask, basis.terms
    for p in pairs:
        if p not in phi:
            i, j = p
            s, a, n = walks[j]
            phi[p] = x = {}
            for k, d, c in terms(*walks[i]) if a is None else terms(s, a, n + walks[i][2]):
                if tops[k]:
                    x[d] = c
    return phi


def _nu_signs(basis: CanonicalBasis, inv: Involution) -> list:
    """The involution's sign on each basis path, lifted by :func:`_integral`:
    :meth:`BasisLayout.path_products` of the arrow signs, which must be
    1 or -1 (AssertionError otherwise)."""
    f = inv.field
    for a, s in inv.signs.items():
        if s != f.one and s != f.neg(f.one):
            raise AssertionError(f"involution sign of {a} is {s!r}, not 1 or -1")
    return basis.path_products(f, inv.signs)


def _integral(c):
    """A scalar as a native int where it is one (a residue of GF(p), an
    integral rational), else the scalar itself."""
    n = int(c)
    return n if n == c else c


def _nonzero(field: Field, acc: Mapping[object, object]) -> bool:
    """Whether a vector of lifted coefficients is nonzero over k."""
    if not any(acc.values()):  # zero over Z, so over k
        return False
    from_int = field.from_int
    return any(from_int(c) for c in acc.values() if c)


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


def nu_counterexamples(
    field: Field, phi: Mapping[Tuple[int, int], Mapping[int, int]], nu: Union[Sequence, Mapping[int, object]]
) -> list:
    """The pairs (i, j), in row-major order, with phi(b_i b_j) !=
    nu(b_j) phi(b_j b_i): the one evaluator of the twisted symmetry of
    the order's form and of its quotients' forms.

    phi maps each pair (i, j) with phi(b_i b_j) != 0 to {degree: int
    coefficient}, and is 0 on every other pair; nu[j] is b_j's involution
    sign as an int or lifted by :func:`_integral`, for each j a pair
    names.  A pair can fail only if it or its transpose is a key of phi,
    so only those are evaluated, each as the difference of its two
    sides, which :func:`_nonzero` tests over k.
    """
    pairs = set(phi)
    pairs.update((j, i) for i, j in phi)
    none: Mapping[int, int] = {}
    bad = []
    for i, j in sorted(pairs):
        diff = dict(phi.get((i, j), none))  # phi(b_i b_j) - nu(b_j) phi(b_j b_i)
        sign = nu[j]
        for d, c in phi.get((j, i), none).items():
            diff[d] = diff.get(d, 0) - sign * c
        if _nonzero(field, diff):
            bad.append((i, j))
    return bad


def _generators_hold(basis: CanonicalBasis, inv: Involution, phi: Dict[Tuple[int, int], Dict[int, int]]) -> bool:
    """C2: phi(g y) = nu(g) phi(y g) for every basis path y and each
    generator g in B, e(v) and a:1 with kept[a] >= 1; phi on the pairs
    it reads is added to ``phi`` (:func:`_phi_on`).  Holds only if every
    arrow sign is 1 or -1; else the caller's full sweep decides.

    (g, y) or (y, g) is in F only for y = pi(g), and y = g when g is a
    kept top, so :func:`nu_counterexamples` evaluates those pairs, on
    phi restricted to them.  The transpose (g, pi(g)) reads nu(pi(g)) =
    nu(g) times the sign product of the sigma-orbit of g's arrow, x(v)'s
    for g = e(v): b_g b_pi(g) is that orbit's full cycle.  O(|Q_0| +
    |Q_1|) pairs and rewrites, no sign per basis path.
    """
    q, f, pi, walks = basis.quiver, inv.field, basis.pi, basis.walks
    one, minus = f.one, f.neg(f.one)
    neg = {}  # arrow -> whether its sign is -1 (not 1)
    for a, s in inv.signs.items():
        if s == one:
            neg[a] = False
        elif s == minus:
            neg[a] = True
        else:
            return False
    odd = {}  # arrow -> parity of the -1 signs on its sigma-orbit
    for _, orbit in q.sigma_orbits():
        odd.update(dict.fromkeys(orbit, sum(map(neg.__getitem__, orbit)) % 2))
    gens = [(e, 0, walks[x][1]) for e, x in enumerate(pi[: len(q.vertices)])]
    gens += [(basis.first[a], neg[a], a) for a, k in basis.kept.items() if k]
    pairs, nu = [], {}
    for g, sign, a in gens:
        y = pi[g]
        nu[g], nu[y] = -1 if sign else 1, -1 if sign ^ odd[a] else 1  # exact, as Z -> k is a ring map
        pairs += ((y, g), (g, y), (g, g)) if basis.top_mask[g] else ((y, g), (g, y))
    _phi_on(basis, pairs, phi)
    return not nu_counterexamples(f, {p: phi[p] for p in pairs}, nu)


def check_nu_symmetry(q: GentleQuiver, eps: Polarization, field: Field) -> NuSymmetryReport:
    """Verify phi(q p) = phi(nu(p) q) on all |B|^2 ordered basis pairs, and
    that the nonzero pairs are exactly the expected list.

    The certificate is C2 (:func:`_generators_hold`), on e(v) and the
    arrows in B, O(|Q_0| + |Q_1|) pairs.  Proof that it gives every
    pair: C2 extends k[[t]]-linearly from basis paths y to every y in
    Lambda, and reads phi(y g) = nu(g) phi(g y), as nu(g) = +-1.  A
    basis path p = g_1 ... g_k is a product of those generators (an
    arrow of a basis path is one in B: an arrow a with n(a) = 1 has
    sigma(a) = a), and nu(p) = nu(g_1) ... nu(g_k), so phi(q p) =
    nu(g_k) phi(g_k q g_1 ... g_(k-1)) = ... = nu(p) phi(p q) by
    associativity.  Arrows not in B occur in no basis path.  Only when
    C2 fails is phi built on F, the (i, j) with b_i b_j a full-cycle
    power (:func:`_full_cycle_pairs`: pi's graph at degree 0, and
    (x(v), x(v)), x(v) x(v) = t x(v)), each product rewritten once, and
    :func:`nu_counterexamples` evaluates F u F^T with the sign of every
    basis path: every other pair is 0 on both sides.  The nonzero pairs
    are F, read off pi and the kept tops.  ``pair_count`` still counts
    all |B|^2 pairs covered.
    """
    inv = involution_of(q, eps, field)  # checks eps, once per check
    basis = _canonical_basis(q, eps)
    phi: Dict[Tuple[int, int], Dict[int, int]] = {}
    labels = basis.basis
    counterexamples = []
    if not _generators_hold(basis, inv, phi):
        _phi_on(basis, _full_cycle_pairs(basis), phi)
        counterexamples = [(labels[i], labels[j]) for i, j in nu_counterexamples(field, phi, _nu_signs(basis, inv))]
    nonzero = sorted((labels[i], labels[j]) for i, j in _full_cycle_pairs(basis))
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
    """theta and psi are sparse columns {row: k[t] entry}, a view of the
    term columns the checks read (:func:`_poly_columns`); ``_dense``
    gives the |B| x |B| matrices."""

    ok: bool
    size: int
    theta: List[Dict[int, tuple]]
    psi: List[Dict[int, tuple]]
    theta_psi_identity: bool
    psi_theta_identity: bool
    det_theta_constant: object
    bimodule_ok: bool
    bimodule_counterexamples: List[str]


Terms = List[List[Tuple[int, int, int]]]  # columns of (row, degree, coefficient) terms


def _theta_psi_columns(basis: CanonicalBasis) -> Tuple[Terms, Terms]:
    """theta and psi as columns of (row, degree, coefficient) terms, the
    coefficients the native ints 1 and -1, at most two terms each, in
    one pass over pi.

    The degree-0 term of column col is at row pi(col)
    (:attr:`BasisLayout.pi`).  Column a:m (not a top cycle) has only
    that term, at b:(n - m) for b = sigma^m(a); its sign is eps_a in
    theta and eps_b in psi, an arrow being positive when its top cycle
    is kept.  Column x(s) of theta adds t, and column e(s) of psi adds
    -t, at their own row."""
    walks, kept, top, top_index = basis.walks, basis.kept, basis.top_lengths, basis.top_index
    theta: Terms = []
    psi: Terms = []
    for col, d in enumerate(basis.pi):
        s, a, m = walks[col]
        if a is None:  # e(s), d = x(s)
            theta.append([(d, 0, 1)])
            psi.append([(d, 0, 1), (col, 1, -1)])
        elif col == top_index[s]:  # x(s), d = e(s)
            theta.append([(d, 0, 1), (col, 1, 1)])
            psi.append([(d, 0, 1)])
        else:
            b = walks[d][1]
            theta.append([(d, 0, 1 if kept[a] == top[a] else -1)])
            psi.append([(d, 0, 1 if kept[b] == top[b] else -1)])
    return theta, psi


def _poly_columns(field: Field, cols: Terms) -> List[Dict[int, tuple]]:
    """Term columns as {row: k[t] tuple}, the report's view: a term (r,
    d, c) is ``ring.t_power(d, field.from_int(c))``, built once per (d,
    c); the terms at one row (only a corrupted builder puts two there)
    are added up as ints by degree.  No polynomial arithmetic runs."""
    ring, from_int = PolyRing(field), field.from_int
    polys: Dict[Tuple[int, int], tuple] = {}  # (degree, coefficient) -> c t^d
    view = []
    for col in cols:
        entries = {}
        for r, d, c in col:
            if r in entries:  # a second term at row r: add up the row's terms
                top = max(d2 for r2, d2, _ in col if r2 == r)
                coeffs = (sum(c2 for r2, d2, c2 in col if (r2, d2) == (r, k)) for k in range(top + 1))
                entries[r] = ring.trim(map(from_int, coeffs))
            else:
                entries[r] = polys.get((d, c)) or polys.setdefault((d, c), ring.t_power(d, from_int(c)))
        view.append(entries)
    return view


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
    return _dense(ring, _poly_columns(ring.field, _theta_psi_columns(basis)[0]))


def _is_identity_product(field: Field, left: Terms, right: Terms) -> bool:
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


def _theta_is_phi(basis: CanonicalBasis, theta: Terms, phi) -> bool:
    """C1: theta's term column u is r -> phi(b_r b_u) for every u, phi
    given on F: nonzero at r = pi(u), degree 0, and at r = u, degree 1,
    for u = x(v).  Both sides are int terms, compared as they are:
    equal lists are equal vectors over Z, so over k.  A column equal
    only over k (reordered, or a coefficient read mod p) fails C1 and is
    left to the full sweep."""
    pi, tops = basis.pi, basis.top_mask
    for u, col in enumerate(theta):
        want = [(r, d, c) for r in ((pi[u], u) if tops[u] else (pi[u],)) for d, c in phi[r, u].items()]
        if col != want:
            return False
    return True


def verify_theta_psi(q: GentleQuiver, eps: Polarization, field: Field) -> ThetaPsiReport:
    """Check theta and psi are mutually inverse over k[t] and that theta is
    right-linear for the involution-twisted action on generators.

    theta and psi are built once as columns of +-1 int terms
    (:func:`_theta_psi_columns`), which the checks read; the report
    holds a view of them.  det theta(0) is a sign.  Proof: theta psi =
    psi theta = id gives theta(0) = psi(0)^-1, and makes det theta a
    unit of k[t], the constant det theta(0).  theta(0) is theta's
    degree-0 terms, (pi(u), u, +-1) per column u: a signed permutation
    matrix with native +-1 entries, whose determinant is the int
    :func:`linalg.sign_det` gives (AssertionError on any other entry),
    mapped into k by ``field.from_int``, as Z -> k is a ring map.

    The bimodule identity theta(u nu(g)) = theta(u) g holds for every
    basis path u and generator g when C1 (:func:`_theta_is_phi`), C2
    (:func:`_generators_hold`) and nu(a) = 1 for each arrow a not in B
    hold.  Proof: by C1 and k[[t]]-linearity theta(u)(y) = phi(y b_u)
    for every y in Lambda, so (theta(u) g)(b_r) = phi(g b_r b_u) and
    theta(u nu(g))(b_r) = nu(g) phi(b_r b_u g); C2 with y = b_r b_u
    makes them equal.  No multiplicativity of nu is needed.  An arrow a
    not in B has n(a) = 1 and sign -, so a = t e(v) - x(v), and phi(a y)
    - phi(y a) = t (phi(e(v) y) - phi(y e(v))) - (phi(x(v) y) - phi(y
    x(v))) = 0 for every basis path y: phi(y) != 0 only at the tops,
    which start where they end, and x(v) y, y x(v) are x(v) at y = e(v),
    else t y or 0.  At y = e(v) phi(a) = -1, so a's pairs hold iff
    nu(a) = 1.
    Only when the certificate fails are the two sides compared
    (:func:`_bimodule_counterexamples`), to list the failures.
    """
    inv = involution_of(q, eps, field)  # checks eps, once per check
    basis = _canonical_basis(q, eps)
    theta, psi = _theta_psi_columns(basis)
    tp = _is_identity_product(field, theta, psi)
    pt = _is_identity_product(field, psi, theta)

    det_const = None
    if tp and pt:
        theta0 = ((r, c, x) for c, col in enumerate(theta) for r, d, x in col if d == 0)
        det_const = field.from_int(linalg.sign_det(len(basis), theta0))

    phi = _phi_on(basis, _full_cycle_pairs(basis), {})
    certified = (
        _theta_is_phi(basis, theta, phi)
        and _generators_hold(basis, inv, phi)
        and all(inv.signs[a] == field.one for a, k in basis.kept.items() if not k)
    )
    bad = [] if certified else _bimodule_counterexamples(basis, inv, theta)
    return ThetaPsiReport(
        ok=tp and pt and not bad,
        size=len(basis),
        theta=_poly_columns(field, theta),
        psi=_poly_columns(field, psi),
        theta_psi_identity=tp,
        psi_theta_identity=pt,
        det_theta_constant=det_const,
        bimodule_ok=not bad,
        bimodule_counterexamples=bad,
    )


def _bimodule_counterexamples(basis: CanonicalBasis, inv: Involution, theta: Terms) -> List[str]:
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
    a_gen = {a: len(q.vertices) + k for k, a in enumerate(arrows)}
    nu = {a: _integral(inv.signs[a]) for a in arrows}
    arrows_into: Dict[str, List[str]] = {v: [] for v in q.vertices}
    for a in arrows:
        arrows_into[q.target(a)].append(a)

    # every nonzero product g b_r, listed once under each coordinate s
    # (a row of theta) as (g, r, degree, coefficient)
    by_coord: List[List[Tuple[int, int, int, int]]] = [[] for _ in basis.walks]
    for g, path in enumerate(gpaths):
        for r, prod in basis.left_multiples(*path):
            for s, d, c in basis.terms(*prod):
                by_coord[s].append((g, r, d, c))

    bad: List[str] = []
    for u, (su, au, lu) in enumerate(basis.walks):
        # theta(u nu(g)) - theta(u) g per generator g, keyed (row, degree)
        diff: Dict[int, Dict[Tuple[int, int], object]] = {}
        left = [(q.position(su), basis.terms(su, au, lu), 1)]
        for a in arrows_into[su] if au is None else [q.sigma_power(au, -1)]:
            left.append((a_gen[a], basis.terms(q.source(a), a, lu + 1), nu[a]))
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
                    f"theta(u * nu(g)) != theta(u).g for u={basis.basis[u]}, g={gnames[g]}"
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
    n = len(q.vertices)
    mat = [[0] * n for _ in range(n)]
    for v, rows in basis.by_end.items():
        for r in rows:
            mat[q.position(v)][q.position(basis.walks[r][0])] += 1
    return mat


def cartan_rank(mat: List[List[int]]) -> int:
    """The rank over Q of an integer matrix, by dense ``Fraction``
    elimination (:func:`linalg.rank`): the tests' reference for the
    closed-form rank of :func:`cartan_report`, which no command calls."""
    rows = [[QQ.from_int(x) for x in row] for row in mat]
    return linalg.rank(QQ, rows)


def cartan_report(q: GentleQuiver) -> CartanReport:
    """Cartan matrix, its rank over the rationals in closed form, and the
    bipartiteness rank criterion rank(C) = |G_0| - c, reported (not
    asserted).

    rank C = |G_0| - b, with b the number of bipartite components of the
    ribbon graph G.  Let N be the |Q_0| x |G_0| incidence matrix of G,
    N(e, v) the number of slots of edge e at node v (2 for a loop).  At
    m = 1 each ordered pair of slots (s, s') at a node holds exactly one
    canonical basis path, from edge(s) to edge(s') (e and x of the vertex
    when s = s'), so C = N N^T and rank C = rank N = |G_0| - dim ker N.
    A node vector y with N y = 0 has y(u) = -y(v) on every edge u -- v,
    so on a component it is a scalar times one +-1 coloring, and zero
    if the component has an odd closed walk (a loop is one).  So ker N
    has dimension b, and one component walk (:func:`ribbon._component_walk`)
    over the sigma-orbits, with the ribbon graph's adjacency read off the
    quiver (:func:`ribbon.orbit_adjacency`), gives c and b; nothing is
    eliminated and no ribbon graph is built.
    """
    nodes = [rep for rep, _ in q.sigma_orbits()]
    bipartite = [walk is None for _, walk in _component_walk(nodes, orbit_adjacency(q), {})]
    rk = len(nodes) - sum(bipartite)
    expected = len(nodes) - len(bipartite)
    return CartanReport(
        matrix=cartan_matrix(q),
        rank=rk,
        nodes=len(nodes),
        components=len(bipartite),
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
    must equal |B|, and the report says whether it does.  |B| is the
    ``dim`` of the canonical basis's layout: no basis path or label is
    built."""
    mm = normalize_multiplicity(q, m)
    per = {a: mm[q.orbit_rep(a)] * q.cycle_length(a) for a in q.arrow_names}
    total = sum(per.values())
    basis_size = None
    matches = None
    if all(v == 1 for v in mm.values()):
        basis_size = basis_layout(q, default_polarization(q), mm).dim
        matches = basis_size == total
    return RankReport(total_rank=total, per_arrow=per, basis_size=basis_size, matches_basis=matches)
