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

One layout serves the order and every quotient (:func:`basis_layout`,
:class:`BasisLayout`): Lambda/z Lambda is the twisted quotient at
multiplicity one, and Lambda is free over k[[z]], so the canonical basis
is that quotient's basis lifted, with x_v the display label at
top_index[v].  The layout holds the one sigma-rule, the coordinate rule
``terms`` and the form's pairing involution ``pi``.

The order checks certify on generators and sweep only when that fails.
F is the set of pairs (i, j) with b_i b_j a full-cycle power: pi's graph
and the (x_v, x_v); off F u F^T both sides of the twisted symmetry are
0, and ``nu_counterexamples``, its one evaluator (of the order's form and
of a quotient's), evaluates F u F^T.  The certificates, C2 on generators
(``check_nu_symmetry``) and C1, theta column by column, with C2
(``verify_theta_psi``), compare native +-1 int terms: sides equal over Z
(in characteristic 2, mod 2) are equal over k; any other outcome leaves
the answer to the sweep.  An ok check formats no label and no k[t] entry.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from . import linalg
from .fields import Field, PolyRing, QQ
from .polarize import PLUS, Involution, Polarization, check_polarization, default_polarization, involution_of
from .quiver import GentleQuiver, Path, QuiverError
from .ribbon import _component_walk, graph_of_quiver


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
    place = q.orbit_places
    for key, value in m.items():
        if key not in place:
            raise QuiverError(f"multiplicity key {key!r} is not an arrow")
        rep = place[key][0][0]
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
        paths = sorted(self.terms, key=lambda p: (p.length, p.start, p.arrows))
        return " + ".join(f"{self.field.scalar_str(self.terms[p])}*{p.label()}" for p in paths)


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


def central_element_z(q: GentleQuiver, field: Field, m: Union[int, Mapping[str, int], None] = None) -> OrderElement:
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
    arrow, length)), the sigma-rule list ``by_next``, the arrow
    ``after[r]`` that follows b_r along sigma and :attr:`pi` (the form's
    pairing involution) are one view, built on first read by one pass
    over each arrow run, which every product rule and check reads.
    ``by_end`` (the paths ending at each vertex, read off ``after``) and
    ``top_mask`` (the kept top cycles, the standard form's support) are
    views of their own.  The labels are display-only: :meth:`label`
    formats the one of b_r, and ``basis`` (label(r) at index r),
    ``index`` (label -> index) and ``paths`` (label -> ``Path``) are
    views that no decision reads.  No view is a field."""

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
    def _sigma_rule(self) -> Tuple[Tuple[Walk, ...], Dict[str, List[int]], List[Optional[str]], List[int]]:
        """(walks, by_next, after, pi) in one pass over each arrow run,
        built on first read: the views :attr:`walks`, ``by_next``,
        ``after`` and :attr:`pi`."""
        q = self.quiver
        sigma, source, first, top = q.sigma, q.sources, self.first, self.top_lengths
        walks: List[Walk] = [(v, None, 0) for v in q.vertices]
        by_next: Dict[str, List[int]] = {a: [] for a in first}
        after: List[Optional[str]] = [None] * self.dim
        pi = [0] * self.dim
        for a, base in first.items():  # in index order
            s = source[a]
            nxt, c = a, base + top[a] - 2  # pi[r] = first[sigma^L(a)] + T - L - 1, L = r - base + 1
            for r in range(base, base + self.kept[a]):
                walks.append((s, a, r - base + 1))
                nxt = after[r] = sigma[nxt]
                by_next[nxt].append(r)
                pi[r] = first[nxt] + c - r
        for e, x in enumerate(self.top_index.values()):  # vertex order; overwrites the kept tops' entries
            pi[e], pi[x] = x, e
        return tuple(walks), by_next, after, pi

    @property
    def walks(self) -> Tuple[Walk, ...]:
        """walks[r] is b_r as (start, first arrow, length), the first arrow
        None for e(v)."""
        return self._sigma_rule[0]

    by_next = property(lambda self: self._sigma_rule[1])
    after = property(lambda self: self._sigma_rule[2])

    @cached_property
    def by_end(self) -> Dict[str, List[int]]:
        """by_end[v]: the basis paths that end at v in increasing index,
        e(v), then each b_r whose next arrow ``after[r]`` starts at v;
        built on first read."""
        q = self.quiver
        by_end = {v: [r] for r, v in enumerate(q.vertices)}
        after, source = self.after, q.sources
        for r in range(len(q.vertices), self.dim):
            by_end[source[after[r]]].append(r)
        return by_end

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
        out = [(self.quiver.positions[start], (start, a, length))]
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
        pos = self.quiver.positions
        if a is None:
            return ((pos[start], 0, 1),)
        r, m = divmod(length - 1, self.top_lengths[a])
        if m < self.kept[a]:
            return ((self.first[a] + m, r, 1),)
        return ((pos[start], r + 1, 1), (self.top_index[start], r, -1))

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


def basis_layout(q: GentleQuiver, eps: Polarization, mm: Mapping[str, int], kind: type = BasisLayout) -> BasisLayout:
    """The one basis layout of the quotients for the polarization eps and
    the multiplicity map mm ({orbit representative: m}), in O(|Q_0| +
    |Q_1|): the indices of :class:`BasisLayout` and dim, with no label
    (``basis`` is a view).  Raises AssertionError when dim disagrees
    with the rank formula sum m(v_a) n(a).

    Each fact is one lookup in a stored map (``q.orbit_places``,
    ``eps.signs``, ``q.out_pairs``); the arrow names are sorted once, here,
    and ``first`` keeps that order.  The layout is built as a ``kind``,
    :class:`CanonicalBasis` for the order.

    The layout depends on (q, eps, mm) alone, never on a field, so q's
    memo keeps the last one built per (kind, multiplicity map), the map
    read in orbit order, and a call with the same polarization object
    (``is``, not ``==``: a distinct polarization with equal signs gets a
    layout of its own, which then takes the memo's place) returns it,
    with the views that were read on it.  So the quotients of one
    decision grid and the order checks on one (q, eps) share one layout
    and one sigma-rule pass; the memo holds at most one layout per
    (kind, multiplicity map) and dies with q.  A layout, like its views
    and its polarization, is never to be written."""
    memo, key = q._memo, (kind, tuple([mm[rep] for rep, _ in q.sigma_orbits()]))
    layout = memo.get(key)
    if layout is not None and layout.eps is eps:
        return layout
    place, sign = q.orbit_places, eps.signs
    dim = len(q.vertices)
    top, first, kept = {}, {}, {}  # per arrow: see BasisLayout
    for a in sorted(q.arrow_names):
        orbit = place[a][0]  # from the representative
        t = top[a] = mm[orbit[0]] * len(orbit)
        first[a] = dim
        k = kept[a] = t if sign[a] == PLUS else t - 1
        dim += k
    if dim != sum(top.values()):
        raise AssertionError("quotient basis size disagrees with the rank formula")
    top_index = {}
    for v, (a, b) in q.out_pairs.items():
        if sign[a] != PLUS:  # the positive arrow at v
            a = b
        top_index[v] = first[a] + top[a] - 1
    layout = memo[key] = kind(q, eps, dim, first, kept, top_index, top)
    return layout


class CanonicalBasis(BasisLayout):
    """The basis B of the order as a free k[[t]]-module (multiplicity one):
    the layout of the twisted quotient at m = 1, whose kept top cycle at
    v is x(v): :meth:`label` shows it so, and with it the ``basis`` view.
    ``expected_pi`` (:func:`_expected_pi`, the pairing read off the
    sigma-orbits, which the order checks compare with :attr:`pi`) is a
    view, built on first read.
    """

    def label(self, r: int) -> str:
        s = self.walks[r][0]
        return f"x({s})" if self.top_index[s] == r else super().label(r)

    expected_pi = cached_property(lambda self: _expected_pi(self))


def canonical_basis(q: GentleQuiver, eps: Polarization) -> CanonicalBasis:
    """B = {e_i, x_i} u {a_m : a in Q*_1, 1 <= m < n(a)}; |B| = sum n(a).

    Defined for multiplicity one only; quotients handle general
    multiplicities.  x_i is the full cycle of the positive arrow at i.
    :func:`basis_layout` at m = 1, in O(|Q_0| + |Q_1|), with x(v) as the
    label at top_index[v]; it is kept in q's memo, so calls with the same
    polarization object return the same basis, never to be written.
    """
    check_polarization(q, eps)
    return _canonical_basis(q, eps)


def _canonical_basis(q: GentleQuiver, eps: Polarization) -> CanonicalBasis:
    """:func:`canonical_basis` for a polarization already checked."""
    return basis_layout(q, eps, normalize_multiplicity(q, None), CanonicalBasis)


def path_coordinates(basis: CanonicalBasis, ring: PolyRing, p: Path) -> Dict[str, tuple]:
    """Exact B-coordinates of a nonzero path, coefficients in k[t]."""
    terms = basis.terms(p.start, p.arrows[0] if p.arrows else None, p.length)
    from_int = ring.field.from_int
    return {basis.basis[k]: ring.t_power(d, from_int(c)) for k, d, c in terms}


def to_canonical_coordinates(basis: CanonicalBasis, ring: PolyRing, x: OrderElement) -> Dict[str, tuple]:
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


def _full_cycle_pairs(basis: CanonicalBasis, pi: Sequence[int]) -> List[Tuple[int, int]]:
    """F, the pairs (i, j) with b_i b_j a full-cycle power, for the
    pairing pi (``basis.pi``): (x(v), x(v)) per vertex, then (i, pi[i])."""
    return [(x, x) for x in basis.top_index.values()] + list(enumerate(pi))


def _phi_of(basis: CanonicalBasis):
    """phi on F: the function (i, j) -> phi(b_i b_j) as [(degree,
    coefficient)]: the product is b_i for b_j = e(v), else b_j lengthened
    by b_i's length, and phi of it its x-term, 1 or -1.  The rule of
    :meth:`BasisLayout.terms` runs inline, its tests in its order."""
    walks, tops, top, kept, first = basis.walks, basis.top_mask, basis.top_lengths, basis.kept, basis.first
    top_index, pos = basis.top_index, basis.quiver.positions

    def phi(i: int, j: int) -> List[Tuple[int, int]]:
        s, a, n = walks[j]
        if a is None:  # b_i e(s) = b_i
            s, a, n = walks[i]
            if a is None:
                return [(0, 1)] if tops[pos[s]] else []
        else:
            n += walks[i][2]
        r, m = divmod(n - 1, top[a])
        if m < kept[a]:  # t^r a:(m + 1)
            return [(r, 1)] if tops[first[a] + m] else []
        if tops[pos[s]]:  # t^(r+1) e(s) - t^r x(s); e(s) is no top of a layout's own mask
            return [(r + 1, 1), (r, -1)] if tops[top_index[s]] else [(r + 1, 1)]
        return [(r, -1)] if tops[top_index[s]] else []

    return phi


def _sign_parities(inv: Involution) -> Optional[Dict[str, int]]:
    """{arrow: 1 where its involution sign is -1, else 0} in one pass, or
    None when a sign is neither 1 nor -1.  ``field.one`` itself (the
    object :func:`involution_of` stores) is read with no comparison, -1
    with one, any other 1 with two; in characteristic 2 every parity is 0."""
    f = inv.field
    one, minus, odd = f.one, f.neg(f.one), int(f.char != 2)
    neg = {a: 0 if s is one else odd if s == minus else 0 if s == one else None for a, s in inv.signs.items()}
    return None if None in neg.values() else neg


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
    """``nonzero_pairs`` (F) and ``expected_pairs`` are sorted label
    pairs, views of the basis ``_source`` built on first read and not
    fields (a ``dataclasses.replace`` copy has none)."""

    ok: bool
    pair_count: int
    counterexamples: List[Tuple[str, str]]
    pairs_match: bool
    _source: InitVar[Optional[CanonicalBasis]] = None

    def __post_init__(self, _source):
        self._source = _source

    nonzero_pairs = cached_property(lambda self: _label_pairs(self._source, self._source.pi))
    expected_pairs = cached_property(lambda self: expected_nonzero_pairs(self._source))


def _label_pairs(basis: CanonicalBasis, pi: Sequence[int]) -> List[Tuple[str, str]]:
    """F for the pairing pi as sorted label pairs."""
    labels = basis.basis
    return sorted((labels[i], labels[j]) for i, j in _full_cycle_pairs(basis, pi))


def _expected_pi(basis: CanonicalBasis) -> List[int]:
    """The pairing read off the sigma-orbits alone: e(v) <-> x(v), and
    a:m <-> sigma^m(a):(n - m) for 1 <= m < n = n(a), a:m at index
    first[a] + m - 1; each index is set once."""
    ep, first = [0] * basis.dim, basis.first
    for e, x in enumerate(basis.top_index.values()):
        ep[e], ep[x] = x, e
    for _, orbit in basis.quiver.sigma_orbits():
        n = len(orbit)
        for k, a in enumerate(orbit):
            for m in range(1, n):
                ep[first[a] + m - 1] = first[orbit[(k + m) % n]] + n - m - 1
    return ep


def expected_nonzero_pairs(basis: CanonicalBasis) -> List[Tuple[str, str]]:
    """The exact list of basis pairs (q, p) with phi(q p) != 0:
    (x_i, x_i), (x_i, e_i), (e_i, x_i) per vertex, and the split-cycle
    pairs (derivative of c_a at m, a_m), from :func:`_expected_pi`."""
    return _label_pairs(basis, _expected_pi(basis))


def nu_counterexamples(
    field: Field, phi: Mapping[Tuple[int, int], Mapping[int, int]], nu: Union[Sequence, Mapping[int, object]]
) -> list:
    """The pairs (i, j), in row-major order, with phi(b_i b_j) !=
    nu(b_j) phi(b_j b_i): the one evaluator of the twisted symmetry of
    the order's form and of its quotients' forms.  phi maps each pair
    (i, j) with phi(b_i b_j) != 0 to {degree: int coefficient}, and is 0
    on every other pair; nu[j] is b_j's involution sign as an int or
    lifted by :func:`_integral`, for each j a pair names.  A pair can
    fail only if it or its transpose is a key of phi, so only those are
    evaluated, each as the difference of its two sides, which
    :func:`_nonzero` tests over k."""
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


def _same_terms(lhs: list, rhs: list, sign: int, two: bool) -> bool:
    """lhs = sign * rhs, sign 1 or -1, as [(degree, int coefficient)] lists,
    equal over Z or, in characteristic 2 (``two``), mod 2; else False,
    even if equal over k."""
    if sign != 1:
        rhs = [(d, -c) for d, c in rhs]
    return lhs == rhs or two and [(d, c & 1) for d, c in lhs] == [(d, c & 1) for d, c in rhs]


def _generators_hold(basis: CanonicalBasis, neg: Optional[Dict[str, int]], two: bool) -> bool:
    """C2: phi(g y) = nu(g) phi(y g) for every basis path y and each
    generator g in B, e(v) and a:1 with kept[a] >= 1, for the sign
    parities ``neg`` (:func:`_sign_parities`; None fails C2), ``two`` in
    characteristic 2.  Holds only if each pair's sides are equal as int
    terms (:func:`_same_terms`); else the caller's full sweep decides.

    (g, y) or (y, g) is in F only for y = pi(g), and y = g when g is a
    kept top: only those pairs are compared, each product rewritten once
    (:func:`_phi_of`).  nu(pi(g)) is nu(g) times the sign product of the
    sigma-orbit of g's arrow, x(v)'s for g = e(v) (its first arrow, read
    at top_index[v]): b_g b_pi(g) is that orbit's full cycle.  Sound only
    when pi is the pairing read off the sigma-orbits (:func:`_expected_pi`),
    which the caller checks.  O(|Q_0| + |Q_1|) pairs, each sign read once."""
    if neg is None:
        return False
    pi, walks, odd = basis.pi, basis.walks, {}  # odd: arrow -> parity of the -1 signs on its sigma-orbit
    for _, orbit in basis.quiver.sigma_orbits():
        odd.update(dict.fromkeys(orbit, sum(map(neg.__getitem__, orbit)) % 2))
    gens = [(e, 0, walks[x][1]) for e, x in enumerate(basis.top_index.values())]
    gens += [(basis.first[a], neg[a], a) for a, k in basis.kept.items() if k]
    phi, tops, done = _phi_of(basis), basis.top_mask, set()
    for g, sign, a in gens:
        nu_g, y = -1 if sign else 1, pi[g]  # nu exact, as Z -> k is a ring map
        if tops[g] and not _same_terms(gg := phi(g, g), gg, nu_g, two):
            return False
        if g in done:  # g = pi(g'), g' = pi(g) for an earlier g': the same pairs
            continue
        if pi[y] == g:
            done.add(y)
        gy, yg, nu_y = phi(g, y), phi(y, g), -1 if sign ^ odd[a] else 1
        if not (_same_terms(yg, gy, nu_g, two) and _same_terms(gy, yg, nu_y, two)):
            return False
    return True


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
    associativity.  Arrows not in B occur in no basis path.  C2 reads
    F off pi, so it is trusted only when ``pairs_match``; otherwise, or
    when C2 fails, phi is built on F (:func:`_full_cycle_pairs`) and
    :func:`nu_counterexamples` run on F u F^T with the sign of every
    basis path.  ``pair_count`` still counts all |B|^2 pairs covered.

    The nonzero pairs are F, (x(v), x(v)) per vertex and pi's graph; the
    expected ones, (x(v), x(v)) and the graph of :func:`_expected_pi`.
    Labels name indices one to one, so the sorted label lists (the views)
    are equal iff the maps are: ``pairs_match`` compares two int lists."""
    inv = involution_of(q, eps, field)  # checks eps, once per check
    basis = _canonical_basis(q, eps)
    pairs_match = basis.pi == basis.expected_pi
    counterexamples = []
    if not (pairs_match and _generators_hold(basis, _sign_parities(inv), field.char == 2)):
        labels, phi = basis.basis, _phi_of(basis)
        on_f = {(i, j): dict(phi(i, j)) for i, j in _full_cycle_pairs(basis, basis.pi)}
        counterexamples = [(labels[i], labels[j]) for i, j in nu_counterexamples(field, on_f, _nu_signs(basis, inv))]
    return NuSymmetryReport(
        ok=not counterexamples,
        pair_count=len(basis) ** 2,
        counterexamples=counterexamples,
        pairs_match=pairs_match,
        _source=basis,
    )


# ---------------------------------------------------------------------------
# the bimodule isomorphism of the canonical dual


@dataclass
class ThetaPsiReport:
    """theta and psi are sparse columns {row: k[t] entry}, views of the
    term columns ``_source`` = (field, theta, psi) (:func:`_poly_columns`),
    built on first read and not fields, as in :class:`NuSymmetryReport`;
    ``_dense`` gives the |B| x |B| matrices."""

    ok: bool
    size: int
    theta_psi_identity: bool
    psi_theta_identity: bool
    det_theta_constant: object
    bimodule_ok: bool
    bimodule_counterexamples: List[str]
    _source: InitVar[Optional[tuple]] = None

    def __post_init__(self, _source):
        self._source = _source

    theta = cached_property(lambda self: _poly_columns(self._source[0], self._source[1]))
    psi = cached_property(lambda self: _poly_columns(self._source[0], self._source[2]))


Terms = List[List[Tuple[int, int, int]]]  # columns of (row, degree, coefficient) terms


def _theta_psi_columns(basis: CanonicalBasis) -> Tuple[Terms, Terms]:
    """theta and psi as columns of (row, degree, coefficient) terms, the
    coefficients the native ints 1 and -1, at most two terms each, in
    one pass over pi.  The degree-0 term of column col is at row pi(col)
    (:attr:`BasisLayout.pi`).  Column a:m (not a top cycle) has only
    that term, at b:(n - m) for b = sigma^m(a); its sign is eps_a in
    theta and eps_b in psi, an arrow being positive when its top cycle
    is kept.  b is read off ``after`` (the arrow that follows a:m), not
    off the row pi(col), so a pi other than the sigma-orbits' gives
    columns and no KeyError.  Column x(s) of theta adds t, and column
    e(s) of psi adds -t, at their own row."""
    walks, after, kept, top, top_index = basis.walks, basis.after, basis.kept, basis.top_lengths, basis.top_index
    theta, psi = [], []
    for col, d in enumerate(basis.pi):
        s, a, m = walks[col]
        if a is None:  # e(s), d = x(s)
            theta.append([(d, 0, 1)])
            psi.append([(d, 0, 1), (col, 1, -1)])
        elif col == top_index[s]:  # x(s), d = e(s)
            theta.append([(d, 0, 1), (col, 1, 1)])
            psi.append([(d, 0, 1)])
        else:
            b = after[col]  # sigma^m(a)
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
    """left @ right == identity, for matrices given as columns of terms.
    A column whose product is the one int term (c, 0, 1), a unit column
    of theta or psi, passes as it is; any other is summed in a dict."""
    for c, col in enumerate(right):
        if len(col) == 1 and len(left[col[0][0]]) == 1:
            (_, d, x), ((r, d2, y),) = col[0], left[col[0][0]]
            if r == c and d + d2 == 0 and x * y == 1:
                continue
        acc = {(c, 0): -1}  # the product's column minus the unit column
        for s, d, x in col:
            for r, d2, y in left[s]:
                key = (r, d + d2)
                acc[key] = acc.get(key, 0) + x * y
        if _nonzero(field, acc):
            return False
    return True


def _theta_is_phi(basis: CanonicalBasis, theta: Terms) -> bool:
    """C1: theta's term column u is r -> phi(b_r b_u) (:func:`_phi_of`)
    for every u: nonzero at r = pi(u), degree 0, and at r = u, degree 1,
    for u = x(v).  Each column's int terms are read in turn against phi's,
    row pi(u) first; a column equal only over k (reordered, or read mod
    p) fails C1."""
    pi, tops, phi = basis.pi, basis.top_mask, _phi_of(basis)
    for u, col in enumerate(theta):
        terms = iter(col)
        for r in (pi[u], u) if tops[u] else (pi[u],):
            for d, c in phi(r, u):
                if next(terms, None) != (r, d, c):
                    return False
        if next(terms, None) is not None:
            return False
    return True


def verify_theta_psi(q: GentleQuiver, eps: Polarization, field: Field) -> ThetaPsiReport:
    """Check theta and psi are mutually inverse over k[t] and that theta is
    right-linear for the involution-twisted action on generators.

    theta and psi are built once as columns of +-1 int terms
    (:func:`_theta_psi_columns`); the report's views format them on read.
    Only theta psi is evaluated, and ``psi_theta_identity`` is read off
    it.  Proof: theta and psi are square matrices over the commutative
    ring k[t], so theta psi = id gives det theta det psi = 1; det theta
    is then a unit, theta is invertible (theta^-1 = adj(theta) /
    det theta) and psi = theta^-1 (theta psi) = theta^-1, so psi theta
    = id.  Conversely psi theta = id gives theta psi = id the same way,
    so the two identities hold or fail together.
    det theta(0) is a sign.  Proof: theta psi = id makes det theta a
    unit of k[t], the constant det theta(0), and theta(0), theta's
    degree-0 terms (pi(u), u, +-1), is a signed permutation matrix:
    :func:`linalg.sign_det` gives its int determinant (AssertionError on
    any other entry), mapped into k.

    The bimodule identity theta(u nu(g)) = theta(u) g holds for every
    basis path u and generator g when C1 (:func:`_theta_is_phi`), C2
    (:func:`_generators_hold`) and nu(a) = 1 for each arrow a not in B
    hold.  C1 and C2 read F off pi, so, as in :func:`check_nu_symmetry`,
    they are trusted only when pi is the pairing read off the
    sigma-orbits (:func:`_expected_pi`); otherwise the sweep decides.
    Proof: by C1 and k[[t]]-linearity theta(u)(y) = phi(y b_u)
    for every y in Lambda, so (theta(u) g)(b_r) = phi(g b_r b_u) and
    theta(u nu(g))(b_r) = nu(g) phi(b_r b_u g); C2 with y = b_r b_u
    makes them equal, with no multiplicativity of nu.  An arrow a not in
    B has n(a) = 1 and sign -, so a = t e(v) - x(v), and phi(a y) - phi(y
    a) = t (phi(e(v) y) - phi(y e(v))) - (phi(x(v) y) - phi(y x(v))) = 0
    for every basis path y: phi(y) != 0 only at the tops, which start
    where they end, and x(v) y, y x(v) are x(v) at y = e(v), else t y or
    0.  At y = e(v) phi(a) = -1, so a's pairs hold iff nu(a) = 1.  Only
    when the certificate fails are the two sides compared
    (:func:`_bimodule_counterexamples`), to list the failures."""
    inv = involution_of(q, eps, field)  # checks eps, once per check
    basis = _canonical_basis(q, eps)
    theta, psi = _theta_psi_columns(basis)
    tp = _is_identity_product(field, theta, psi)  # and so psi theta = id
    det_const = None
    if tp:
        theta0 = ((r, c, x) for c, col in enumerate(theta) for r, d, x in col if d == 0)
        det_const = field.from_int(linalg.sign_det(len(basis), theta0))

    neg = _sign_parities(inv)
    certified = (
        basis.pi == basis.expected_pi
        and _theta_is_phi(basis, theta)
        and _generators_hold(basis, neg, field.char == 2)
        and not any(neg[a] for a, k in basis.kept.items() if not k)
    )
    bad = [] if certified else _bimodule_counterexamples(basis, inv, theta)
    return ThetaPsiReport(
        ok=tp and not bad,
        size=len(basis),
        theta_psi_identity=tp,
        psi_theta_identity=tp,
        det_theta_constant=det_const,
        bimodule_ok=not bad,
        bimodule_counterexamples=bad,
        _source=(field, theta, psi),
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
    pos, source, arrows = q.positions, q.sources, sorted(q.arrow_names)
    gnames = [f"e({v})" for v in q.vertices] + arrows
    gpaths = [(v, None, 0) for v in q.vertices] + [(source[a], a, 1) for a in arrows]
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
        left = [(pos[su], basis.terms(su, au, lu), 1)]
        for a in arrows_into[su] if au is None else [q.sigma_power(au, -1)]:
            left.append((a_gen[a], basis.terms(source[a], a, lu + 1), nu[a]))
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
    pos, walks = q.positions, basis.walks
    mat = [[0] * len(pos) for _ in pos]
    for v, rows in basis.by_end.items():
        for r in rows:
            mat[pos[v]][pos[walks[r][0]]] += 1
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
    over the ribbon graph :func:`ribbon.graph_of_quiver`, the one the
    ``graph`` command walks, gives c and b; nothing is eliminated.
    """
    g = graph_of_quiver(q)
    bipartite = [walk is None for _, walk in _component_walk(g.nodes, g.adjacency(), {})]
    rk = len(g.nodes) - sum(bipartite)
    expected = len(g.nodes) - len(bipartite)
    return CartanReport(
        matrix=cartan_matrix(q),
        rank=rk,
        nodes=len(g.nodes),
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
    place = q.orbit_places
    per = {a: mm[place[a][0][0]] * len(place[a][0]) for a in q.arrow_names}
    total = sum(per.values())
    basis_size = matches = None
    if all(v == 1 for v in mm.values()):
        basis_size = basis_layout(q, default_polarization(q), mm).dim
        matches = basis_size == total
    return RankReport(total_rank=total, per_arrow=per, basis_size=basis_size, matches_basis=matches)
