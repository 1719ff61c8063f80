"""Finite-dimensional quotients of a ribbon graph order.

Dividing by the central element z = sum c_a^{m_a} identifies the two top
cycle powers at each vertex up to a minus sign (the twisted Brauer graph
algebra); dividing by the two-sided ideal of w = sum eps_a c_a^{m_a}
identifies them with a plus sign (the Brauer graph algebra).  Both
quotients have the path residues {e_i} u {a_l : 1 <= l <= m_a n(a)} as a
spanning set with one relation per vertex, so a normal form keeps the top
power of the positive arrow and rewrites the other.

Both quotients are monomial.  The product of two basis paths is nonzero
exactly when the right-hand path's last arrow is followed by the
left-hand path's first arrow under sigma (or one factor is the matching
idempotent); it is then the residue of the concatenated path: a basis
path, the kept top cycle with sign -1 (twisted) or +1 (plain) for the
negative top cycle, or zero beyond the top length m(a) n(a).
This is the order's sigma-rule, held once on the layout that the order
and its quotients share (:class:`order.BasisLayout`), and an algebra's
multiplication is that rule: ``FdAlgebra.product(i, j)`` gives b_i b_j
as (k, s), meaning s b_k, or None, in O(1) off the layout, composing no
path.  ``FdAlgebra.residue`` is the degree-0 part of the layout's
coordinate rule ``terms`` (modulo z = t).  The canonical basis of the
order is the same layout at m = 1.

So building a quotient costs O(|Q_0| + |Q_1|), and a decision reads the
rule at O(dim) pairs and lists no product: the socle on the rows and
columns of the arrow residues, and the socle certificate and the Brauer
graph algebra's standard form at the pairs (i, pi(i)) of the layout's
pairing involution pi (``order.BasisLayout.pi``), held in the algebra's
one ``top_pairing`` view.  Those two readers evaluate the rule inline,
as index arithmetic along the sigma-runs of the layout: at each pair
they read the layout entries that ``product`` reads and make its tests,
with no call per pair, so a corrupted layout trips the same assertions.
``product`` stays the one pointwise rule, which the product list and
the tests read.  The scaling map psi between the quotients is
checked on the relation at each vertex, with no product
(:func:`psi_from_quotient` proves that this is the check of every
product).  The sign s is the native int 1 or -1: every structure
constant of either quotient is +-1, and the rule's rewritten sign
``top_sign`` is +1 in the plain quotient and in characteristic two.

``FdAlgebra.products``, the nonzero products (i, j, k, s) in row-major
order, is a view: the rule's list, built on first read for the
reference readers (the symmetry oracle and S, the associativity check,
the dense pairing, the involution and twist checks), the ``quotient``
command and the tests; a list given to the constructor is read instead.
Those readers run over the nonzero products, not over every dim^2 or
dim^3 basis tuple.  ``FdAlgebra.scalar`` maps a sign into the field
through constants built once per algebra; the field-valued readers (the
``table`` view, the axiom check, the dense pairing) read it there, and
no reader builds a constant.  The twist check hands the ints to
:func:`order.nu_counterexamples`, which maps to k only to test for zero.
The two quotients share basis and layout and differ only in the sign of
the rewritten top cycle, so a decision builds one algebra, the twisted
quotient, and derives nothing from it.  ``plain_quotient`` derives the
Brauer graph algebra as an algebra of its own, for callers that read
it; no decision does.  ``table[i][j]`` (the same product as a one-entry
dict, every zero cell the one shared read-only ``ZERO_CELL``), and the
layout's ``basis`` (the labels), ``index`` (label -> index) and
``paths`` (a ``Path`` per basis label) are views derived on first read;
no decision reads them, and a decision formats at most one label, the
basis path its refutation names (``label(r)``).  ``bilinear_matrix``,
the dense pairing, is a test reference and a benchmark span target; no
decision calls it.

The symmetry oracle is closed-form on this structure and runs in
O(dim + nonzero products) with no elimination, no dense determinant and
no field arithmetic: a commutator has at most two terms, each +-one
basis path, so S is the component structure of the signed graph of the
commutator rows, found by one walk whose ratios are +-1 ints;
every arrow residue is one basis path (``arrow_residue`` gives it in
closed form: a:1, or the kept top cycle at the source for a rewritten
arrow of top length one) and multiplies basis paths injectively, so
the socle is a set of basis paths, read off the rule on the
residues' rows and columns; the refutation is
one socle path outside S's support, and the witness pairing has at most
one nonzero entry per row and column, each +-1, so its determinant is
+-1 or 0, mapped into the field at the end.  ``socle`` returns the
indices of those basis paths and ``symmetric_forms`` the basis of S as
sparse forms {index: coefficient}; ``FdAlgebra.dense`` turns a sparse
element into a dense row.  An algebra that breaks one of these rules
(a sign other than +-1 among them) raises AssertionError rather than
falling back to general linear algebra.

The oracle is the reference; decisions run ``socle_certificate``, which
returns the same verdict from the socle, the set of kept top cycles, and
the products that land on it: the rule at the pairs (i, pi(i)).  So the
commutator rows that meet the socle are the rows [b_i, b_pi(i)], the
socle paths make whole components of S's signed graph, and dim S is
counted in closed form, with no product listed, no S and no pairing
determinant over every product.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from . import linalg
from .fields import Field, RationalField
from .polarize import (
    MINUS,
    Involution,
    Polarization,
    check_polarization,
    default_polarization,
    find_sigma_stable,
    quotient_polarization,
)
from .quiver import GentleQuiver
from .ribbon import BipartiteCertificate
from .order import BasisLayout, _integral, basis_layout, normalize_multiplicity, nu_counterexamples

Sparse = Dict[int, object]
Product = Tuple[int, int, int, int]  # (i, j, k, s): b_i * b_j = s * b_k, s = 1 or -1

# every zero cell of every table: read-only, so no caller can fill it
ZERO_CELL: Mapping[int, object] = MappingProxyType({})


# ---------------------------------------------------------------------------
# the algebra container


class _Products:
    """FdAlgebra's ``products`` field: the list given to the constructor
    (or assigned), else, when it is None, the list of the algebra's
    product rule (:attr:`FdAlgebra.product`), built on first read and
    then kept."""

    def __get__(self, alg, owner=None):
        if alg is None:  # the field's default: list on first read
            return None
        listed = alg.__dict__.get("products")
        if listed is None:
            listed = alg.__dict__["products"] = alg._list_products()
        return listed

    def __set__(self, alg, value) -> None:
        alg.__dict__["products"] = value


@dataclass
class FdAlgebra(BasisLayout):
    """A structure-constant presentation of a monomial quotient algebra,
    on the basis layout of :func:`order.basis_layout` (see
    :class:`order.BasisLayout`), which every check reads.  Its
    multiplication is the product rule :attr:`product`: b_i b_j as
    (k, s), meaning s * basis_k, or None, in O(1) off the layout.
    products lists the nonzero products as (i, j, k, s) in row-major
    (i, j) order: the rule's list, built on first read (or a list given
    to the constructor, which the reference readers then read instead of
    the rule).  Each sign s is the native int 1 or -1; top_sign is the
    rewritten top cycle's, and scalar[s] is s as a field element (and
    scalar[0] is zero), built once per algebra.  The table and
    top_pairing views, like the layout's views, are derived on first
    read and then kept; an edit of products after that read does not
    reach them.
    """

    field: Field
    multiplicity: Dict[str, int]
    twisted: bool
    non_admissible: Tuple[str, ...]
    products: List[Product] = _Products()
    scalar: Tuple[object, object, object] = dc_field(init=False, repr=False, compare=False)
    top_sign: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        f = self.field
        self.scalar = (f.zero, f.one, f.neg(f.one))
        self.top_sign = -1 if self.twisted and f.char != 2 else 1

    @cached_property
    def product(self) -> Callable[[int, int], Optional[Tuple[int, int]]]:
        """The product rule: product(i, j) is b_i b_j as (k, s), meaning
        s b_k with s = 1 or -1, or None for zero, in O(1); built on first
        read.  b_i b_j is first b_j, then b_i.  The reference for the
        inline copies of this rule in :func:`socle` and
        :attr:`top_pairing`, and the rule that :attr:`products` lists.

        The candidates: e(v) b_j = b_j for the b_j that end at v;
        b_i e(s) = b_i for b_i = (s, a, L); and b_i b_j for b_j = (t, b,
        l) followed along sigma by a (``after[j]``), the path (t, b, T),
        T = l + L.  It is the basis path at index j + L while T <=
        kept[b], the kept top cycle at t with the rewritten sign
        ``top_sign`` at T = top_lengths[b] (b negative), and zero beyond
        the top length.  Every other product of basis paths is zero: a
        path whose arrows do not follow sigma.
        """
        walks, after, kept, top, top_index = self.walks, self.after, self.kept, self.top_lengths, self.top_index
        source, sign = self.quiver.sources, self.top_sign

        def product(i: int, j: int) -> Optional[Tuple[int, int]]:
            s, a, length = walks[i]
            t, b, l_j = walks[j]
            if b is None:  # b_i e(t), also e(s) e(t)
                return (i, 1) if t == s else None
            if a is None:  # e(s) b_j: b_j ends at s
                return (j, 1) if source[after[j]] == s else None
            if after[j] != a:
                return None
            total = l_j + length
            if total <= kept[b]:
                return j + length, 1
            if total == top[b]:  # b:top, rewritten through the relation at t
                return top_index[t], sign
            return None

        return product

    def _list_products(self) -> List[Product]:
        """The rule's nonzero products in row-major order, on the
        candidates of each row: by_end[s] for e(s), and e(s), then
        by_next[a] for (s, a, L).  by_next[a] is sorted, so the paths
        with one first arrow b make one run of it, along which the
        length grows: past the first zero product of the run that passes
        the candidate test (so lies beyond b's top length), every later
        one is zero too, and the row skips to the next run."""
        rule, walks, after, by_end, by_next = self.product, self.walks, self.after, self.by_end, self.by_next
        first, kept, position = self.first, self.kept, self.quiver.positions
        index = list(range(self.dim))  # the products share these ints, holding none of their own
        products: List[Product] = []
        add = products.append
        for i, (s, a, _) in enumerate(walks):
            row = by_end[s] if a is None else (position[s], *by_next[a])
            x, n = 0, len(row)
            while x < n:
                j = row[x]
                x += 1
                p = rule(i, j)
                if p is not None:
                    add((i, j, index[p[0]], p[1]))
                elif a is not None and after[j] == a:  # past the top of b_j's run
                    b = walks[j][1]
                    x = bisect_left(row, first[b] + kept[b], x)
        return products

    @cached_property
    def top_pairing(self) -> Tuple[List[Product], Optional[List[int]]]:
        """(landing, pi): landing[i] = (i, pi(i), k, s) for the rule's
        b_i b_pi(i) = s b_k, read at the dim pairs (i, pi(i)) of
        :attr:`order.BasisLayout.pi`, and pi when each lands on a kept
        top cycle (``top_mask``); else the products read up to the first
        that does not, and None.  Built on first read.

        The rule (:attr:`product`) is evaluated inline at each pair: it
        reads the same layout entries (both factors' ``walks``,
        ``after``, ``kept``, ``top_lengths``, ``top_index`` and
        ``top_sign``) and makes the same tests, with no call per pair."""
        walks, after, kept, top, top_index = self.walks, self.after, self.kept, self.top_lengths, self.top_index
        pi, mask, source, sign = self.pi, self.top_mask, self.quiver.sources, self.top_sign
        landing: List[Product] = []
        add = landing.append
        for i, j in enumerate(pi):
            s, a, length = walks[i]
            t, b, total = walks[j]
            if b is None:  # b_i e(t)
                if t != s:
                    break
                k, c = i, 1
            elif a is None:  # e(s) b_j
                if source[after[j]] != s:
                    break
                k, c = j, 1
            elif after[j] != a:
                break
            else:
                total += length
                if total <= kept[b]:
                    k, c = j + length, 1
                elif total == top[b]:
                    k, c = top_index[t], sign
                else:
                    break
            if not mask[k]:
                break
            add((i, j, k, c))
        else:
            return landing, pi
        return landing, None

    @cached_property
    def table(self) -> List[List[Mapping[int, object]]]:
        """table[i][j] = b_i b_j as a dict {k: c}, c the product's sign in
        the field; every zero cell is the shared read-only ZERO_CELL.
        dim^2 references, built on first read."""
        n = self.dim
        value = self.scalar
        table: List[List[Mapping[int, object]]] = [[ZERO_CELL] * n for _ in range(n)]
        for i, j, k, s in self.products:
            cell = table[i][j]
            if cell is ZERO_CELL:
                cell = table[i][j] = {}
            cell[k] = value[s]
        return table

    def arrow_residue(self, a: str) -> Sparse:
        """The residue of the arrow a, {index: coefficient}, in closed form:
        a:1 at first[a] when the basis keeps it, else a is a negative
        arrow with top length 1 (n(a) = m = 1), rewritten as the kept top
        cycle at its source with the rewritten sign (:meth:`residue` at
        length 1)."""
        if self.kept[a]:
            return {self.first[a]: self.scalar[1]}
        return {self.top_index[self.quiver.sources[a]]: self.scalar[-1 if self.twisted else 1]}

    def residue(self, a: str, length: int) -> Optional[Tuple[int, object]]:
        """The residue of the length-l path starting with arrow a, as
        (basis index, field coefficient), or None: the degree-0 part of
        :meth:`terms` (modulo z = t), whose -1 at a rewritten top cycle
        is +1 in the plain quotient."""
        for k, d, c in self.terms(self.quiver.source(a), a, length):
            if not d:
                return k, self.scalar[c if self.twisted else 1]
        return None

    def dense(self, u: Sparse) -> list:
        vec = [self.field.zero] * self.dim
        for i, c in u.items():
            vec[i] = c
        return vec

    def element_str(self, u: Sparse) -> str:
        if not u:
            return "0"
        f = self.field
        return " + ".join(
            f"{f.scalar_str(u[i])}*{self.basis[i]}" for i in sorted(u)
        )


def build_quotient_algebra(
    q: GentleQuiver,
    field: Field,
    m: Union[int, Mapping[str, int], None] = None,
    eps: Optional[Polarization] = None,
    twisted: bool = True,
) -> FdAlgebra:
    """Construct the twisted (anti-commuting) or plain quotient algebra.

    The basis keeps, per vertex, the top cycle power of the eps-positive
    arrow; the negative one is rewritten with sign -1 (twisted, outside
    characteristic two) or +1; every other product has sign +1.
    Dimension always equals sum of m(v_a) n(a).  When some arrow has
    n(a) = 1 and multiplicity 1 the defining ideal is not admissible
    (the arrow residue coincides with a top cycle); the quotient is still
    a perfectly good algebra and such arrows are flagged.

    The algebra is its layout and its product rule (:attr:`FdAlgebra.product`):
    O(|Q_0| + |Q_1|) here, and no product is listed (``products`` is a
    view, built on first read).

    The layout is field-independent: :func:`order.basis_layout` keeps it
    in q's memo, with the views every quotient reads (the sigma-rule
    pass and ``top_mask``) built on it once.  Each call checks the
    polarization and builds a new algebra, whose instance dict is one
    copy of the layout's: its fields and computed views, shared and
    never written.  The field's views (the rule, ``top_pairing``, the
    product list and the table) are each algebra's own.
    """
    mm = normalize_multiplicity(q, m)
    if eps is None:
        eps = default_polarization(q)
    else:
        check_polarization(q, eps)

    layout = basis_layout(q, eps, mm)
    layout._sigma_rule, layout.top_mask  # built on the layout once, for every algebra on it
    top = layout.top_lengths
    alg = FdAlgebra(
        q, eps, layout.dim, layout.first, layout.kept, layout.top_index, top,
        field=field, multiplicity=mm, twisted=twisted, non_admissible=tuple(a for a, n in top.items() if n == 1),
    )
    vars(alg).update(vars(layout))  # the layout's fields and its computed views
    return alg


def plain_quotient(tw: FdAlgebra) -> FdAlgebra:
    """The Brauer graph algebra derived from the twisted quotient of the
    same quiver, multiplicity and polarization, in O(1).

    The two share basis, layout and every other field; the plain rule
    is the twisted one with the rewritten top cycle's sign +1, so a
    product's sign is +1 everywhere, and its products are listed on
    first read.
    """
    return replace(tw, twisted=False, products=None)


_SIGNS = frozenset((1, -1))


def _product_index(alg: FdAlgebra) -> Dict[int, Product]:
    """{i * dim + j: (i, j, k, s)} for b_i b_j = s b_k, the listed
    product itself; a pair listed twice (a product with two terms) or a
    sign other than 1 and -1 raises AssertionError."""
    products = alg.products
    n = alg.dim
    terms = {p[0] * n + p[1]: p for p in products}
    if len(terms) < len(products):
        seen = set()
        for i, j, _, _ in products:
            if (i, j) in seen:
                raise AssertionError(
                    f"product {alg.label(i)} * {alg.label(j)} has more than one term, "
                    "so a commutator has more than two"
                )
            seen.add((i, j))
    if not _SIGNS.issuperset(map(itemgetter(3), products)):
        i, j, _, s = next(p for p in products if p[3] not in _SIGNS)
        raise AssertionError(f"product {alg.label(i)} * {alg.label(j)} has sign {s!r}, not 1 or -1")
    return terms


def check_algebra_axioms(alg: FdAlgebra) -> None:
    """The two-sided unit law on every basis element, read off the
    products with an idempotent factor, and associativity on every basis
    triple with a nonzero side, each side looked up in
    :func:`_product_index`.

    (b_i b_j) b_k can be nonzero only if b_i b_j = c b_p with b_p b_k
    nonzero, and b_i (b_j b_k) only if b_j b_k = c b_p with b_i b_p
    nonzero; on every other triple both sides vanish.  Signs are
    compared in the field (scalar), where -1 = +1 in characteristic two.
    The least failing basis element, else the least failing triple, is
    reported.
    """
    f = alg.field
    value = alg.scalar
    n = alg.dim
    terms = _product_index(alg)
    nv = len(alg.quiver.vertices)  # e(v) sits at index pos(v)
    left: List[Sparse] = [{} for _ in range(n)]  # 1 b_x
    right: List[Sparse] = [{} for _ in range(n)]  # b_x 1
    rows: List[List[int]] = [[] for _ in range(n)]  # j with b_i b_j nonzero
    cols: List[List[int]] = [[] for _ in range(n)]  # i with b_i b_j nonzero
    for i, j, k, s in alg.products:
        rows[i].append(j)
        cols[j].append(i)
        if i < nv:
            left[j][k] = f.add(left[j].get(k, f.zero), value[s])
        if j < nv:
            right[i][k] = f.add(right[i].get(k, f.zero), value[s])
    for x in range(n):
        if any({k: c for k, c in side[x].items() if c} != {x: f.one} for side in (left, right)):
            raise AssertionError(f"unit law fails at basis element {alg.label(x)}")

    def fails(i, j, k):  # each side as (index, field sign), or None
        ij, jk = terms.get(i * n + j), terms.get(j * n + k)
        lhs = ij and terms.get(ij[2] * n + k)
        rhs = jk and terms.get(i * n + jk[2])
        return (lhs and (lhs[2], value[ij[3] * lhs[3]])) != (rhs and (rhs[2], value[jk[3] * rhs[3]]))

    failing = [(i, j, k) for i, j, p, _ in alg.products for k in rows[p] if fails(i, j, k)]
    failing += [(i, j, k) for j, k, p, _ in alg.products for i in cols[p] if fails(i, j, k)]
    if failing:
        i, j, k = min(failing)
        raise AssertionError(
            f"associativity fails at ({alg.label(i)}, {alg.label(j)}, {alg.label(k)})"
        )


# ---------------------------------------------------------------------------
# the induced involution


@dataclass
class NakayamaBarReport:
    ok: bool
    signs: List[object]  # signs[r]: the field sign of b_r
    algebra_map: bool
    involutive: bool
    fixes_idempotents: bool
    counterexamples: List[str]


def nakayama_involution_bar(alg: FdAlgebra, inv: Involution) -> NakayamaBarReport:
    """The involution descends to the quotient: each basis path is scaled
    by its path sign, the product of the arrow signs along it
    (:meth:`order.BasisLayout.path_products`).  Verified to respect the
    full multiplication table (this is exactly well-definedness across
    the rewriting relations); zero products hold trivially, so only the
    nonzero ones are checked.  A product b_i b_j = s b_k with s = +-1 is
    kept iff nu(b_i) nu(b_j) = s nu(b_k), and s, a unit, cancels from
    both sides: the check compares path signs only.  ``signs`` holds
    them as field elements, by index."""
    f = alg.field
    sign_by_index = alg.path_products(f, inv.signs)
    bad: List[str] = []
    for i, j, k, _ in alg.products:
        if sign_by_index[k] != f.mul(sign_by_index[i], sign_by_index[j]):
            bad.append(f"({alg.label(i)}, {alg.label(j)})")
    involutive = all(f.mul(s, s) == f.one for s in sign_by_index)
    fixes = all(s == f.one for s in sign_by_index[: len(alg.quiver.vertices)])
    return NakayamaBarReport(
        ok=not bad and involutive and fixes,
        signs=list(map(f.from_int, sign_by_index)),
        algebra_map=not bad,
        involutive=involutive,
        fixes_idempotents=fixes,
        counterexamples=bad,
    )


# ---------------------------------------------------------------------------
# socle and symmetric forms


_UNREACHED = bytes([1]) + bytes(255)  # translates a reached mask (0 or 1) to its complement


def socle(alg: FdAlgebra) -> List[int]:
    """The socle {x : a x = 0 = x a for all arrow residues}, as the
    indices of the basis paths that span it, in increasing order, read
    off the product rule (:attr:`FdAlgebra.product`) on the rows and
    columns of the arrow residues alone: O(dim) products.

    Each arrow residue is c b_g for one basis path b_g, and multiplying
    by b_g on either side sends distinct basis paths to distinct basis
    paths or to zero (a signed partial injection).  The socle is then
    the coordinate subspace on the paths that no such product keeps.
    Row g = (s, a, L) has its candidates e(s) and ``by_next[a]``, and
    column g those b_x that follow it: e(v) at its end v and the run
    of the arrow after[g], a:1 to a:kept[a] (:attr:`FdAlgebra.product`
    lists why no other product is nonzero).  The rule is evaluated
    inline at each pair, on the same layout entries (both factors'
    ``walks``, ``after``, ``kept``, ``top_lengths`` and ``top_index``)
    with the same tests, and only the product's index is kept, in a
    byte mask: no call per pair, no sign and no field arithmetic.  A
    residue's e(s) and e(v) are read off the quiver's ``positions`` and
    ``sources`` maps, and the unreached paths off the mask's complement
    (``bytearray.translate``).  A per-index stamp of the last row or
    column that reached k tests injectivity.  Raises AssertionError when
    a residue is not one path or a multiplication is not injective.
    """
    residues = set()
    residue = alg.arrow_residue
    for a in alg.quiver.arrow_names:
        g = residue(a)
        if len(g) != 1:
            raise AssertionError(f"arrow residue of {a} is not one basis path")
        residues.update(g)
    walks, after, by_next, first, kept = alg.walks, alg.after, alg.by_next, alg.first, alg.kept
    top, top_index = alg.top_lengths, alg.top_index
    position, source = alg.quiver.positions, alg.quiver.sources
    reached = bytearray(alg.dim)
    stamp = [-1] * alg.dim  # stamp[k]: the last side, 2g (row g) or 2g + 1 (column g), with a product on b_k

    def not_injective(side, g):
        return AssertionError(f"{side} multiplication by {alg.label(g)} is not injective on basis paths")

    for g in sorted(residues):
        s, a, length = walks[g]
        side = 2 * g
        for j in (position[s], *by_next[a]):  # b_g b_j
            t, b, total = walks[j]
            if b is None:  # b_g e(t)
                if t != s:
                    continue
                k = g
            elif after[j] != a:
                continue
            else:
                total += length
                if total <= kept[b]:
                    k = j + length
                elif total == top[b]:
                    k = top_index[t]
                else:
                    continue
            if stamp[k] == side:
                raise not_injective("left", g)
            stamp[k] = side
            reached[j] = 1
        b, side = after[g], side + 1
        v = source[b]  # g's end
        for x in (position[v], *range(first[b], first[b] + kept[b])):  # b_x b_g
            u, c, n = walks[x]
            if c is None:  # e(u) b_g
                if u != v:
                    continue
                k = g
            elif c != b:
                continue
            else:
                total = length + n
                if total <= kept[a]:
                    k = g + n
                elif total == top[a]:
                    k = top_index[s]
                else:
                    continue
            if stamp[k] == side:
                raise not_injective("right", g)
            stamp[k] = side
            reached[x] = 1
    return list(compress(range(alg.dim), reached.translate(_UNREACHED)))


def symmetric_forms(alg: FdAlgebra) -> List[Sparse]:
    """Basis of S = {phi : phi(xy) = phi(yx)}, the annihilator of [A, A],
    as sparse forms {index: coefficient}, by one walk over the commutator
    rows.

    A product of two basis paths is 0 or s times one basis path, s = +-1,
    so a commutator [b_i, b_j] has at most two terms; its row is read off
    the products in order, with b_j b_i looked up in
    :func:`_product_index`.  A row says s phi(k) = 0, or
    s phi(k) - s' phi(k') = 0 for the reverse product b_j b_i = s' b_k'.
    The first kind only marks k in a zero mask (as does s b_k - s' b_k
    with s != s', outside characteristic two).  The second kind links k
    and k' with phi(k') = s s' phi(k), both ways, since 1 / s = s.  The
    rows make a signed graph, and S is its component structure, found by
    one walk per component (:func:`_walk`), which gives each index its
    ratio to the component's start.  A component is forced to zero by a
    masked member, or, outside characteristic two, by a link whose ratio
    disagrees (a cycle whose signs do not close).  Each
    other component gives one form, 1 at its largest index, and the
    forms are ordered by that index: the basis that elimination of the
    commutator rows returns.  The kernel runs on native ints; each sign
    is mapped into the field through ``alg.scalar``.
    """
    n = alg.dim
    char2 = alg.field.char == 2
    lookup = _product_index(alg).get
    links: Dict[int, List[Tuple[int, int]]] = {}  # k -> [(k', s s')]
    zero = [False] * n  # phi(x) = 0 by a one-term row
    for i, j, k, s in alg.products:
        if i == j:
            continue
        rev = lookup(j * n + i)
        if rev is None:
            zero[k] = True
        elif i < j:  # else the pair was read at (j, i)
            k2, s2 = rev[2], rev[3]
            if k2 != k:
                links.setdefault(k, []).append((k2, s * s2))
                links.setdefault(k2, []).append((k, s * s2))
            elif s != s2 and not char2:
                zero[k] = True

    value = alg.scalar
    ratio = [0] * n
    forms = []
    for comp, consistent in _walk(range(n), links, ratio, char2):
        if consistent and not any(map(zero.__getitem__, comp)):
            comp.sort()
            last = ratio[comp[-1]]  # 1 / last = last
            forms.append({x: value[ratio[x] * last] for x in comp})
    forms.sort(key=max)
    return forms


def _walk(
    starts: Iterable[int], links: Mapping[int, List[Tuple[int, int]]], ratio: List[int], char2: bool
) -> Iterator[Tuple[List[int], bool]]:
    """The components of a signed graph, one walk each: links[x] lists
    (y, r) for phi(y) = r phi(x), r = +-1, and ratio (0 where not reached
    yet) is filled in as the walk goes.  Each start not reached yet
    begins a component with ratio 1; the index y first reached from x
    over a link of ratio r gets ratio[x] r, so phi(y) = ratio[y]
    phi(start).  Yields (members in the order reached, consistent), where
    a component is inconsistent when, outside characteristic two, a
    link's ratio disagrees (a cycle whose signs do not close)."""
    for start in starts:
        if ratio[start]:
            continue
        ratio[start] = 1
        comp = [start]
        consistent = True
        for x in comp:  # comp grows as it is read
            for y, r in links.get(x, ()):
                if not ratio[y]:
                    ratio[y] = ratio[x] * r
                    comp.append(y)
                elif ratio[y] != ratio[x] * r and not char2:
                    consistent = False
        yield comp, consistent


def bilinear_matrix(alg: FdAlgebra, phi: list) -> List[list]:
    """b_phi(x, y) = phi(x y) on the basis, for a field-valued phi."""
    f = alg.field
    value = alg.scalar
    n = alg.dim
    mat = [[f.zero] * n for _ in range(n)]
    for i, j, k, s in alg.products:
        mat[i][j] = f.mul(value[s], phi[k])
    return mat


def pairing_det(alg: FdAlgebra, phi) -> object:
    """det b_phi as a field element, in O(dim + nonzero products), for a
    sign form phi: a sequence of the native ints 0, 1 and -1, one per
    basis index.  Each nonzero entry s phi(k) is +-1, so the determinant
    is computed on ints (:func:`linalg.sign_det`, which raises
    AssertionError on a row or a column with two nonzero entries) and
    mapped into the field at the end."""
    entries = ((i, j, s * phi[k]) for i, j, k, s in alg.products if phi[k])
    return alg.scalar[linalg.sign_det(alg.dim, entries)]


# ---------------------------------------------------------------------------
# the symmetry oracle and the socle certificate


@dataclass
class SymmetryVerdict:
    """kind is "symmetric", "not-symmetric" or "undecided"; trials is the
    number of witness forms checked (0 or 1); witness_form is the
    certified form as a dense row of field elements."""

    kind: str
    method: str
    trials: int = 0
    s_dim: int = 0
    witness_form: Optional[list] = None
    certificate: Optional[dict] = None


def is_symmetric_oracle(alg: FdAlgebra) -> SymmetryVerdict:
    """Decide whether the algebra admits a symmetric nondegenerate form,
    in O(dim + nonzero products), with no field arithmetic: the
    reference for :func:`socle_certificate`, which decisions run.  S is
    read off the listed products, the socle off the rule.

    S comes from :func:`symmetric_forms` (sparse forms with disjoint
    supports) and the socle from :func:`socle` (basis-path indices);
    then, in order:
      1. refutation: a socle path p on which every form of S vanishes
         lies in the radical of every pairing b_phi, phi in S
         (:func:`_socle_certificate`); the least such p is the
         certificate;
      2. witness: phi = the sum of the basis forms of S whose support
         meets the socle.  Its values are +-1 (each form is), read as a
         sign form, so :func:`pairing_det` computes its exact
         determinant on ints; a nonzero one certifies "symmetric".
    If neither settles the case the verdict is "undecided".  A structure
    outside the monomial rule raises AssertionError.
    """
    one = alg.field.one
    forms = symmetric_forms(alg)
    paths = socle(alg)
    cert = _socle_certificate(alg, forms, paths)
    if cert is not None:
        return _refuted(len(forms), cert)

    soc = set(paths)
    phi = [0] * alg.dim  # the witness as a sign form
    for form in forms:
        if not soc.isdisjoint(form):
            for k, c in form.items():
                phi[k] = 1 if c == one else -1
    return _witnessed(alg, len(forms), phi, pairing_det(alg, phi))


def socle_certificate(alg: FdAlgebra) -> SymmetryVerdict:
    """The verdict of :func:`is_symmetric_oracle` (kind, method, s_dim,
    certificate and witness form), read off :func:`socle` and the
    product rule at the dim pairs (i, pi(i)): no product listed, no S
    and no field arithmetic.

    The socle paths are the kept top cycles, and the products landing
    on them are the graph of the layout's pairing involution pi
    (:attr:`order.BasisLayout.pi`), b_i b_pi(i) = s_i b_k(i), the rule
    at (i, pi(i)) landing on a kept top cycle; else
    :func:`_socle_landing` raises AssertionError.  So b_pi(i) b_i lands
    on the socle too: no commutator row that meets the socle has one
    term, and each is [b_i, b_pi(i)] = s_i b_k(i) - s_pi(i) b_k(pi(i)),
    with both terms on the socle.  The socle paths therefore make a
    union of components of the signed graph of :func:`symmetric_forms`,
    linked k(i) - k(pi(i)) with ratio s_i s_pi(i), and the oracle's
    verdict is read off these components alone (:func:`_walk`, from the
    least socle path up):
      - not-symmetric: outside characteristic two, a component whose
        signs do not close is forced to zero; the least socle path
        outside the consistent components (:func:`_socle_certificate`)
        is the oracle's refutation;
      - symmetric: otherwise the witness is the +-1 form on the socle,
        1 at each component's largest index (the sum of the S basis
        forms meeting the socle).  Its pairing has the dim entries
        (i, pi(i), s_i phi(k(i))), one per row and column, so its
        determinant is sign(pi) times their product, +-1, in closed
        form (:func:`_witness_det`).

    s_dim = dim S = |Q_0| + #{loop arrows a with sigma(a) != a}
    + sum over the sigma-orbits A of (m_A - 1) + #consistent socle
    components.  Proof: S is the dual of A / [A, A], and [A, A] is
    spanned by the commutators of basis paths, each of which is zero,
    +- one basis path, or a difference of two.  So A / [A, A] has one
    dimension per class of basis paths linked by two-term rows that no
    one-term row and no inconsistent cycle forces to zero.  Going
    through the basis paths:
      - e(v) is a product of two basis paths only as e(v) e(v), so it is
        a class of its own: |Q_0| classes;
      - an open path p from s is [e(s), p], so zero;
      - a closed path p at v of length L >= 2 that is not a power of its
        orbit's full cycle (n(a) does not divide L) is u w for the two
        basis paths it splits into at an inner vertex, and w u = 0: it
        would follow the last arrow l of p by the first arrow of p at v,
        while sigma(l) = sigma^L(first(p)) != first(p).  So p = [u, w]
        is zero;
      - a loop arrow a with sigma(a) != a has length 1 < m_A n(a), so it
        is a basis path, and only e(v) a and a e(v) give it: a class of
        its own;
      - a power c^j, 1 <= j < m_A, of a full cycle has length
        j n(a) < m_A n(a), so each of its rotations is a basis path;
        splitting it at a vertex gives a two-term row with signs +1 to
        the rotation, and only rotations give it: one class per orbit
        and j, sum over A of (m_A - 1) classes;
      - what is left are the kept top cycles, which are the socle paths
        (every other basis path extends by the next arrow of its orbit,
        or by an arrow out of its vertex, to a nonzero one), whose rows
        are the pi rows above: one class per consistent component.
    """
    n = alg.dim
    paths = socle(alg)
    landing = _socle_landing(alg, paths)
    links: Dict[int, List[Tuple[int, int]]] = {k: [] for k in paths}  # k -> [(k', s s')]; each k lands on the socle
    for i, j, k, s in landing:
        if i < j:
            _, _, k2, s2 = landing[j]
            r = s * s2
            links[k].append((k2, r))
            links[k2].append((k, r))
    ratio = [0] * n
    comps = list(_walk(paths, links, ratio, alg.field.char == 2))

    q, mm = alg.quiver, alg.multiplicity
    loops = sum(1 for a, s, t in q.arrows if s == t and q.sigma[a] != a)
    free = [comp for comp, ok in comps if ok]
    s_dim = len(q.vertices) + loops + sum(mm.values()) - len(mm) + len(free)
    cert = _socle_certificate(alg, free, paths)
    if cert is not None:
        return _refuted(s_dim, cert)

    phi = [0] * n  # the witness as a sign form
    for comp, _ in comps:
        last = ratio[max(comp)]  # 1 / last = last
        for x in comp:
            phi[x] = ratio[x] * last
    return _witnessed(alg, s_dim, phi, _witness_det(landing, phi))


def _witness_det(landing: List[Product], phi: List[int]) -> int:
    """The determinant of the pairing of the sign form phi, whose
    nonzero entries are (i, pi(i), s_i phi(k_i)) for the products
    landing[i] = (i, pi(i), k_i, s_i) (:func:`_socle_landing`: one per
    row, in row order, each s_i = +-1), as the int 0, 1 or -1:
    sign(pi) times the product of the entries, where sign(pi) =
    (-1)^((dim - #fixed points) / 2).  Raises AssertionError unless pi
    is an involution.

    Proof.  The pairing M has M[i][pi(i)] = s_i phi(k_i) and no other
    nonzero entry.  In the Leibniz sum det M = sum over permutations
    p of sign(p) prod_i M[i][p(i)], a term with p(i) != pi(i) for some i
    has the factor 0, so det M = sign(pi) prod_i s_i phi(k_i).  An
    involution is the product of its disjoint transpositions, one per
    pair {i, pi(i)} with pi(i) != i: (dim - #fixed points) / 2 of them,
    each of sign -1.  A pi with pi(pi(i)) != i for some i may have
    cycles of other lengths, whose sign this count does not give, so
    the check comes first (and pi(pi(i)) = i for all i makes pi a
    bijection).  :func:`linalg.sign_det` computes the same from the
    cycles of any permutation; the tests compare the two.
    """
    moved, product = 0, 1
    for i, j, k, s in landing:
        if landing[j][1] != i:
            raise AssertionError("the socle pairing pi is not an involution")
        moved += i != j
        product *= s * phi[k]
    return -product if moved // 2 % 2 else product


def _socle_landing(alg: FdAlgebra, paths: List[int]) -> List[Product]:
    """The products that land on the socle paths (:func:`socle` of alg),
    landing[i] = (i, pi(i), k, s) for b_i b_pi(i) = s b_k, in row order:
    alg's ``top_pairing`` view, read through the product rule at the
    pairs (i, pi(i)).  Raises AssertionError when the socle is not the
    set of kept top cycles, which the s_dim proof of
    :func:`socle_certificate` assumes, when a product b_i b_pi(i) does
    not land on a kept top cycle (so the products landing on the socle
    are not pi's graph), or when a sign is not 1 or -1."""
    top = alg.top_mask
    if len(paths) != len(alg.top_index) or not all(map(top.__getitem__, paths)):
        raise AssertionError("the socle is not the set of kept top cycles")
    landing, pi = alg.top_pairing
    if pi is None:
        raise AssertionError("the products landing on the socle are not the graph of an involution")
    if not _SIGNS.issuperset(map(itemgetter(3), landing)):
        raise AssertionError("a product landing on the socle has a sign other than 1 and -1")
    return landing


def _socle_certificate(alg: FdAlgebra, forms: List[Sparse], paths: List[int]) -> Optional[dict]:
    """The first socle path p outside the union of the supports of the
    sparse forms (or of the member lists of S's free components), as
    the element {label: "1"}, or None.

    For such p and any y, p y is a multiple of p e_i for an idempotent
    e_i, and phi(p e_i) = phi(p) or 0, so b_phi(p, -) vanishes for every
    phi in the span of the forms: when they span S, no symmetric form
    can be nondegenerate.  paths is :func:`socle` of alg.
    """
    support = set().union(*forms)
    for p in paths:
        if p not in support:
            return {"reason": "socle", "element": {alg.label(p): alg.field.scalar_str(alg.field.one)}}
    return None


def _refuted(s_dim: int, cert: dict) -> SymmetryVerdict:
    return SymmetryVerdict(
        kind="not-symmetric",
        method="socle path outside every free component of S",
        s_dim=s_dim,
        certificate=cert,
    )


def _witnessed(alg: FdAlgebra, s_dim: int, phi: List[int], det) -> SymmetryVerdict:
    """The verdict on the witness sign form phi, whose pairing has
    determinant det (an int or a field element, zero or not)."""
    if det:
        value = alg.scalar
        return SymmetryVerdict(
            kind="symmetric",
            method="sum of the S basis forms meeting the socle: monomial pairing, exact determinant",
            trials=1,
            s_dim=s_dim,
            witness_form=list(map(value.__getitem__, phi)),
        )
    return SymmetryVerdict(
        kind="undecided",
        method="degenerate witness pairing and no socle certificate",
        trials=1,
        s_dim=s_dim,
    )


# ---------------------------------------------------------------------------
# the standard form of the Brauer graph algebra


def brauer_form_pairing(alg: FdAlgebra) -> Optional[List[int]]:
    """The closed-form certificate that the Brauer graph algebra with
    alg's quiver, multiplicity and polarization is symmetric: alg.pi
    (:attr:`order.BasisLayout.pi`) when the product rule at each pair
    (i, pi(i)) lands on a kept top cycle (alg's ``top_pairing`` view),
    else None.  By the proof at :attr:`order.BasisLayout.pi`, (i, pi(i))
    is then the only pair of row i and the only pair of column pi(i)
    that lands there, so these products are the graph of pi.

    The standard form phi is 1 on each kept top cycle and 0 elsewhere,
    and the plain quotient has alg's rule with every sign +1 (alg's
    signs are not read, and alg may be either quotient).  So the pairing
    of phi is the permutation matrix of the involution pi: symmetric,
    and of determinant sign(pi) != 0 in every field.  None contradicts
    the theorem that every Brauer graph algebra is symmetric in this
    standard form.
    """
    return alg.top_pairing[1]


# ---------------------------------------------------------------------------
# the twisted bimodule check


@dataclass
class TwistReport:
    ok: bool
    pair_count: int
    twisted_symmetry: bool
    nondegenerate: bool
    det: object
    counterexamples: List[str]


def check_canonical_bimodule_twist(alg: FdAlgebra, bar: NakayamaBarReport) -> TwistReport:
    """With phi-bar = coefficient sum of the positive top cycles, check
    phi(q p) = phi(nu(p) q) on all basis pairs and that b_phi is
    nondegenerate; together these realize x -> x . phi as an isomorphism
    onto the dual twisted by the involution.

    phi(b_i b_j) is nonzero only where b_i b_j lands on a kept top cycle,
    where it is the product's sign, at degree 0: the order's form reduced
    modulo t.  Those pairs are read off the listed products, as the
    other reference checks read them, and evaluated by the order's one
    evaluator, :func:`order.nu_counterexamples`, with nu the
    involution's signs in ``bar`` lifted to ints, in O(dim + products)
    and row-major order.  Its determinant is :func:`pairing_det` of the
    layout's ``top_mask``.
    """
    top = alg.top_mask
    phi = {(i, j): {0: s} for i, j, k, s in alg.products if top[k]}
    nu = list(map(_integral, bar.signs))
    bad = [f"({alg.label(i)}, {alg.label(j)})" for i, j in nu_counterexamples(alg.field, phi, nu)]
    d = pairing_det(alg, top)
    return TwistReport(
        ok=not bad and bool(d),
        pair_count=alg.dim ** 2,
        twisted_symmetry=not bad,
        nondegenerate=bool(d),
        det=d,
        counterexamples=bad,
    )


# ---------------------------------------------------------------------------
# the isomorphism with the plain Brauer graph algebra


@dataclass
class PsiResult:
    kind: str  # "isomorphism" | "identity" | "inapplicable"
    reason: Optional[str] = None
    witness: Optional[dict] = None
    scales: Optional[Dict[str, object]] = None
    verified: bool = False


def root_of_minus_one(field: Field, m: int):
    """A field element with x^m = -1, or None.

    Over the rationals the only candidates are +-1, so a root exists iff
    m is odd.  Over GF(p), p odd, the unit group is cyclic of order
    n = p - 1 and -1 is its element of order two, so with g = gcd(m, n)
    a root exists iff n / g is even.  Then y = z^(n / 2g), for the least
    quadratic non-residue z, has y^g = z^(n/2) = -1, and x = y^u with
    u = (m/g)^-1 mod n/g has x^m = y^g y^(sn) = -1 for some integer s.
    No field element is scanned.
    """
    if field.char == 2:
        return field.one
    if isinstance(field, RationalField):
        return Fraction(-1) if m % 2 == 1 else None
    p = field.char
    n = p - 1
    g = gcd(m, n)
    if (n // g) % 2:
        return None
    z = 2
    while pow(z, n // 2, p) != p - 1:  # Euler's criterion
        z += 1
    return pow(pow(z, n // (2 * g), p), pow(m // g, -1, n // g), p)


def construct_psi_isomorphism(
    q: GentleQuiver,
    field: Field,
    m: Union[int, Mapping[str, int], None] = None,
) -> PsiResult:
    """Build and verify the scaling isomorphism from the twisted quotient
    to the Brauer graph algebra.

    In characteristic two the two quotients coincide and the identity is
    returned.  Otherwise the graph must be bipartite: with the canonical
    sigma-stable polarization, the representative arrow of each negative
    orbit is scaled by a root of x^{m(v)} = -1.  Missing roots or an odd
    walk produce an explicit inapplicability witness.  One algebra is
    built, the twisted quotient, and the candidate map is verified on the
    relation at each vertex (:func:`psi_from_quotient`).
    """
    mm = normalize_multiplicity(q, m)
    stable = find_sigma_stable(q)
    if field.char != 2 and not isinstance(stable, Polarization):
        return _not_bipartite(stable)
    tw = build_quotient_algebra(q, field, mm, quotient_polarization(q, stable), twisted=True)
    return psi_from_quotient(stable, tw)


def psi_from_quotient(
    stable: Union[Polarization, BipartiteCertificate],
    tw: FdAlgebra,
) -> PsiResult:
    """:func:`construct_psi_isomorphism` given the quiver's
    :func:`find_sigma_stable` result and its twisted quotient, built with
    :func:`quotient_polarization`.

    The map psi(b) = d(b) b, with d(b) the product of the scales lambda
    along the basis path b (1 at e(v)), is verified on the relation at
    each vertex (:func:`_scaling_relations_hold`), which lists no
    product.  Write mu_x = (prod over the sigma-orbit of x of
    lambda)^m, m the orbit's multiplicity: d of the top cycle of length
    T = m n(x) from x, on which each arrow of the orbit occurs m times.
    Claim: psi is an isomorphism onto the plain quotient (the rule with
    every sign +1) iff lambda(a) != 0 for every arrow a with kept[a] >= 1
    and mu_b = s mu_a at every vertex whose negative arrow b has top
    length T_b >= 2, where a is its positive arrow and s = top_sign,
    -1 outside characteristic 2.  This is exactly the check of every
    product of basis paths (``tests/reference.py`` keeps it).

    Proof.  psi is bijective iff no d vanishes, and the arrows on basis
    paths are those with kept[a] >= 1 (a basis path a:l runs along a's
    orbit, all of whose arrows keep a path when n(a) >= 2).  psi is
    multiplicative iff s d(b_k) = d(b_i) d(b_j) for every product
    b_i b_j = s b_k of the rule (:attr:`FdAlgebra.product`): zero
    products vanish on both sides.  The idempotent products hold, as
    d(e(v)) = 1; the products b_i b_j = b_k with b_k the concatenated
    path hold, as d is multiplicative along a path.  What is left are
    the products with total length T_b for a negative arrow b: b_j =
    (v, b, l), b_i = (v', sigma^l(b), T_b - l), whose concatenation is
    the rewritten top cycle c_b^m, so d(b_i) d(b_j) = mu_b, and which
    the rule sends to s x(v), x(v) = c_a^m the kept top at v, with d =
    mu_a: the equation mu_b = s mu_a, one per vertex v.  Such a product
    exists iff T_b >= 2 (b:1 and sigma(b):(T_b - 1) are basis paths),
    and at T_b = 1 (n(b) = m = 1) none does: both factors have length
    at least 1.  So those vertices are skipped, as the product check
    skips them.  The scales are lifted to ints as
    :meth:`order.BasisLayout.path_products` does, so over Q every scale
    is +-1 and no ``Fraction`` is multiplied.  The negative orbits are
    read off ``stable.signs``, and :func:`root_of_minus_one` is called
    once per distinct multiplicity among them, in orbit order up to the
    first without a root, which is the witness.
    """
    q, field, mm = tw.quiver, tw.field, tw.multiplicity

    if field.char == 2:  # top_sign is 1: the two quotients coincide
        return PsiResult(kind="identity", scales=dict.fromkeys(q.arrow_names, field.one), verified=True)

    if not isinstance(stable, Polarization):
        return _not_bipartite(stable)
    scales: Dict[str, object] = dict.fromkeys(q.arrow_names, field.one)
    sign, roots = stable.signs, {}  # roots: multiplicity -> its root of -1
    for rep, _ in q.sigma_orbits():
        if sign[rep] != MINUS:
            continue
        m = mm[rep]
        if m not in roots:
            roots[m] = root_of_minus_one(field, m)
        lam = roots[m]
        if lam is None:
            return PsiResult(
                kind="inapplicable",
                reason=f"no root of x^{m} = -1 in {field.name}",
                witness={"node": rep, "multiplicity": m},
            )
        scales[rep] = lam  # only the orbit representative is rescaled

    verified = _scaling_relations_hold(tw, scales)
    return PsiResult(
        kind="isomorphism",
        scales=scales,
        verified=verified,
        reason=None if verified else "verification failed",
    )


def _scaling_relations_hold(tw: FdAlgebra, scales: Mapping[str, object]) -> bool:
    """Whether psi(b) = d(b) b is an isomorphism from tw onto the plain
    quotient: every scale of an arrow on a basis path is nonzero, and
    mu_b = top_sign mu_a at each vertex whose negative arrow b has top
    length at least 2 (proof: :func:`psi_from_quotient`); a's is
    ``q.tau[b]``, the other arrow out of b's source.

    A decision's scales are ``field.one`` itself but for one root of -1
    per negative orbit, so only the scales that are not that object
    (told apart by identity, as the report's ``_scale_strings`` does)
    are lifted by :func:`_integral` and multiplied, each into the mu of
    its orbit; an orbit none of whose scales is lifted has mu = 1.  mu
    and top_sign mu are computed once per orbit, so the relation at each
    vertex is two lookups and one comparison."""
    f, q, kept, top = tw.field, tw.quiver, tw.kept, tw.top_lengths
    field_one = f.one
    lift = {a: _integral(c) for a, c in scales.items() if c is not field_one}
    if not all(c for a, c in lift.items() if kept[a]):  # a scale 1 is nonzero
        return False
    mul, one, mm, place = f.mul, _integral(field_one), tw.multiplicity, q.orbit_places
    acc: Dict[str, object] = {}  # orbit representative -> product of its lifted scales
    for a, c in lift.items():
        rep = place[a][0][0]
        acc[rep] = mul(acc[rep], c) if rep in acc else c
    twist = tw.top_sign != 1
    mu, rhs = {}, {}  # representative -> mu of its orbit, top_sign mu
    for rep, c in acc.items():
        value = c
        for _ in range(1, mm[rep]):
            value = mul(value, c)
        mu[rep], rhs[rep] = value, f.neg(value) if twist else value
    rhs_one = f.neg(one) if twist else one
    tau = q.tau  # the other arrow out of b's source
    for b, k in kept.items():
        if k < top[b] and k:  # b negative, of top length >= 2
            if mu.get(place[b][0][0], one) != rhs.get(place[tau[b]][0][0], rhs_one):
                return False
    return True


def _not_bipartite(cert: BipartiteCertificate) -> PsiResult:
    return PsiResult(
        kind="inapplicable",
        reason="graph is not bipartite",
        witness={"odd_walk": list(cert.odd_walk)},
    )
