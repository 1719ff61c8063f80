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
``FdAlgebra.residue`` is this one rule.  The builder lists the nonzero
products by it in O(dim + nonzero products) as index arithmetic, without
composing paths: a:1, a:2, ... sit at consecutive indices, and the
successor sigma^l(a) is a lookup in the quiver's orbit data.

An algebra stores its multiplication once, as the list of its nonzero
products (i, j, k, c), meaning b_i b_j = c b_k, in row-major order.
The two quotients share basis and index and differ only in the sign of
the rewritten top cycle, so a decision builds one algebra, the twisted
quotient.  The scaling map is checked against the plain rule (the same
products, every coefficient +1) read off that one list, and
``plain_quotient`` derives the Brauer graph algebra from it only where
the plain algebra itself is read.  ``table[i][j]`` (the same product as
a one-entry dict, every zero cell the one shared read-only
``ZERO_CELL``) and ``paths`` (a ``Path`` per basis label) are views
derived from the products and the basis on first read; no decision
reads them.  The associativity check, the commutator rows, the socle,
the involution and twist checks and the scaling-map verification all
run over the nonzero products, not over every dim^2 or dim^3 basis
tuple.  ``bilinear_matrix``, the dense pairing, is a test reference and
a benchmark span target; no decision calls it.

The symmetry oracle is closed-form on this structure and runs in
O(dim + nonzero products) with no elimination and no dense determinant:
a commutator has at most two terms, so S is solved by a scaled
union-find; every arrow residue is one basis path and multiplies basis
paths injectively, so the socle is a set of basis paths; the refutation
is one socle path outside S's support, and the witness pairing has at
most one nonzero entry per row and column, so its determinant is a sign
times a product.  ``socle`` returns the indices of those basis paths and
``symmetric_forms`` the basis of S as sparse forms {index: coefficient};
``FdAlgebra.dense`` turns a sparse element into a dense row.  An algebra
that breaks one of these rules raises AssertionError rather than
falling back to general linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from . import linalg
from .fields import Field, RationalField
from .polarize import (
    MINUS,
    Involution,
    Polarization,
    default_polarization,
    find_sigma_stable,
    quotient_polarization,
)
from .quiver import GentleQuiver, Path
from .ribbon import BipartiteCertificate
from .order import normalize_multiplicity

Sparse = Dict[int, object]
Product = Tuple[int, int, int, object]  # (i, j, k, c): b_i * b_j = c * b_k

# every zero cell of every table: read-only, so no caller can fill it
ZERO_CELL: Mapping[int, object] = MappingProxyType({})


# ---------------------------------------------------------------------------
# the algebra container


@dataclass
class FdAlgebra:
    """A structure-constant presentation of a monomial quotient algebra.

    basis[i] is a label ("e(v)" for an idempotent, "a:l" for the
    length-l path starting with arrow a).  products lists the nonzero
    products as (i, j, k, c), meaning basis_i * basis_j = c * basis_k, in
    row-major (i, j) order: the one stored multiplication.  top_lengths[a]
    = m(a) n(a) is the length of the top cycle starting with arrow a.
    table and paths are derived from products and basis on first read
    and then kept; an edit of products after that read does not reach
    them.
    """

    quiver: GentleQuiver
    field: Field
    eps: Polarization
    multiplicity: Dict[str, int]
    twisted: bool
    basis: Tuple[str, ...]
    index: Dict[str, int]
    idempotent_labels: Tuple[str, ...]
    top_label: Dict[str, str]  # vertex -> kept (positive) top cycle label
    non_admissible: Tuple[str, ...]
    products: List[Product]
    top_lengths: Dict[str, int]

    @cached_property
    def table(self) -> List[List[Mapping[int, object]]]:
        """table[i][j] = b_i b_j as a dict {k: c}; every zero cell is the
        shared read-only ZERO_CELL.  dim^2 references, built on first
        read."""
        n = self.dim
        table: List[List[Mapping[int, object]]] = [[ZERO_CELL] * n for _ in range(n)]
        for i, j, k, c in self.products:
            cell = table[i][j]
            if cell is ZERO_CELL:
                cell = table[i][j] = {}
            cell[k] = c
        return table

    @cached_property
    def paths(self) -> Dict[str, Path]:
        """The parent-order path of each basis label, built on first read."""
        q = self.quiver
        paths: Dict[str, Path] = {f"e({v})": q.idempotent(v) for v in q.vertices}
        for label in self.basis[len(self.idempotent_labels):]:
            a, _, length = label.rpartition(":")
            paths[label] = q.path_from(a, int(length))
        return paths

    @property
    def dim(self) -> int:
        return len(self.basis)

    def arrow_residue(self, a: str) -> Sparse:
        i, c = self.residue(a, 1)  # a top cycle has length >= 1
        return {i: c}

    def residue(self, a: str, length: int) -> Optional[Tuple[int, object]]:
        """The monomial rule: the residue of the length-l path starting
        with arrow a, as (basis index, coefficient), or None when the
        path is longer than its top cycle and so vanishes."""
        if length > self.top_lengths[a]:
            return None
        i = self.index.get(f"{a}:{length}")
        if i is not None:
            return i, self.field.one
        # the negative top cycle: rewrite through the vertex relation
        f = self.field
        sign = f.neg(f.one) if self.twisted else f.one
        return self.index[self.top_label[self.quiver.source(a)]], sign

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
    arrow; the negative one is rewritten with sign -1 (twisted) or +1.
    Dimension always equals sum of m(v_a) n(a).  When some arrow has
    n(a) = 1 and multiplicity 1 the defining ideal is not admissible
    (the arrow residue coincides with a top cycle); the quotient is still
    a perfectly good algebra and such arrows are flagged.

    The products are listed column by column from the sigma-rule, in
    O(dim + nonzero products): the nonzero left multiples of a:l are
    e(end) and sigma^l(a):l' for l + l' <= top(a), giving the residue of
    a:(l + l'); those of e(v) are e(v) and the basis paths starting at v.
    Every index is arithmetic on the first index of an arrow's paths.
    """
    mm = normalize_multiplicity(q, m)
    if eps is None:
        eps = default_polarization(q)

    labels: List[str] = [f"e({v})" for v in q.vertices]
    top: Dict[str, int] = {}
    first: Dict[str, int] = {}  # a:1, a:2, ... sit at consecutive indices from first[a]
    kept: Dict[str, int] = {}  # the number of them: the negative top cycle is rewritten
    non_admissible: List[str] = []
    for a in sorted(q.arrow_names):
        top[a] = mm[q.orbit_rep(a)] * q.cycle_length(a)
        if top[a] == 1:
            non_admissible.append(a)
        first[a] = len(labels)
        kept[a] = top[a] - 1 if eps.sign(a) == MINUS else top[a]
        labels.extend(f"{a}:{length}" for length in range(1, kept[a] + 1))

    if len(labels) != sum(top.values()):
        raise AssertionError("quotient basis size disagrees with the rank formula")

    top_label: Dict[str, str] = {}
    top_index: Dict[str, int] = {}
    for v in q.vertices:
        a = eps.positive_arrow_at(q, v)
        top_label[v] = f"{a}:{top[a]}"
        top_index[v] = first[a] + top[a] - 1

    one = field.one
    sign = field.neg(one) if twisted else one
    vindex = {v: i for i, v in enumerate(q.vertices)}
    # columns in index order, so rows[i] collects (j, k, c) in increasing j
    rows: List[List[Tuple[int, int, object]]] = [[] for _ in labels]
    for v, j in vindex.items():
        rows[j].append((j, j, one))
        for a in q.arrows_out(v):
            for i in range(first[a], first[a] + kept[a]):
                rows[i].append((j, i, one))
    for a, base in first.items():
        n, neg = top[a], eps.sign(a) == MINUS
        for length in range(1, kept[a] + 1):
            j = base + length - 1
            b = q.sigma_power(a, length)
            rows[vindex[q.source(b)]].append((j, j, one))
            for extra in range(1, n - length + 1):
                if length + extra < n or not neg:
                    rows[first[b] + extra - 1].append((j, j + extra, one))
                else:  # a:top, rewritten through the relation at s(a)
                    rows[first[b] + extra - 1].append((j, top_index[q.source(a)], sign))

    products: List[Product] = [(i, j, k, c) for i, row in enumerate(rows) for j, k, c in row]
    return FdAlgebra(
        quiver=q,
        field=field,
        eps=eps,
        multiplicity=mm,
        twisted=twisted,
        basis=tuple(labels),
        index={lab: i for i, lab in enumerate(labels)},
        idempotent_labels=tuple(f"e({v})" for v in q.vertices),
        top_label=top_label,
        non_admissible=tuple(non_admissible),
        products=products,
        top_lengths=top,
    )


def plain_quotient(tw: FdAlgebra) -> FdAlgebra:
    """The Brauer graph algebra derived from the twisted quotient of the
    same quiver, multiplicity and polarization, in O(products).

    The two share basis, index and every other field; a product's
    coefficient is -1 only where the twisted rule rewrites the negative
    top cycle, and +1 in the plain quotient everywhere.
    """
    one = tw.field.one
    return replace(tw, twisted=False, products=[(i, j, k, one) for i, j, k, _ in tw.products])


def _product_index(alg: FdAlgebra) -> Dict[int, Tuple[int, object]]:
    """{i * dim + j: (k, c)} for b_i b_j = c b_k; a pair listed twice (a
    product with two terms) raises AssertionError."""
    n = alg.dim
    terms = {i * n + j: (k, c) for i, j, k, c in alg.products}
    if len(terms) < len(alg.products):
        seen = set()
        for i, j, _, _ in alg.products:
            if (i, j) in seen:
                raise AssertionError(
                    f"product {alg.basis[i]} * {alg.basis[j]} has more than one term, "
                    "so a commutator has more than two"
                )
            seen.add((i, j))
    return terms


def check_algebra_axioms(alg: FdAlgebra) -> None:
    """The two-sided unit law on every basis element, read off the
    products with an idempotent factor, and associativity on every basis
    triple with a nonzero side, each side looked up in
    :func:`_product_index`.

    (b_i b_j) b_k can be nonzero only if b_i b_j = c b_p with b_p b_k
    nonzero, and b_i (b_j b_k) only if b_j b_k = c b_p with b_i b_p
    nonzero; on every other triple both sides vanish.  The least failing
    basis element, else the least failing triple, is reported.
    """
    f = alg.field
    n = alg.dim
    terms = _product_index(alg)
    idem = {alg.index[lab] for lab in alg.idempotent_labels}
    left: List[Sparse] = [{} for _ in range(n)]  # 1 b_x
    right: List[Sparse] = [{} for _ in range(n)]  # b_x 1
    rows: List[List[int]] = [[] for _ in range(n)]  # j with b_i b_j nonzero
    cols: List[List[int]] = [[] for _ in range(n)]  # i with b_i b_j nonzero
    for i, j, k, c in alg.products:
        rows[i].append(j)
        cols[j].append(i)
        if i in idem:
            left[j][k] = f.add(left[j].get(k, f.zero), c)
        if j in idem:
            right[i][k] = f.add(right[i].get(k, f.zero), c)
    for x in range(n):
        if any({k: c for k, c in side[x].items() if c} != {x: f.one} for side in (left, right)):
            raise AssertionError(f"unit law fails at basis element {alg.basis[x]}")

    def fails(i, j, k):  # each side as (index, coefficient), or None
        ij, jk = terms.get(i * n + j), terms.get(j * n + k)
        lhs = ij and terms.get(ij[0] * n + k)
        rhs = jk and terms.get(i * n + jk[0])
        return (lhs and (lhs[0], f.mul(ij[1], lhs[1]))) != (rhs and (rhs[0], f.mul(jk[1], rhs[1])))

    failing = [(i, j, k) for i, j, p, _ in alg.products for k in rows[p] if fails(i, j, k)]
    failing += [(i, j, k) for j, k, p, _ in alg.products for i in cols[p] if fails(i, j, k)]
    if failing:
        i, j, k = min(failing)
        raise AssertionError(
            f"associativity fails at ({alg.basis[i]}, {alg.basis[j]}, {alg.basis[k]})"
        )


# ---------------------------------------------------------------------------
# the induced involution


@dataclass
class NakayamaBarReport:
    ok: bool
    signs: Dict[str, object]  # basis label -> field sign
    algebra_map: bool
    involutive: bool
    fixes_idempotents: bool
    counterexamples: List[str]


def nakayama_involution_bar(alg: FdAlgebra, inv: Involution) -> NakayamaBarReport:
    """The involution descends to the quotient: each basis path is scaled
    by its path sign.  Verified to respect the full multiplication table
    (this is exactly well-definedness across the rewriting relations);
    zero products hold trivially, so only the nonzero ones are checked."""
    f = alg.field
    signs = {lab: inv.path_sign(alg.paths[lab]) for lab in alg.basis}
    sign_by_index = [signs[lab] for lab in alg.basis]
    bad: List[str] = []
    for i, j, k, c in alg.products:
        if f.mul(sign_by_index[k], c) != f.mul(f.mul(sign_by_index[i], sign_by_index[j]), c):
            bad.append(f"({alg.basis[i]}, {alg.basis[j]})")
    involutive = all(f.mul(s, s) == f.one for s in sign_by_index)
    fixes = all(signs[lab] == f.one for lab in alg.idempotent_labels)
    return NakayamaBarReport(
        ok=not bad and involutive and fixes,
        signs=signs,
        algebra_map=not bad,
        involutive=involutive,
        fixes_idempotents=fixes,
        counterexamples=bad,
    )


# ---------------------------------------------------------------------------
# socle and symmetric forms


def socle(alg: FdAlgebra) -> List[int]:
    """The socle {x : a x = 0 = x a for all arrow residues}, as the
    indices of the basis paths that span it, in increasing order.

    Each arrow residue is c b_g for one basis path b_g, and multiplying
    by b_g on either side sends distinct basis paths to distinct basis
    paths or to zero (a signed partial injection).  The socle is then
    the coordinate subspace on the paths that no such product keeps.
    Raises AssertionError when a residue is not one path or a
    multiplication is not injective.
    """
    residues = set()
    for a in alg.quiver.arrow_names:
        g = alg.arrow_residue(a)
        if len(g) != 1:
            raise AssertionError(f"arrow residue of {a} is not one basis path")
        residues.update(g)
    n = alg.dim
    kept = [False] * n
    left, right = set(), set()  # g * n + k: b_g b_x, or b_x b_g, is c b_k

    def not_injective(side, g):
        return AssertionError(f"{side} multiplication by {alg.basis[g]} is not injective on basis paths")

    for i, j, k, _ in alg.products:
        if i in residues:
            if i * n + k in left:
                raise not_injective("left", i)
            left.add(i * n + k)
            kept[j] = True
        if j in residues:
            if j * n + k in right:
                raise not_injective("right", j)
            right.add(j * n + k)
            kept[i] = True
    return [x for x in range(n) if not kept[x]]


def commutator_space(alg: FdAlgebra) -> Iterator[Tuple[Tuple[int, object], ...]]:
    """The nonzero commutators [b_i, b_j] as sparse rows of one or two
    (index, coefficient) terms, one row per basis pair with a nonzero
    product, read off the products in order.

    A product of two basis paths is 0 or one term, so a commutator has
    at most two terms.  b_j b_i is looked up in :func:`_product_index`.
    """
    f = alg.field
    n = alg.dim
    terms = _product_index(alg)
    for i, j, k, c in alg.products:
        if i == j:
            continue
        rev = terms.get(j * n + i)
        if rev is None:
            yield ((k, c),)
        elif i < j:  # the pair (j, i) is skipped below
            k2, c2 = rev
            if k2 != k:
                yield ((k, c), (k2, f.neg(c2)))
            elif c != c2:
                yield ((k, f.sub(c, c2)),)


def symmetric_forms(alg: FdAlgebra) -> List[Sparse]:
    """Basis of S = {phi : phi(xy) = phi(yx)}, the annihilator of [A, A],
    as sparse forms {index: coefficient}, by scaled union-find.

    Each commutator row says c phi(k) = 0 or c phi(k) + c' phi(k') = 0.
    The first kind only marks k in a zero mask.  The second kind merges
    k and k' with phi(k) = -(c'/c) phi(k'), where parent[x] and ratio[x]
    mean phi(x) = ratio[x] phi(parent[x]); a merge that closes a cycle
    with another ratio forces the component to zero, and once every row
    is read, so does a masked index.  Each other component gives one
    form, 1 at its largest index, and the forms are ordered by that
    index: the basis that elimination of the commutator rows returns.
    """
    f = alg.field
    n = alg.dim
    parent = list(range(n))
    ratio = [f.one] * n
    size = [1] * n
    forced = [False] * n  # read at roots
    zero = [False] * n  # phi(x) = 0 by a one-term row

    def find(x: int):
        """(root, r) with phi(x) = r phi(root); compresses the path."""
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        if not path:
            return x, f.one
        r = ratio[path.pop()]  # the last step is already relative to the root
        for y in reversed(path):
            r = f.mul(ratio[y], r)
            ratio[y] = r
            parent[y] = x
        return x, r

    for row in commutator_space(alg):
        if len(row) == 1:
            zero[row[0][0]] = True
            continue
        (k1, c1), (k2, c2) = row
        r1, a1 = find(k1)
        r2, a2 = find(k2)
        u, w = f.mul(c1, a1), f.mul(c2, a2)  # u phi(r1) + w phi(r2) = 0
        if r1 == r2:
            if f.add(u, w):
                forced[r1] = True
            continue
        if size[r1] > size[r2]:
            r1, r2, u, w = r2, r1, w, u
        parent[r1] = r2
        ratio[r1] = f.neg(f.div(w, u))
        size[r2] += size[r1]
        forced[r2] = forced[r2] or forced[r1]

    roots = [find(x) for x in range(n)]
    for x in range(n):
        if zero[x]:
            forced[roots[x][0]] = True
    members: Dict[int, List[Tuple[int, object]]] = {}
    for x, (root, r) in enumerate(roots):
        if not forced[root]:
            members.setdefault(root, []).append((x, r))
    forms = []
    for comp in members.values():
        scale = f.inv(comp[-1][1])
        forms.append({x: f.mul(r, scale) for x, r in comp})
    forms.sort(key=max)
    return forms


def bilinear_matrix(alg: FdAlgebra, phi: list) -> List[list]:
    """b_phi(x, y) = phi(x y) on the basis."""
    f = alg.field
    n = alg.dim
    mat = [[f.zero] * n for _ in range(n)]
    for i, j, k, c in alg.products:
        mat[i][j] = f.mul(c, phi[k])
    return mat


def pairing_det(alg: FdAlgebra, phi: list):
    """det b_phi, in O(dim + nonzero products), for a pairing with at
    most one nonzero entry per row and column.

    Such a matrix is zero or a permutation matrix times a diagonal, so
    its determinant is 0 (a zero row) or sign(perm) times the product of
    the entries.  Raises AssertionError when the pairing has a row or a
    column with two nonzero entries.
    """
    f = alg.field
    n = alg.dim
    col = [-1] * n
    taken = [False] * n
    entries = []
    for i, j, k, c in alg.products:
        x = phi[k]
        if not x:
            continue
        if col[i] >= 0 or taken[j]:
            raise AssertionError(
                f"pairing has two nonzero entries in row {alg.basis[i]} or column {alg.basis[j]}"
            )
        col[i] = j
        taken[j] = True
        entries.append(f.mul(c, x))
    if len(entries) < n:
        return f.zero
    return linalg.signed_permutation_det(f, col, entries)


# ---------------------------------------------------------------------------
# the symmetry oracle


@dataclass
class SymmetryVerdict:
    """kind is "symmetric", "not-symmetric" or "undecided"; trials is the
    number of witness forms checked (0 or 1)."""

    kind: str
    method: str
    trials: int = 0
    s_dim: int = 0
    witness_form: Optional[list] = None
    certificate: Optional[dict] = None


def is_symmetric_oracle(alg: FdAlgebra) -> SymmetryVerdict:
    """Decide whether the algebra admits a symmetric nondegenerate form,
    in O(dim + nonzero products).

    S comes from :func:`symmetric_forms` (sparse forms with disjoint
    supports) and the socle from :func:`socle` (basis-path indices);
    then, in order:
      1. refutation: a socle path p on which every form of S vanishes
         lies in the radical of every pairing b_phi, phi in S (p y is a
         multiple of p e_i for some idempotent e_i);
      2. witness: phi = the sum of the basis forms of S whose support
         meets the socle, as a dense row.  Its pairing must have at most
         one nonzero entry per row and column, so its exact determinant
         is a sign times a product; a nonzero one certifies "symmetric".
    If neither settles the case the verdict is "undecided".  A structure
    outside the monomial rule raises AssertionError.
    """
    f = alg.field
    forms = symmetric_forms(alg)
    paths = socle(alg)
    sdim = len(forms)
    cert = _socle_certificate(alg, forms, paths)
    if cert is not None:
        return SymmetryVerdict(
            kind="not-symmetric",
            method="socle path outside every free component of S",
            s_dim=sdim,
            certificate=cert,
        )

    soc = set(paths)
    phi = [f.zero] * alg.dim
    for form in forms:
        if not soc.isdisjoint(form):
            for k, c in form.items():
                phi[k] = c
    if pairing_det(alg, phi):
        return SymmetryVerdict(
            kind="symmetric",
            method="sum of the S basis forms meeting the socle: monomial pairing, exact determinant",
            trials=1,
            s_dim=sdim,
            witness_form=phi,
        )
    return SymmetryVerdict(
        kind="undecided",
        method="degenerate witness pairing and no socle certificate",
        trials=1,
        s_dim=sdim,
    )


def _socle_certificate(alg: FdAlgebra, forms: List[Sparse], paths: List[int]) -> Optional[dict]:
    """The first socle path p outside the union of the supports of the
    sparse forms, as the element {label: "1"}, or None.

    For such p and any y, p y is a multiple of p e_i for an idempotent
    e_i, and phi(p e_i) = phi(p) or 0, so b_phi(p, -) vanishes for every
    phi in the span of the forms: when they span S, no symmetric form
    can be nondegenerate.  paths is :func:`socle` of alg.
    """
    support = set().union(*forms)
    for p in paths:
        if p not in support:
            return {"reason": "socle", "element": {alg.basis[p]: alg.field.scalar_str(alg.field.one)}}
    return None


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
    onto the dual twisted by the involution."""
    f = alg.field
    n = alg.dim
    phi = [f.zero] * n
    for v in alg.quiver.vertices:
        phi[alg.index[alg.top_label[v]]] = f.one
    terms = _product_index(alg)

    def phi_of(i: int, j: int):  # phi(b_i b_j)
        kc = terms.get(i * n + j)
        return f.zero if kc is None else f.mul(kc[1], phi[kc[0]])

    sign_by_index = [bar.signs[lab] for lab in alg.basis]
    # both sides vanish unless b_i b_j or b_j b_i is nonzero
    positions = {(i, j) for i, j, _, _ in alg.products}
    positions.update([(j, i) for i, j in positions])
    bad = []
    for i, j in sorted(positions):
        lhs = phi_of(i, j)
        rhs = f.mul(sign_by_index[j], phi_of(j, i))  # phi(nu(b_j) b_i)
        if lhs != rhs:
            bad.append(f"({alg.basis[i]}, {alg.basis[j]})")
    d = pairing_det(alg, phi)
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
    built, the twisted quotient; the candidate map is verified on each
    of its nonzero products against the plain rule, which has the same
    products with coefficient +1.
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
    :func:`quotient_polarization`."""
    q, field, mm = tw.quiver, tw.field, tw.multiplicity

    if field.char == 2:
        if any(c != field.one for _, _, _, c in tw.products):
            raise AssertionError("char 2 quotients should coincide")
        scales = {a: field.one for a in q.arrow_names}
        return PsiResult(kind="identity", scales=scales, verified=True)

    if not isinstance(stable, Polarization):
        return _not_bipartite(stable)
    scales: Dict[str, object] = {a: field.one for a in q.arrow_names}
    for rep, _ in q.sigma_orbits():
        if stable.sign(rep) != MINUS:
            continue
        lam = root_of_minus_one(field, mm[rep])
        if lam is None:
            return PsiResult(
                kind="inapplicable",
                reason=f"no root of x^{mm[rep]} = -1 in {field.name}",
                witness={"node": rep, "multiplicity": mm[rep]},
            )
        scales[rep] = lam  # only the orbit representative is rescaled

    verified = _verify_scaling_map(tw, scales)
    return PsiResult(
        kind="isomorphism",
        scales=scales,
        verified=verified,
        reason=None if verified else "verification failed",
    )


def _not_bipartite(cert: BipartiteCertificate) -> PsiResult:
    return PsiResult(
        kind="inapplicable",
        reason="graph is not bipartite",
        witness={"odd_walk": list(cert.odd_walk)},
    )


def psi_matrix_diagonal(alg: FdAlgebra, scales: Mapping[str, object]) -> List:
    """The diagonal of the scaling map on the path basis: the product of
    the arrow scalings along each basis path.  a:1, a:2, ... sit at
    consecutive indices, so each is the previous one times the scaling
    of the next arrow along sigma."""
    f = alg.field
    q = alg.quiver
    diag = [f.one] * alg.dim
    for a in q.arrow_names:
        first = alg.index.get(f"{a}:1")
        if first is None:  # a's only path is its rewritten top cycle
            continue
        top = alg.top_lengths[a]
        kept = top if f"{a}:{top}" in alg.index else top - 1
        acc = f.one
        for length in range(kept):
            acc = f.mul(acc, scales[q.sigma_power(a, length)])
            diag[first + length] = acc
    return diag


def _verify_scaling_map(tw: FdAlgebra, scales: Mapping[str, object]) -> bool:
    """psi(b) = d(b) b, with d(b) the product of the scalings along b,
    is an isomorphism from the twisted quotient onto the plain one.

    The plain quotient has the twisted products with coefficient +1, so
    psi is multiplicative iff c d(b_k) = d(b_i) d(b_j) for every twisted
    product b_i b_j = c b_k; with no d zero, both sides of every other
    product vanish, and psi is bijective.
    """
    f = tw.field
    diag = psi_matrix_diagonal(tw, scales)
    if not all(diag):
        return False
    return all(f.mul(diag[k], c) == f.mul(diag[i], diag[j]) for i, j, k, c in tw.products)
