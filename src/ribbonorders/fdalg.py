"""Finite-dimensional quotients of a ribbon graph order.

Dividing by the central element z = sum c_a^{m_a} identifies the two top
cycle powers at each vertex up to a minus sign (the twisted Brauer graph
algebra); dividing by the two-sided ideal of w = sum eps_a c_a^{m_a}
identifies them with a plus sign (the Brauer graph algebra).  Both
quotients have the path residues {e_i} u {a_l : 1 <= l <= m_a n(a)} as a
spanning set with one relation per vertex, so a normal form keeps the top
power of the positive arrow and rewrites the other.

Structure constants are stored sparsely (products of path residues have
at most one term), which keeps full associativity sweeps and the symmetry
oracle cheap at desk scale.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple, Union

from . import linalg
from .fields import Field, RationalField
from .polarize import (
    MINUS,
    Involution,
    Polarization,
    default_polarization,
    find_sigma_stable,
)
from .quiver import GentleQuiver, Path
from .ribbon import BipartiteCertificate
from .order import multiplicity_of_arrow, normalize_multiplicity

Sparse = Dict[int, object]


# ---------------------------------------------------------------------------
# the algebra container


@dataclass
class FdAlgebra:
    """A structure-constant presentation of a quotient algebra.

    basis[i] is a label ("e(v)" for an idempotent, "a:l" for the
    length-l path starting with arrow a); table[i][j] is the sparse
    coordinate vector of basis_i * basis_j.
    """

    quiver: GentleQuiver
    field: Field
    eps: Polarization
    multiplicity: Dict[str, int]
    twisted: bool
    basis: Tuple[str, ...]
    paths: Dict[str, Path]
    index: Dict[str, int]
    table: List[List[Sparse]]
    idempotent_labels: Tuple[str, ...]
    top_label: Dict[str, str]  # vertex -> kept (positive) top cycle label
    non_admissible: Tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def unit(self) -> Sparse:
        return {self.index[lab]: self.field.one for lab in self.idempotent_labels}

    def label_vector(self, label: str) -> Sparse:
        return {self.index[label]: self.field.one}

    def arrow_residue(self, a: str) -> Sparse:
        return self.reduce_path(self.quiver.path_from(a, 1))

    def top_length(self, a: str) -> int:
        return multiplicity_of_arrow(self.quiver, self.multiplicity, a) * self.quiver.cycle_length(a)

    def reduce_path(self, p: Path) -> Sparse:
        """Residue of a parent-order path in the normal-form basis."""
        f = self.field
        if p.is_idempotent:
            return {self.index[f"e({p.start})"]: f.one}
        a, length = self.quiver.first_arrow_form(p)
        top = self.top_length(a)
        if length > top:
            return {}
        label = f"{a}:{length}"
        if label in self.index:
            return {self.index[label]: f.one}
        # the negative top cycle: rewrite through the vertex relation
        v = p.start
        sign = f.neg(f.one) if self.twisted else f.one
        return {self.index[self.top_label[v]]: sign}

    def mul(self, u: Sparse, v: Sparse) -> Sparse:
        f = self.field
        out: Sparse = {}
        for i, ci in u.items():
            row = self.table[i]
            for j, cj in v.items():
                c = f.mul(ci, cj)
                for k, ck in row[j].items():
                    s = f.add(out.get(k, f.zero), f.mul(c, ck))
                    if f.is_zero(s):
                        out.pop(k, None)
                    else:
                        out[k] = s
        return out

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
    """
    mm = normalize_multiplicity(q, m)
    if eps is None:
        eps = default_polarization(q)

    labels: List[str] = [f"e({v})" for v in q.vertices]
    paths: Dict[str, Path] = {f"e({v})": q.idempotent(v) for v in q.vertices}
    top_label: Dict[str, str] = {}
    non_admissible: List[str] = []
    for v in q.vertices:
        a = eps.positive_arrow_at(q, v)
        top_label[v] = f"{a}:{mm[q.orbit_rep(a)] * q.cycle_length(a)}"
    for a in sorted(q.arrow_names):
        n = q.cycle_length(a)
        top = mm[q.orbit_rep(a)] * n
        if top == 1:
            non_admissible.append(a)
        neg = eps.sign(a) == MINUS
        for length in range(1, top + 1):
            if neg and length == top:
                continue  # rewritten into the positive top cycle
            label = f"{a}:{length}"
            labels.append(label)
            paths[label] = q.path_from(a, length)

    expected_dim = sum(mm[q.orbit_rep(a)] * q.cycle_length(a) for a in q.arrow_names)
    if len(labels) != expected_dim:
        raise AssertionError("quotient basis size disagrees with the rank formula")

    index = {lab: i for i, lab in enumerate(labels)}
    alg = FdAlgebra(
        quiver=q,
        field=field,
        eps=eps,
        multiplicity=mm,
        twisted=twisted,
        basis=tuple(labels),
        paths=paths,
        index=index,
        table=[],
        idempotent_labels=tuple(f"e({v})" for v in q.vertices),
        top_label=top_label,
        non_admissible=tuple(non_admissible),
    )
    table = []
    for li in labels:
        row = []
        pi = paths[li]
        for lj in labels:
            prod = q.compose(pi, paths[lj])
            row.append({} if prod is None else alg.reduce_path(prod))
        table.append(row)
    alg.table = table
    return alg


def build_twisted_bga(q, field, m=None, eps=None) -> FdAlgebra:
    return build_quotient_algebra(q, field, m=m, eps=eps, twisted=True)


def build_bga(q, field, m=None, eps=None) -> FdAlgebra:
    return build_quotient_algebra(q, field, m=m, eps=eps, twisted=False)


def check_algebra_axioms(alg: FdAlgebra) -> None:
    """Associativity on all basis triples and the two-sided unit law."""
    f = alg.field
    one = alg.unit()
    for i in range(alg.dim):
        vi = {i: f.one}
        if alg.mul(one, vi) != vi or alg.mul(vi, one) != vi:
            raise AssertionError(f"unit law fails at basis element {alg.basis[i]}")
    for i in range(alg.dim):
        vi = {i: f.one}
        for j in range(alg.dim):
            left = alg.table[i][j]
            vj = {j: f.one}
            for k in range(alg.dim):
                vk = {k: f.one}
                if alg.mul(left, vk) != alg.mul(vi, alg.mul(vj, vk)):
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
    (this is exactly well-definedness across the rewriting relations)."""
    f = alg.field
    signs = {lab: inv.path_sign(alg.paths[lab]) for lab in alg.basis}
    sign_by_index = [signs[lab] for lab in alg.basis]

    def apply(u: Sparse) -> Sparse:
        return {i: f.mul(sign_by_index[i], c) for i, c in u.items()}

    bad: List[str] = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = apply(alg.table[i][j])
            rhs_scalar = f.mul(sign_by_index[i], sign_by_index[j])
            rhs = {k: f.mul(rhs_scalar, c) for k, c in alg.table[i][j].items()}
            if lhs != rhs:
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


def socle(alg: FdAlgebra) -> List[list]:
    """Basis of {x : a x = 0 = x a for all arrow residues}, by exact
    linear algebra over the base field."""
    f = alg.field
    constraint_rows: List[list] = []
    for a in alg.quiver.arrow_names:
        g = alg.arrow_residue(a)
        for side in ("left", "right"):
            cols = []
            for j in range(alg.dim):
                vj = {j: f.one}
                img = alg.mul(g, vj) if side == "left" else alg.mul(vj, g)
                cols.append(alg.dense(img))
            # coordinate i of (g x) resp. (x g) must vanish for each i
            for i in range(alg.dim):
                row = [cols[j][i] for j in range(alg.dim)]
                if any(not f.is_zero(x) for x in row):
                    constraint_rows.append(row)
    return linalg.nullspace(f, constraint_rows, cols=alg.dim)


def commutator_space(alg: FdAlgebra) -> List[list]:
    """Spanning rows for [A, A], deduplicated before elimination."""
    f = alg.field
    seen = set()
    rows = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            comm: Sparse = dict(alg.table[i][j])
            for k, c in alg.table[j][i].items():
                s = f.sub(comm.get(k, f.zero), c)
                if f.is_zero(s):
                    comm.pop(k, None)
                else:
                    comm[k] = s
            if not comm:
                continue
            dense = tuple(alg.dense(comm))
            if dense in seen:
                continue
            seen.add(dense)
            rows.append(list(dense))
    return rows


def symmetric_forms(alg: FdAlgebra) -> List[list]:
    """Basis of S = {phi : phi(xy) = phi(yx)}, the annihilator of [A, A]."""
    rows = commutator_space(alg)
    return linalg.nullspace(alg.field, rows, cols=alg.dim)


def bilinear_matrix(alg: FdAlgebra, phi: list) -> List[list]:
    """b_phi(x, y) = phi(x y) on the basis."""
    f = alg.field
    n = alg.dim
    mat = [[f.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = f.zero
            for k, c in alg.table[i][j].items():
                acc = f.add(acc, f.mul(c, phi[k]))
            mat[i][j] = acc
    return mat


# ---------------------------------------------------------------------------
# the symmetry oracle


@dataclass
class SymmetryVerdict:
    kind: str  # "symmetric" | "not-symmetric" | "probably-not-symmetric" | "undecided"
    method: str
    trials: int = 0
    s_dim: int = 0
    witness_form: Optional[list] = None
    witness_coeffs: Optional[list] = None
    certificate: Optional[dict] = None

    @property
    def is_certain(self) -> bool:
        return self.kind in ("symmetric", "not-symmetric")


def is_symmetric_oracle(
    alg: FdAlgebra,
    seed: int = 0,
    trials: int = 64,
    enumeration_cap: int = 4096,
    dim_cap: int = 200,
) -> SymmetryVerdict:
    """Decide whether the algebra admits a symmetric nondegenerate form.

    S is computed exactly; then, in order:
      1. a deterministic refutation: a nonzero socle element s with
         phi(s e_i) = 0 for every phi in S and every idempotent forces
         s into the radical of every candidate bilinear form;
      2. over a finite field with |k|^{dim S} within the cap, exhaustive
         enumeration of S (deterministic either way);
      3. otherwise a randomized witness search (integer boxes of growing
         size over the rationals).  A found witness is checked by exact
         determinant, so "symmetric" is always certain; a fruitless
         search ends in "probably-not-symmetric" with the trial count.
    """
    f = alg.field
    if alg.dim > dim_cap:
        return SymmetryVerdict(kind="undecided", method=f"dimension {alg.dim} exceeds cap {dim_cap}")

    s_basis = symmetric_forms(alg)
    sdim = len(s_basis)
    if sdim == 0:
        return SymmetryVerdict(kind="not-symmetric", method="no symmetric forms at all", s_dim=0)

    cert = _socle_certificate(alg, s_basis)
    if cert is not None:
        return SymmetryVerdict(
            kind="not-symmetric",
            method="socle element annihilated by every symmetric form",
            s_dim=sdim,
            certificate=cert,
        )

    def nondegenerate(coeffs) -> Optional[list]:
        phi = [f.zero] * alg.dim
        for c, row in zip(coeffs, s_basis):
            if f.is_zero(c):
                continue
            phi = [f.add(x, f.mul(c, y)) for x, y in zip(phi, row)]
        if all(f.is_zero(x) for x in phi):
            return None
        if f.is_zero(linalg.det(f, bilinear_matrix(alg, phi))):
            return None
        return phi

    trials_done = 0

    # deterministic quick candidates: the basis forms and their sum
    quick = [tuple(f.one if i == j else f.zero for i in range(sdim)) for j in range(sdim)]
    quick.append(tuple([f.one] * sdim))
    for coeffs in quick:
        trials_done += 1
        phi = nondegenerate(coeffs)
        if phi is not None:
            return SymmetryVerdict(
                kind="symmetric",
                method="deterministic candidate",
                trials=trials_done,
                s_dim=sdim,
                witness_form=phi,
                witness_coeffs=list(coeffs),
            )

    order = f.order()
    if order is not None and order ** sdim <= enumeration_cap:
        for coeffs in itertools.product(list(f.elements()), repeat=sdim):
            trials_done += 1
            phi = nondegenerate(coeffs)
            if phi is not None:
                return SymmetryVerdict(
                    kind="symmetric",
                    method="exhaustive enumeration of S",
                    trials=trials_done,
                    s_dim=sdim,
                    witness_form=phi,
                    witness_coeffs=list(coeffs),
                )
        return SymmetryVerdict(
            kind="not-symmetric",
            method="exhaustive enumeration of S found no nondegenerate form",
            trials=trials_done,
            s_dim=sdim,
            certificate={"reason": "enumeration-exhausted", "s_dim": sdim},
        )

    rng = random.Random(seed)
    for trial in range(trials):
        bound = 2 + trial // 8
        coeffs = [f.random_scalar(rng, bound) for _ in range(sdim)]
        trials_done += 1
        phi = nondegenerate(coeffs)
        if phi is not None:
            return SymmetryVerdict(
                kind="symmetric",
                method="randomized search",
                trials=trials_done,
                s_dim=sdim,
                witness_form=phi,
                witness_coeffs=coeffs,
            )
    return SymmetryVerdict(
        kind="probably-not-symmetric",
        method="randomized search exhausted",
        trials=trials_done,
        s_dim=sdim,
    )


def _socle_certificate(alg: FdAlgebra, s_basis: List[list]) -> Optional[dict]:
    """A nonzero s in the socle with phi(s e_i) = 0 for all phi in S, if any.

    For such s and any y, s y lies in span{s e_i}, so b_phi(s, -) vanishes
    for every phi in S: no symmetric form can be nondegenerate.
    """
    f = alg.field
    soc = socle(alg)
    if not soc:
        return None
    rows = []
    for phi in s_basis:
        for lab in alg.idempotent_labels:
            e = alg.label_vector(lab)
            row = []
            for s in soc:
                se = alg.mul({i: c for i, c in enumerate(s) if not f.is_zero(c)}, e)
                acc = f.zero
                for k, c in se.items():
                    acc = f.add(acc, f.mul(c, phi[k]))
                row.append(acc)
            rows.append(row)
    kernel = linalg.nullspace(f, rows, cols=len(soc))
    if not kernel:
        return None
    alpha = kernel[0]
    element = [f.zero] * alg.dim
    for a, s in zip(alpha, soc):
        if f.is_zero(a):
            continue
        element = [f.add(x, f.mul(a, y)) for x, y in zip(element, s)]
    labels = {alg.basis[i]: f.scalar_str(c) for i, c in enumerate(element) if not f.is_zero(c)}
    return {"reason": "socle", "element": labels}


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
    phi = [f.zero] * alg.dim
    for v in alg.quiver.vertices:
        phi[alg.index[alg.top_label[v]]] = f.one

    def phi_of(u: Sparse):
        acc = f.zero
        for k, c in u.items():
            acc = f.add(acc, f.mul(c, phi[k]))
        return acc

    sign_by_index = [bar.signs[lab] for lab in alg.basis]
    bad = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = phi_of(alg.table[i][j])  # phi(b_i b_j)
            rhs = f.mul(sign_by_index[j], phi_of(alg.table[j][i]))  # phi(nu(b_j) b_i)
            if lhs != rhs:
                bad.append(f"({alg.basis[i]}, {alg.basis[j]})")
    d = linalg.det(f, bilinear_matrix(alg, phi))
    return TwistReport(
        ok=not bad and not f.is_zero(d),
        pair_count=alg.dim ** 2,
        twisted_symmetry=not bad,
        nondegenerate=not f.is_zero(d),
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
    twisted: Optional[FdAlgebra] = None
    plain: Optional[FdAlgebra] = None


def root_of_minus_one(field: Field, m: int):
    """A field element with x^m = -1, or None.

    Over the rationals the only candidates are +-1, so a root exists iff
    m is odd; over GF(p) the (small) field is scanned.
    """
    if field.char == 2:
        return field.one
    if isinstance(field, RationalField):
        return Fraction(-1) if m % 2 == 1 else None
    minus_one = field.neg(field.one)
    for x in field.elements():
        if field.is_zero(x):
            continue
        acc = field.one
        for _ in range(m):
            acc = field.mul(acc, x)
        if acc == minus_one:
            return x
    return None


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
    walk produce an explicit inapplicability witness.  The candidate map
    is always verified against the full multiplication tables.
    """
    mm = normalize_multiplicity(q, m)
    stable = find_sigma_stable(q)
    eps = default_polarization(q) if field.char == 2 else stable
    if not isinstance(eps, Polarization):
        return _not_bipartite(stable)
    tw = build_quotient_algebra(q, field, mm, eps, twisted=True)
    pl = build_quotient_algebra(q, field, mm, eps, twisted=False)
    return psi_from_quotients(stable, tw, pl)


def psi_from_quotients(
    stable: Union[Polarization, BipartiteCertificate],
    tw: FdAlgebra,
    pl: FdAlgebra,
) -> PsiResult:
    """:func:`construct_psi_isomorphism` given the quiver's
    :func:`find_sigma_stable` result and its twisted and plain quotients,
    built with one polarization: the sigma-stable one, if any, outside
    characteristic two."""
    q, field, mm = tw.quiver, tw.field, tw.multiplicity

    if field.char == 2:
        if tw.table != pl.table:
            raise AssertionError("char 2 quotients should coincide")
        scales = {a: field.one for a in q.arrow_names}
        return PsiResult(kind="identity", scales=scales, verified=True, twisted=tw, plain=pl)

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

    verified = _verify_scaling_map(tw, pl, scales)
    return PsiResult(
        kind="isomorphism",
        scales=scales,
        verified=verified,
        twisted=tw,
        plain=pl,
        reason=None if verified else "verification failed",
    )


def _not_bipartite(cert: BipartiteCertificate) -> PsiResult:
    return PsiResult(
        kind="inapplicable",
        reason="graph is not bipartite",
        witness={"odd_walk": list(cert.odd_walk)},
    )


def psi_matrix_diagonal(alg: FdAlgebra, scales: Mapping[str, object]) -> List:
    """The diagonal of the scaling map on the path basis."""
    f = alg.field
    diag = []
    for lab in alg.basis:
        p = alg.paths[lab]
        acc = f.one
        for a in p.arrows:
            acc = f.mul(acc, scales[a])
        diag.append(acc)
    return diag


def _verify_scaling_map(tw: FdAlgebra, pl: FdAlgebra, scales: Mapping[str, object]) -> bool:
    f = tw.field
    if tw.basis != pl.basis:
        return False
    diag = psi_matrix_diagonal(tw, scales)
    if any(f.is_zero(d) for d in diag):
        return False
    for i in range(tw.dim):
        for j in range(tw.dim):
            lhs = {k: f.mul(diag[k], c) for k, c in tw.table[i][j].items()}
            factor = f.mul(diag[i], diag[j])
            rhs = {k: f.mul(factor, c) for k, c in pl.table[i][j].items()}
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# socle quotients


def socle_is_top_span(alg: FdAlgebra) -> bool:
    """The socle should be exactly the span of the top cycle residues."""
    f = alg.field
    soc = socle(alg)
    tops = sorted({alg.index[alg.top_label[v]] for v in alg.quiver.vertices})
    if len(soc) != len(tops):
        return False
    axis = [linalg.unit_vector(f, alg.dim, i) for i in tops]
    ref = linalg.row_space_basis(f, axis)
    return all(linalg.in_row_space(f, ref, s) for s in soc)


def socle_quotient_tables_equal(a: FdAlgebra, b: FdAlgebra) -> bool:
    """Compare the two quotients after killing their socles.

    Both socles are spans of top cycle residues here, so the quotient
    table is the original one with top coordinates dropped.  A future
    instance where the socles are not basis-aligned would need an honest
    Morita comparison instead; that case is detected and raised.
    """
    if a.basis != b.basis:
        return False
    if not (socle_is_top_span(a) and socle_is_top_span(b)):
        raise AssertionError("socle is not spanned by top cycles; table comparison invalid")
    tops = {a.index[a.top_label[v]] for v in a.quiver.vertices}
    for i in range(a.dim):
        if i in tops:
            continue
        for j in range(a.dim):
            if j in tops:
                continue
            ta = {k: c for k, c in a.table[i][j].items() if k not in tops}
            tb = {k: c for k, c in b.table[i][j].items() if k not in tops}
            if ta != tb:
                return False
    return True
