"""The closed-form symmetry oracle against the linear-algebra oracle it replaced.

``reference_oracle`` below is the earlier oracle, kept as the reference:
S and the socle by Gaussian elimination over dense rows, the socle
certificate from the kernel of a dense system, then the basis forms of S
and their sum as candidates checked by dense determinants, then
exhaustive enumeration over small fields and a randomized search (with
no dimension cap).  The closed-form oracle must agree with it on
verdict, certificate, dim S, S basis and socle; every certificate and
every witness is re-checked from the dense table; the decision path
must never call an elimination; and an algebra that breaks the monomial
rule must raise instead of being decided.
"""

import dataclasses
import itertools
import random
import sys
from pathlib import Path
from typing import List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ribbonorders import (
    CORPUS_NAMES,
    Polarization,
    build_quotient_algebra,
    check_canonical_bimodule_twist,
    corpus_quiver,
    decide,
    default_polarization,
    find_sigma_stable,
    graph_of_quiver,
    involution_of,
    is_bipartite,
    is_symmetric_oracle,
    nakayama_involution_bar,
    socle,
)
from ribbonorders import linalg
from ribbonorders.corpus import circular
from ribbonorders.fdalg import bilinear_matrix, pairing_det, symmetric_forms
from ribbonorders.fields import GF2, GF3, GF5, QQ

from test_isomorphism import ribbon_quivers

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

FIELDS = (GF2, GF3, GF5, QQ)

# ---------------------------------------------------------------------------
# the reference: the earlier linear-algebra oracle


def reference_socle(alg) -> List[list]:
    f = alg.field
    dim = alg.dim
    rows, cols = [[] for _ in range(dim)], [[] for _ in range(dim)]
    for i, j, k, c in alg.products:
        rows[i].append((j, k, c))
        cols[j].append((i, k, c))
    constraint_rows = []
    for a in alg.quiver.arrow_names:
        g = alg.arrow_residue(a)
        left, right = {}, {}
        for gi, gc in g.items():
            for side, cells in ((left, rows[gi]), (right, cols[gi])):
                for j, i, c in cells:
                    row = side.setdefault(i, {})
                    row[j] = f.add(row.get(j, f.zero), f.mul(gc, c))
        for side in (left, right):
            for i in sorted(side):
                row = [f.zero] * dim
                for j, c in side[i].items():
                    row[j] = c
                if any(row):
                    constraint_rows.append(row)
    return linalg.nullspace(f, constraint_rows, cols=dim)


def reference_symmetric_forms(alg) -> List[list]:
    f = alg.field
    pairs = sorted({(i, j) if i < j else (j, i) for i, j, _, _ in alg.products if i != j})
    seen, rows = set(), []
    for i, j in pairs:
        comm = dict(alg.table[i][j])
        for k, c in alg.table[j][i].items():
            s = f.sub(comm.get(k, f.zero), c)
            if s:
                comm[k] = s
            else:
                comm.pop(k, None)
        key = tuple(sorted(comm.items()))
        if comm and key not in seen:
            seen.add(key)
            rows.append(alg.dense(comm))
    return linalg.nullspace(f, rows, cols=alg.dim)


def reference_certificate(alg, s_basis, soc) -> Optional[dict]:
    f = alg.field
    if not soc:
        return None
    sparse = [{i: c for i, c in enumerate(s) if c} for s in soc]
    products = [[alg.mul(s, alg.label_vector(lab)) for s in sparse] for lab in alg.idempotent_labels]
    rows = []
    for phi in s_basis:
        for per_socle in products:
            row = []
            for se in per_socle:
                acc = f.zero
                for k, c in se.items():
                    acc = f.add(acc, f.mul(c, phi[k]))
                row.append(acc)
            rows.append(row)
    kernel = linalg.nullspace(f, rows, cols=len(soc))
    if not kernel:
        return None
    element = [f.zero] * alg.dim
    for a, s in zip(kernel[0], sparse):
        for k, y in s.items():
            element[k] = f.add(element[k], f.mul(a, y))
    return {"reason": "socle", "element": {alg.basis[i]: f.scalar_str(c) for i, c in enumerate(element) if c}}


def reference_oracle(alg, seed=0, trials=64, enumeration_cap=4096):
    """(kind, certificate, S basis, socle)."""
    f = alg.field
    s_basis = reference_symmetric_forms(alg)
    soc = reference_socle(alg)
    if not s_basis:
        return "not-symmetric", None, s_basis, soc
    cert = reference_certificate(alg, s_basis, soc)
    if cert is not None:
        return "not-symmetric", cert, s_basis, soc

    def nondegenerate(coeffs):
        phi = [f.zero] * alg.dim
        for c, row in zip(coeffs, s_basis):
            for k, y in enumerate(row):
                if c and y:
                    phi[k] = f.add(phi[k], f.mul(c, y))
        return any(phi) and bool(linalg.det(f, bilinear_matrix(alg, phi)))

    sdim = len(s_basis)
    quick = [tuple(f.one if i == j else f.zero for i in range(sdim)) for j in range(sdim)]
    quick.append(tuple([f.one] * sdim))
    if any(nondegenerate(coeffs) for coeffs in quick):
        return "symmetric", None, s_basis, soc
    order = f.order()
    if order is not None and order ** sdim <= enumeration_cap:
        found = any(nondegenerate(c) for c in itertools.product(list(f.elements()), repeat=sdim))
        return ("symmetric" if found else "not-symmetric"), None, s_basis, soc
    rng = random.Random(seed)
    for trial in range(trials):
        if nondegenerate([f.random_scalar(rng, 2 + trial // 8) for _ in range(sdim)]):
            return "symmetric", None, s_basis, soc
    return "probably-not-symmetric", None, s_basis, soc


# ---------------------------------------------------------------------------
# differential tests


def top_cycle_form(alg) -> list:
    phi = [alg.field.zero] * alg.dim
    for v in alg.quiver.vertices:
        phi[alg.index[alg.top_label[v]]] = alg.field.one
    return phi


def check_against_reference(alg) -> str:
    f = alg.field
    kind, cert, s_basis, soc = reference_oracle(alg)
    verdict = is_symmetric_oracle(alg)
    assert verdict.kind == kind
    assert verdict.certificate == cert
    assert verdict.s_dim == len(s_basis)
    assert [alg.dense(form) for form in symmetric_forms(alg)] == s_basis
    assert [alg.dense({p: f.one}) for p in socle(alg)] == soc
    assert verdict.trials == (0 if cert is not None else 1)
    if verdict.kind == "symmetric":
        mat = bilinear_matrix(alg, verdict.witness_form)
        assert linalg.det(f, mat) == pairing_det(alg, verdict.witness_form) != f.zero
    # the twist check's closed-form determinant equals the dense one
    bar = nakayama_involution_bar(alg, involution_of(alg.quiver, alg.eps, f))
    phi = top_cycle_form(alg)
    assert check_canonical_bimodule_twist(alg, bar).det == linalg.det(f, bilinear_matrix(alg, phi))
    return kind


def polarizations(q, rng):
    stable = find_sigma_stable(q)
    pols = [default_polarization(q), gen.random_polarization(rng, q)]
    if isinstance(stable, Polarization):
        pols.append(stable)
    return pols


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_matches_reference(name):
    q = corpus_quiver(name)
    rng = random.Random(name)
    kinds = set()
    for eps in polarizations(q, rng):
        for field in FIELDS:
            for m in (1, 2, 3):
                for twisted in (True, False):
                    alg = build_quotient_algebra(q, field, m, eps, twisted=twisted)
                    kinds.add(check_against_reference(alg))
    assert "symmetric" in kinds


# valency profiles of perfbench's seeded graphs, small enough for the
# reference's dense eliminations
RANDOM_PROFILES = ((3, 3, 2, 2, 2), (3, 3, 3, 3, 2, 2), (3, 3, 2, 2, 2, 2, 2), (4, 4, 4, 4))


def test_random_quivers_match_reference():
    rng = random.Random(57)
    kinds = []
    for draw in range(40):
        valencies = RANDOM_PROFILES[draw % len(RANDOM_PROFILES)]
        q = gen.random_quiver(rng, valencies, bipartite=draw % 2 == 0)
        eps = polarizations(q, rng)[draw % 2]
        field = FIELDS[draw % len(FIELDS)]
        for twisted in (True, False):
            alg = build_quotient_algebra(q, field, 1 + draw // 2 % 2, eps, twisted=twisted)
            kinds.append(check_against_reference(alg))
    assert "symmetric" in kinds and "not-symmetric" in kinds


# ---------------------------------------------------------------------------
# the criterion, with every certificate and witness re-checked


def recheck_certificate(alg, cert):
    f = alg.field
    ((label, coeff),) = cert["element"].items()
    assert coeff == "1"
    p = {alg.index[label]: f.one}
    for a in alg.quiver.arrow_names:
        g = alg.arrow_residue(a)
        assert alg.mul(g, p) == {} and alg.mul(p, g) == {}, (label, a)
    for phi in reference_symmetric_forms(alg):
        assert not phi[alg.index[label]]


def recheck_witness(alg, phi):
    f = alg.field

    def value(cell):
        acc = f.zero
        for k, c in cell.items():
            acc = f.add(acc, f.mul(c, phi[k]))
        return acc

    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            assert value(alg.table[i][j]) == value(alg.table[j][i])
    d = linalg.det(f, bilinear_matrix(alg, phi))
    assert d and d == pairing_det(alg, phi)


@settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(ribbon_quivers(), st.sampled_from(FIELDS), st.integers(1, 2))
def test_criterion_with_rechecked_certificates(q, field, m):
    bipartite = is_bipartite(graph_of_quiver(q)).is_bipartite
    rep = decide(q, field, m)
    c2 = rep.conditions["c2"]
    assert c2.status == ("true" if bipartite or field.char == 2 else "false")
    # decide's twisted quotient: the sigma-stable polarization, if any
    stable = find_sigma_stable(q)
    eps = stable if isinstance(stable, Polarization) else default_polarization(q)
    alg = build_quotient_algebra(q, field, m, eps, twisted=True)
    verdict = is_symmetric_oracle(alg)
    assert verdict.certificate == c2.evidence.get("certificate")
    if verdict.kind == "symmetric":
        recheck_witness(alg, verdict.witness_form)
    else:
        recheck_certificate(alg, verdict.certificate)


def test_large_circle_decided_without_a_cap():
    rep = decide(circular(200), GF3)
    assert rep.conditions["c2"].status == "true"
    assert rep.conditions["c2"].evidence["s_dim"] > 0


# ---------------------------------------------------------------------------
# no elimination on the decision path


def test_decide_never_eliminates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the decision path called an elimination")

    for name in ("nullspace", "rref", "det"):
        monkeypatch.setattr(linalg, name, refuse)
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in FIELDS:
            for m in (1, 2):
                rep = decide(q, field, m)
                assert rep.consistency_ok
                assert rep.conditions["c2"].status in ("true", "false")


# ---------------------------------------------------------------------------
# structures outside the monomial rule raise


def test_three_term_commutator_raises():
    alg = build_quotient_algebra(corpus_quiver("circ3"), GF3, 2)
    # a pair whose reverse product vanishes, so only the products show it
    i, j, k, c = next(p for p in alg.products if p[0] != p[1] and not alg.table[p[1]][p[0]])
    other = next(x for x in range(alg.dim) if x != k)
    # b_i b_j = c b_k + b_other: [b_i, b_j] gets a third term
    pos = alg.products.index((i, j, k, c))
    products = alg.products[: pos + 1] + [(i, j, other, GF3.one)] + alg.products[pos + 1 :]
    bad = dataclasses.replace(alg, products=products)
    assert bad.table[i][j] == {k: c, other: GF3.one}  # the view sums the listed terms
    with pytest.raises(AssertionError, match="more than two"):
        is_symmetric_oracle(bad)
    with pytest.raises(AssertionError, match="more than two"):
        symmetric_forms(bad)


def test_two_term_reverse_product_raises():
    alg = build_quotient_algebra(corpus_quiver("circ3"), GF3, 2)
    i, j, k, c = next(p for p in alg.products if p[0] < p[1] and alg.table[p[1]][p[0]])
    ((k2, c2),) = alg.table[j][i].items()
    other = next(x for x in range(alg.dim) if x != k2)
    # b_j b_i gets a second term in the product list, so the pair (i, j)
    # looks up a reverse product with two terms
    pos = alg.products.index((j, i, k2, c2))
    alg.products.insert(pos + 1, (j, i, other, GF3.one))
    with pytest.raises(AssertionError, match="more than two"):
        symmetric_forms(alg)


def test_non_injective_arrow_raises():
    alg = build_quotient_algebra(corpus_quiver("circ3"), QQ, 2)
    (g,) = alg.arrow_residue(alg.quiver.arrow_names[0])
    row = [p for p in alg.products if p[0] == g]
    assert len(row) >= 2
    k1 = row[0][2]
    _, j2, _, c2 = row[1]
    # b_g b_j2 becomes a multiple of b_g b_j1: left multiplication by the
    # arrow is not injective
    pos = alg.products.index(row[1])
    alg.products[pos] = (g, j2, k1, c2)
    alg.table[g][j2] = {k1: c2}
    with pytest.raises(AssertionError, match="not injective"):
        socle(alg)
    with pytest.raises(AssertionError, match="not injective"):
        is_symmetric_oracle(alg)


def test_arrow_residue_of_two_paths_raises():
    alg = build_quotient_algebra(corpus_quiver("line2"), GF5, 1)
    alg.arrow_residue = lambda a: {0: GF5.one, 1: GF5.one}
    with pytest.raises(AssertionError, match="not one basis path"):
        socle(alg)


def test_non_monomial_pairing_raises():
    alg = build_quotient_algebra(corpus_quiver("triangle"), GF3, 1)
    with pytest.raises(AssertionError, match="two nonzero entries"):
        pairing_det(alg, [GF3.one] * alg.dim)  # phi(e_v) = 1: row e_v meets e_v and paths at v


def test_socle_needs_both_sides():
    alg = build_quotient_algebra(corpus_quiver("circ4"), GF5, 1)
    residues = {g for a in alg.quiver.arrow_names for g in alg.arrow_residue(a)}
    tops = {alg.index[alg.top_label[v]] for v in alg.quiver.vertices}
    x, y = [i for i in range(alg.dim) if i not in tops and i not in residues][:2]
    # no arrow multiplies x from the left, none multiplies y from the right
    kept = []
    for i, j, k, c in alg.products:
        if (i in residues and j == x) or (j in residues and i == y):
            alg.table[i][j] = {}
        else:
            kept.append((i, j, k, c))
    alg.products = kept
    soc = socle(alg)
    assert [alg.dense({p: GF5.one}) for p in soc] == reference_socle(alg)
    assert soc == sorted(tops)


def unit_form(alg, indices):
    phi = [alg.field.zero] * alg.dim
    for k in indices:
        phi[k] = alg.field.one
    return phi


def test_pairing_det_of_one_coordinate_forms():
    # phi = one basis coordinate: a monomial pairing, singular except on
    # the top cycle of a one-vertex quiver
    for name in ("loop2", "triangle", "circ3", "mixed"):
        for field in (GF3, QQ):
            alg = build_quotient_algebra(corpus_quiver(name), field, 2)
            dets = []
            for k in range(alg.dim):
                phi = unit_form(alg, [k])
                dets.append(pairing_det(alg, phi))
                assert dets[-1] == linalg.det(field, bilinear_matrix(alg, phi))
            assert dets.count(field.zero) >= alg.dim - 1


def test_pairing_with_two_entries_in_a_row_or_column_raises():
    alg = build_quotient_algebra(corpus_quiver("circ3"), GF3, 1)
    found = {"row": False, "column": False}
    for k1, k2 in itertools.combinations(range(alg.dim), 2):
        mat = bilinear_matrix(alg, unit_form(alg, [k1, k2]))
        rows = max(sum(1 for x in row if x) for row in mat)
        cols = max(sum(1 for row in mat if row[j]) for j in range(alg.dim))
        if rows > 1 or cols > 1:
            found["row" if rows > 1 else "column"] = True
            with pytest.raises(AssertionError, match="two nonzero entries"):
                pairing_det(alg, unit_form(alg, [k1, k2]))
    assert found == {"row": True, "column": True}
