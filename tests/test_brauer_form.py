"""The closed-form certificate of the Brauer graph algebra's standard form.

``brauer_form_pairing`` reads, off the twisted quotient's products, the
pairs (i, j) with b_i b_j on a kept top cycle and returns them as an
involution pi of the basis, or None.  It must certify exactly where the
symmetry oracle, run on the plain quotient itself, says "symmetric";
the standard form's pairing on the plain quotient must then be the
permutation matrix of pi; an algebra whose landing pairs are no
involution must fail the certificate; and a decision that meets such a
failure must raise rather than report.
"""

import dataclasses
import importlib
import random
import sys
from pathlib import Path

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    build_quotient_algebra,
    corpus_quiver,
    decide,
    is_symmetric_oracle,
    plain_quotient,
)
from ribbonorders import linalg
from ribbonorders.fdalg import bilinear_matrix, brauer_form_pairing, pairing_det
from ribbonorders.fields import GF2, GF3, GF5, QQ, PrimeField
from ribbonorders.polarize import find_sigma_stable, quotient_polarization

from reference import sign_form

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

FIELDS = (GF2, GF3, GF5, PrimeField(7), QQ)
DENSE_DIM = 40  # the dense determinant cross-check is cubic in dim


def top_indices(alg):
    return set(alg.top_index.values())


def assert_certificate_matches_oracle(tw):
    pl = plain_quotient(tw)
    pi = brauer_form_pairing(tw)
    verdict = is_symmetric_oracle(pl)
    assert (pi is not None) == (verdict.kind == "symmetric")
    assert pi is not None, "every Brauer graph algebra is symmetric"
    assert brauer_form_pairing(pl) == pi  # coefficients are not read
    f, n = tw.field, tw.dim
    assert sorted(pi) == list(range(n)) and all(pi[pi[i]] == i for i in range(n))
    phi = [f.zero] * n
    for t in top_indices(tw):
        phi[t] = f.one
    sign = f.from_int(linalg.sign_det(n, [(i, pi[i], 1) for i in range(n)]))
    assert pairing_det(pl, sign_form(pl, phi)) == sign and sign
    if n <= DENSE_DIM:
        mat = bilinear_matrix(pl, phi)
        assert mat == [list(row) for row in zip(*mat)]  # phi(xy) = phi(yx)
        assert mat == [[f.one if j == pi[i] else f.zero for j in range(n)] for i in range(n)]
        assert linalg.det(f, mat) == sign


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_certificate_matches_plain_oracle(name):
    q = corpus_quiver(name)
    eps = quotient_polarization(q, find_sigma_stable(q))
    for field in FIELDS:
        for m in (1, 2, 3):
            assert_certificate_matches_oracle(build_quotient_algebra(q, field, m, eps))


def test_random_certificate_matches_plain_oracle():
    # loops, valency-one nodes, bipartite and not, one multiplicity per
    # node drawn from 1..3, with the decision's polarization and with a
    # random one
    profiles = [
        ((4, 4, 4, 4), True),
        ((4, 4, 4, 4), False),
        ((3, 3, 2, 2), True),
        ((3, 3, 2, 2), False),
        ((5, 1), None),
        ((1, 1), None),
        ((2, 2, 2), False),
        ((3, 3, 3, 3, 2, 2), None),
    ]
    rng = random.Random(1337)
    bipartite = set()
    for k in range(240):
        valencies, want = profiles[k % len(profiles)]
        q = gen.random_quiver(rng, valencies, want)
        stable = find_sigma_stable(q)
        bipartite.add(stable is quotient_polarization(q, stable))
        m = {rep: rng.randint(1, 3) for rep, _ in q.sigma_orbits()}
        eps = quotient_polarization(q, stable) if k % 2 else gen.random_polarization(rng, q)
        assert_certificate_matches_oracle(build_quotient_algebra(q, FIELDS[k % len(FIELDS)], m, eps))
    assert bipartite == {True, False}


# ---------------------------------------------------------------------------
# mutated algebras


def landing(alg):
    """Positions in alg.products of the products on a kept top cycle."""
    tops = top_indices(alg)
    return [n for n, (_, _, k, _) in enumerate(alg.products) if k in tops]


def drop_landing(alg):
    """Without the first product on a top cycle: its row has none."""
    first = landing(alg)[0]
    return dataclasses.replace(alg, products=[p for n, p in enumerate(alg.products) if n != first])


def second_landing(alg):
    """The first row i with a column where it has no product gets a
    second product on its top cycle there."""
    for n in landing(alg):
        i, _, k, c = alg.products[n]
        used = {j for r, j, _, _ in alg.products if r == i}
        free = [j for j in range(alg.dim) if j not in used]
        if free:
            return dataclasses.replace(alg, products=sorted(alg.products + [(i, free[0], k, c)]))
    raise AssertionError("every row is full")


def not_involutive(alg):
    """One row's landing product moved to the column of another row's:
    one per row still, but pi(pi(i)) != i."""
    sites = landing(alg)
    i, j, k, c = alg.products[sites[0]]
    j2 = next(alg.products[n][1] for n in sites if alg.products[n][1] != j)
    products = list(alg.products)
    products[sites[0]] = (i, j2, k, c)
    return dataclasses.replace(alg, products=products)


def wrong_row(alg):
    """The first landing product (i, j) with row i + 1 landing at a
    larger column, and free at column j, moved to row i + 1: the
    columns, read in row order, are still pi, but row i has none and
    row i + 1 has two."""
    sites = landing(alg)
    pairs = {(i, j) for i, j, _, _ in alg.products}
    for n, n2 in zip(sites, sites[1:]):
        i, j, k, c = alg.products[n]
        i2, j2, _, _ = alg.products[n2]
        if i2 == i + 1 and j < j2 and (i2, j) not in pairs:
            products = [p for m, p in enumerate(alg.products) if m != n] + [(i2, j, k, c)]
            return dataclasses.replace(alg, products=sorted(products))
    raise AssertionError("no landing product can move down a row")


MUTATIONS = (drop_landing, second_landing, not_involutive, wrong_row)


def unscaled_cases():
    """Corpus decisions that take c5's branch without a scaling map, with
    their c5 status."""
    for name in CORPUS_NAMES:
        for field in (GF3, GF5, QQ):
            for m in (1, 2):
                c5 = decide(corpus_quiver(name), field, m).conditions["c5"]
                if c5.evidence["kind"] == "inapplicable":
                    yield name, field, m, c5.status


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.__name__ for m in MUTATIONS])
def test_mutated_algebras_fail_the_certificate(mutation):
    for name in ("loop2", "triangle", "circ3", "mixed"):
        q = corpus_quiver(name)
        for field in (GF2, GF3, QQ):
            tw = build_quotient_algebra(q, field, 2)
            assert brauer_form_pairing(tw) is not None
            assert brauer_form_pairing(mutation(tw)) is None, (name, field.name)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.__name__ for m in MUTATIONS])
def test_decide_raises_on_a_failed_certificate(monkeypatch, mutation):
    # the failure contradicts the theorem: it is an internal error, never
    # an "unknown" c5
    cases = list(unscaled_cases())
    assert {status for *_, status in cases} == {"false", "unknown"}
    module = importlib.import_module("ribbonorders.decide")
    real = module.brauer_form_pairing
    monkeypatch.setattr(module, "brauer_form_pairing", lambda tw: real(mutation(tw)))
    for name, field, m, _ in cases:
        with pytest.raises(AssertionError, match="standard form failed"):
            decide(corpus_quiver(name), field, m)
