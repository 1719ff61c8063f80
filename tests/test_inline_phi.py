"""The order's phi evaluator against the coordinate rule it inlines.

``order._phi_of`` applies the rule of ``BasisLayout.terms`` inline; the
reference (``reference.terms_phi_of``) calls it once per pair.  Both
must give the same [(degree, coefficient)] list on every pair of F u F^T
(F: the (x(v), x(v)) and the graph of pi) and of the pairing read off
the sigma-orbits, and the order checks must give the same reports with
either evaluator: on every corpus quiver under sampled polarizations,
on 30 seeded draws, on the (120,) one-orbit draw, and with one pair of
pi swapped, over GF(2), GF(3) and Q.
"""

import random
import sys
from pathlib import Path

import pytest

from ribbonorders import CORPUS_NAMES, check_nu_symmetry, corpus_quiver, order, verify_theta_psi
from ribbonorders.fields import GF2, GF3, QQ
from ribbonorders.order import BasisLayout, canonical_basis, default_polarization

from reference import report_dict, terms_phi_of
from test_order_rule import ORDER_PROFILES, sampled_polarizations

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

FIELDS = (GF2, GF3, QQ)


def corpus_cases():
    return [(q, eps) for q in map(corpus_quiver, CORPUS_NAMES) for eps in sampled_polarizations(q)]


def seeded_cases(count=30, seed=20261022):
    rng = random.Random(seed)
    quivers = [gen.random_quiver(rng, ORDER_PROFILES[k % len(ORDER_PROFILES)]) for k in range(count)]
    return [(q, gen.random_polarization(rng, q)) for q in quivers]


def one_orbit_case():
    rng = random.Random(1)
    gen.random_quiver(rng, (60,))
    q = gen.random_quiver(rng, (120,))  # |B| = 14,400, one sigma-orbit
    return q, default_polarization(q)


def compared_pairs(basis):
    """F u F^T for pi and for the pairing read off the sigma-orbits."""
    pairs = set()
    for pi in (basis.pi, order._expected_pi(basis)):
        for i, j in order._full_cycle_pairs(basis, pi):
            pairs.update(((i, j), (j, i)))
    return sorted(pairs)


def assert_same_phi(q, eps):
    basis = canonical_basis(q, eps)
    inline, reference = order._phi_of(basis), terms_phi_of(basis)
    pairs = compared_pairs(basis)
    assert [(i, j) for i, j in pairs if inline(i, j) != reference(i, j)] == []
    assert any(inline(i, j) for i, j in pairs)
    if basis.dim <= 40:  # a small basis: every pair, products or not
        n = basis.dim
        assert all(inline(i, j) == reference(i, j) for i in range(n) for j in range(n))


def assert_same_reports(monkeypatch, q, eps):
    for field in FIELDS:
        got = report_dict(check_nu_symmetry(q, eps, field)), report_dict(verify_theta_psi(q, eps, field))
        with monkeypatch.context() as m:
            m.setattr(order, "_phi_of", terms_phi_of)
            want = report_dict(check_nu_symmetry(q, eps, field)), report_dict(verify_theta_psi(q, eps, field))
        assert got == want, field.name


@pytest.mark.parametrize("cases", [corpus_cases, seeded_cases], ids=["corpus", "seeded"])
def test_inline_phi_matches_the_terms_rule(cases, monkeypatch):
    for q, eps in cases():
        assert_same_phi(q, eps)
        assert_same_reports(monkeypatch, q, eps)


def test_inline_phi_matches_the_terms_rule_on_one_orbit():
    assert_same_phi(*one_orbit_case())


def test_inline_phi_matches_the_terms_rule_with_pi_swapped(monkeypatch):
    # one seeded pair of pi swapped: F is read off the corrupted pi, the
    # certificates are not trusted and the sweeps evaluate phi on it
    real = BasisLayout.pi.fget

    def swapped(self):
        pi = list(real(self))
        i, j = random.Random(len(pi)).sample(range(len(pi)), 2)
        pi[i], pi[j] = pi[j], pi[i]
        return pi

    monkeypatch.setattr(BasisLayout, "pi", property(swapped))
    for q, eps in corpus_cases()[::3] + seeded_cases(count=10):
        assert_same_phi(q, eps)
        assert_same_reports(monkeypatch, q, eps)
