"""The generator certificate of the order checks against their full sweeps.

``check_nu_symmetry`` and ``verify_theta_psi`` decide the twisted
symmetry and the bimodule identity on generators (C1: theta column by
column; C2: phi(g y) = nu(g) phi(y g) for the generators g, with nu(a)
= 1 for the arrows that are not basis paths), and run their full sweeps
only when that certificate fails.  Every report here must equal the one
of a run whose certificate is forced to fail, so that the full sweeps
decide: on the corpus, on 300 seeded draws with leaves and loops
(arrows with n(a) = 1, some of them not basis paths) and on the (60,)
one-orbit draw; over GF(2), GF(3), GF(5) and Q; with the polarization's
own involution, another polarization's, and one with the least arrow's
sign flipped; and with theta as built or with a stray entry.  Wherever
the certificate holds, the full sweep finds nothing.  The certificate
compares int terms, and a side equal to the other only over k fails it.
An ok check formats nothing: its report's views are built on read.  It
evaluates phi inline, on at most 3 products per generator, and over Q
compares each involution sign at most once.
"""

import random
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    check_nu_symmetry,
    corpus_quiver,
    enumerate_polarizations,
    order,
    verify_theta_psi,
)
from ribbonorders.fields import GF2, GF3, GF5, QQ, PolyRing
from ribbonorders.order import BasisLayout, CanonicalBasis, canonical_basis, default_polarization
from ribbonorders.polarize import Involution, Polarization

from reference import report_dict
from test_order_rule import reference_expected_pairs, reference_psi, reference_theta

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)
import workloads  # noqa: E402  (perfbench's workload inputs)

FIELDS = (GF2, GF3, GF5, QQ)
# a profile starting with a leaf puts n(a) = 1 on the least arrow, the
# one the flipped involution negates; the others draw loops
PROFILES = ((1, 1, 2, 2), (1, 3, 2), (1, 1, 1, 3), (1, 2, 3, 2), (1, 1, 4), (1, 5), (1, 1), (2, 2, 2), (3, 3), (4,))


def one_orbit_draws():
    """The (60,) and (120,) one-orbit draws, in that order."""
    rng = random.Random(1)
    return gen.random_quiver(rng, (60,)), gen.random_quiver(rng, (120,))


def other_polarization(q, eps):
    """eps with the signs at the first vertex swapped."""
    a, b = q.arrows_out(q.vertices[0])
    return Polarization(signs={**eps.signs, a: eps.signs[b], b: eps.signs[a]})


def involutions(real):
    """involution_of and two corruptions of it: another polarization's
    involution, and the sign of the least arrow negated."""

    def other(q, eps, field):
        return real(q, other_polarization(q, eps), field)

    def flipped(q, eps, field):
        signs = dict(real(q, eps, field).signs)
        a = min(signs)
        signs[a] = field.neg(signs[a])
        return Involution(quiver=q, field=field, signs=signs)

    return {"own": real, "other": other, "flipped": flipped}


def with_stray_entry(real):
    """_theta_psi_columns with a stray term 1 in theta at row and column
    e(v) of the first vertex."""

    def corrupted(basis):
        theta, psi = real(basis)
        theta[0].append((0, 0, 1))
        return theta, psi

    return corrupted


def reports(q, eps, field):
    return report_dict(check_nu_symmetry(q, eps, field)), report_dict(verify_theta_psi(q, eps, field))


def compare(monkeypatch, cases, seen):
    """For each (q, eps, field): the reports with the certificate and with
    it forced off agree, under every involution and both thetas; counts
    in ``seen`` which way each certificate went."""
    real_inv, real_cols = order.involution_of, order._theta_psi_columns
    spied = {"_nu_signs": [], "_bimodule_counterexamples": []}
    for name in spied:
        real = getattr(order, name)
        monkeypatch.setattr(order, name, lambda *args, _real=real, _calls=spied[name]: _calls.append(1) or _real(*args))
    for q, eps, field in cases:
        basis = canonical_basis(q, eps)
        not_in_b = [a for a, k in basis.kept.items() if not k]
        for inv_name, inv_of in involutions(real_inv).items():
            monkeypatch.setattr(order, "involution_of", inv_of)
            for stray in (False, True) if inv_name == "own" else (False,):
                monkeypatch.setattr(order, "_theta_psi_columns", with_stray_entry(real_cols) if stray else real_cols)
                for calls in spied.values():
                    calls.clear()
                nu, tp = reports(q, eps, field)
                held = {name: not calls for name, calls in spied.items()}
                with monkeypatch.context() as m:
                    m.setattr(order, "_generators_hold", lambda *args: False)
                    m.setattr(order, "_theta_is_phi", lambda *args: False)
                    nu_off, tp_off = reports(q, eps, field)
                assert nu == nu_off and tp == tp_off, (inv_name, stray, field.name)
                if held["_nu_signs"]:
                    assert nu_off["counterexamples"] == []
                if held["_bimodule_counterexamples"]:
                    assert tp_off["bimodule_counterexamples"] == []
                for name, ok in held.items():
                    seen[name, ok] = seen.get((name, ok), 0) + 1
                flipped_not_in_b = inv_name == "flipped" and min(q.arrow_names) in not_in_b
                if flipped_not_in_b and field.char != 2:
                    seen["flipped arrow not in B"] = seen.get("flipped arrow not in B", 0) + 1
                    assert not tp["bimodule_ok"]
                seen["arrows not in B"] = seen.get("arrows not in B", 0) + len(not_in_b)
                seen["n(a) = 1 in B"] = seen.get("n(a) = 1 in B", 0) + sum(
                    1 for a, k in basis.kept.items() if k and q.cycle_length(a) == 1
                )


def assert_both_ways(seen):
    for name in ("_nu_signs", "_bimodule_counterexamples"):
        assert seen.get((name, True)) and seen.get((name, False)), seen


def test_corpus_certificate_matches_full_sweep(monkeypatch):
    cases = []
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        eps = default_polarization(q)
        for field in FIELDS:
            cases.append((q, eps, field))
    seen = {}
    compare(monkeypatch, cases, seen)
    assert_both_ways(seen)


def test_random_certificate_matches_full_sweep(monkeypatch):
    rng = random.Random(20261020)
    cases = []
    for k in range(300):
        q = gen.random_quiver(rng, PROFILES[k % len(PROFILES)])
        cases.append((q, gen.random_polarization(rng, q), FIELDS[k % len(FIELDS)]))
    q = one_orbit_draws()[0]
    cases.append((q, default_polarization(q), GF3))
    seen = {}
    compare(monkeypatch, cases, seen)
    assert_both_ways(seen)
    assert seen["flipped arrow not in B"] and seen["arrows not in B"] and seen["n(a) = 1 in B"]


# ---------------------------------------------------------------------------
# pins: an ok report runs no full sweep, and C2 costs O(|Q_0| + |Q_1|)


def _no_sweep(*args):
    raise AssertionError("an ok report must not run a full sweep")


def test_ok_reports_run_no_full_sweep(monkeypatch):
    # _nu_signs (a sign per basis path) and _bimodule_counterexamples are
    # the full sweeps' own; the certificate needs neither
    monkeypatch.setattr(order, "_nu_signs", _no_sweep)
    monkeypatch.setattr(order, "_bimodule_counterexamples", _no_sweep)
    rng = random.Random(7)
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES]
    quivers += [gen.random_quiver(rng, PROFILES[k % len(PROFILES)]) for k in range(20)]
    quivers += [one_orbit_draws()[0]]
    for k, q in enumerate(quivers):
        field = FIELDS[k % len(FIELDS)]
        eps = gen.random_polarization(rng, q)
        nu = check_nu_symmetry(q, eps, field)
        assert nu.ok and nu.pairs_match
        assert verify_theta_psi(q, eps, field).ok


def _no_terms_call(*args):
    raise AssertionError("phi applies the coordinate rule inline")


def test_nu_check_rewrites_at_most_three_products_per_generator(monkeypatch):
    # on the (120,) one-orbit draw (|B| = 14,400) the ok check evaluates
    # phi on at most 3 products per generator, each rewritten inline
    q = one_orbit_draws()[1]
    cap = 3 * (len(q.vertices) + len(q.arrow_names))
    real = order._phi_of
    count = [0]

    def counting_phi_of(basis):
        phi = real(basis)

        def counted(i, j):
            count[0] += 1
            return phi(i, j)

        return counted

    monkeypatch.setattr(order, "_phi_of", counting_phi_of)
    monkeypatch.setattr(CanonicalBasis, "terms", _no_terms_call)
    assert check_nu_symmetry(q, default_polarization(q), GF3).ok
    assert 0 < count[0] <= cap


def counted_comparisons(monkeypatch, call):
    """(call(), the Fraction.__eq__ calls it made)."""
    real = Fraction.__eq__
    count = [0]

    def counting(a, b):
        count[0] += 1
        return real(a, b)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__eq__", counting)
        out = call()
    return out, count[0]


def test_ok_checks_read_each_sign_with_at_most_one_comparison(monkeypatch):
    # over Q the one sign pass compares a sign at most once (1 is
    # involution_of's field.one itself, -1 costs one comparison), and
    # theta/psi's rule for the arrows not in B reads the same parities
    cases = [item.args[:2] for item in workloads.order_structure(5) if item.kind == "nu" and item.args[2] == QQ]
    rng = random.Random(11)
    cases += [(q, default_polarization(q)) for q in map(corpus_quiver, CORPUS_NAMES)]
    cases += [(q, gen.random_polarization(rng, q)) for q in (gen.random_quiver(rng, p) for p in PROFILES)]
    for q, eps in cases:
        for check in (check_nu_symmetry, verify_theta_psi):
            rep, count = counted_comparisons(monkeypatch, lambda: check(q, eps, QQ))
            assert rep.ok and count <= len(q.arrow_names), (check.__name__, count)


def test_sign_pass_reads_only_one_and_minus_one():
    q = corpus_quiver("mixed")
    inv = order.involution_of(q, default_polarization(q), QQ)
    neg = order._sign_parities(inv)
    assert sorted(set(neg.values())) == [0, 1]
    assert neg == {a: int(s == -1) for a, s in inv.signs.items()}
    copies = Involution(quiver=q, field=QQ, signs={a: Fraction(int(s)) for a, s in inv.signs.items()})
    assert order._sign_parities(copies) == neg  # a 1 that is not field.one itself
    for bad in (Fraction(2), Fraction(1, 2), 0):
        other = Involution(quiver=q, field=QQ, signs={**inv.signs, min(inv.signs): bad})
        assert order._sign_parities(other) is None
    two = order.involution_of(q, default_polarization(q), GF2)
    assert set(order._sign_parities(two).values()) == {0}
    ones = Involution(quiver=q, field=GF2, signs=dict.fromkeys(inv.signs, True))  # 1 = -1, not 1 itself
    assert set(order._sign_parities(ones).values()) == {0}


# ---------------------------------------------------------------------------
# the int comparisons


def test_theta_term_equal_only_over_k_fails_c1(monkeypatch):
    # theta's t-term 1 in column x(v) read as 4: the same entry over
    # GF(3), another list of int terms, so C1 fails and the sweep decides
    real_cols, real_c1 = order._theta_psi_columns, order._theta_is_phi
    c1 = []

    def four_for_one(basis):
        theta, psi = real_cols(basis)
        x = basis.top_index[basis.quiver.vertices[0]]
        theta[x] = [(r, d, 4 if d == 1 else c) for r, d, c in theta[x]]
        return theta, psi

    monkeypatch.setattr(order, "_theta_is_phi", lambda *args: c1.append(real_c1(*args)) or c1[-1])
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        eps = default_polarization(q)
        built = report_dict(verify_theta_psi(q, eps, GF3))
        monkeypatch.setattr(order, "_theta_psi_columns", four_for_one)
        del c1[:]
        tp = report_dict(verify_theta_psi(q, eps, GF3))
        assert c1 == [False], name
        with monkeypatch.context() as m:
            m.setattr(order, "_generators_hold", lambda *args: False)
            m.setattr(order, "_theta_is_phi", lambda *args: False)
            assert tp == report_dict(verify_theta_psi(q, eps, GF3)), name
        assert tp == built and tp["ok"], name  # theta is the same over GF(3)
        monkeypatch.setattr(order, "_theta_psi_columns", real_cols)


def assert_pairs_match_on_indices(q, eps, field=GF3):
    rep = check_nu_symmetry(q, eps, field)
    assert rep.pairs_match == (rep.nonzero_pairs == rep.expected_pairs)
    return rep.pairs_match


def test_pairs_match_on_indices_corpus_and_draws():
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for eps in enumerate_polarizations(q):
            assert assert_pairs_match_on_indices(q, eps)
    rng = random.Random(20261021)
    for k in range(300):
        q = gen.random_quiver(rng, PROFILES[k % len(PROFILES)])
        assert assert_pairs_match_on_indices(q, gen.random_polarization(rng, q), FIELDS[k % len(FIELDS)])


@pytest.mark.parametrize("swap", ["e-x", "first-last", "seeded"])
def test_pairs_match_on_indices_with_pi_swapped(swap, monkeypatch):
    # e(v) <-> x(v) swapped puts (x(v), x(v)) twice in F; the other swaps
    # move two entries of pi's graph
    real = BasisLayout.pi.fget
    rng = random.Random(3)

    def swapped(self):
        pi = list(real(self))
        if swap == "e-x":
            i, j = 0, pi[0]
        elif swap == "first-last":
            i, j = 0, len(pi) - 1
        else:
            i, j = random.Random(len(pi)).sample(range(len(pi)), 2)
        pi[i], pi[j] = pi[j], pi[i]
        return pi

    cases = [(q, default_polarization(q)) for q in map(corpus_quiver, CORPUS_NAMES)]
    for k in range(30):
        q = gen.random_quiver(rng, PROFILES[k % len(PROFILES)])
        cases.append((q, gen.random_polarization(rng, q)))
    monkeypatch.setattr(BasisLayout, "pi", property(swapped))
    for q, eps in cases:
        # C1 and C2 are sound only for the pairing read off the
        # sigma-orbits, so a check whose pairs do not match runs the
        # sweep: its report is the one with the certificate forced off,
        # field for field, for the nu check and for theta/psi, and
        # neither raises
        basis = canonical_basis(q, eps)
        assert (basis.pi == order._expected_pi(basis)) is False  # pairs_match on indices
        for field in (GF2, GF3, QQ):
            rep = check_nu_symmetry(q, eps, field)
            tp = verify_theta_psi(q, eps, field)
            assert not rep.pairs_match and rep.nonzero_pairs != rep.expected_pairs
            with monkeypatch.context() as m:
                m.setattr(order, "_generators_hold", lambda *args: False)
                assert report_dict(rep) == report_dict(check_nu_symmetry(q, eps, field)), (swap, field.name)
            for name in ("_generators_hold", "_theta_is_phi"):
                with monkeypatch.context() as m:
                    m.setattr(order, name, lambda *args: False)
                    assert report_dict(tp) == report_dict(verify_theta_psi(q, eps, field)), (swap, name, field.name)


# ---------------------------------------------------------------------------
# an ok check formats nothing


def _formats(*args, **kwargs):
    raise AssertionError("an ok order check must not format a label or a k[t] entry")


def test_ok_checks_format_nothing(monkeypatch):
    # no label, no k[t] entry and no full sweep while both checks run; the
    # views read afterwards are the sorted labels of F, the expected list
    # and theta and psi as the dense references give them
    cases = []
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        cases += [(q, eps, field) for eps in islice(enumerate_polarizations(q), 2) for field in FIELDS]
    with monkeypatch.context() as m:
        for cls in (BasisLayout, CanonicalBasis):
            m.setattr(cls, "label", _formats)
        m.setattr(PolyRing, "t_power", _formats)
        for name in ("nu_counterexamples", "_nu_signs", "_bimodule_counterexamples"):
            m.setattr(order, name, _no_sweep)
        reports = [(check_nu_symmetry(*case), verify_theta_psi(*case)) for case in cases]
    for (q, eps, field), (nu, tp) in zip(cases, reports):
        assert nu.ok and nu.pairs_match and tp.ok
        basis, ring = canonical_basis(q, eps), PolyRing(field)
        labels = basis.basis
        f = [(labels[x], labels[x]) for x in basis.top_index.values()]
        f += [(labels[i], labels[j]) for i, j in enumerate(basis.pi)]
        assert nu.nonzero_pairs == sorted(f) == nu.expected_pairs == reference_expected_pairs(basis)
        assert order._dense(ring, tp.theta) == reference_theta(basis, ring)
        assert order._dense(ring, tp.psi) == reference_psi(basis, ring)
