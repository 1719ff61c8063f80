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
the certificate holds, the full sweep finds nothing.
"""

import dataclasses
import random
import sys
from pathlib import Path

from ribbonorders import CORPUS_NAMES, check_nu_symmetry, corpus_quiver, order, verify_theta_psi
from ribbonorders.fields import GF2, GF3, GF5, QQ
from ribbonorders.order import CanonicalBasis, canonical_basis, default_polarization
from ribbonorders.polarize import Involution, Polarization

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

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
    return dataclasses.asdict(check_nu_symmetry(q, eps, field)), dataclasses.asdict(verify_theta_psi(q, eps, field))


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


def test_nu_check_rewrites_at_most_three_products_per_generator(monkeypatch):
    # on the (120,) one-orbit draw (|B| = 14,400) the ok check rewrites at
    # most 3 products per generator
    q = one_orbit_draws()[1]
    cap = 3 * (len(q.vertices) + len(q.arrow_names))
    real = CanonicalBasis.terms
    count = [0]

    def counting(self, *path):
        count[0] += 1
        return real(self, *path)

    monkeypatch.setattr(CanonicalBasis, "terms", counting)
    assert check_nu_symmetry(q, default_polarization(q), GF3).ok
    assert 0 < count[0] <= cap
