"""The quotient's product rule against the listed products.

A decision reads ``FdAlgebra.product``, the O(1) rule for b_i b_j, at
O(dim) pairs: ``socle`` on the rows and columns of the arrow residues,
``top_pairing`` (and so ``_socle_landing`` and ``brauer_form_pairing``)
at the pairs (i, pi(i)), and c5's scaling map on the relation at each
vertex (``fdalg._scaling_relations_hold``).  ``products`` is the rule's
list, built on first read for the reference readers.  Here, on the grid
of ``test_socle_certificate`` (the corpus and seeded ``perfbench/gen.py``
draws, m = 1-3 and a mixed map, GF(2), GF(3), GF(5) and Q, twisted and
plain, the decision's polarization and a random one), the rule's socle
is compared with the socle read off the products and with the dense
reference, its landing list with the pairing read off the products, and
the relation check with the check of every product on random nonzero
scalings.  A decision lists no product: with the products view raising,
the corpus grid and the one-orbit draws give today's reports.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from ribbonorders import CORPUS_NAMES, build_quotient_algebra, corpus_quiver, decide, socle
from ribbonorders import fdalg
from ribbonorders.decide import report_to_jsonable
from ribbonorders.fields import GF2, GF3, GF5, QQ
from ribbonorders.polarize import find_sigma_stable, quotient_polarization

from reference import landing_involution, products_socle, products_top_pairing, random_scalar, verify_scaling_map
from test_oracle import reference_socle
from test_socle_certificate import cases, describe

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

DENSE_DIM = 60  # the dense socle reference eliminates a matrix of 2 |Q_1| dim rows


def test_rule_socle_is_the_products_socle():
    count = dense = 0
    for q, field, m, eps, twisted in cases():
        alg = build_quotient_algebra(q, field, m, eps, twisted=twisted)
        got = socle(alg)
        assert got == products_socle(alg) == sorted(alg.top_index.values()), describe(q, field, m, eps, twisted)
        if alg.dim <= DENSE_DIM and m != 3:
            assert [alg.dense({p: field.one}) for p in got] == reference_socle(alg), describe(q, field, m, eps, twisted)
            dense += 1
        count += 1
    assert count >= 3000 and dense >= 500


def test_rule_landing_is_the_landing_read_off_the_products():
    count = 0
    for q, field, m, eps, twisted in cases():
        alg = build_quotient_algebra(q, field, m, eps, twisted=twisted)
        landing, pi = alg.top_pairing
        listed, listed_pi = products_top_pairing(alg)
        assert landing == listed and pi == listed_pi == alg.pi, describe(q, field, m, eps, twisted)
        assert pi == landing_involution(alg.dim, listed)
        assert fdalg._socle_landing(alg, socle(alg)) == landing
        count += 1
    assert count >= 3000


def random_scales(rng, alg):
    """Random scales, nonzero on the arrows of the basis paths; one arrow
    in five gets a root of x^m = -1 where the field has one."""
    f = alg.field
    scales = {}
    for a in alg.quiver.arrow_names:
        c = random_scalar(f, rng, 3)
        while not c:
            c = random_scalar(f, rng, 3)
        root = fdalg.root_of_minus_one(f, alg.multiplicity[alg.quiver.orbit_rep(a)])
        scales[a] = root if root is not None and rng.random() < 0.2 else c
    return scales


def test_relation_check_is_the_check_of_every_product():
    # on the decision's scales, on +-1 scales (which the relation check
    # accepts exactly where the signs close), on random nonzero scales,
    # and on scales with a zero on some arrow of a basis path
    rng = random.Random(31)
    seen = set()
    for q, field, m, eps, twisted in cases():
        alg = build_quotient_algebra(q, field, m, eps, twisted=twisted)
        trials = [random_scales(rng, alg) for _ in range(2)]
        trials.append({a: rng.choice((field.one, field.neg(field.one))) for a in q.arrow_names})
        zero = dict(trials[0])
        zero[rng.choice([a for a, k in alg.kept.items() if k])] = field.zero
        trials.append(zero)
        stable = find_sigma_stable(q)
        if eps == quotient_polarization(q, stable) and twisted:
            psi = fdalg.psi_from_quotient(stable, alg)
            if psi.scales is not None:
                trials.append(psi.scales)
        for scales in trials:
            want = verify_scaling_map(alg, scales)
            assert fdalg._scaling_relations_hold(alg, scales) == want, describe(q, field, m, eps, twisted)
            seen.add((want, bool(alg.non_admissible)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# a decision lists no product

# sha256 of the reports (``report_to_jsonable``, keys sorted, one after
# another) of the earlier decision, which listed every product
CORPUS_REPORTS = "267895a27cfcd05662e074f566b020c2a913527547a7aeb21f38a493f51e7c49"
FIFTEEN_ONE_REPORTS = "d32a482f885834eb3ae9dfd6f0ef983513f1183fa5a74436618e9e70cfd5722e"
ONE_ORBIT_120_REPORTS = "c02a447a8b0a9f56d56ccf469072319b6a48018becbd585f80a2306a9d690ab1"


def digest(reports):
    h = hashlib.sha256()
    for rep in reports:
        h.update(json.dumps(report_to_jsonable(rep), sort_keys=True).encode())
    return h.hexdigest()


@pytest.fixture
def no_products(monkeypatch):
    def refuse(alg):
        raise AssertionError("a decision listed the products")

    monkeypatch.setattr(fdalg.FdAlgebra, "_list_products", refuse)


def test_decisions_list_no_product(no_products):
    corpus = [
        decide(corpus_quiver(name), field, m, instance=name)
        for name in CORPUS_NAMES
        for field in (GF2, GF3, GF5, QQ)
        for m in (1, 2)
    ]
    assert digest(corpus) == CORPUS_REPORTS
    rng = random.Random(1)
    draws = [gen.random_quiver(rng, (15, 1), False) for _ in range(2)]
    assert digest(decide(q, field, instance="15,1") for q in draws for field in (GF2, GF3, QQ)) == FIFTEEN_ONE_REPORTS
    rng = random.Random(1)
    gen.random_quiver(rng, (60,))
    one_orbit = gen.random_quiver(rng, (120,))
    assert digest([decide(one_orbit, GF3, instance="120")]) == ONE_ORBIT_120_REPORTS
    with pytest.raises(AssertionError, match="listed the products"):
        build_quotient_algebra(corpus_quiver("circ3"), GF3).products
