"""The quotient's product rule, its inline readers and the listed products.

``FdAlgebra.product`` is the O(1) pointwise rule for b_i b_j.  A decision
evaluates it inline at O(dim) pairs, with no call per pair: ``socle`` on
the rows and columns of the arrow residues, ``top_pairing`` (and so
``_socle_landing`` and ``brauer_form_pairing``) at the pairs (i, pi(i));
c5's scaling map is checked on the relation at each vertex
(``fdalg._scaling_relations_hold``).  ``products`` is the rule's list,
built on first read for the reference readers.  Here, on the grid of
``test_socle_certificate`` (the corpus and seeded ``perfbench/gen.py``
draws, m = 1-3 and a mixed map, GF(2), GF(3), GF(5) and Q, twisted and
plain, the decision's polarization and a random one), the socle is
compared with the socle read off the products and with the dense
reference, its landing list with the pairing read off the products, and
the relation check with the check of every product on random nonzero
scalings.  On larger draws, (60,) and (15, 1) among them, the inline
readers are compared with the pointwise rule read once per pair
(``reference.rule_socle`` and ``rule_top_pairing``), on the layout and
on copies corrupted in ``walks``, ``after`` or ``by_next``, outcome for
outcome.  A decision lists no product: with the products view raising,
the corpus grid and the one-orbit draws give today's reports.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from ribbonorders import CORPUS_NAMES, build_quotient_algebra, corpus_quiver, decide, socle, socle_certificate
from ribbonorders import fdalg
from ribbonorders.decide import report_to_jsonable
from ribbonorders.fields import GF2, GF3, GF5, QQ
from ribbonorders.polarize import find_sigma_stable, quotient_polarization

from reference import (
    landing_involution,
    products_socle,
    products_top_pairing,
    random_scalar,
    rule_socle,
    rule_top_pairing,
    verify_scaling_map,
    with_sigma_rule,
)
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


# ---------------------------------------------------------------------------
# the inline readers against the pointwise rule

# the products-reading references list every product, about m^2 dim n / 2
# for the orbit length n: up to (60,) at m = 2, 442,770 products
LISTED_PRODUCTS = 10 ** 6


def large_draws():
    """Seeded gen.py draws, each with the decision's polarization: one
    sigma-orbit of length 60, orbits of 15 and 1 (a leaf), and two
    six-node graphs, bipartite and not."""
    rng = random.Random(7)
    profiles = [((60,), None), ((15, 1), None), ((4, 3, 3, 2, 2, 2), True), ((4, 3, 3, 2, 2, 2), False)]
    for valencies, bipartite in profiles:
        q = gen.random_quiver(rng, valencies, bipartite)
        yield valencies, q, quotient_polarization(q, find_sigma_stable(q))


def test_inline_readers_are_the_pointwise_rule_on_large_draws():
    listed = 0
    for valencies, q, eps in large_draws():
        for m in (1, 2, 3):
            for field in (GF2, GF3, QQ):
                for twisted in (True, False):
                    alg = build_quotient_algebra(q, field, m, eps, twisted=twisted)
                    where = (valencies, m, field.name, twisted)
                    tops = sorted(alg.top_index.values())
                    assert socle(alg) == rule_socle(alg) == tops, where
                    landing, pi = alg.top_pairing
                    assert (landing, pi) == rule_top_pairing(alg) and pi == alg.pi, where
                    assert landing == [(i, j) + alg.product(i, j) for i, j in enumerate(alg.pi)], where
                    listable = m ** 2 * alg.dim * max(map(q.cycle_length, q.arrow_names)) <= 2 * LISTED_PRODUCTS
                    if listable and field is GF3 and twisted:
                        assert products_socle(alg) == tops and products_top_pairing(alg) == (landing, pi), where
                        listed += 1
    assert listed == 11


def outcome(reader, alg):
    """What reader(alg) returns, or the type and message of what it raises."""
    try:
        return "ok", reader(alg)
    except Exception as exc:  # the pointwise reference must raise the same
        return type(exc).__name__, str(exc)


def corrupted(rng, alg):
    """A copy of alg with one entry of walks, after or by_next corrupted,
    and the name of the list."""
    arrows, nv = alg.quiver.arrow_names, len(alg.quiver.vertices)
    kind = rng.choice(("walks", "after", "by_next"))
    if kind == "walks":
        walks = list(alg.walks)
        r = rng.randrange(nv, alg.dim)
        s, a, length = walks[r]
        walks[r] = rng.choice(
            ((s, rng.choice(arrows), length), (s, a, max(1, length + rng.choice((-1, 1)))), walks[rng.randrange(alg.dim)])
        )
        return kind, with_sigma_rule(alg, walks=walks)
    if kind == "after":
        after = list(alg.after)
        after[rng.randrange(nv, alg.dim)] = rng.choice(arrows)
        return kind, with_sigma_rule(alg, after=after)
    by_next = {a: list(rows) for a, rows in alg.by_next.items()}
    rows = by_next[rng.choice(arrows)]
    op = rng.randrange(3) if rows else 2
    if op == 0:
        del rows[rng.randrange(len(rows))]
    else:
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows) if op == 1 else rng.randrange(alg.dim))
    return kind, with_sigma_rule(alg, by_next=by_next)


SMALL_DIM = 200


def candidate_products(alg):
    """The pointwise rule's nonzero products on every candidate of each
    row, in row-major order: the product list without its stop at the
    top of each first-arrow run."""
    rule, position = alg.product, alg.quiver.position
    out = []
    for i, (s, a, _) in enumerate(alg.walks):
        for j in alg.by_end[s] if a is None else (position(s), *alg.by_next[a]):
            p = rule(i, j)
            if p is not None:
                out.append((i, j) + p)
    return out


def test_inline_readers_are_the_pointwise_rule_on_corrupted_layouts():
    # each inline reader reads the entries that the pointwise rule reads
    # at each pair and makes its tests, so on any corrupted copy it
    # returns what one rule call per pair returns, or raises the same;
    # and each corrupted list makes the readers, and so the socle
    # certificate, refuse a layout
    rng = random.Random(5)
    refused = set()
    count = 0
    algs = [build_quotient_algebra(corpus_quiver(name), GF3, m) for name in CORPUS_NAMES for m in (1, 2, 3)]
    algs += [build_quotient_algebra(q, QQ, m, eps) for _, q, eps in large_draws() for m in (1, 2)]
    for alg in algs:
        for _ in range(40):
            kind, copy = corrupted(rng, alg)
            got = outcome(socle, copy)
            assert got == outcome(rule_socle, copy), (kind, got)
            landing = outcome(lambda c: c.top_pairing, copy)
            assert landing == outcome(rule_top_pairing, copy), (kind, landing)
            if got[0] == "AssertionError":
                refused.add(("socle", kind))
            if landing[0] == "ok" and landing[1][1] is None:
                refused.add(("top_pairing", kind))
            if outcome(socle_certificate, copy)[0] == "AssertionError":
                refused.add(("socle_certificate", kind))
            if kind == "after" and alg.dim <= SMALL_DIM:
                # a zero of the candidate test ends no run of the product list
                assert copy.products == candidate_products(copy)
            count += 1
    assert count >= 2000
    assert refused >= {
        ("socle", "walks"),
        ("socle", "by_next"),
        ("top_pairing", "walks"),
        ("top_pairing", "after"),
        ("socle_certificate", "walks"),
        ("socle_certificate", "after"),
        ("socle_certificate", "by_next"),
    }


def test_the_product_list_stops_each_run_at_its_top():
    # on the (15, 1) draw over GF(3): the list is the rule's over every
    # pair, in row-major order, and it calls the rule once per candidate
    # except past the top of a first-arrow run; at m = 1 each run of
    # by_next[a] holds one path, so nothing is skipped (the candidates
    # inside by_next: 3,172, 13,088 and 29,756)
    q = gen.random_quiver(random.Random(0), (15, 1))
    eps = quotient_polarization(q, find_sigma_stable(q))
    skipped = []
    for m in (1, 2, 3):
        alg = build_quotient_algebra(q, GF3, m, eps)
        rule = alg.product
        assert alg.products == [(i, j) + rule(i, j) for i in range(alg.dim) for j in range(alg.dim) if rule(i, j)]
        calls = []
        alg.__dict__["product"] = lambda i, j: calls.append((i, j)) or rule(i, j)
        del alg.__dict__["products"]
        alg.products
        candidates = sum(len(alg.by_end[s]) if a is None else 1 + len(alg.by_next[a]) for s, a, _ in alg.walks)
        skipped.append(candidates - len(calls))
    assert skipped == [0, 1597, 6562]


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
