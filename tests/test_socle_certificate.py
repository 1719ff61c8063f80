"""The socle certificate against the symmetry oracle.

A decision certifies c2 with ``fdalg.socle_certificate``, read off the
socle and the product rule at the pairs (i, pi(i)), the products that
land on it; ``is_symmetric_oracle``, which computes all of S off the
listed products, is the reference.  Here the two are compared field
for field (kind, method, s_dim, certificate, witness form) and the
certificate's pairing pi with ``brauer_form_pairing``, on the corpus and
on seeded ``perfbench/gen.py`` draws by valency profile (leaves, loops,
one-orbit graphs, bipartite and not, and disjoint unions of the two
kinds), over GF(2), GF(3), GF(5) and Q, at m = 1-3 and a mixed map, on
the twisted and the plain quotient, with the decision's polarization
and a random one.  On the same grid the layout's closed-form pairing
involution ``pi`` is compared with the one read off the products
(``reference.landing_involution``), and on the canonical basis with
the t^0 supports of theta and psi and with the pairs F on which
``check_nu_symmetry`` builds the order's form.  The witness pairing's
closed-form determinant, sign(pi) times the product of its entries, is
compared with ``linalg.sign_det``, which reads the cycles of any
permutation, on the same grid at m = 1-3.  The certificate's errors are
raised on corrupted layouts (pi, walks, by_next or the arrows ``after``
the paths) or rules, and the listed products corrupted the same way are
refused by the products-reading references of ``tests/reference.py``.
"""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    build_quotient_algebra,
    corpus_quiver,
    find_sigma_stable,
    graph_of_quiver,
    is_bipartite,
    is_symmetric_oracle,
    serialize_quiver,
    socle,
    socle_certificate,
)
from ribbonorders import fdalg, linalg
from ribbonorders.fields import GF2, GF3, GF5, QQ
from ribbonorders.order import canonical_basis, check_nu_symmetry, verify_theta_psi
from ribbonorders.polarize import quotient_polarization
from ribbonorders.quiver import disjoint_union

from reference import (
    landing_involution,
    products_socle,
    products_socle_landing,
    with_rule,
    with_sigma_rule,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

SEED = 21
FIELDS = (GF2, GF3, GF5, QQ)
MULTIPLICITIES = (1, 2, 3, "mixed")
DRAWS = 3
# (valencies, bipartite or None for either)
PROFILES = (
    ((1, 1), None),  # one edge between two leaves
    ((3, 1, 1, 1), None),  # a star of leaves
    ((2, 1, 1), None),  # a path
    ((2,), None),  # one loop: a one-orbit graph
    ((6,), None),  # three loops at one node: a one-orbit graph
    ((4, 2), None),
    ((2, 2, 2), False),
    ((2, 2, 2, 2), True),
    ((3, 3, 2), None),
    ((4, 4, 4, 4), True),
    ((4, 4, 4, 4), False),
    ((3, 3, 3, 3, 2, 2), False),
)
VERDICT_FIELDS = ("kind", "method", "trials", "s_dim", "certificate", "witness_form")


def seeded_quivers():
    rng = random.Random(SEED)
    draws = {True: [], False: []}
    out = []
    for valencies, bipartite in PROFILES:
        for _ in range(DRAWS):
            q = gen.random_quiver(rng, valencies, bipartite)
            draws[is_bipartite(graph_of_quiver(q)).is_bipartite].append(q)
            out.append(q)
    # a bipartite and a non-bipartite component side by side: one free
    # component of the socle and one forced to zero
    out += [disjoint_union(a, b) for a, b in zip(draws[True][-3:], draws[False][-3:])]
    return out, rng


def cases():
    """(quiver, field, multiplicity, polarization, twisted) over the grid."""
    quivers, rng = seeded_quivers()
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES] + quivers
    for q in quivers:
        decision = quotient_polarization(q, find_sigma_stable(q))
        for eps in (decision, gen.random_polarization(rng, q)):
            for m in MULTIPLICITIES:
                if m == "mixed":
                    m = {rep: 1 + k % 3 for k, (rep, _) in enumerate(q.sigma_orbits())}
                for field in FIELDS:
                    for twisted in (True, False):
                        yield q, field, m, eps, twisted


def describe(q, field, m, eps, twisted):
    return (
        f"{'twisted' if twisted else 'plain'} quotient over {field.name}, m = {m}, "
        f"polarization {sorted(eps.signs.items())}, of\n{serialize_quiver(q)}"
    )


def test_socle_certificate_matches_the_oracle_and_the_brauer_form():
    seen = set()
    count = 0
    for q, field, m, eps, twisted in cases():
        alg = build_quotient_algebra(q, field, m, eps, twisted=twisted)
        got, want = socle_certificate(alg), is_symmetric_oracle(alg)
        for name in VERDICT_FIELDS:
            assert getattr(got, name) == getattr(want, name), (name, describe(q, field, m, eps, twisted))
        assert got == want
        paths = socle(alg)
        pi = [j for _, j, _, _ in fdalg._socle_landing(alg, paths)]
        assert pi == fdalg.brauer_form_pairing(alg), describe(q, field, m, eps, twisted)
        # which branches the grid reached
        loops = any(s == t and q.sigma[a] != a for a, s, t in q.arrows)
        leaves = any(q.sigma[a] == a for a in q.arrow_names)
        meets = any(not set(paths).isdisjoint(form) for form in fdalg.symmetric_forms(alg))
        seen.add((want.kind, meets, loops, leaves))
        count += 1
    assert count >= 2000
    kinds = {kind for kind, _, _, _ in seen}
    assert kinds == {"symmetric", "not-symmetric"}
    assert ("not-symmetric", True) in {(kind, meets) for kind, meets, _, _ in seen}  # a free and a forced component
    assert any(loops for _, _, loops, _ in seen) and any(leaves for _, _, _, leaves in seen)


def test_closed_form_pi_is_the_pairing_of_the_products_and_of_the_order_checks():
    order_checked = 0
    for q, field, m, eps, twisted in cases():
        alg = build_quotient_algebra(q, field, m, eps, twisted=twisted)
        pi, tops = alg.pi, alg.top_mask
        assert [pi[j] for j in pi] == list(range(alg.dim))
        landing = [p for p in alg.products if tops[p[2]]]
        assert pi == landing_involution(alg.dim, landing), describe(q, field, m, eps, twisted)
        if m != 1 or not twisted:
            continue
        # the canonical basis is this layout; its pi places theta(0),
        # psi(0) and the degree-0 pairs of the order's form
        basis = canonical_basis(q, eps)
        assert basis.pi == pi
        rep = verify_theta_psi(q, eps, field)
        for cols in (rep.theta, rep.psi):
            assert [[r for r, poly in col.items() if poly and poly[0]] for col in cols] == [[j] for j in pi]
        nu = check_nu_symmetry(q, eps, field)
        pairs = {(basis.index[u], basis.index[w]) for u, w in nu.nonzero_pairs}
        xx = {(x, x) for x in basis.top_index.values()}
        assert xx <= pairs and pairs - xx == set(enumerate(pi)), describe(q, field, m, eps, twisted)
        order_checked += 1
    assert order_checked >= 400


def landing_row(alg, row):
    """The index in alg.products of row's product that lands on the socle."""
    paths = set(socle(alg))
    return next(n for n, (i, _, k, _) in enumerate(alg.products) if i == row and k in paths)


@pytest.mark.parametrize("name", ["circ3", "line3", "mixed"])
def test_a_landing_product_out_of_the_rule_raises(name):
    # the certificate reads the rule at (i, pi(i)): with the arrow that
    # follows b_pi(i) corrupted (the rule's candidate test), row i lands
    # nowhere; the rule's signs are 1 and -1 by construction, so a sign
    # other than those is put into the rewritten top cycle's sign
    # top_sign, which the certificate's inline rule reads, and into the
    # rule itself, which the products list reads; both corruptions are
    # also put into the listed products, and the products-reading
    # reference refuses each with the same errors
    q = corpus_quiver(name)
    alg = build_quotient_algebra(q, GF3, 2)
    row = len(q.vertices)  # the first arrow's row
    j = alg.pi[row]
    after = list(alg.after)
    after[j] = q.other_arrow_at(q.source(after[j]), after[j])
    with pytest.raises(AssertionError, match="graph of an involution"):
        socle_certificate(with_sigma_rule(alg, after=after))
    n = landing_row(alg, row)
    i, j, k, s = alg.products[n]
    dropped = dataclasses.replace(alg, products=alg.products[:n] + alg.products[n + 1 :])
    with pytest.raises(AssertionError, match="graph of an involution"):
        products_socle_landing(dropped, products_socle(dropped))
    for bad in (2, 0, -2):
        signed = dataclasses.replace(alg, products=None)
        signed.top_sign = bad
        with pytest.raises(AssertionError, match="sign other than 1 and -1"):
            socle_certificate(signed)
        signed = with_rule(alg, lambda rule, i, j: (rule(i, j)[0], bad) if (i, j) == (row, alg.pi[row]) else rule(i, j))
        with pytest.raises(AssertionError, match="sign other than 1 and -1"):
            products_socle_landing(signed, products_socle(signed))
        signed = dataclasses.replace(alg, products=alg.products[:n] + [(i, j, k, bad)] + alg.products[n + 1 :])
        with pytest.raises(AssertionError, match="sign other than 1 and -1"):
            products_socle_landing(signed, products_socle(signed))


@pytest.mark.parametrize("name", ["circ3", "line3", "mixed"])
def test_a_socle_beyond_the_top_cycles_raises(name):
    # with a non-top path x taken out of the rows of the arrow residues
    # (by_next without x) and out of their columns (x's first arrow
    # corrupted in walks, so the rule's candidate test fails), x joins
    # the socle: the certificate refuses it, rather than return a verdict
    # that its s_dim proof does not cover.  The listed products without
    # x's products by a residue give the products-reading reference the
    # same socle.
    q = corpus_quiver(name)
    alg = build_quotient_algebra(q, GF3, 2)
    residues = {k for a in q.arrow_names for k in alg.arrow_residue(a)}
    x = next(r for r in range(len(q.vertices), alg.dim) if not alg.top_mask[r] and r not in residues)
    s, a, length = alg.walks[x]
    walks = list(alg.walks)
    walks[x] = (s, q.other_arrow_at(s, a), length)
    by_next = {b: [r for r in rows if r != x] for b, rows in alg.by_next.items()}
    mutated = with_sigma_rule(alg, walks=walks, by_next=by_next)
    assert x in socle(mutated)
    with pytest.raises(AssertionError, match="not the set of kept top cycles"):
        socle_certificate(mutated)
    products = [p for p in alg.products if not (p[0] == x and p[1] in residues or p[1] == x and p[0] in residues)]
    listed = dataclasses.replace(alg, products=products)
    assert products_socle(listed) == socle(mutated)
    with pytest.raises(AssertionError, match="not the set of kept top cycles"):
        products_socle_landing(listed, products_socle(listed))


def test_characteristic_two_closes_every_cycle():
    # GF(2) algebras given the twisted signs of GF(3): -1 = +1, so no
    # component is forced, although the same signs refute over GF(3)
    refuted = 0
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for m in (1, 2):
            odd = build_quotient_algebra(q, GF3, m)
            alg = dataclasses.replace(odd, field=GF2)
            assert socle_certificate(alg) == is_symmetric_oracle(alg), (name, m)
            assert socle_certificate(alg).kind == "symmetric", (name, m)
            refuted += socle_certificate(odd).kind == "not-symmetric"
    assert refuted


def test_closed_form_witness_det_is_the_sign_det():
    # on the witness form where there is one, the standard form (1 on
    # every kept top cycle) and a random +-1 form, so both signs of the
    # determinant and pairings with and without fixed points are reached
    rng = random.Random(SEED + 5)
    seen = set()
    count = 0
    for q, field, m, eps, twisted in cases():
        if m not in (1, 2, 3):
            continue
        alg = build_quotient_algebra(q, field, m, eps, twisted=twisted)
        landing = fdalg._socle_landing(alg, socle(alg))
        forms = [[1] * alg.dim, [rng.choice((1, -1)) for _ in range(alg.dim)]]
        witness = socle_certificate(alg).witness_form
        if witness is not None:
            forms.append([0 if c == field.zero else 1 if c == field.one else -1 for c in witness])
        for phi in forms:
            want = linalg.sign_det(alg.dim, ((i, j, s * phi[k]) for i, j, k, s in landing))
            assert fdalg._witness_det(landing, phi) == want, describe(q, field, m, eps, twisted)
            seen.add((want, any(i == j for i, j, _, _ in landing)))
        count += 1
    assert count >= 1500
    assert seen == {(1, True), (1, False), (-1, True), (-1, False)}


def test_the_certificate_takes_no_general_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("linalg.sign_det was called")

    monkeypatch.setattr(linalg, "sign_det", refuse)
    symmetric = 0
    for name in CORPUS_NAMES:
        for field in FIELDS:
            for m in (1, 2):
                alg = build_quotient_algebra(corpus_quiver(name), field, m)
                symmetric += socle_certificate(alg).kind == "symmetric"
    assert symmetric


@pytest.mark.parametrize("name", ["circ4", "line3", "mixed"])
def test_a_pairing_that_is_no_involution_raises(name):
    # rows 0 and 1 (e(v0), e(v1)) trade the columns pi(0) = x(v0) and
    # pi(1) = x(v1), and the arrows after x(v0) and x(v1) trade too, so
    # that x(v1) ends at v0 and x(v0) at v1 for the rule: every b_i
    # b_pi(i) still lands on a kept top cycle, but pi(pi(0)) = pi(x(v1))
    # = 1, not 0
    alg = build_quotient_algebra(corpus_quiver(name), GF2, 2)
    pi = list(alg.pi)
    bad = pi[:]
    bad[0], bad[1] = pi[1], pi[0]
    assert bad[bad[0]] != 0
    after = list(alg.after)
    after[pi[0]], after[pi[1]] = after[pi[1]], after[pi[0]]
    mutated = with_sigma_rule(alg, pi=bad, after=after)
    assert mutated.top_pairing[1] == bad
    with pytest.raises(AssertionError, match="not an involution"):
        socle_certificate(mutated)
