"""The decision kernel on native +-1 signs.

Every product of two basis paths is 0 or s times one basis path with
s = +1 or -1, stored as a native int.  The symmetry oracle reads those
ints: S by one walk over the commutator rows on +-1 ratios (a cycle of
links closes iff its signs agree or the characteristic is two), the
socle from indices only, and the witness
determinant as an int mapped into the field at the end.  Here that
kernel is compared with the dense references of ``test_oracle`` and
``test_kernel`` on seeded graphs of 20 to 40 edges, a sign other than
+-1 must raise, and the oracle must make no field operation at all.
"""

import collections
import dataclasses
import random
import sys
from pathlib import Path

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    build_quotient_algebra,
    construct_psi_isomorphism,
    corpus_quiver,
    find_sigma_stable,
    is_symmetric_oracle,
    plain_quotient,
    socle,
)
from ribbonorders.corpus import circular
from ribbonorders.fdalg import (
    check_algebra_axioms,
    pairing_det,
    symmetric_forms,
)
from ribbonorders.fields import GF2, GF3, GF5, QQ, PrimeField, RationalField
from ribbonorders.polarize import quotient_polarization

from reference import products_socle, sign_form, verify_scaling_map
from test_kernel import check_kernel_against_reference
from test_oracle import check_against_reference, reference_symmetric_forms

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

FIELDS = (GF2, GF3, GF5, QQ)

# valency profiles with 20 to 40 edges whose quotients stay small enough
# for the dense references: many valency-one and -two nodes (loops with
# n(a) = 1, so non-admissible arrows at m = 1) around a few larger ones
PROFILES = (
    (2,) * 20,  # 20 edges: a union of cycles
    (3, 3, 3, 3) + (2,) * 10 + (1,) * 18,  # 25 edges
    (4, 3, 3) + (2,) * 12 + (1,) * 22,  # 28 edges
    (3,) * 6 + (2,) * 14 + (1,) * 16,  # 31 edges
    (2,) * 24 + (1,) * 32,  # 40 edges
)


def seeded_quivers(seed, draws):
    """(quiver, polarization, multiplicity) triples, alternately bipartite
    and not (a profile with a node of valency one and a loop can be
    either), with the decision's polarization or a random one, and a
    multiplicity per node drawn from 1..3."""
    rng = random.Random(seed)
    out = []
    for n in range(draws):
        valencies = PROFILES[n % len(PROFILES)]
        q = gen.random_quiver(rng, valencies, bipartite=n % 2 == 0)
        stable = find_sigma_stable(q)
        eps = quotient_polarization(q, stable) if n % 3 else gen.random_polarization(rng, q)
        m = {rep: rng.randint(1, 3) for rep, _ in q.sigma_orbits()}
        out.append((q, eps, m))
    return out


def test_seeded_graphs_match_the_dense_oracle_reference():
    kinds = collections.Counter()
    for n, (q, eps, m) in enumerate(seeded_quivers(16, 12)):
        assert 20 <= len(q.vertices) <= 40  # one vertex per edge
        field = FIELDS[n % len(FIELDS)]
        for twisted in (True, False):
            alg = build_quotient_algebra(q, field, m, eps, twisted=twisted)
            kinds[field.char == 2, check_against_reference(alg)] += 1
    # the char-2 closing rule is exercised, and both verdicts occur
    assert kinds[True, "symmetric"] and kinds[False, "symmetric"] and kinds[False, "not-symmetric"]


def test_seeded_graphs_match_the_dense_kernel_reference():
    # the dense kernel reference multiplies dense vectors over every basis
    # pair, so it runs on the three smallest profiles at multiplicity 1
    # (dimension 80 to 104), one prime field each; Q is compared above
    rng = random.Random(61)
    for n, ((q, eps, _), field) in enumerate(zip(seeded_quivers(23, 3), (GF2, GF3, GF5))):
        check_kernel_against_reference(build_quotient_algebra(q, field, 1, eps, twisted=n != 1), rng)


def test_char_two_closing_rule():
    # the builder writes +1 throughout in characteristic two; a GF(2)
    # algebra given the odd-characteristic signs (-1 on the rewritten top
    # cycles) is the same algebra, since -1 = +1 there.  Its commutator
    # rows link indices in cycles whose signs do not close, which only the
    # char-2 rule accepts.
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES] + [q for q, _, _ in seeded_quivers(9, 5)]
    closing = 0
    closing_checked = 0  # at m <= 2, against the dense reference
    for q in quivers:
        eps = quotient_polarization(q, find_sigma_stable(q))
        for m in (1, 2, 3):
            plus = build_quotient_algebra(q, GF2, m, eps)
            signed = dataclasses.replace(plus, products=build_quotient_algebra(q, GF3, m, eps).products)
            assert signed.table == plus.table
            assert symmetric_forms(signed) == symmetric_forms(plus)
            assert socle(signed) == socle(plus)
            assert is_symmetric_oracle(signed) == is_symmetric_oracle(plus)
            check_algebra_axioms(signed)
            assert verify_scaling_map(signed, {a: GF2.one for a in q.arrow_names})
            if m == 2:
                check_against_reference(signed)
            # read in odd characteristic, the same signs force components
            odd = dataclasses.replace(signed, field=GF3)
            odd_forms = symmetric_forms(odd)
            fewer = len(odd_forms) < len(symmetric_forms(plus))
            closing += fewer
            if m <= 2:
                assert [odd.dense(form) for form in odd_forms] == reference_symmetric_forms(odd)
                closing_checked += fewer
    assert closing and closing_checked


# ---------------------------------------------------------------------------
# a sign other than +-1 raises


def with_sign(alg, n, s):
    products = list(alg.products)
    i, j, k, _ = products[n]
    products[n] = (i, j, k, s)
    return dataclasses.replace(alg, products=products)


@pytest.mark.parametrize("bad", [2, 0, -2], ids=["2", "0", "-2"])
def test_sign_outside_plus_minus_one_raises(bad):
    # circ4 is bipartite and x^2 = -1 has a root in GF(5): the scaling map
    # exists, so its verifier reads every product
    q = corpus_quiver("circ4")
    psi = construct_psi_isomorphism(q, GF5, 2)
    alg = build_quotient_algebra(q, GF5, 2, quotient_polarization(q, find_sigma_stable(q)))
    tops = set(alg.top_index.values())
    # a product of two paths on a kept top cycle: the witness pairing, the
    # walk over the commutator rows and the scaling map all read it
    n = next(n for n, (i, j, k, _) in enumerate(alg.products) if k in tops and min(i, j) >= len(q.vertices))
    bad_alg = with_sign(alg, n, bad)
    top_form = [1 if k in tops else 0 for k in range(alg.dim)]
    checks = (
        symmetric_forms,
        is_symmetric_oracle,
        check_algebra_axioms,
        lambda a: verify_scaling_map(a, psi.scales),
        lambda a: pairing_det(a, top_form),
    )
    for check in checks:
        with pytest.raises(AssertionError, match="not 1 or -1"):
            check(bad_alg)
    # the unmutated algebra passes every one of them
    assert psi.verified and verify_scaling_map(alg, psi.scales)
    assert is_symmetric_oracle(alg).kind == "symmetric"
    check_algebra_axioms(alg)
    assert pairing_det(alg, top_form) in alg.scalar[1:]


# ---------------------------------------------------------------------------
# the oracle makes no field operation

FIELD_OPS = ("from_int", "add", "sub", "mul", "neg", "inv", "div")


@pytest.fixture
def field_calls(monkeypatch):
    """Counts of the calls to every PrimeField and RationalField operation."""
    calls = collections.Counter()
    for cls in (PrimeField, RationalField):
        for name in FIELD_OPS:
            original = getattr(cls, name)

            def counted(self, *args, _original=original, _key=f"{cls.__name__}.{name}"):
                calls[_key] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
    return calls


def test_oracle_makes_no_field_operation(field_calls):
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES] + [circular(12)]
    quivers += [q for q, _, _ in seeded_quivers(5, 4)]
    algebras = []
    for q in quivers:
        eps = quotient_polarization(q, find_sigma_stable(q))
        for field in FIELDS:
            for m in (1, 2, 3):
                tw = build_quotient_algebra(q, field, m, eps)
                algebras += [tw, plain_quotient(tw)]
    kinds = set()
    for alg in algebras:
        field_calls.clear()
        forms = symmetric_forms(alg)
        paths = socle(alg)
        verdict = is_symmetric_oracle(alg)
        if verdict.kind == "symmetric":
            det = pairing_det(alg, sign_form(alg, verdict.witness_form))
            assert det in alg.scalar[1:]
        assert not field_calls, (alg.field.name, dict(field_calls))
        kinds.add((type(alg.field), verdict.kind))
        assert verdict.s_dim == len(forms) and paths
    assert {kind for _, kind in kinds} == {"symmetric", "not-symmetric"}
    assert {cls for cls, _ in kinds} == {PrimeField, RationalField}
    # the counter is live: the scaling map multiplies in the field
    for field in (GF3, QQ):
        alg = build_quotient_algebra(corpus_quiver("circ2"), field, 1)
        field_calls.clear()
        alg.path_products(alg.field, {a: field.one for a in alg.quiver.arrow_names})
        assert field_calls[f"{type(field).__name__}.mul"]


def test_products_carry_native_signs():
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in FIELDS:
            for twisted in (True, False):
                alg = build_quotient_algebra(q, field, 2, twisted=twisted)
                signs = {s for _, _, _, s in alg.products}
                assert all(type(s) is int for s in signs)
                expected = {1, -1} if twisted and field.char != 2 else {1}
                assert signs == expected
                assert alg.scalar == (field.zero, field.one, field.neg(field.one))
                assert plain_quotient(alg).products == [(i, j, k, 1) for i, j, k, _ in alg.products]
