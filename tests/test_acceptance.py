"""Acceptance suite: the ten exit criteria, exact tolerances throughout.

Each criterion is one test that prints a PASS line on success (run with
`pytest tests/test_acceptance.py -v -s`); a pytest failure is the FAIL
line.  Everything here is exact arithmetic -- there are no tolerances to
tune, and randomized oracle runs must still end in certified verdicts.
"""

from fractions import Fraction

from ribbonorders import (
    CORPUS_NAMES,
    batch,
    build_quotient_algebra,
    canonical_basis,
    cartan_report,
    check_canonical_bimodule_twist,
    check_nu_symmetry,
    construct_psi_isomorphism,
    corpus_quiver,
    decide,
    enumerate_polarizations,
    graph_of_quiver,
    idempotent_subquiver,
    involution_of,
    is_symmetric_oracle,
    nakayama_involution_bar,
    quiver_from_ribbon_graph,
    quiver_isomorphism,
    rank_formula_check,
    ribbon_isomorphic,
    verify_theta_psi,
)
from ribbonorders.fields import GF2, GF3, GF5, QQ, PolyRing
from ribbonorders.order import frobenius_eval, idempotent_element, multiply, path_element
from ribbonorders.polarize import Polarization

from reference import negative_arrow_at

BIPARTITE = {"nodal", "line1", "line2", "line3", "line4", "circ2", "circ4", "circ6"}


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_basis_and_rank():
    q = corpus_quiver("loop2")
    basis = canonical_basis(q, Polarization(signs={"a": "+", "b": "-"}))
    labels = {label: path.label() for label, path in basis.paths.items()}
    assert labels == {"e(1)": "e_1", "x(1)": "b*a", "a:1": "a", "b:1": "b"}
    assert len(basis) == 4 and rank_formula_check(q, 1).total_rank == 4
    for name in CORPUS_NAMES:
        rep = rank_formula_check(corpus_quiver(name), 1)
        assert rep.matches_basis, name
    _ok(1, "loop2 basis is {1, ba, a, b} with rank 4; rank formula = |B| on all corpus instances")


def test_criterion_02_frobenius_values_and_pair_list():
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        eps = next(enumerate_polarizations(q))
        basis = canonical_basis(q, eps)
        for field in (QQ, GF3):
            ring = PolyRing(field)
            for v in q.vertices:
                pos = eps.positive_arrow_at(q, v)
                neg = negative_arrow_at(eps, q, v)
                x_i = path_element(q, field, q.path_from(pos, q.cycle_length(pos)))
                y_i = path_element(q, field, q.path_from(neg, q.cycle_length(neg)))
                assert frobenius_eval(basis, ring, x_i) == ring.one, (name, v)
                assert frobenius_eval(basis, ring, y_i) == ring.constant(field.neg(field.one))
                assert frobenius_eval(basis, ring, multiply(x_i, x_i)) == ring.t_power(1)
                assert frobenius_eval(basis, ring, idempotent_element(q, field, v)) == ring.zero
        rep = check_nu_symmetry(q, eps, QQ)
        assert rep.pairs_match, name
    _ok(2, "phi(x_i)=1, phi(y_i)=-1, phi(x_i^2)=t and the exact nonzero-pair list on all corpus instances")


def test_criterion_03_nu_symmetry_all_polarizations():
    checked = 0
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for eps in enumerate_polarizations(q):
            for field in (GF3, QQ):
                rep = check_nu_symmetry(q, eps, field)
                assert rep.ok and rep.pairs_match, (name, field.name)
                checked += rep.pair_count
    _ok(3, f"phi(qp) = phi(nu(p)q) on {checked} ordered basis pairs (all corpus instances, all polarizations, GF(3) and Q)")


def test_criterion_04_theta_psi_identity_and_bimodule():
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        eps = next(enumerate_polarizations(q))
        for field in (GF3, QQ):
            rep = verify_theta_psi(q, eps, field)
            assert rep.theta_psi_identity and rep.psi_theta_identity, (name, field.name)
            assert rep.bimodule_ok, (name, field.name)
            assert not field.is_zero(rep.det_theta_constant)
    _ok(4, "theta psi = psi theta = identity over k[t] and theta is a twisted bimodule map on all generators")


def test_criterion_05_quotient_involution_and_twisted_form():
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        eps = next(enumerate_polarizations(q))
        for field in (GF2, GF3, GF5):
            alg = build_quotient_algebra(q, field, 1, eps, twisted=True)
            bar = nakayama_involution_bar(alg, involution_of(q, eps, field))
            assert bar.ok and bar.involutive and bar.fixes_idempotents, (name, field.name)
            twist = check_canonical_bimodule_twist(alg, bar)
            assert twist.twisted_symmetry and twist.nondegenerate, (name, field.name)
    _ok(5, "nu-bar is a verified involution fixing idempotents and phi-bar is nu-bar-symmetric with nondegenerate pairing (corpus x GF(2,3,5))")


def test_criterion_06_decision_grid():
    instances = [(name, corpus_quiver(name)) for name in CORPUS_NAMES]
    result = batch(instances, [GF2, GF3, GF5, QQ], [1, 2])
    assert result.consistent, result.violations

    for rep in result.reports:
        status = rep.conditions["c2"].status
        assert status in ("true", "false"), (
            "oracle verdict must be certified on the corpus grid",
            rep.instance,
            rep.field_name,
        )
        char2 = rep.field_name == "GF(2)"
        bipartite = rep.instance in BIPARTITE
        want = "true" if (bipartite or char2) else "false"
        assert status == want, (rep.instance, rep.field_name, rep.multiplicity)
        if rep.instance == "loop2":
            assert status == ("true" if char2 else "false")
        if rep.instance.startswith("circ"):
            n = int(rep.instance[4:])
            assert status == ("true" if (n % 2 == 0 or char2) else "false")
    _ok(6, f"{len(result.reports)} decisions (corpus x four fields x m in {{1,2}}): zero lattice violations, loop2/circular parity and bipartite symmetry all as predicted")


def test_criterion_07_psi_on_line_quivers():
    for n in (1, 2, 3, 4):
        q = corpus_quiver(f"line{n}")
        res = construct_psi_isomorphism(q, QQ, 1)
        assert res.kind == "isomorphism" and res.verified, n
        for j in range(1, n):
            assert res.scales[f"a{j}"] == Fraction((-1) ** j), (n, j)
            assert res.scales[f"b{j}"] == Fraction(1), (n, j)
    _ok(7, "psi: a_j -> (-1)^j a_j, b_j -> b_j on line quivers n=1..4 over Q, verified on the full tables")


def test_criterion_08_triangle_multiplicity_two_counterexample():
    q = corpus_quiver("triangle")
    eps = next(enumerate_polarizations(q))
    v_tw = is_symmetric_oracle(build_quotient_algebra(q, QQ, 2, eps, twisted=True))
    v_pl = is_symmetric_oracle(build_quotient_algebra(q, QQ, 2, eps, twisted=False))
    assert v_tw.kind == "not-symmetric" and v_tw.certificate["reason"] == "socle"
    assert v_pl.kind == "symmetric"
    rep = decide(q, QQ, 2, instance="triangle")
    assert rep.conditions["c5"].status == "false"
    _ok(8, "triangle, m=2, Q: twisted quotient certified non-symmetric, Brauer graph algebra symmetric, hence not isomorphic")


def test_criterion_09_cartan_rank_criterion():
    rep = cartan_report(corpus_quiver("nodal"))
    assert rep.rank == 1 and rep.rank_criterion_value == 1
    rep = cartan_report(corpus_quiver("loop2"))
    assert rep.rank == 1 and rep.rank_criterion_value == 0
    rep = cartan_report(corpus_quiver("triangle"))
    assert rep.rank == 3 and rep.rank_criterion_value == 2
    for name in CORPUS_NAMES:
        rep = cartan_report(corpus_quiver(name))
        assert rep.rank_criterion_matches == (name in BIPARTITE), name
    _ok(9, "rank(C) = |G_0| - c exactly on the bipartite corpus instances and fails exactly on the others")


def test_criterion_10_roundtrips_and_subquiver():
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        g = graph_of_quiver(q)
        q2 = quiver_from_ribbon_graph(g)
        assert quiver_isomorphism(q, q2) is not None, name
        assert ribbon_isomorphic(g, graph_of_quiver(q2)), name
    sub = idempotent_subquiver(corpus_quiver("mixed"), ["2", "4", "5"])
    assert quiver_isomorphism(sub.quiver, corpus_quiver("triangle")) is not None
    _ok(10, "ribbon graph <-> quiver roundtrips on all corpus instances; the mixed quiver's inner triangle is the doubled triangle")
