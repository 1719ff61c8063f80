"""Twisted and plain Brauer graph algebra quotients, the symmetry oracle,
the descended involution, and the scaling isomorphism."""

import json
from fractions import Fraction
from math import gcd

from ribbonorders import (
    build_quotient_algebra,
    check_canonical_bimodule_twist,
    construct_psi_isomorphism,
    corpus_quiver,
    decide,
    enumerate_polarizations,
    find_sigma_stable,
    involution_of,
    is_symmetric_oracle,
    nakayama_involution_bar,
    quotient_polarization,
    socle,
)
from ribbonorders.fdalg import (
    bilinear_matrix,
    check_algebra_axioms,
    psi_matrix_diagonal,
    root_of_minus_one,
    symmetric_forms,
)
from ribbonorders.cli import main
from ribbonorders.fields import GF2, GF3, GF5, QQ, PrimeField
from ribbonorders.polarize import Polarization

from reference import label_vector, mul, reduce_path, socle_is_top_span, socle_quotient_tables_equal

CORPUS = [
    "loop2", "nodal", "line1", "line2", "line3", "line4",
    "triangle", "oneorbit", "mixed",
    "circ1", "circ2", "circ3", "circ4", "circ5", "circ6",
]

LOOP2_EPS = Polarization(signs={"a": "+", "b": "-"})


def test_loop2_twisted_anticommutes():
    q = corpus_quiver("loop2")
    alg = build_quotient_algebra(q, GF3, 1, LOOP2_EPS, twisted=True)
    assert alg.dim == 4
    assert set(alg.basis) == {"e(1)", "a:1", "a:2", "b:1"}
    ab = mul(alg, label_vector(alg, "a:1"), label_vector(alg, "b:1"))
    ba = mul(alg, label_vector(alg, "b:1"), label_vector(alg, "a:1"))
    assert ab == {alg.index["a:2"]: GF3.from_int(-1)}  # ab = -ba
    assert ba == {alg.index["a:2"]: GF3.one}


def test_loop2_plain_commutes():
    q = corpus_quiver("loop2")
    alg = build_quotient_algebra(q, GF3, 1, LOOP2_EPS, twisted=False)
    ab = mul(alg, label_vector(alg, "a:1"), label_vector(alg, "b:1"))
    ba = mul(alg, label_vector(alg, "b:1"), label_vector(alg, "a:1"))
    assert ab == ba


def test_dimension_formula_and_axioms():
    for name in CORPUS:
        q = corpus_quiver(name)
        eps = enumerate_polarizations(q)[0]
        for m in (1, 2, 3):
            tw = build_quotient_algebra(q, GF3, m, eps, twisted=True)
            pl = build_quotient_algebra(q, GF3, m, eps, twisted=False)
            want = sum(m * q.cycle_length(a) for a in q.arrow_names)
            assert tw.dim == want and pl.dim == want, name
    # full associativity and unit sweep (cubic in the dimension)
    for name in CORPUS:
        q = corpus_quiver(name)
        eps = enumerate_polarizations(q)[0]
        check_algebra_axioms(build_quotient_algebra(q, GF3, 1, eps, twisted=True))
    for name in ("loop2", "nodal", "triangle", "mixed", "circ3"):
        q = corpus_quiver(name)
        eps = enumerate_polarizations(q)[0]
        check_algebra_axioms(build_quotient_algebra(q, QQ, 2, eps, twisted=False))


def test_dimension_with_multiplicity_three():
    q = corpus_quiver("nodal")
    alg = build_quotient_algebra(q, QQ, 3, twisted=True)
    assert alg.dim == 6


def test_circular_anticommutation_relations():
    # (b_{j+1} a_{j+1})^m = -(a_j b_j)^m in the twisted quotient
    for n, m in [(3, 1), (4, 2)]:
        q = corpus_quiver(f"circ{n}")
        eps = enumerate_polarizations(q)[0]
        alg = build_quotient_algebra(q, QQ, m, eps, twisted=True)
        for j in range(1, n + 1):
            k = j % n + 1
            # cycle at vertex s(a_k): starts with a_k; cycle at the same
            # vertex starting with b_j is the other top cycle there
            lhs = reduce_path(alg, q.path_from(f"a{k}", 2 * m))
            rhs = reduce_path(alg, q.path_from(f"b{j}", 2 * m))
            assert lhs == {i: QQ.neg(c) for i, c in rhs.items()}, (n, m, j)


def test_non_admissible_flagged():
    alg = build_quotient_algebra(corpus_quiver("nodal"), QQ, 1, twisted=True)
    assert set(alg.non_admissible) == {"x", "y"}
    alg2 = build_quotient_algebra(corpus_quiver("nodal"), QQ, 2, twisted=True)
    assert alg2.non_admissible == ()


def test_nakayama_bar_loop2():
    q = corpus_quiver("loop2")
    alg = build_quotient_algebra(q, GF3, 1, LOOP2_EPS, twisted=True)
    bar = nakayama_involution_bar(alg, involution_of(q, LOOP2_EPS, GF3))
    assert bar.ok
    minus = GF3.from_int(-1)
    assert bar.signs["a:1"] == minus and bar.signs["b:1"] == minus
    assert bar.signs["a:2"] == GF3.one and bar.signs["e(1)"] == GF3.one


def test_nakayama_bar_identity_cases():
    # characteristic two
    q = corpus_quiver("triangle")
    eps = enumerate_polarizations(q)[0]
    alg = build_quotient_algebra(q, GF2, 1, eps, twisted=True)
    bar = nakayama_involution_bar(alg, involution_of(q, eps, GF2))
    assert bar.ok and all(s == GF2.one for s in bar.signs.values())
    # nodal involution is trivial over any field
    qn = corpus_quiver("nodal")
    epsn = Polarization(signs={"x": "+", "y": "-"})
    algn = build_quotient_algebra(qn, QQ, 1, epsn, twisted=True)
    barn = nakayama_involution_bar(algn, involution_of(qn, epsn, QQ))
    assert barn.ok and all(s == QQ.one for s in barn.signs.values())


def test_nakayama_bar_all_corpus():
    for name in CORPUS:
        q = corpus_quiver(name)
        eps = enumerate_polarizations(q)[0]
        for field in (GF2, GF3, GF5):
            alg = build_quotient_algebra(q, field, 1, eps, twisted=True)
            bar = nakayama_involution_bar(alg, involution_of(q, eps, field))
            assert bar.ok, (name, field.name)


def test_socle_examples():
    q = corpus_quiver("loop2")
    alg = build_quotient_algebra(q, GF3, 1, LOOP2_EPS, twisted=True)
    soc = [alg.dense({p: GF3.one}) for p in socle(alg)]
    assert len(soc) == 1
    nz = {alg.basis[i] for i, c in enumerate(soc[0]) if not GF3.is_zero(c)}
    assert nz == {"a:2"}  # spanned by ba

    qn = corpus_quiver("nodal")
    algn = build_quotient_algebra(qn, QQ, 1, Polarization(signs={"x": "+", "y": "-"}), twisted=True)
    socn = [algn.dense({p: QQ.one}) for p in socle(algn)]
    assert len(socn) == 1
    nzn = {algn.basis[i] for i, c in enumerate(socn[0]) if not QQ.is_zero(c)}
    assert nzn == {"x:1"}


def test_socle_is_top_span_everywhere():
    for name in CORPUS:
        q = corpus_quiver(name)
        eps = enumerate_polarizations(q)[0]
        for m in (1, 2):
            assert socle_is_top_span(build_quotient_algebra(q, GF3, m, eps, twisted=True)), (name, m)


def test_socle_quotient_tables_agree():
    for name in CORPUS:
        q = corpus_quiver(name)
        eps = enumerate_polarizations(q)[0]
        for field in (GF3, QQ):
            tw = build_quotient_algebra(q, field, 1, eps, twisted=True)
            pl = build_quotient_algebra(q, field, 1, eps, twisted=False)
            assert socle_quotient_tables_equal(tw, pl), (name, field.name)


def test_oracle_loop2():
    q = corpus_quiver("loop2")
    v3 = is_symmetric_oracle(build_quotient_algebra(q, GF3, 1, LOOP2_EPS, twisted=True))
    assert v3.kind == "not-symmetric"
    assert v3.certificate["reason"] == "socle"
    assert "a:2" in v3.certificate["element"]  # every symmetric form kills ba

    v2 = is_symmetric_oracle(build_quotient_algebra(q, GF2, 1, LOOP2_EPS, twisted=True))
    assert v2.kind == "symmetric" and v2.witness_form is not None


def test_oracle_decides_circ6_gf3_m2_default_polarization():
    # the top-cycle sum is not in S here; the S forms meeting the socle are
    alg = build_quotient_algebra(corpus_quiver("circ6"), GF3, 2, twisted=True)
    verdict = is_symmetric_oracle(alg)
    assert verdict.kind == "symmetric"
    assert verdict.trials == 1


def test_oracle_witness_is_checked():
    q = corpus_quiver("line3")
    alg = build_quotient_algebra(q, QQ, 1, twisted=False)
    v = is_symmetric_oracle(alg)
    assert v.kind == "symmetric"
    from ribbonorders import linalg

    assert not QQ.is_zero(linalg.det(QQ, bilinear_matrix(alg, v.witness_form)))
    # the witness really is a symmetric form
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = alg.table[i][j]
            ji = alg.table[j][i]
            lhs = sum((v.witness_form[k] * c for k, c in ij.items()), Fraction(0))
            rhs = sum((v.witness_form[k] * c for k, c in ji.items()), Fraction(0))
            assert lhs == rhs


def test_oracle_bga_symmetric_corpus():
    for name in CORPUS:
        q = corpus_quiver(name)
        for field in (GF2, GF3, GF5):
            verdict = is_symmetric_oracle(build_quotient_algebra(q, field, 1, twisted=False))
            assert verdict.kind == "symmetric", (name, field.name)


def test_symmetric_forms_space_is_commutator_annihilator():
    q = corpus_quiver("triangle")
    alg = build_quotient_algebra(q, GF5, 1, twisted=True)
    forms = [alg.dense(form) for form in symmetric_forms(alg)]
    for phi in forms:
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = GF5.zero
                for k, c in alg.table[i][j].items():
                    lhs = GF5.add(lhs, GF5.mul(c, phi[k]))
                rhs = GF5.zero
                for k, c in alg.table[j][i].items():
                    rhs = GF5.add(rhs, GF5.mul(c, phi[k]))
                assert lhs == rhs


def test_twist_check_loop2_gf5():
    q = corpus_quiver("loop2")
    alg = build_quotient_algebra(q, GF5, 1, LOOP2_EPS, twisted=True)
    bar = nakayama_involution_bar(alg, involution_of(q, LOOP2_EPS, GF5))
    rep = check_canonical_bimodule_twist(alg, bar)
    assert rep.ok and rep.pair_count == 16 and not GF5.is_zero(rep.det)


def test_twist_check_triangle_gf3_contrast():
    # the twisted pairing passes even though plain symmetry fails
    q = corpus_quiver("triangle")
    eps = enumerate_polarizations(q)[0]
    alg = build_quotient_algebra(q, GF3, 1, eps, twisted=True)
    bar = nakayama_involution_bar(alg, involution_of(q, eps, GF3))
    rep = check_canonical_bimodule_twist(alg, bar)
    assert rep.ok
    assert is_symmetric_oracle(alg).kind == "not-symmetric"


def test_twist_check_nodal_degenerates_to_symmetry():
    q = corpus_quiver("nodal")
    eps = Polarization(signs={"x": "+", "y": "-"})
    alg = build_quotient_algebra(q, QQ, 1, eps, twisted=True)
    bar = nakayama_involution_bar(alg, involution_of(q, eps, QQ))
    assert all(s == QQ.one for s in bar.signs.values())
    assert check_canonical_bimodule_twist(alg, bar).ok


def test_root_of_minus_one():
    assert root_of_minus_one(QQ, 1) == Fraction(-1)
    assert root_of_minus_one(QQ, 3) == Fraction(-1)
    assert root_of_minus_one(QQ, 2) is None
    assert root_of_minus_one(GF3, 1) == 2
    assert root_of_minus_one(GF3, 2) is None  # -1 = 2 is not a square mod 3
    assert root_of_minus_one(GF5, 2) in (2, 3)  # 2^2 = 4 = -1 mod 5
    assert root_of_minus_one(GF2, 7) == 1


def scan_roots_of_minus_one(p, m):
    """Every x in GF(p) with x^m = -1, by scanning the field."""
    return [x for x in range(1, p) if pow(x, m, p) == p - 1]


def test_root_of_minus_one_matches_the_scan():
    # a root exists iff (p - 1) / gcd(m, p - 1) is even, the closed form
    # finds one whenever it exists, and on the fields and multiplicities
    # the corpus and the benchmark use it is the scan's least root
    primes = [p for p in range(3, 60) if all(p % d for d in range(2, p))]
    for p in primes:
        field = PrimeField(p)
        for m in range(1, 2 * p + 2):
            roots = scan_roots_of_minus_one(p, m)
            assert bool(roots) == ((p - 1) // gcd(m, p - 1) % 2 == 0), (p, m)
            x = root_of_minus_one(field, m)
            if roots:
                assert x in roots, (p, m, x)
            else:
                assert x is None, (p, m)
            if p <= 11 and m <= 8:
                assert x == (roots[0] if roots else None), (p, m)


def refuse_scan(self):
    raise AssertionError("the field was scanned")


def test_root_of_minus_one_scans_no_field(monkeypatch):
    monkeypatch.setattr(PrimeField, "elements", refuse_scan)
    for p, m in ((1000000009, 2), (1000000009, 3), (1000000007, 3), (998244353, 8)):
        x = root_of_minus_one(PrimeField(p), m)
        assert pow(x, m, p) == p - 1, (p, m)
    assert root_of_minus_one(PrimeField(1000000007), 2) is None  # p = 3 mod 4
    assert root_of_minus_one(GF5, 2) == 2 and root_of_minus_one(GF3, 2) is None


def test_big_prime_decisions(monkeypatch, capsys):
    # x^2 = -1 has a root mod 1000000009 (p = 1 mod 4), whose least one
    # lies above 5 * 10^7, and none mod 1000000007 (p = 3 mod 4)
    monkeypatch.setattr(PrimeField, "elements", refuse_scan)
    for p, c5 in ((1000000009, "true"), (1000000007, "unknown")):
        assert main(["decide", "corpus:line2", "--field", f"gf{p}", "-m", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["consistency"] and report["conditions"]["c5"]["status"] == c5, p
    rep = decide(corpus_quiver("line2"), PrimeField(1000000009), 2)
    scales = rep.conditions["c5"].evidence["scales"]
    assert pow(int(scales["a1"]), 2, 1000000009) == 1000000008


def test_psi_line_quivers_alternating_signs():
    for n in (1, 2, 3, 4):
        q = corpus_quiver(f"line{n}")
        res = construct_psi_isomorphism(q, QQ, 1)
        assert res.kind == "isomorphism" and res.verified
        for j in range(1, n):
            assert res.scales[f"a{j}"] == Fraction((-1) ** j), (n, j)
            assert res.scales[f"b{j}"] == Fraction(1), (n, j)


def test_psi_char2_identity():
    for name in ("loop2", "triangle", "mixed"):
        res = construct_psi_isomorphism(corpus_quiver(name), GF2, 1)
        assert res.kind == "identity" and res.verified


def test_psi_not_bipartite_inapplicable():
    res = construct_psi_isomorphism(corpus_quiver("triangle"), QQ, 2)
    assert res.kind == "inapplicable"
    assert "bipartite" in res.reason
    assert len(res.witness["odd_walk"]) % 2 == 1


def test_psi_missing_root_inapplicable():
    # bipartite but GF(3) has no square root of -1
    res = construct_psi_isomorphism(corpus_quiver("line3"), GF3, 2)
    assert res.kind == "inapplicable"
    assert "x^2" in res.reason
    assert res.witness["multiplicity"] == 2
    # same instance over GF(5) works since 2^2 = -1
    res5 = construct_psi_isomorphism(corpus_quiver("line3"), GF5, 2)
    assert res5.kind == "isomorphism" and res5.verified


def test_psi_rational_even_multiplicity_inapplicable():
    res = construct_psi_isomorphism(corpus_quiver("line2"), QQ, 2)
    assert res.kind == "inapplicable" and "x^2" in res.reason


def test_psi_verified_on_bipartite_corpus_gf3():
    for name in ("nodal", "line2", "line3", "line4", "circ2", "circ4", "circ6"):
        res = construct_psi_isomorphism(corpus_quiver(name), GF3, 1)
        assert res.kind == "isomorphism" and res.verified, name


def twisted_quotient(q, field, m):
    """The twisted quotient construct_psi_isomorphism verifies its map on."""
    return build_quotient_algebra(q, field, m, quotient_polarization(q, find_sigma_stable(q)), twisted=True)


def test_psi_diagonal_scales_paths():
    q = corpus_quiver("line2")
    res = construct_psi_isomorphism(q, QQ, 1)
    tw = twisted_quotient(q, QQ, 1)
    diag = psi_matrix_diagonal(tw, res.scales)
    idx = {lab: i for i, lab in enumerate(tw.basis)}
    assert diag[idx["a1:1"]] == Fraction(-1)  # the scaled orbit representative
    assert diag[idx["b1:1"]] == Fraction(1)
    assert diag[idx["e(1)"]] == Fraction(1)
    # a length-two basis path picks up the product of its arrow scales
    q4 = corpus_quiver("circ4")
    res4 = construct_psi_isomorphism(q4, QQ, 1)
    assert res4.scales == {
        "a1": Fraction(-1), "a3": Fraction(-1),
        "a2": Fraction(1), "a4": Fraction(1),
        "b1": Fraction(1), "b2": Fraction(1), "b3": Fraction(1), "b4": Fraction(1),
    }
    tw4 = twisted_quotient(q4, QQ, 1)
    diag4 = psi_matrix_diagonal(tw4, res4.scales)
    idx4 = {lab: i for i, lab in enumerate(tw4.basis)}
    assert diag4[idx4["a2:2"]] == Fraction(1)  # arrows a2, b2 both unscaled
    assert diag4[idx4["a3:1"]] == Fraction(-1)


def test_quotient_default_polarization_consistency():
    # builder picks a default polarization deterministically
    alg1 = build_quotient_algebra(corpus_quiver("triangle"), GF3)
    alg2 = build_quotient_algebra(corpus_quiver("triangle"), GF3)
    assert alg1.basis == alg2.basis and alg1.table == alg2.table
