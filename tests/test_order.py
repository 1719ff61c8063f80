"""Order arithmetic: products, the canonical basis, coordinates, the
Frobenius form, its twisted symmetry, and the dual bimodule matrices."""

import random

import pytest

from ribbonorders import (
    canonical_basis,
    cartan_matrix,
    cartan_rank,
    cartan_report,
    central_element_z,
    check_nu_symmetry,
    corpus_quiver,
    enumerate_polarizations,
    involution_of,
    rank_formula_check,
    to_canonical_coordinates,
    verify_theta_psi,
)
from ribbonorders.fields import GF3, GF5, QQ, PolyRing
from ribbonorders.order import (
    _dense,
    add,
    arrow_element,
    elements_equal,
    frobenius_eval,
    idempotent_element,
    multiply,
    normalize_multiplicity,
    path_coordinates,
    path_element,
    scale,
    zero_element,
)
from ribbonorders.polarize import Polarization
from ribbonorders.quiver import QuiverError

from reference import apply_involution, expand_coordinates, frobenius_closed_form, negative_arrow_at

CORPUS = [
    "loop2", "nodal", "line1", "line2", "line3", "line4",
    "triangle", "oneorbit", "mixed",
    "circ1", "circ2", "circ3", "circ4", "circ5", "circ6",
]

LOOP2_EPS = Polarization(signs={"a": "+", "b": "-"})
NODAL_EPS = Polarization(signs={"x": "+", "y": "-"})


def test_multiply_loop2():
    q = corpus_quiver("loop2")
    a = arrow_element(q, QQ, "a")
    b = arrow_element(q, QQ, "b")
    assert multiply(a, a).is_zero()  # a^2 = 0
    ba = multiply(b, a)
    assert not ba.is_zero()
    assert list(ba.terms) == [q.path_from("a", 2)]


def test_multiply_nodal():
    q = corpus_quiver("nodal")
    x = arrow_element(q, QQ, "x")
    y = arrow_element(q, QQ, "y")
    assert multiply(y, x).is_zero()
    xx = multiply(x, x)
    assert list(xx.terms) == [q.path_from("x", 2)]


def test_multiply_rejects_mismatched_quivers():
    with pytest.raises(QuiverError):
        multiply(
            arrow_element(corpus_quiver("loop2"), QQ, "a"),
            arrow_element(corpus_quiver("nodal"), QQ, "x"),
        )


def test_multiply_associative_on_random_sparse_elements():
    rng = random.Random(7)
    for name in ("triangle", "mixed"):
        q = corpus_quiver(name)
        arrows = list(q.arrow_names)

        def random_element():
            el = zero_element(q, QQ)
            for _ in range(rng.randint(1, 3)):
                a = rng.choice(arrows)
                p = q.path_from(a, rng.randint(0, 2 * q.cycle_length(a)))
                el = add(el, scale(QQ.from_int(rng.randint(-3, 3)), path_element(q, QQ, p)))
            return el

        for _ in range(25):
            x, y, z = random_element(), random_element(), random_element()
            assert elements_equal(multiply(multiply(x, y), z), multiply(x, multiply(y, z)))


def test_central_element_examples():
    q = corpus_quiver("loop2")
    z1 = central_element_z(q, QQ, 1)
    assert sorted(p.label() for p in z1.terms) == ["a*b", "b*a"]
    z2 = central_element_z(q, QQ, 2)
    assert sorted(p.label() for p in z2.terms) == ["a*b*a*b", "b*a*b*a"]

    zn = central_element_z(corpus_quiver("nodal"), QQ, 1)
    assert sorted(p.label() for p in zn.terms) == ["x", "y"]


def test_central_element_commutes_on_every_corpus_quiver():
    for name in CORPUS:
        central_element_z(corpus_quiver(name), GF3, 1)  # raises on failure
    central_element_z(corpus_quiver("mixed"), QQ, {"x": 2, "a": 1, "c": 3, "e": 1})


def test_canonical_basis_examples():
    q = corpus_quiver("loop2")
    basis = canonical_basis(q, LOOP2_EPS)
    assert basis.labels() == ["e(1)", "x(1)", "a:1", "b:1"]
    assert basis.element("x(1)").path == q.path_from("a", 2)  # x_1 = ba

    nodal = canonical_basis(corpus_quiver("nodal"), NODAL_EPS)
    assert nodal.labels() == ["e(1)", "x(1)"]

    tri = corpus_quiver("triangle")
    assert len(canonical_basis(tri, enumerate_polarizations(tri)[0])) == 12


def test_rank_formula():
    assert rank_formula_check(corpus_quiver("loop2"), 1).total_rank == 4
    assert rank_formula_check(corpus_quiver("loop2"), 2).total_rank == 8
    assert rank_formula_check(corpus_quiver("oneorbit"), 1).total_rank == 36
    for name in CORPUS:
        rep = rank_formula_check(corpus_quiver(name), 1)
        assert rep.matches_basis, name


def test_multiplicity_normalization():
    q = corpus_quiver("mixed")
    mm = normalize_multiplicity(q, {"y": 2})  # y lies in the orbit of a
    assert mm == {"a": 2, "c": 1, "e": 1, "x": 1}
    with pytest.raises(QuiverError):
        normalize_multiplicity(q, {"a": 2, "y": 3})  # same orbit twice
    with pytest.raises(QuiverError):
        normalize_multiplicity(q, 0)


def test_coordinates_loop2_cycle_power():
    q = corpus_quiver("loop2")
    basis = canonical_basis(q, LOOP2_EPS)
    ring = PolyRing(QQ)
    # abab = c_b^2 rewrites to t(t e_1 - x_1)
    coords = path_coordinates(basis, ring, q.path_from("b", 4))
    assert coords == {"e(1)": ring.t_power(2), "x(1)": ring.t_power(1, QQ.from_int(-1))}


def test_coordinates_nodal_power():
    q = corpus_quiver("nodal")
    basis = canonical_basis(q, NODAL_EPS)
    ring = PolyRing(QQ)
    assert path_coordinates(basis, ring, q.path_from("x", 3)) == {"x(1)": ring.t_power(2)}
    assert path_coordinates(basis, ring, q.idempotent("1")) == {"e(1)": ring.one}


def test_coordinates_roundtrip():
    ring = PolyRing(QQ)
    for name in ("loop2", "nodal", "triangle", "mixed"):
        q = corpus_quiver(name)
        eps = enumerate_polarizations(q)[0]
        basis = canonical_basis(q, eps)
        z = central_element_z(q, QQ, 1)
        for a in q.arrow_names:
            for m in range(0, 3 * q.cycle_length(a) + 1):
                p = q.path_from(a, m) if m else q.idempotent(q.source(a))
                el = path_element(q, QQ, p)
                coords = to_canonical_coordinates(basis, ring, el)
                assert elements_equal(expand_coordinates(basis, ring, coords, z), el)


def test_frobenius_canonical_values_everywhere():
    ring_cache = {}
    for name in CORPUS:
        q = corpus_quiver(name)
        for field in (QQ, GF3):
            ring = ring_cache.setdefault(field.name, PolyRing(field))
            eps = enumerate_polarizations(q)[0]
            basis = canonical_basis(q, eps)
            for v in q.vertices:
                pos = eps.positive_arrow_at(q, v)
                neg = negative_arrow_at(eps, q, v)
                x_i = path_element(q, field, q.path_from(pos, q.cycle_length(pos)))
                y_i = path_element(q, field, q.path_from(neg, q.cycle_length(neg)))
                assert frobenius_eval(basis, ring, x_i) == ring.one
                assert frobenius_eval(basis, ring, y_i) == ring.constant(field.neg(field.one))
                assert frobenius_eval(basis, ring, multiply(x_i, x_i)) == ring.t_power(1)
                e_i = idempotent_element(q, field, v)
                assert frobenius_eval(basis, ring, e_i) == ring.zero


def test_frobenius_closed_form_matches_coordinates():
    ring = PolyRing(QQ)
    for name in ("loop2", "nodal", "triangle", "oneorbit", "mixed"):
        q = corpus_quiver(name)
        eps = enumerate_polarizations(q)[0]
        basis = canonical_basis(q, eps)
        for a in q.arrow_names:
            for m in range(1, 3 * q.cycle_length(a) + 1):
                p = q.path_from(a, m)
                via_coords = frobenius_eval(basis, ring, path_element(q, QQ, p))
                assert frobenius_closed_form(basis, ring, p) == via_coords


def test_frobenius_loop2_abab():
    q = corpus_quiver("loop2")
    basis = canonical_basis(q, LOOP2_EPS)
    ring = PolyRing(QQ)
    val = frobenius_eval(basis, ring, path_element(q, QQ, q.path_from("b", 4)))
    assert val == ring.t_power(1, QQ.from_int(-1))  # phi(abab) = -t


def test_nu_symmetry_nonzero_pairs_nodal():
    rep = check_nu_symmetry(corpus_quiver("nodal"), NODAL_EPS, QQ)
    assert rep.ok and rep.pairs_match
    assert rep.nonzero_pairs == [("e(1)", "x(1)"), ("x(1)", "e(1)"), ("x(1)", "x(1)")]


def test_nu_symmetry_nonzero_pairs_loop2():
    rep = check_nu_symmetry(corpus_quiver("loop2"), LOOP2_EPS, GF3)
    assert rep.ok and rep.pairs_match and rep.pair_count == 16
    assert ("b:1", "a:1") in rep.nonzero_pairs  # the split-cycle pair for a
    assert ("a:1", "b:1") in rep.nonzero_pairs


def test_nu_symmetry_all_corpus_all_polarizations():
    for name in CORPUS:
        q = corpus_quiver(name)
        for field in (GF3, QQ):
            for eps in enumerate_polarizations(q):
                rep = check_nu_symmetry(q, eps, field)
                assert rep.ok and rep.pairs_match, (name, field.name, eps.signs)


def test_theta_matrix_nodal():
    ring = PolyRing(QQ)
    rep = verify_theta_psi(corpus_quiver("nodal"), NODAL_EPS, QQ)
    assert rep.ok
    # in basis (e, x) against its dual: theta = [[0, 1], [1, t]]
    assert _dense(ring, rep.theta) == [[ring.zero, ring.one], [ring.one, ring.t_power(1)]]
    assert rep.det_theta_constant == QQ.from_int(-1)


def test_theta_psi_loop2_gf5():
    rep = verify_theta_psi(corpus_quiver("loop2"), LOOP2_EPS, GF5)
    assert rep.ok and rep.size == 4
    assert rep.theta_psi_identity and rep.psi_theta_identity
    assert rep.bimodule_ok
    assert not GF5.is_zero(rep.det_theta_constant)


def test_theta_psi_all_corpus():
    for name in CORPUS:
        q = corpus_quiver(name)
        eps = enumerate_polarizations(q)[0]
        for field in (GF3, QQ):
            rep = verify_theta_psi(q, eps, field)
            assert rep.ok, (name, field.name)
            # a unit of k[t] up to sign: the constant is plus or minus one
            assert rep.det_theta_constant in (field.one, field.neg(field.one))


def test_theta_matrix_matches_its_defining_property():
    # independent route: the column of u must be the functional
    # r -> phi(r u), computed straight from products and the form
    from ribbonorders.order import theta_matrix

    for name in ("loop2", "nodal", "triangle", "mixed"):
        q = corpus_quiver(name)
        eps = enumerate_polarizations(q)[0]
        basis = canonical_basis(q, eps)
        ring = PolyRing(QQ)
        theta = theta_matrix(basis, ring)
        elems = [path_element(q, QQ, b.path) for b in basis.elements]
        for col, u in enumerate(elems):
            for row, r in enumerate(elems):
                expected = frobenius_eval(basis, ring, multiply(r, u))
                assert theta[row][col] == expected, (name, row, col)


def test_theta_psi_loop2_bimodule_generator_action():
    # nu(a) = -a, so theta(1 * a) = -theta(a); exercised inside the
    # generator sweep, which would report this pair on failure
    rep = verify_theta_psi(corpus_quiver("loop2"), LOOP2_EPS, QQ)
    assert rep.bimodule_counterexamples == []


def test_cartan_matrices():
    assert cartan_matrix(corpus_quiver("nodal")) == [[2]]
    assert cartan_matrix(corpus_quiver("loop2")) == [[4]]
    assert cartan_matrix(corpus_quiver("triangle")) == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert cartan_matrix(corpus_quiver("mixed")) == [
        [2, 1, 0, 1, 0],
        [1, 2, 2, 1, 1],
        [0, 2, 4, 0, 2],
        [1, 1, 0, 2, 1],
        [0, 1, 2, 1, 2],
    ]


def test_cartan_rank_criterion():
    rep = cartan_report(corpus_quiver("nodal"))
    assert rep.rank == 1 and rep.rank_criterion_value == 1 and rep.rank_criterion_matches
    rep = cartan_report(corpus_quiver("loop2"))
    assert rep.rank == 1 and rep.rank_criterion_value == 0 and not rep.rank_criterion_matches
    rep = cartan_report(corpus_quiver("triangle"))
    assert rep.rank == 3 and rep.rank_criterion_value == 2 and not rep.rank_criterion_matches


def test_cartan_independent_of_polarization():
    q = corpus_quiver("mixed")
    mats = {tuple(map(tuple, cartan_matrix(q, eps))) for eps in enumerate_polarizations(q)}
    assert len(mats) == 1


def test_cartan_rank_exact():
    assert cartan_rank([[2, 2], [2, 2]]) == 1
    assert cartan_rank([[0]]) == 0


def test_cartan_entries_sum_to_rank():
    for name in CORPUS:
        q = corpus_quiver(name)
        mat = cartan_matrix(q)
        assert all(x >= 0 for row in mat for x in row)
        assert sum(sum(row) for row in mat) == rank_formula_check(q, 1).total_rank


def test_involution_fixes_central_element():
    for name in ("loop2", "triangle", "mixed"):
        q = corpus_quiver(name)
        for eps in enumerate_polarizations(q)[:4]:
            inv = involution_of(q, eps, QQ)
            z = central_element_z(q, QQ, 1)
            assert elements_equal(apply_involution(inv, z), z)
