"""Exact field arithmetic, polynomials and the dense linear algebra kit."""

from fractions import Fraction

import pytest

from ribbonorders import linalg
from ribbonorders.fields import GF2, GF3, GF5, QQ, PolyRing, PrimeField, parse_field


def test_prime_field_arithmetic():
    f = GF5
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.neg(1) == 4
    assert list(f.elements()) == [0, 1, 2, 3, 4]
    assert f.order() == 5 and f.char == 5


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_rationals():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 7)) == Fraction(7, 2)
    assert QQ.char == 0 and QQ.order() is None


def test_parse_field():
    assert parse_field("gf2") is not None and parse_field("gf2").char == 2
    assert parse_field("Q") == QQ
    assert parse_field("GF7").char == 7
    with pytest.raises(ValueError):
        parse_field("gf6")
    with pytest.raises(ValueError):
        parse_field("reals")


def test_poly_ring_basics():
    r = PolyRing(QQ)
    t = r.t_power(1)
    p = r.add(r.one, t)  # 1 + t
    assert r.mul(p, p) == r.trim([Fraction(1), Fraction(2), Fraction(1)])
    assert r.eval(r.mul(p, p), Fraction(2)) == Fraction(9)
    assert r.sub(p, p) == r.zero
    assert r.to_str(r.t_power(2, Fraction(-1))) == "-1*t^2"


def test_poly_ring_mod_p():
    r = PolyRing(GF2)
    p = r.add(r.one, r.t_power(1))
    assert r.mul(p, p) == r.trim([1, 0, 1])  # (1+t)^2 = 1 + t^2 over GF(2)


def test_rref_and_rank():
    rows = [[Fraction(x) for x in row] for row in [[1, 2, 3], [2, 4, 6], [1, 0, 1]]]
    assert linalg.rank(QQ, rows) == 2
    red, pivots = linalg.rref(QQ, rows)
    assert pivots == [0, 1]


def test_det():
    rows = [[Fraction(x) for x in row] for row in [[2, 1], [1, 2]]]
    assert linalg.det(QQ, rows) == Fraction(3)
    rows = [[GF3.from_int(x) for x in row] for row in [[2, 1], [1, 2]]]
    assert linalg.det(GF3, rows) == 0  # 3 = 0 mod 3


def test_nullspace():
    rows = [[Fraction(x) for x in r] for r in [[1, 1, 0], [0, 0, 1]]]
    basis = linalg.nullspace(QQ, rows)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] and v[2] == 0


def test_gf2_elimination():
    rows = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert linalg.rank(GF2, rows) == 2
    ns = linalg.nullspace(GF2, rows)
    assert len(ns) == 1 and ns[0] == [1, 1, 1]
