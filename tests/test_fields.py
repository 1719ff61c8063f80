"""Exact field arithmetic, polynomials and the dense linear algebra kit."""

import math
import time
from fractions import Fraction

import pytest

from ribbonorders import linalg
from ribbonorders.fields import (
    GF2,
    GF3,
    GF5,
    MR_BOUND,
    QQ,
    FieldSpecError,
    PolyRing,
    PrimeField,
    is_prime,
    parse_field,
)

from reference import field_order, poly_eval, poly_str


def test_prime_field_arithmetic():
    f = GF5
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.neg(1) == 4
    assert list(f.elements()) == [0, 1, 2, 3, 4]
    assert field_order(f) == 5 and f.char == 5


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_is_exact():
    assert [n for n in range(10 ** 4) if is_prime(n)] == [n for n in range(10 ** 4) if trial_division(n)]
    # a Carmichael number, a strong pseudoprime to the bases 2, 3, 5 and 7,
    # and 2^67 - 1 = 193707721 * 761838257287
    for n in (561, 3215031751, 2 ** 67 - 1):
        assert not is_prime(n)
        with pytest.raises(FieldSpecError, match="is not prime"):
            parse_field(f"gf{n}")
    assert is_prime(2 ** 61 - 1) and parse_field(f"gf{2 ** 61 - 1}").char == 2 ** 61 - 1


def test_large_prime_field_is_accepted_fast():
    start = time.perf_counter()
    assert parse_field("gf1000000000000037").char == 1000000000000037
    assert time.perf_counter() - start < 1.0  # trial division took seconds


def test_primality_bound_is_named():
    # MR_BOUND itself is a strong pseudoprime to all 13 bases
    for n in (MR_BOUND, MR_BOUND + 2, 10 ** 30 + 57):
        with pytest.raises(FieldSpecError, match=str(MR_BOUND)):
            parse_field(f"gf{n}")
    with pytest.raises(ValueError):
        PrimeField(MR_BOUND)


def test_rationals():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 7)) == Fraction(7, 2)
    assert QQ.char == 0 and field_order(QQ) is None


def test_parse_field():
    assert parse_field("gf2") is not None and parse_field("gf2").char == 2
    assert parse_field("Q") == QQ
    assert parse_field("GF7").char == 7
    with pytest.raises(ValueError):
        parse_field("gf6")
    with pytest.raises(ValueError):
        parse_field("reals")
    assert parse_field(" gf3 ").char == parse_field("GF 3").char == 3


@pytest.mark.parametrize("spec", ["gf\u0663", "gf\uff13", "gf+3", "gf1_3", "gf-3", "gf"])
def test_parse_field_takes_ascii_digits_only(spec):
    with pytest.raises(FieldSpecError, match="ASCII digits"):
        parse_field(spec)


def test_poly_ring_basics():
    r = PolyRing(QQ)
    t = r.t_power(1)
    p = r.add(r.one, t)  # 1 + t
    assert r.mul(p, p) == r.trim([Fraction(1), Fraction(2), Fraction(1)])
    assert poly_eval(r, r.mul(p, p), Fraction(2)) == Fraction(9)
    assert r.sub(p, p) == r.zero
    assert poly_str(r, r.t_power(2, Fraction(-1))) == "-1*t^2"


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
