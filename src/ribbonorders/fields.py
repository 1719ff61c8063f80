"""Exact scalar arithmetic: prime fields GF(p), the rationals, and k[t].

Scalars are plain Python objects (``int`` residues for GF(p),
``fractions.Fraction`` for the rationals); a ``Field`` instance supplies
the operations.  Polynomials in t are tuples of scalars with no trailing
zeros, so ``()`` is the zero polynomial and equality is plain ``==``.
No floating point anywhere.

``zero`` and ``one`` are fixed attributes, built once per field (``0``
and ``1`` on GF(p), ``Fraction(0)`` and ``Fraction(1)`` on Q), so no
operation allocates a constant.  Every scalar an operation returns is a
reduced residue in ``range(p)`` or a ``Fraction``, so ``is_zero(a)`` is
the truth test ``not a``; the exact kernel (``linalg``, ``fdalg``) writes
that test inline in its loops.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator


class Field:
    """Base class for an exact field.  Subclasses fix the scalar type and
    the constants ``zero`` and ``one``."""

    name: str
    char: int
    zero: object
    one: object

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return not a

    def elements(self) -> Iterator:
        raise ValueError(f"field {self.name} is not finite")

    def scalar_str(self, a) -> str:
        return str(a)

    def __repr__(self) -> str:
        return self.name


class PrimeField(Field):
    """GF(p) for a prime p; scalars are ints in range(p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))


class RationalField(Field):
    """The rationals; scalars are fractions.Fraction."""

    name = "Q"
    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def inv(self, a: Fraction) -> Fraction:
        return 1 / a

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")


QQ = RationalField()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)

_FIELD_ALIASES = {"q": QQ, "qq": QQ, "rationals": QQ}


class FieldSpecError(ValueError):
    """A field spec string that names no supported field."""


def parse_field(spec: str) -> Field:
    """Resolve a field spec string: 'gf2', 'gf3', 'gf5', 'gf7', ..., or 'Q'."""
    key = spec.strip().lower()
    if key in _FIELD_ALIASES:
        return _FIELD_ALIASES[key]
    if key.startswith("gf"):
        try:
            return PrimeField(int(key[2:]))
        except ValueError as exc:
            raise FieldSpecError(f"bad field spec {spec!r}: {exc}") from None
    raise FieldSpecError(f"unknown field spec {spec!r} (try gf2, gf3, gf5 or Q)")


class PolyRing:
    """Polynomials in one variable t over a fixed field, as trimmed tuples.

    Index i of the tuple is the coefficient of t**i.  All operations
    return trimmed tuples so equality and hashing are structural.
    """

    def __init__(self, field: Field):
        self.field = field

    def trim(self, coeffs) -> tuple:
        coeffs = list(coeffs)
        while coeffs and self.field.is_zero(coeffs[-1]):
            coeffs.pop()
        return tuple(coeffs)

    @property
    def zero(self) -> tuple:
        return ()

    @property
    def one(self) -> tuple:
        return (self.field.one,)

    def constant(self, scalar) -> tuple:
        return self.trim([scalar])

    def t_power(self, r: int, scalar=None) -> tuple:
        """scalar * t**r (scalar defaults to 1)."""
        if scalar is None:
            scalar = self.field.one
        if self.field.is_zero(scalar):
            return ()
        return tuple([self.field.zero] * r + [scalar])

    def add(self, p: tuple, q: tuple) -> tuple:
        f = self.field
        n = max(len(p), len(q))
        out = []
        for i in range(n):
            a = p[i] if i < len(p) else f.zero
            b = q[i] if i < len(q) else f.zero
            out.append(f.add(a, b))
        return self.trim(out)

    def neg(self, p: tuple) -> tuple:
        return tuple(self.field.neg(c) for c in p)

    def sub(self, p: tuple, q: tuple) -> tuple:
        return self.add(p, self.neg(q))

    def scale(self, scalar, p: tuple) -> tuple:
        if self.field.is_zero(scalar):
            return ()
        return self.trim([self.field.mul(scalar, c) for c in p])

    def mul(self, p: tuple, q: tuple) -> tuple:
        if not p or not q:
            return ()
        f = self.field
        out = [f.zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if f.is_zero(a):
                continue
            for j, b in enumerate(q):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return self.trim(out)
