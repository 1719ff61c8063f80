"""Reference implementations that only the tests use.

Each function here is a slower or more general way to compute something
the package computes another way, or a small helper over the package's
types that no library path needs: dense-table multiplication in a
quotient, the residue of any parent-order path, the socle quotient
comparison, the Frobenius form's closed form on paths, z-adic expansion
of canonical coordinates, the involution applied to an order element,
polarization queries, random field scalars, and k[t] evaluation and
printing.  The tests compare the package against them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from ribbonorders.fdalg import FdAlgebra, socle
from ribbonorders.fields import Field, PolyRing, PrimeField
from ribbonorders.order import (
    CanonicalBasis,
    OrderElement,
    add,
    element_power,
    multiply,
    path_element,
    scale,
    zero_element,
)
from ribbonorders.polarize import MINUS, PLUS, Involution, Polarization
from ribbonorders.quiver import GentleQuiver, Path

Sparse = Dict[int, object]


# ---------------------------------------------------------------------------
# quotient algebras


def unit(alg: FdAlgebra) -> Sparse:
    """The unit: the sum of the idempotents."""
    return {alg.index[lab]: alg.field.one for lab in alg.idempotent_labels}


def label_vector(alg: FdAlgebra, label: str) -> Sparse:
    """The basis element with this label, as a sparse element."""
    return {alg.index[label]: alg.field.one}


def reduce_path(alg: FdAlgebra, p: Path) -> Sparse:
    """Residue of a parent-order path in the normal-form basis."""
    if p.is_idempotent:
        return {alg.index[f"e({p.start})"]: alg.field.one}
    r = alg.residue(p.arrows[0], p.length)
    return {} if r is None else {r[0]: r[1]}


def mul(alg: FdAlgebra, u: Sparse, v: Sparse) -> Sparse:
    """The product of two sparse elements, read off the dim^2 table."""
    f = alg.field
    out: Sparse = {}
    for i, ci in u.items():
        row = alg.table[i]
        for j, cj in v.items():
            c = f.mul(ci, cj)
            for k, ck in row[j].items():
                s = f.add(out.get(k, f.zero), f.mul(c, ck))
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return out


def socle_is_top_span(alg: FdAlgebra) -> bool:
    """The socle should be exactly the span of the top cycle residues."""
    tops = sorted({alg.index[alg.top_label[v]] for v in alg.quiver.vertices})
    return socle(alg) == tops


def socle_quotient_tables_equal(a: FdAlgebra, b: FdAlgebra) -> bool:
    """Compare the two quotients after killing their socles.

    Both socles are spans of top cycle residues here, so the quotient
    products are the original ones with every product that has a top
    index (as a factor or as the result) dropped.  A future
    instance where the socles are not basis-aligned would need an honest
    Morita comparison instead; that case is detected and raised.
    """
    if a.basis != b.basis:
        return False
    if not (socle_is_top_span(a) and socle_is_top_span(b)):
        raise AssertionError("socle is not spanned by top cycles; table comparison invalid")
    tops = {a.index[a.top_label[v]] for v in a.quiver.vertices}

    def below_top(alg: FdAlgebra) -> Dict[Tuple[int, int, int], object]:
        return {(i, j, k): c for i, j, k, c in alg.products if tops.isdisjoint((i, j, k))}

    return below_top(a) == below_top(b)


# ---------------------------------------------------------------------------
# the order


def apply_involution(inv: Involution, x: OrderElement) -> OrderElement:
    """nu(x): each path scaled by its path sign."""
    f = x.field
    terms = {p: f.mul(inv.path_sign(p), c) for p, c in x.terms.items()}
    return OrderElement(x.quiver, f, {p: c for p, c in terms.items() if c})


def expand_coordinates(
    basis: CanonicalBasis, ring: PolyRing, coords: Mapping[str, tuple], z: OrderElement
) -> OrderElement:
    """Inverse of to_canonical_coordinates: multiply out the t-powers by z."""
    q = basis.quiver
    f = ring.field
    acc = zero_element(q, f)
    for label, poly in coords.items():
        base = path_element(q, f, basis.element(label).path)
        for r, c in enumerate(poly):
            if f.is_zero(c):
                continue
            acc = add(acc, scale(c, multiply(element_power(z, r), base)))
    return acc


def frobenius_closed_form(basis: CanonicalBasis, ring: PolyRing, p: Path) -> tuple:
    """Closed form on paths: full cycle powers c_a^r give eps_a * t^{r-1},
    everything else (including idempotents) gives zero."""
    q = basis.quiver
    f = ring.field
    if p.is_idempotent:
        return ring.zero
    a, length = q.first_arrow_form(p)
    n = q.cycle_length(a)
    r, m0 = divmod(length, n)
    if m0 != 0:
        return ring.zero
    sign = f.one if basis.eps.sign(a) == PLUS else f.neg(f.one)
    return ring.t_power(r - 1, sign)


# ---------------------------------------------------------------------------
# polarizations


def negative_arrow_at(eps: Polarization, q: GentleQuiver, vertex: str) -> str:
    a, b = q.arrows_out(vertex)
    return a if eps.signs[a] == MINUS else b


def is_sigma_stable(eps: Polarization, q: GentleQuiver) -> bool:
    return all(eps.signs[a] == eps.signs[q.sigma[a]] for a in q.arrow_names)


# ---------------------------------------------------------------------------
# fields and k[t]


def field_order(field: Field) -> Optional[int]:
    """Number of elements, or None for an infinite field."""
    return field.p if isinstance(field, PrimeField) else None


def random_scalar(field: Field, rng: random.Random, bound: int):
    """A random scalar; `bound` sizes the integer box for infinite fields."""
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return Fraction(rng.randint(-bound, bound))


def poly_eval(ring: PolyRing, p: tuple, x):
    """p(x), by Horner's rule."""
    f = ring.field
    acc = f.zero
    for c in reversed(p):
        acc = f.add(f.mul(acc, x), c)
    return acc


def poly_str(ring: PolyRing, p: tuple) -> str:
    if not p:
        return "0"
    f = ring.field
    parts = []
    for i, c in enumerate(p):
        if f.is_zero(c):
            continue
        if i == 0:
            parts.append(f.scalar_str(c))
        elif i == 1:
            parts.append("t" if c == f.one else f"{f.scalar_str(c)}*t")
        else:
            parts.append(f"t^{i}" if c == f.one else f"{f.scalar_str(c)}*t^{i}")
    return " + ".join(parts)
