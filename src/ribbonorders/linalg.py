"""Exact dense linear algebra over a Field: rref, rank, det, nullspace.

Matrices are lists of lists of field scalars; all routines are pure and
return fresh objects.  Gaussian elimination with exact division -- no
pivoting heuristics are needed since there is no rounding.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .fields import Field

Matrix = List[list]
Vector = list


def zeros(field: Field, rows: int, cols: int) -> Matrix:
    return [[field.zero] * cols for _ in range(rows)]


def identity(field: Field, n: int) -> Matrix:
    mat = zeros(field, n, n)
    for i in range(n):
        mat[i][i] = field.one
    return mat


def mat_mul(field: Field, a: Matrix, b: Matrix) -> Matrix:
    f = field
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(f, n, m)
    for i in range(n):
        row = a[i]
        for s in range(k):
            c = row[s]
            if f.is_zero(c):
                continue
            brow = b[s]
            orow = out[i]
            for j in range(m):
                orow[j] = f.add(orow[j], f.mul(c, brow[j]))
    return out


def rref(field: Field, mat: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    f = field
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not f.is_zero(a[i][c])), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, x) for x in a[r]]
        for i in range(rows):
            if i != r and not f.is_zero(a[i][c]):
                factor = a[i][c]
                a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(field: Field, mat: Matrix) -> int:
    if not mat:
        return 0
    return len(rref(field, mat)[1])


def det(field: Field, mat: Matrix):
    f = field
    n = len(mat)
    a = [row[:] for row in mat]
    sign = f.one
    acc = f.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if not f.is_zero(a[i][c])), None)
        if pivot is None:
            return f.zero
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = f.neg(sign)
        acc = f.mul(acc, a[c][c])
        inv = f.inv(a[c][c])
        for i in range(c + 1, n):
            if f.is_zero(a[i][c]):
                continue
            factor = f.mul(a[i][c], inv)
            a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[c])]
    return f.mul(sign, acc)


def nullspace(field: Field, mat: Matrix, cols: Optional[int] = None) -> List[Vector]:
    """Basis of the right kernel {v : mat @ v = 0}."""
    f = field
    if not mat:
        if cols is None:
            return []
        return [unit_vector(f, cols, i) for i in range(cols)]
    cols = len(mat[0])
    red, pivots = rref(f, mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [f.zero] * cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red[r][fc])
        basis.append(v)
    return basis


def unit_vector(field: Field, n: int, i: int) -> Vector:
    v = [field.zero] * n
    v[i] = field.one
    return v


def row_space_basis(field: Field, mat: Matrix) -> List[Vector]:
    red, pivots = rref(field, mat)
    return [red[i] for i in range(len(pivots))]


def in_row_space(field: Field, basis_rref: List[Vector], v: Vector) -> bool:
    """Membership test against a basis already in rref form."""
    f = field
    v = v[:]
    for row in basis_rref:
        lead = next((j for j, x in enumerate(row) if not f.is_zero(x)), None)
        if lead is None:
            continue
        if not f.is_zero(v[lead]):
            factor = f.div(v[lead], row[lead])
            v = [f.sub(x, f.mul(factor, y)) for x, y in zip(v, row)]
    return all(f.is_zero(x) for x in v)


def solve(field: Field, mat: Matrix, rhs: Vector) -> Optional[Vector]:
    """One solution of mat @ x = rhs, or None if inconsistent."""
    f = field
    if not mat:
        return [] if all(f.is_zero(x) for x in rhs) else None
    cols = len(mat[0])
    aug = [row[:] + [b] for row, b in zip(mat, rhs)]
    red, pivots = rref(f, aug)
    if cols in pivots:
        return None
    x = [f.zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def inverse(field: Field, mat: Matrix) -> Optional[Matrix]:
    f = field
    n = len(mat)
    aug = [row[:] + unit_vector(f, n, i) for i, row in enumerate(mat)]
    red, pivots = rref(f, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]
