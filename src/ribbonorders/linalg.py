"""Exact linear algebra over a Field: rref, rank, det, nullspace.

Matrices are lists of lists of field scalars; all routines are pure and
return fresh objects.  Gaussian elimination with exact division -- no
pivoting heuristics are needed since there is no rounding.

Elimination works on the support only: each routine updates rows in
place on its private copy, and only at the pivot row's nonzero columns
(all of them at or right of the pivot column), so the cost follows the
nonzero entries rather than the full row width.  Zero tests are truth
tests (see :mod:`ribbonorders.fields`).

The order-level checks use ``det`` and ``rank``; the quotient symmetry
oracle in :mod:`ribbonorders.fdalg` is closed-form and eliminates
nothing.  Its pairing and the order's theta(0) have one nonzero entry
per row and column, and ``signed_permutation_det`` is their determinant.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .fields import Field

Matrix = List[list]
Vector = list


def _eliminate(field: Field, row: list, factor, pivot_row: list, support: List[int]) -> None:
    """row -= factor * pivot_row, in place, over the pivot row's support."""
    f = field
    for j in support:
        row[j] = f.sub(row[j], f.mul(factor, pivot_row[j]))


def rref(field: Field, mat: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    f = field
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        prow = a[r]
        support = [j for j in range(c, cols) if prow[j]]
        inv = f.inv(prow[c])
        for j in support:
            prow[j] = f.mul(inv, prow[j])
        for i in range(rows):
            if i != r and a[i][c]:
                _eliminate(f, a[i], a[i][c], prow, support)
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
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return f.zero
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = f.neg(sign)
        prow = a[c]
        acc = f.mul(acc, prow[c])
        inv = f.inv(prow[c])
        support = [j for j in range(c, n) if prow[j]]
        for i in range(c + 1, n):
            if a[i][c]:
                _eliminate(f, a[i], f.mul(a[i][c], inv), prow, support)
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
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
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


def signed_permutation_det(field: Field, perm: List[int], entries: list):
    """det of an n x n matrix with one nonzero entry per row and column,
    placed by the permutation perm of range(n) (row s in column perm[s],
    or column s in row perm[s]: a permutation and its inverse have one
    sign): sign(perm) times the product of the entries."""
    f = field
    d = f.one
    for x in entries:
        d = f.mul(d, x)
    # sign(perm) = (-1)^(n - number of cycles)
    n = len(perm)
    seen = [False] * n
    parity = n
    for s in range(n):
        if not seen[s]:
            parity -= 1
            while not seen[s]:
                seen[s] = True
                s = perm[s]
    return f.neg(d) if parity % 2 else d
