"""Exact linear algebra over a Field: rref, rank, det, nullspace.

Matrices are lists of lists of field scalars; all routines are pure and
return fresh objects.  Gaussian elimination with exact division -- no
pivoting heuristics are needed since there is no rounding.

Elimination works on the support only: each routine updates rows in
place on its private copy, and only at the pivot row's nonzero columns
(all of them at or right of the pivot column), so the cost follows the
nonzero entries rather than the full row width.  Zero tests are truth
tests (see :mod:`ribbonorders.fields`).

Only one routine runs in the package: ``sign_det``, the determinant of
a matrix with one nonzero entry, 1 or -1, per row and column, on native
ints.  The quotient symmetry oracle in :mod:`ribbonorders.fdalg` and the
order-level checks are closed-form and eliminate nothing: the oracle's
pairing and the order's theta(0) are such matrices, and their
determinant is a sign, mapped into the field at the end.  The Cartan
rank is read off the ribbon graph's components
(:func:`order.cartan_report`).  ``rref``, ``rank``, ``det`` and
``nullspace`` are kept as the tests' dense references (``rank`` through
:func:`order.cartan_rank`), and ``det`` and ``nullspace`` as targets of
the benchmark's traced spans.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

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
        return [[f.one if j == i else f.zero for j in range(cols)] for i in range(cols)]
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


def sign_det(n: int, entries: Iterable[Tuple[int, int, int]]) -> int:
    """det of an n x n matrix given by its nonzero entries (row, column,
    value), at most one per row and per column, each the native int 1 or
    -1, as the int 0, 1 or -1.

    Such a matrix is zero (a row with no entry) or a permutation matrix
    times a diagonal of signs, so its determinant is sign(perm) times the
    parity of the -1 entries, with no field arithmetic; sign(perm) =
    (-1)^(n - number of cycles).  The caller maps the result into its
    field, exactly, as Z -> k is a ring map.  Raises AssertionError on an
    entry other than 1 or -1, and on a row or a column with two nonzero
    entries."""
    perm = [-1] * n  # row -> column
    taken = [False] * n
    negative = 0
    for r, c, x in entries:
        if perm[r] >= 0 or taken[c]:
            raise AssertionError(f"matrix has two nonzero entries in row {r} or column {c}")
        if x != 1 and x != -1:
            raise AssertionError("a matrix entry is not 1 or -1")
        perm[r] = c
        taken[c] = True
        negative += x == -1
    if -1 in perm:  # a row with no entry
        return 0
    seen = [False] * n
    parity = n + negative
    for s in range(n):
        if not seen[s]:
            parity -= 1
            while not seen[s]:
                seen[s] = True
                s = perm[s]
    return -1 if parity % 2 else 1
