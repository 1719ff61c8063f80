"""The exact kernel against naive dense references.

The socle, the symmetric-form space S, the socle certificate and the
bilinear matrices are computed from the nonzero table cells only, and
elimination touches only the pivot row's support.  Each is compared here
with a dense reference built inside the test: products come from
``alg.mul`` over all basis pairs, and elimination updates every entry of
every row.  Field constants are fixed attributes, so a decision never
builds one from an integer.
"""

import random
from fractions import Fraction

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    build_quotient_algebra,
    corpus_quiver,
    decide,
    quiver_from_ribbon_graph,
)
from ribbonorders import linalg
from ribbonorders.fdalg import _socle_certificate, bilinear_matrix, socle, symmetric_forms
from ribbonorders.fields import GF2, GF3, GF5, QQ, PrimeField, RationalField

from test_random_instances import random_ribbon_graph

# ---------------------------------------------------------------------------
# naive dense references


def naive_rref(f, mat):
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != f.zero), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, x) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != f.zero:
                factor = a[i][c]
                a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def naive_det(f, mat):
    n = len(mat)
    a = [row[:] for row in mat]
    acc = f.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != f.zero), None)
        if pivot is None:
            return f.zero
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            acc = f.neg(acc)
        acc = f.mul(acc, a[c][c])
        inv = f.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c] == f.zero:
                continue
            factor = f.mul(a[i][c], inv)
            a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[c])]
    return acc


def naive_nullspace(f, mat, cols):
    if not mat:
        return [[f.one if i == j else f.zero for i in range(cols)] for j in range(cols)]
    red, pivots = naive_rref(f, mat)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [f.zero] * cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red[r][fc])
        basis.append(v)
    return basis


class DenseReference:
    """Socle, S, certificate and bilinear matrices from alg.mul alone."""

    def __init__(self, alg):
        self.alg = alg
        self.f = alg.field
        n = alg.dim
        self.units = [{i: self.f.one} for i in range(n)]
        self.products = [[alg.mul(self.units[i], self.units[j]) for j in range(n)] for i in range(n)]
        self.prod = [[self.dense(p) for p in row] for row in self.products]
        self.soc = self._socle()

    def dense(self, u):
        vec = [self.f.zero] * self.alg.dim
        for i, c in u.items():
            vec[i] = c
        return vec

    def mul(self, u, v):
        """u * v for dense vectors, summed over all basis pairs."""
        f = self.f
        out = [f.zero] * self.alg.dim
        u_terms = [(i, x) for i, x in enumerate(u) if x != f.zero]
        v_terms = [(j, y) for j, y in enumerate(v) if y != f.zero]
        for i, ui in u_terms:
            for j, vj in v_terms:
                c = f.mul(ui, vj)
                out = [f.add(x, f.mul(c, y)) for x, y in zip(out, self.prod[i][j])]
        return out

    def dot(self, phi, v):
        acc = self.f.zero
        for x, y in zip(phi, v):
            acc = self.f.add(acc, self.f.mul(x, y))
        return acc

    def _socle(self):
        alg, f, n = self.alg, self.f, self.alg.dim
        rows = []
        for a in alg.quiver.arrow_names:
            g = self.dense(alg.arrow_residue(a))
            for left in (True, False):
                images = [self.mul(g, self.dense(u)) if left else self.mul(self.dense(u), g) for u in self.units]
                for i in range(n):
                    row = [images[j][i] for j in range(n)]
                    if any(x != f.zero for x in row):
                        rows.append(row)
        return naive_nullspace(f, rows, n)

    def symmetric_forms(self):
        f, n = self.f, self.alg.dim
        rows = set()
        for i in range(n):
            for j in range(i + 1, n):
                row = tuple(f.sub(x, y) for x, y in zip(self.prod[i][j], self.prod[j][i]))
                if any(x != f.zero for x in row):
                    rows.add(row)
        return naive_nullspace(f, sorted(rows), n)

    def socle_certificate(self, s_basis):
        alg, f = self.alg, self.f
        soc = self.soc
        if not soc:
            return None
        idempotents = [self.dense(alg.label_vector(lab)) for lab in alg.idempotent_labels]
        rows = [[self.dot(phi, self.mul(s, e)) for s in soc] for phi in s_basis for e in idempotents]
        kernel = naive_nullspace(f, rows, len(soc))
        if not kernel:
            return None
        element = [f.zero] * alg.dim
        for a, s in zip(kernel[0], soc):
            element = [f.add(x, f.mul(a, y)) for x, y in zip(element, s)]
        labels = {alg.basis[i]: f.scalar_str(c) for i, c in enumerate(element) if c != f.zero}
        return {"reason": "socle", "element": labels}

    def bilinear_matrix(self, phi):
        f = self.f
        mat = []
        for row in self.products:
            out = []
            for p in row:
                acc = f.zero
                for k, c in p.items():
                    acc = f.add(acc, f.mul(phi[k], c))
                out.append(acc)
            mat.append(out)
        return mat


def assert_scalars(f, vectors):
    scalar = Fraction if isinstance(f, RationalField) else int
    for v in vectors:
        assert all(type(x) is scalar for x in v)


def check_kernel_against_reference(alg, rng):
    f = alg.field
    ref = DenseReference(alg)
    soc = [alg.dense({p: f.one}) for p in socle(alg)]
    assert soc == ref.soc
    assert_scalars(f, soc)
    forms = symmetric_forms(alg)
    s_basis = [alg.dense(form) for form in forms]
    assert s_basis == ref.symmetric_forms()
    assert_scalars(f, s_basis)
    cert = _socle_certificate(alg, forms)
    expected = ref.socle_certificate(s_basis)
    assert cert == expected
    if cert is not None:
        assert list(cert["element"]) == list(expected["element"])  # same label order
    combo = [f.zero] * alg.dim
    for row in s_basis:
        c = f.random_scalar(rng, 3)
        combo = [f.add(x, f.mul(c, y)) for x, y in zip(combo, row)]
    for phi in s_basis[:1] + s_basis[-1:] + [combo]:
        mat = bilinear_matrix(alg, phi)
        assert mat == ref.bilinear_matrix(phi)
        assert_scalars(f, mat)
        assert linalg.det(f, mat) == naive_det(f, mat)


# ---------------------------------------------------------------------------
# differential tests of the sparse socle/S pipeline


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_kernel_matches_dense_reference(name):
    q = corpus_quiver(name)
    rng = random.Random(name)
    for field in (GF2, GF3, GF5, QQ):
        for m in (1, 2):
            check_kernel_against_reference(build_quotient_algebra(q, field, m), rng)


def test_random_kernel_matches_dense_reference():
    rng = random.Random(2024)
    for _ in range(12):
        q = quiver_from_ribbon_graph(random_ribbon_graph(rng, max_edges=4))
        for field in (GF3, QQ):
            for twisted in (True, False):
                check_kernel_against_reference(build_quotient_algebra(q, field, twisted=twisted), rng)


# ---------------------------------------------------------------------------
# support-only elimination


def sparse_random_matrix(rng, f, rows, cols, density):
    return [
        [f.random_scalar(rng, 4) if rng.random() < density else f.zero for _ in range(cols)]
        for _ in range(rows)
    ]


@pytest.mark.parametrize("field", [GF3, QQ], ids=["GF3", "Q"])
def test_elimination_matches_dense_reference(field):
    rng = random.Random(17)
    for _ in range(150):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        mat = sparse_random_matrix(rng, field, rows, cols, rng.choice((0.15, 0.3, 0.6)))
        before = [row[:] for row in mat]
        red, pivots = linalg.rref(field, mat)
        assert (red, pivots) == naive_rref(field, mat)
        assert_scalars(field, red)
        assert linalg.nullspace(field, mat) == naive_nullspace(field, mat, cols)
        assert linalg.rank(field, mat) == len(pivots)
        square = sparse_random_matrix(rng, field, rows, rows, rng.choice((0.2, 0.4, 0.8)))
        assert linalg.det(field, square) == naive_det(field, square)
        assert mat == before  # inputs are never modified


# ---------------------------------------------------------------------------
# field constants


def test_field_constants_are_fixed_attributes():
    assert type(QQ.zero) is Fraction and type(QQ.one) is Fraction
    assert QQ.zero == 0 and QQ.one == 1
    assert QQ.zero is QQ.zero
    for f in (GF2, GF3, GF5, PrimeField(7)):
        assert type(f.zero) is int and type(f.one) is int
        assert (f.zero, f.one) == (0, 1)
    for f in (GF3, QQ):
        assert f.is_zero(f.zero) and not f.is_zero(f.one)
        assert f.is_zero(f.sub(f.one, f.one)) and not f.is_zero(f.neg(f.one))


def test_decide_never_builds_constants(monkeypatch):
    def refuse(self, n):
        raise AssertionError("a field constant was built from an integer")

    monkeypatch.setattr(PrimeField, "from_int", refuse)
    monkeypatch.setattr(RationalField, "from_int", refuse)
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in (GF2, GF3, GF5, QQ):
            assert decide(q, field, 1).consistency_ok
