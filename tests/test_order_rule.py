"""The order-level checks on the sigma-rule against dense references.

``check_nu_symmetry`` and ``verify_theta_psi`` evaluate only the nonzero
products of basis paths.  The references below are the dense versions
they replaced: they multiply every basis pair (and, for the bimodule
sweep, every basis element against every (u, g) pair) through
``OrderElement`` arithmetic and ``GentleQuiver.compose``.  The reports
must agree field for field, counterexample lists included, in order, on
valid inputs and on inputs corrupted so that the checks fail: a flipped
involution sign, a stray theta entry that makes theta(u) g nonzero
where u nu(g) = 0, a theta entry 1 + t with two terms, and a stray entry
whose terms cancel over GF(2) only.
"""

import dataclasses
import random
import sys
from itertools import islice
from pathlib import Path

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    check_nu_symmetry,
    corpus_quiver,
    enumerate_polarizations,
    linalg,
    order,
    verify_theta_psi,
)
from ribbonorders.corpus import circular
from ribbonorders.fields import GF2, GF3, GF5, QQ, PolyRing
from ribbonorders.order import (
    CanonicalBasis,
    NuSymmetryReport,
    ThetaPsiReport,
    arrow_element,
    canonical_basis,
    cartan_matrix,
    frobenius_eval,
    idempotent_element,
    multiply,
    path_element,
    to_canonical_coordinates,
)
from ribbonorders.polarize import PLUS, Involution
from ribbonorders.quiver import GentleQuiver

from reference import apply_involution, path_sign, poly_eval
from test_sign_kernel import field_calls  # noqa: F401  (a fixture)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)
from workloads import ORDER_PROFILES  # noqa: E402

FIELDS = (GF2, GF3, GF5, QQ)
MAX_POLARIZATIONS = 8  # per corpus quiver: the theta/psi reference is cubic


# ---------------------------------------------------------------------------
# dense references


def basis_elements(basis):
    """(kind, label, Path) per basis index, kind "e", "x" or "a" as the
    label reads."""
    kinds = {"e(": "e", "x(": "x"}
    return [(kinds.get(lab[:2], "a"), lab, path) for lab, path in basis.paths.items()]


def reference_expected_pairs(basis):
    q = basis.quiver
    pairs = []
    for v in q.vertices:
        pairs.extend([(f"x({v})", f"x({v})"), (f"x({v})", f"e({v})"), (f"e({v})", f"x({v})")])
    for a in sorted(q.arrow_names):
        n = q.cycle_length(a)
        for m in range(1, n):
            b = q.sigma_power(a, m)
            pairs.append((f"{b}:{n - m}", f"{a}:{m}"))
    return sorted(set(pairs))


def reference_nu_symmetry(q, eps, field):
    """phi(q p) against phi(nu(p) q) on every ordered basis pair."""
    basis = canonical_basis(q, eps)
    ring = PolyRing(field)
    inv = order.involution_of(q, eps, field)
    elems = [path_element(q, field, p) for p in basis.paths.values()]
    labels = basis.labels()
    counterexamples = []
    nonzero = []
    for i, qe in enumerate(elems):
        for j, pe in enumerate(elems):
            lhs = frobenius_eval(basis, ring, multiply(qe, pe))
            rhs = frobenius_eval(basis, ring, multiply(apply_involution(inv, pe), qe))
            if lhs != rhs:
                counterexamples.append((labels[i], labels[j]))
            if lhs != ring.zero:
                nonzero.append((labels[i], labels[j]))
    nonzero = sorted(set(nonzero))
    expected = reference_expected_pairs(basis)
    return NuSymmetryReport(
        ok=not counterexamples,
        pair_count=len(elems) ** 2,
        counterexamples=counterexamples,
        nonzero_pairs=nonzero,
        expected_pairs=expected,
        pairs_match=nonzero == expected,
    )


def _deriv_label(q, a, m):
    n = q.cycle_length(a)
    return f"{q.sigma_power(a, m)}:{n - m}"


def reference_theta(basis, ring):
    q = basis.quiver
    f = ring.field
    n = len(basis)
    mat = [[ring.zero] * n for _ in range(n)]
    for col, (kind, _, path) in enumerate(basis_elements(basis)):
        if kind == "e":
            mat[basis.index[f"x({path.start})"]][col] = ring.one
        elif kind == "x":
            v = path.start
            mat[basis.index[f"e({v})"]][col] = ring.one
            mat[basis.index[f"x({v})"]][col] = ring.t_power(1)
        else:
            a, m = q.first_arrow_form(path)
            sign = f.one if basis.eps.sign(a) == PLUS else f.neg(f.one)
            mat[basis.index[_deriv_label(q, a, m)]][col] = ring.constant(sign)
    return mat


def reference_psi(basis, ring):
    q = basis.quiver
    f = ring.field
    n = len(basis)
    mat = [[ring.zero] * n for _ in range(n)]
    for col, (kind, _, path) in enumerate(basis_elements(basis)):
        if kind == "x":
            mat[basis.index[f"e({path.start})"]][col] = ring.one
        elif kind == "e":
            v = path.start
            mat[basis.index[f"x({v})"]][col] = ring.one
            mat[basis.index[f"e({v})"]][col] = ring.t_power(1, f.neg(f.one))
        else:
            a, m = q.first_arrow_form(path)
            sign = f.one if basis.eps.sign(q.sigma_power(a, m)) == PLUS else f.neg(f.one)
            mat[basis.index[_deriv_label(q, a, m)]][col] = ring.constant(sign)
    return mat


def _poly_mat_mul(ring, a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[ring.zero] * m for _ in range(n)]
    for i in range(n):
        for s in range(k):
            c = a[i][s]
            if not c:
                continue
            for j in range(m):
                if b[s][j]:
                    out[i][j] = ring.add(out[i][j], ring.mul(c, b[s][j]))
    return out


def reference_theta_psi(q, eps, field, theta_of=reference_theta):
    """Dense products of theta and psi, a dense determinant, and the
    bimodule identity on every (u, g) pair, every basis element r.

    This is the dense code the rule replaced, except that the products
    g r, which do not depend on u, are computed once per (g, r) and not
    once per (u, g, r)."""
    basis = canonical_basis(q, eps)
    ring = PolyRing(field)
    inv = order.involution_of(q, eps, field)
    n = len(basis)
    theta = theta_of(basis, ring)
    psi = reference_psi(basis, ring)
    ident = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    tp = _poly_mat_mul(ring, theta, psi) == ident
    pt = _poly_mat_mul(ring, psi, theta) == ident
    det_const = None
    if tp and pt:
        theta0 = [[poly_eval(ring, entry, field.zero) for entry in row] for row in theta]
        det_const = linalg.det(field, theta0)

    bad = []
    gens = [(f"e({v})", idempotent_element(q, field, v)) for v in q.vertices]
    gens += [(a, arrow_element(q, field, a)) for a in sorted(q.arrow_names)]
    basis_elems = [path_element(q, field, p) for p in basis.paths.values()]
    # the coordinates of g r do not depend on u: computed once per (g, r)
    g_times_r = {
        gname: [to_canonical_coordinates(basis, ring, multiply(g, r)) for r in basis_elems]
        for gname, g in gens
    }
    for col, u in enumerate(basis_elems):
        theta_u = [theta[row][col] for row in range(n)]
        for gname, g in gens:
            lhs_coords = to_canonical_coordinates(basis, ring, multiply(u, apply_involution(inv, g)))
            lhs = [ring.zero] * n
            for label, poly in lhs_coords.items():
                c = basis.index[label]
                for row in range(n):
                    if theta[row][c]:
                        lhs[row] = ring.add(lhs[row], ring.mul(poly, theta[row][c]))
            rhs = []
            for gr in g_times_r[gname]:
                acc = ring.zero
                for label, poly in gr.items():
                    acc = ring.add(acc, ring.mul(poly, theta_u[basis.index[label]]))
                rhs.append(acc)
            if lhs != rhs:
                bad.append(f"theta(u * nu(g)) != theta(u).g for u={basis.basis[col]}, g={gname}")
    return ThetaPsiReport(
        ok=tp and pt and not bad,
        size=n,
        theta=theta,
        psi=psi,
        theta_psi_identity=tp,
        psi_theta_identity=pt,
        det_theta_constant=det_const,
        bimodule_ok=not bad,
        bimodule_counterexamples=bad,
    )


def densified(tp, field):
    """The report with theta and psi as the dense matrices the reference keeps."""
    ring = PolyRing(field)
    return dataclasses.replace(tp, theta=order._dense(ring, tp.theta), psi=order._dense(ring, tp.psi))


def assert_same(q, eps, field):
    basis, inv = canonical_basis(q, eps), order.involution_of(q, eps, field)
    signs = [order._integral(path_sign(inv, p)) for p in basis.paths.values()]
    assert order._nu_signs(basis, inv) == signs
    nu = check_nu_symmetry(q, eps, field)
    assert dataclasses.asdict(nu) == dataclasses.asdict(reference_nu_symmetry(q, eps, field))
    tp = verify_theta_psi(q, eps, field)
    assert dataclasses.asdict(densified(tp, field)) == dataclasses.asdict(reference_theta_psi(q, eps, field))
    return nu


# ---------------------------------------------------------------------------
# the rule against the references


def sampled_polarizations(q):
    """Every polarization, or a seeded sample of MAX_POLARIZATIONS of them."""
    pols = list(enumerate_polarizations(q))
    if len(pols) <= MAX_POLARIZATIONS:
        return pols
    return random.Random(len(pols)).sample(pols, MAX_POLARIZATIONS)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_matches_reference(name):
    q = corpus_quiver(name)
    for eps in sampled_polarizations(q):
        for field in FIELDS:
            rep = assert_same(q, eps, field)
            assert rep.ok and rep.pairs_match


def test_random_matches_reference():
    rng = random.Random(20261018)
    for k in range(24):
        q = gen.random_quiver(rng, ORDER_PROFILES[k % len(ORDER_PROFILES)])
        eps = gen.random_polarization(rng, q)
        assert_same(q, eps, FIELDS[k % len(FIELDS)])


def flipped_involution(real):
    """involution_of with the sign of the least arrow negated."""

    def corrupted(q, eps, field):
        inv = real(q, eps, field)
        signs = dict(inv.signs)
        a = min(signs)
        signs[a] = field.neg(signs[a])
        return Involution(quiver=q, field=field, signs=signs)

    return corrupted


@pytest.mark.parametrize("name", ["loop2", "triangle", "mixed", "circ3", "line4"])
def test_corrupted_involution_same_counterexamples(name, monkeypatch):
    monkeypatch.setattr(order, "involution_of", flipped_involution(order.involution_of))
    q = corpus_quiver(name)
    eps = list(enumerate_polarizations(q))[-1]
    for field in (GF3, QQ):
        nu = check_nu_symmetry(q, eps, field)
        tp = verify_theta_psi(q, eps, field)
        ref_nu = reference_nu_symmetry(q, eps, field)
        ref_tp = reference_theta_psi(q, eps, field)
        assert nu.counterexamples and tp.bimodule_counterexamples
        assert dataclasses.asdict(nu) == dataclasses.asdict(ref_nu)
        assert dataclasses.asdict(densified(tp, field)) == dataclasses.asdict(ref_tp)


def _stray_entry(basis):
    """(row, column) of a stray theta entry: column e(v) of the first
    vertex, row the first split-cycle path a:1."""
    row = next(k for k, (kind, _, _) in enumerate(basis_elements(basis)) if kind == "a")
    return row, basis.index[f"e({basis.quiver.vertices[0]})"]


def corrupt_theta(monkeypatch, place, coefficients):
    """Put the polynomial with these integer coefficients into theta at
    place(basis) = (row, column): in the checks as int terms, in place of
    the row's terms, and in the dense reference as a k[t] entry; returns
    the reference's theta builder."""
    real_columns = order._theta_psi_columns

    def corrupted_columns(basis):
        theta, psi = real_columns(basis)
        row, col = place(basis)
        terms = [(row, d, c) for d, c in enumerate(coefficients) if c]
        theta[col] = [term for term in theta[col] if term[0] != row] + terms
        return theta, psi

    def corrupted_dense(basis, ring):
        mat = reference_theta(basis, ring)
        row, col = place(basis)
        mat[row][col] = ring.trim([ring.field.from_int(c) for c in coefficients])
        return mat

    monkeypatch.setattr(order, "_theta_psi_columns", corrupted_columns)
    return corrupted_dense


def assert_corrupted_theta_matches(q, eps, field, theta_of):
    tp = verify_theta_psi(q, eps, field)
    ref = reference_theta_psi(q, eps, field, theta_of=theta_of)
    assert not tp.theta_psi_identity and tp.det_theta_constant is None
    assert tp.bimodule_counterexamples
    assert dataclasses.asdict(densified(tp, field)) == dataclasses.asdict(ref)
    return tp


@pytest.mark.parametrize("name", ["triangle", "mixed", "circ3", "line4"])
def test_corrupted_theta_same_counterexamples(name, monkeypatch):
    # a stray entry in theta makes theta(u) g nonzero for generators g
    # with u nu(g) = 0, so the sweep must also compare those
    theta_of = corrupt_theta(monkeypatch, _stray_entry, (1,))
    q = corpus_quiver(name)
    eps = next(enumerate_polarizations(q))
    for field in (GF2, QQ):
        assert_corrupted_theta_matches(q, eps, field, theta_of)


@pytest.mark.parametrize("name", ["triangle", "circ3"])
@pytest.mark.parametrize("kind", ["e", "x"])
def test_corrupted_theta_not_monomial(name, kind, monkeypatch):
    # 1 + t replaces theta's entry 1 (row e(v)) or t (row x(v)) in column
    # x(v): a reader that kept one term of it would see a valid theta
    def place(basis):
        v = basis.quiver.vertices[0]
        return basis.index[f"{kind}({v})"], basis.index[f"x({v})"]

    theta_of = corrupt_theta(monkeypatch, place, (1, 1))
    q = corpus_quiver(name)
    eps = next(enumerate_polarizations(q))
    for field in FIELDS:
        assert_corrupted_theta_matches(q, eps, field, theta_of)


def test_corrupted_theta_terms_cancel_in_gf2(monkeypatch):
    # with a stray 1 at (b:1, e(1)) of loop2, two terms of a compared
    # vector meet at one row and degree: 1 + 1 = 0 over GF(2)
    theta_of = corrupt_theta(monkeypatch, lambda basis: (basis.index["b:1"], basis.index["e(1)"]), (1,))
    q = corpus_quiver("loop2")
    eps = next(enumerate_polarizations(q))
    tp = assert_corrupted_theta_matches(q, eps, GF2, theta_of)
    # compared over Z instead of GF(2), one more pair would differ
    monkeypatch.setattr(order, "_nonzero", lambda field, acc: any(acc.values()))
    over_z = verify_theta_psi(q, eps, GF2).bimodule_counterexamples
    assert set(tp.bimodule_counterexamples) < set(over_z)


def reference_cartan(q):
    """Entry (j, i) counts the basis paths from vertex i to j, read off
    each basis element's Path."""
    basis = canonical_basis(q, order.default_polarization(q))
    mat = [[0] * len(q.vertices) for _ in q.vertices]
    for p in basis.paths.values():
        mat[q.position(q.path_end(p))][q.position(p.start)] += 1
    return mat


def test_cartan_matches_reference():
    rng = random.Random(6)
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES]
    quivers += [gen.random_quiver(rng, ORDER_PROFILES[k % len(ORDER_PROFILES)]) for k in range(30)]
    for q in quivers:
        assert cartan_matrix(q) == reference_cartan(q)


def test_products_match_compose():
    rng = random.Random(5)
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES]
    quivers += [gen.random_quiver(rng, v) for v in ORDER_PROFILES]
    for q in quivers:
        basis = canonical_basis(q, order.default_polarization(q))
        products = {
            (i, j): prod for i, walk in enumerate(basis.walks) for j, prod in basis.left_multiples(*walk)
        }
        paths = list(basis.paths.values())
        for i, pi in enumerate(paths):
            for j, pj in enumerate(paths):
                prod = q.compose(pi, pj)
                if prod is None:
                    assert (i, j) not in products
                    continue
                start, a, length = products[(i, j)]
                assert prod == (q.idempotent(start) if a is None else q.path_from(a, length))


# ---------------------------------------------------------------------------
# structure


def _forbidden(*args, **kwargs):
    raise AssertionError("the order checks must not compose paths or do k[t] tuple arithmetic")


def test_checks_never_compose(monkeypatch):
    # both checks read products off the sigma-rule and add and multiply
    # sparse terms, never PolyRing tuples
    monkeypatch.setattr(GentleQuiver, "compose", _forbidden)
    monkeypatch.setattr(order, "multiply", _forbidden)
    monkeypatch.setattr(order, "to_canonical_coordinates", _forbidden)
    for name in ("add", "mul", "scale"):
        monkeypatch.setattr(PolyRing, name, _forbidden)
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for eps in islice(enumerate_polarizations(q), 2):
            for field in FIELDS:
                nu = check_nu_symmetry(q, eps, field)
                assert nu.ok and nu.pairs_match
                tp = verify_theta_psi(q, eps, field)
                assert tp.ok and tp.det_theta_constant in (field.one, field.neg(field.one))


def test_ok_theta_psi_multiplies_and_lifts_nothing(monkeypatch, field_calls):
    # theta and psi are built as native +-1 int terms and det theta(0) is
    # a sign: an ok check makes no field multiplication and lifts no
    # scalar to an int (order._integral)
    lifted = []
    real = order._integral
    monkeypatch.setattr(order, "_integral", lambda c: lifted.append(c) or real(c))
    checked = 0
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for eps in islice(enumerate_polarizations(q), 2):
            for field in FIELDS:
                field_calls.clear()
                tp = verify_theta_psi(q, eps, field)
                assert tp.ok, (name, field.name)
                muls = {key: n for key, n in field_calls.items() if key.endswith(".mul")}
                assert not muls and not lifted, (name, field.name, muls)
                checked += 1
    assert checked >= 2 * len(CORPUS_NAMES) * len(FIELDS)
    # both counters are live: a failing check's sweep lifts the signs, and
    # the sign of every basis path is a product in the field
    monkeypatch.setattr(order, "involution_of", flipped_involution(order.involution_of))
    q = corpus_quiver("triangle")
    eps = next(enumerate_polarizations(q))
    assert not verify_theta_psi(q, eps, QQ).ok and lifted
    field_calls.clear()
    assert not check_nu_symmetry(q, eps, QQ).ok and field_calls["RationalField.mul"]


def _no_path(*args, **kwargs):
    raise AssertionError("the order checks must not spell a basis path out as a Path")


def test_checks_build_no_paths(monkeypatch):
    # the canonical basis keeps (start, first arrow, length) triples; only
    # its first-read ``elements`` view builds a Path per element
    monkeypatch.setattr(GentleQuiver, "path_from", _no_path)
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for eps in islice(enumerate_polarizations(q), 2):
            for field in (GF2, GF3, QQ):
                nu = check_nu_symmetry(q, eps, field)
                assert nu.ok and nu.pairs_match
                assert verify_theta_psi(q, eps, field).ok


def counted_nu_symmetry(monkeypatch, q, eps, field):
    """check_nu_symmetry with its coordinate rewrites (calls of
    ``CanonicalBasis.terms``) counted; it is stopped once they outnumber
    the pairs (q, p) with phi(q p) != 0."""
    cap = len(order.expected_nonzero_pairs(canonical_basis(q, eps)))
    real = CanonicalBasis.terms
    count = [0]

    def counting(self, *path):
        count[0] += 1
        if count[0] > cap:
            raise AssertionError(f"more than {cap} coordinate rewrites")
        return real(self, *path)

    with monkeypatch.context() as m:
        m.setattr(CanonicalBasis, "terms", counting)
        rep = check_nu_symmetry(q, eps, field)
    assert count[0] <= len(rep.expected_pairs)
    return rep


def test_nu_check_rewrites_only_full_cycle_products(monkeypatch):
    # phi(b_i b_j) != 0 only where b_i b_j is a full-cycle power, on
    # 3|Q_0| + sum (n(a) - 1) pairs; a one-orbit quiver has about n^3
    # nonzero products, and none of the others is rewritten
    rng = random.Random(20261019)
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES]
    cases = [(q, eps) for q in quivers for eps in sampled_polarizations(q)]
    for k in range(30):
        q = gen.random_quiver(rng, ORDER_PROFILES[k % len(ORDER_PROFILES)])
        cases.append((q, gen.random_polarization(rng, q)))
    one_orbit = random.Random(1)
    gen.random_quiver(one_orbit, (60,))
    q = gen.random_quiver(one_orbit, (120,))  # |B| = 14,400, one sigma-orbit
    cases.append((q, order.default_polarization(q)))
    for k, (q, eps) in enumerate(cases):
        field = GF3 if k == len(cases) - 1 else FIELDS[k % len(FIELDS)]
        rep = counted_nu_symmetry(monkeypatch, q, eps, field)
        assert rep.ok and rep.pairs_match


def test_nu_signs_reject_other_signs(monkeypatch):
    # the parity walk reads a sign as 1 or -1; over GF(5) a sign 2 is neither
    real = order.involution_of

    def with_sign_two(q, eps, field):
        inv = real(q, eps, field)
        return Involution(quiver=q, field=field, signs={**inv.signs, "a": field.from_int(2)})

    monkeypatch.setattr(order, "involution_of", with_sign_two)
    q = corpus_quiver("loop2")
    with pytest.raises(AssertionError, match="sign of a is 2, not 1 or -1"):
        check_nu_symmetry(q, next(enumerate_polarizations(q)), GF5)


@pytest.mark.parametrize("field", [GF3, QQ], ids=lambda f: f.name)
def test_large_circular(field):
    q = circular(60)
    eps = order.default_polarization(q)
    nu = check_nu_symmetry(q, eps, field)
    assert nu.ok and nu.pairs_match and nu.pair_count == 240 ** 2
    tp = verify_theta_psi(q, eps, field)
    assert tp.ok and tp.size == 240
    assert tp.det_theta_constant in (field.one, field.neg(field.one))


def test_theta_det_rejects_two_entries_in_a_row():
    for entries in ([(0, 0, 1), (0, 1, 1)], [(0, 1, 1), (1, 1, 1)]):  # a row, a column
        with pytest.raises(AssertionError, match="two nonzero entries"):
            linalg.sign_det(2, entries)
