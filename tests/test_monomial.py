"""The monomial rule against brute force, and the product-list checkers.

A quotient is built from the sigma-rule alone: the product of two basis
paths is nonzero exactly when the right-hand path's last arrow is followed
by the left-hand path's first arrow under sigma, and it is then one basis
path or +-the kept top cycle.  Here the tables are compared with the
brute-force construction, ``GentleQuiver.compose`` on every basis pair
followed by ``reduce_path`` from the tests' reference module.  The checkers
that loop over the nonzero products are compared on mutated algebras with
dim^2 (or dim^3) references that visit every basis tuple.
"""

import dataclasses
import random
import sys
from pathlib import Path as FilePath

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    FdAlgebra,
    GentleQuiver,
    Involution,
    build_quotient_algebra,
    check_canonical_bimodule_twist,
    construct_psi_isomorphism,
    corpus_quiver,
    decide,
    involution_of,
    nakayama_involution_bar,
    plain_quotient,
    quiver_from_ribbon_graph,
)
from ribbonorders import linalg
from ribbonorders.cli import main
from ribbonorders.corpus import circular
from ribbonorders.fdalg import (
    ZERO_CELL,
    _verify_scaling_map,
    check_algebra_axioms,
    psi_matrix_diagonal,
)
from ribbonorders.fields import GF2, GF3, GF5, QQ
from ribbonorders.polarize import Polarization, find_sigma_stable, quotient_polarization
from ribbonorders.quiver import Path

from reference import mul, reduce_path, socle_quotient_tables_equal, unit
from test_random_instances import random_ribbon_graph

sys.path.insert(0, str(FilePath(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

FIELDS = (GF2, GF3, GF5, QQ)


# ---------------------------------------------------------------------------
# the rule against compose


def brute_force_table(alg):
    """table[i][j] from compose on every basis pair, then reduce_path."""
    q = alg.quiver
    table = []
    for li in alg.basis:
        row = []
        for lj in alg.basis:
            prod = q.compose(alg.paths[li], alg.paths[lj])
            row.append({} if prod is None else reduce_path(alg, prod))
        table.append(row)
    return table


def assert_matches_brute_force(alg):
    ref = brute_force_table(alg)
    assert alg.table == ref
    assert alg.products == [
        (i, j, k, c) for i, row in enumerate(ref) for j, cell in enumerate(row) for k, c in cell.items()
    ]
    nonzero = [cell for row in alg.table for cell in row if cell]
    assert all(type(cell) is dict and len(cell) == 1 for cell in nonzero)
    assert len({id(cell) for cell in nonzero}) == len(nonzero)  # fresh dicts
    assert all(cell is ZERO_CELL for row in alg.table for cell in row if not cell)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_rule_matches_compose(name):
    q = corpus_quiver(name)
    for field in FIELDS:
        for m in (1, 2, 3):
            for twisted in (True, False):
                assert_matches_brute_force(build_quotient_algebra(q, field, m, twisted=twisted))


def test_random_rule_matches_compose():
    rng = random.Random(404)
    for _ in range(24):
        q = quiver_from_ribbon_graph(random_ribbon_graph(rng, max_edges=5))
        for field in (GF3, QQ):
            for m in (1, 2):
                for twisted in (True, False):
                    assert_matches_brute_force(build_quotient_algebra(q, field, m, twisted=twisted))


def test_decide_never_composes(monkeypatch):
    def refuse(self, q, p):
        raise AssertionError("a decision composed two paths")

    monkeypatch.setattr(GentleQuiver, "compose", refuse)
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in (GF3, QQ):
            for m in (1, 2):
                assert decide(q, field, m).consistency_ok


def test_decide_reads_only_products(monkeypatch):
    # no decision step builds the dim^2 table, the label -> Path view or
    # any Path: the products list is the one multiplication it reads
    def refuse(*args, **kwargs):
        raise AssertionError("a decision built a dim^2 table or a Path")

    quivers = [corpus_quiver(name) for name in CORPUS_NAMES]
    monkeypatch.setattr(FdAlgebra, "table", property(refuse))
    monkeypatch.setattr(FdAlgebra, "paths", property(refuse))
    monkeypatch.setattr(Path, "__init__", refuse)
    with pytest.raises(AssertionError, match="dim\\^2 table"):
        build_quotient_algebra(quivers[0], GF3).table
    for q in quivers:
        for field in FIELDS:
            for m in (1, 2):
                assert decide(q, field, m).consistency_ok


def test_decisions_and_quotient_command_build_no_dense_vector(monkeypatch, capsys):
    # the socle is a list of basis-path indices and S a list of sparse
    # forms, so neither a decision nor `quotient` (whose axiom check runs
    # over the products) makes a nullspace (with its dense unit vectors),
    # a dense row of a sparse element or the dim^2 table
    def refuse(*args, **kwargs):
        raise AssertionError("built a dense vector or the dim^2 table")

    monkeypatch.setattr(linalg, "nullspace", refuse)
    monkeypatch.setattr(FdAlgebra, "dense", refuse)
    monkeypatch.setattr(FdAlgebra, "table", property(refuse))
    alg = build_quotient_algebra(corpus_quiver("loop2"), GF3)
    for read in (lambda: linalg.nullspace(GF3, [], cols=1), lambda: alg.dense({}), lambda: alg.table):
        with pytest.raises(AssertionError, match="dense vector"):
            read()
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in FIELDS:
            for m in (1, 2):
                assert decide(q, field, m).consistency_ok
        for field in ("gf3", "Q"):
            for m in ("1", "2"):
                for flavor in ("--twisted", "--untwisted"):
                    assert main(["quotient", f"corpus:{name}", "--field", field, "-m", m, "--json", flavor]) == 0
    capsys.readouterr()


def test_zero_cells_are_one_read_only_mapping():
    alg = build_quotient_algebra(corpus_quiver("mixed"), GF3, 2)
    zeros = [(i, j) for i, row in enumerate(alg.table) for j, cell in enumerate(row) if not cell]
    assert len(zeros) + len(alg.products) == alg.dim ** 2
    i, j = zeros[0]
    with pytest.raises(TypeError):
        alg.table[i][j][0] = GF3.one
    assert not ZERO_CELL
    assert all(alg.table[i][j] is ZERO_CELL for i, j in zeros)


def test_top_lengths_once_per_algebra(monkeypatch):
    q = corpus_quiver("mixed")
    reps = [rep for rep, _ in q.sigma_orbits()]
    alg = build_quotient_algebra(q, QQ, {reps[0]: 3, reps[-1]: 2})
    expected = {a: alg.multiplicity[rep] * len(orbit) for rep, orbit in q.sigma_orbits() for a in orbit}

    def refuse(self, a):
        raise AssertionError("a top length re-walked a sigma orbit")

    monkeypatch.setattr(GentleQuiver, "orbit_of", refuse)
    for a in q.arrow_names:
        assert alg.top_lengths[a] == expected[a]
        assert reduce_path(alg, q.path_from(a, expected[a] + 1)) == {}
        assert alg.arrow_residue(a)


# ---------------------------------------------------------------------------
# the plain quotient derived from the twisted one


def reference_psi_diagonal(alg, scales):
    """The scaling along each basis path, walked arrow by arrow."""
    f = alg.field
    diag = []
    for lab in alg.basis:
        acc = f.one
        for a in alg.paths[lab].arrows:
            acc = f.mul(acc, scales[a])
        diag.append(acc)
    return diag


def random_scales(rng, q, field):
    if field is QQ:
        values = [field.from_int(rng.randrange(1, 7)) / rng.randrange(1, 5) for _ in range(6)]
    else:
        values = [x for x in field.elements() if x]
    return {a: rng.choice(values) for a in q.arrow_names}


def assert_plain_derived(q, field, m, rng):
    tw = build_quotient_algebra(q, field, m, twisted=True)
    pl = build_quotient_algebra(q, field, m, twisted=False)
    tw.table, tw.paths  # a view read before the derivation stays with tw
    derived = plain_quotient(tw)
    assert not derived.twisted
    for fld in dataclasses.fields(FdAlgebra):
        assert getattr(derived, fld.name) == getattr(pl, fld.name), fld.name
    assert derived.table == pl.table
    assert derived.paths == pl.paths
    assert (tw.table == derived.table) == (tw.products == pl.products)
    scales = random_scales(rng, q, field)
    for alg in (tw, derived):
        assert psi_matrix_diagonal(alg, scales) == reference_psi_diagonal(alg, scales)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_plain_quotient_derived_from_twisted(name):
    q = corpus_quiver(name)
    rng = random.Random(name)
    for field in FIELDS:
        for m in (1, 2, 3):
            assert_plain_derived(q, field, m, rng)


def test_random_plain_quotient_derived_from_twisted():
    # loops, valency-one nodes (n(a) = 1, so some top cycle is the only
    # path of its arrow), bipartite and not, and non-constant m
    profiles = [
        ((4, 4, 4, 4), None),
        ((3, 3, 2, 2), True),
        ((3, 3, 2, 2), False),
        ((5, 1), None),
        ((1, 1), None),
        ((2, 2, 2), False),
    ]
    rng = random.Random(909)
    for k in range(24):
        valencies, bipartite = profiles[k % len(profiles)]
        q = gen.random_quiver(rng, valencies, bipartite)
        reps = [rep for rep, _ in q.sigma_orbits()]
        for field in FIELDS:
            for m in (1, 2, {rep: 1 + n % 3 for n, rep in enumerate(reps)}):
                assert_plain_derived(q, field, m, rng)


# ---------------------------------------------------------------------------
# dim^2 and dim^3 references for the checkers


def reference_axioms_failure(alg):
    """The message check_algebra_axioms should raise, from every triple."""
    f = alg.field
    one = unit(alg)
    for i in range(alg.dim):
        vi = {i: f.one}
        if mul(alg, one, vi) != vi or mul(alg, vi, one) != vi:
            return f"unit law fails at basis element {alg.basis[i]}"
    for i in range(alg.dim):
        vi = {i: f.one}
        for j in range(alg.dim):
            vj = {j: f.one}
            for k in range(alg.dim):
                vk = {k: f.one}
                if mul(alg, alg.table[i][j], vk) != mul(alg, vi, mul(alg, vj, vk)):
                    return f"associativity fails at ({alg.basis[i]}, {alg.basis[j]}, {alg.basis[k]})"
    return None


def reference_bar_counterexamples(alg, inv):
    f = alg.field
    sign = [inv.path_sign(alg.paths[lab]) for lab in alg.basis]
    bad = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = {k: f.mul(sign[k], c) for k, c in alg.table[i][j].items()}
            rhs = {k: f.mul(f.mul(sign[i], sign[j]), c) for k, c in alg.table[i][j].items()}
            if lhs != rhs:
                bad.append(f"({alg.basis[i]}, {alg.basis[j]})")
    return bad


def reference_twist_counterexamples(alg, bar):
    f = alg.field
    tops = {alg.index[alg.top_label[v]] for v in alg.quiver.vertices}

    def phi_of(cell):
        acc = f.zero
        for k, c in cell.items():
            if k in tops:
                acc = f.add(acc, c)
        return acc

    bad = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            sign_j = bar.signs[alg.basis[j]]
            if phi_of(alg.table[i][j]) != f.mul(sign_j, phi_of(alg.table[j][i])):
                bad.append(f"({alg.basis[i]}, {alg.basis[j]})")
    return bad


def reference_socle_quotients_equal(a, b):
    tops = {a.index[a.top_label[v]] for v in a.quiver.vertices}
    for i in range(a.dim):
        for j in range(a.dim):
            if i in tops or j in tops:
                continue
            ta = {k: c for k, c in a.table[i][j].items() if k not in tops}
            tb = {k: c for k, c in b.table[i][j].items() if k not in tops}
            if ta != tb:
                return False
    return True


def reference_scaling_map_ok(tw, scales):
    """psi is bijective and an algebra map from tw onto its plain rule
    (the same products, every coefficient +1), on every basis pair."""
    f = tw.field
    diag = reference_psi_diagonal(tw, scales)
    if not all(diag):
        return False
    pl = plain_quotient(tw)
    for i in range(tw.dim):
        for j in range(tw.dim):
            lhs = {k: f.mul(diag[k], c) for k, c in tw.table[i][j].items()}
            rhs = {k: f.mul(f.mul(diag[i], diag[j]), c) for k, c in pl.table[i][j].items()}
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# mutated algebras


def mutate(alg, flip, drop):
    """A copy of alg with product number `flip` negated and product number
    `drop` removed from the product list; the copy's table derives from it."""
    f = alg.field
    products = []
    for n, (i, j, k, c) in enumerate(alg.products):
        if n == drop:
            continue
        if n == flip:
            c = f.neg(c)
        products.append((i, j, k, c))
    return dataclasses.replace(alg, products=products)


def mutation_sites(alg):
    """The first product of two paths landing on a top cycle (to negate),
    and the first one landing below the top (to drop)."""
    tops = {alg.index[alg.top_label[v]] for v in alg.quiver.vertices}
    idem = {alg.index[lab] for lab in alg.idempotent_labels}
    inner = [n for n, (i, j, k, _) in enumerate(alg.products) if i not in idem and j not in idem]
    flip = next(n for n in inner if alg.products[n][2] in tops)
    drop = next(n for n in inner if alg.products[n][2] not in tops)
    return flip, drop


# one corpus quiver per field, with a multiplicity at which x^m = -1 has
# a root, so the scaling isomorphism exists and can be broken
MUTATION_CASES = [("triangle", GF2, 2), ("line3", GF3, 3), ("circ4", GF5, 2), ("circ2", QQ, 3)]


@pytest.mark.parametrize("name,field,m", MUTATION_CASES, ids=[f"{n}-{f.name}" for n, f, _ in MUTATION_CASES])
def test_checkers_on_mutated_algebras(name, field, m):
    q = corpus_quiver(name)
    psi = construct_psi_isomorphism(q, field, m)
    assert psi.verified
    tw = build_quotient_algebra(q, field, m, quotient_polarization(q, find_sigma_stable(q)), twisted=True)
    pl = plain_quotient(tw)
    check_algebra_axioms(tw)
    assert reference_axioms_failure(tw) is None
    flip, drop = mutation_sites(tw)
    bad_tw = mutate(tw, flip, drop)

    expected = reference_axioms_failure(bad_tw)
    assert expected is not None
    with pytest.raises(AssertionError) as err:
        check_algebra_axioms(bad_tw)
    assert str(err.value) == expected

    # the involution of another polarization (the algebra's own with the
    # signs at one vertex swapped) breaks the phi-twisted symmetry; a sign
    # map that is -1 on one arrow only, and so comes from no polarization,
    # is no algebra map at the top cycles when m is odd
    a0, b0 = q.arrows_out(q.vertices[0])
    other = dict(tw.eps.signs)
    other[a0], other[b0] = other[b0], other[a0]
    one_arrow = {a: field.neg(field.one) if a == a0 else field.one for a in q.arrow_names}
    involutions = (involution_of(q, Polarization(other), field), Involution(q, field, one_arrow))
    found = {"bar": 0, "twist": 0}
    for inv in involutions:
        for alg in (tw, pl, bad_tw, mutate(tw, None, flip)):
            bar = nakayama_involution_bar(alg, inv)
            assert bar.counterexamples == reference_bar_counterexamples(alg, inv)
            twist = check_canonical_bimodule_twist(alg, bar)
            assert twist.counterexamples == reference_twist_counterexamples(alg, bar)
            assert twist.pair_count == alg.dim ** 2
            found["bar"] += len(bar.counterexamples)
            found["twist"] += len(twist.counterexamples)
    if field.char != 2:
        assert found["twist"] and (found["bar"] or m % 2 == 0)

    bad_pl = mutate(pl, None, drop)
    for a, b in ((tw, pl), (bad_tw, pl), (tw, bad_pl)):
        assert socle_quotient_tables_equal(a, b) == reference_socle_quotients_equal(a, b)
    assert socle_quotient_tables_equal(tw, pl)
    assert not socle_quotient_tables_equal(bad_tw, pl)

    # the verifier reads one algebra: a flipped twisted coefficient and a
    # corrupted scale (zero, or a root of -1 reset to 1) must be rejected
    one = field.one
    rescaled = next((a for a, c in psi.scales.items() if c != one), None)
    scale_cases = [dict(psi.scales, **{q.arrow_names[0]: field.zero})]
    if rescaled is not None:
        scale_cases.append(dict(psi.scales, **{rescaled: one}))
    twisted_cases = [tw, bad_tw, mutate(tw, flip, None), mutate(tw, None, drop)]
    cases = [(alg, psi.scales) for alg in twisted_cases] + [(tw, scales) for scales in scale_cases]
    for alg, scales in cases:
        assert _verify_scaling_map(alg, scales) == reference_scaling_map_ok(alg, scales)
    # negating a product is no change in characteristic two, and dropping
    # one drops it from the plain rule too, which psi still respects
    expected_ok = [True, field.char == 2, field.char == 2, True] + [False] * len(scale_cases)
    assert [reference_scaling_map_ok(alg, scales) for alg, scales in cases] == expected_ok
    assert rescaled is not None or field.char == 2


def _other_involution(q, alg):
    """The involution of the algebra's polarization with the signs at the
    first vertex swapped, which breaks the phi-twisted symmetry."""
    a0, b0 = q.arrows_out(q.vertices[0])
    other = dict(alg.eps.signs)
    other[a0], other[b0] = other[b0], other[a0]
    return involution_of(q, Polarization(other), alg.field)


def test_twist_and_socle_quotient_checks_read_only_products(monkeypatch):
    # both checks read the product list, never the dim^2 table view: with
    # the view refused they give what the dim^2 references, computed
    # first, give
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES] + [circular(n) for n in (8, 24)]
    cases = []
    for q in quivers:
        for field in FIELDS:
            for m in (1, 2):
                tw = build_quotient_algebra(q, field, m)
                pl = plain_quotient(tw)
                tops = {tw.index[tw.top_label[v]] for v in q.vertices}
                drop = next((n for n, (_, _, k, _) in enumerate(pl.products) if k not in tops), None)
                pairs = [(tw, pl), (pl, tw)] + ([(tw, mutate(pl, None, drop))] if drop is not None else [])
                for alg in (tw, pl):
                    for inv in (involution_of(q, alg.eps, field), _other_involution(q, alg)):
                        bar = nakayama_involution_bar(alg, inv)
                        cases.append(("twist", alg, bar, reference_twist_counterexamples(alg, bar)))
                cases += [("quotients", a, b, reference_socle_quotients_equal(a, b)) for a, b in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("a check built the dim^2 table")

    monkeypatch.setattr(FdAlgebra, "table", property(refuse))
    outcomes = set()
    for kind, alg, other, expected in cases:
        if kind == "twist":
            twist = check_canonical_bimodule_twist(alg, other)
            assert twist.counterexamples == expected
            assert twist.twisted_symmetry == (not expected)
            outcomes.add((kind, not expected))
        else:
            assert socle_quotient_tables_equal(alg, other) == expected
            outcomes.add((kind, expected))
    assert len(outcomes) == 4  # each check both passes and fails
