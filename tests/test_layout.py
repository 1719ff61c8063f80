"""Every check reads the one index layout, never a label.

``order.basis_layout`` lays out the order and every quotient alike:
e(v) at index pos(v), then per arrow a, in sorted order, a:1, ...,
a:kept[a] at consecutive indices from ``first[a]``, the kept top cycle at
v at ``top_index[v]``, and each basis path as (start, first arrow,
length) in the ``walks`` view.  The layout also holds the one sigma-rule
of the order and its quotients: the lists ``by_end``/``by_next``, the
nonzero products ``left_multiples`` of a basis path, and the coordinate
rule ``terms``, whose degree-0 part is the quotients' ``residue``.  The
canonical basis of the order is this layout at m = 1 (the twisted
quotient's), with x(v) the label at top_index[v].  Labels are
display-only.  Here the layouts and their rule are compared with the
labels, ``Path`` objects and ``compose``, which are built apart from
them, the canonical basis with the m = 1 quotient, and guards make the
label lookups refuse while the decision and check paths run.
"""

import random
import sys
from itertools import islice
from pathlib import Path as FilePath

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    FdAlgebra,
    build_quotient_algebra,
    canonical_basis,
    check_canonical_bimodule_twist,
    check_nu_symmetry,
    construct_psi_isomorphism,
    corpus_quiver,
    decide,
    involution_of,
    nakayama_involution_bar,
    order,
    plain_quotient,
    verify_theta_psi,
)
from ribbonorders import fdalg
from ribbonorders.fdalg import check_algebra_axioms
from ribbonorders.fields import GF2, GF3, GF5, QQ
from ribbonorders.polarize import (
    PLUS,
    Involution,
    default_polarization,
    enumerate_polarizations,
    find_sigma_stable,
    quotient_polarization,
)

sys.path.insert(0, str(FilePath(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)
import workloads  # noqa: E402  (perfbench's workload inputs)

PROFILES = ((4, 4, 4, 4), (3, 3, 2, 2, 2, 2, 2), (3, 3, 2, 2, 2), (5, 3, 2), (6,), (2, 2, 1, 1))


def seeded_quivers(count=30, seed=14):
    """count random quivers over PROFILES; every second one relabelled, so
    its vertices and arrows are declared in a shuffled order."""
    rng = random.Random(seed)
    quivers = []
    for k in range(count):
        q = gen.random_quiver(rng, PROFILES[k % len(PROFILES)])
        quivers.append(gen.relabel(rng, q) if k % 2 else q)
    return quivers


def all_quivers():
    return [corpus_quiver(name) for name in CORPUS_NAMES] + seeded_quivers()


def polarizations(q, rng):
    return [default_polarization(q), gen.random_polarization(rng, q)]


# ---------------------------------------------------------------------------
# the layouts against labels and Path objects


def assert_quotient_layout(alg: FdAlgebra):
    q, nv = alg.quiver, len(alg.quiver.vertices)
    assert alg.basis[:nv] == tuple(f"e({v})" for v in q.vertices)
    seen = list(range(nv))
    for a in q.arrow_names:
        for length in range(1, alg.kept[a] + 1):
            assert alg.basis[alg.first[a] + length - 1] == f"{a}:{length}"
            assert alg.residue(a, length) == (alg.first[a] + length - 1, alg.field.one)
            seen.append(alg.first[a] + length - 1)
        top = alg.top_lengths[a]
        assert alg.kept[a] in (top, top - 1)
        assert f"{a}:{top}" in alg.basis if alg.kept[a] == top else f"{a}:{top}" not in alg.basis
    assert sorted(seen) == list(range(alg.dim))
    for v in q.vertices:
        a = alg.eps.positive_arrow_at(q, v)
        assert alg.basis[alg.top_index[v]] == f"{a}:{alg.top_lengths[a]}"
    for a in q.arrow_names:
        # a rewritten top cycle lands on the kept top cycle at its source
        top = alg.top_lengths[a]
        k, _ = alg.residue(a, top)
        assert alg.basis[k] == alg.basis[alg.top_index[q.source(a)]]
    assert list(alg.paths) == list(alg.basis)
    for lab, path in alg.paths.items():
        assert lab == (f"{path.arrows[0]}:{path.length}" if path.arrows else f"e({path.start})")


def assert_sigma_rule(layout):
    """by_end, by_next and left_multiples against Path objects and compose."""
    q = layout.quiver
    paths = list(layout.paths.values())
    for v in q.vertices:
        assert layout.by_end[v] == [r for r, p in enumerate(paths) if q.path_end(p) == v]
    ends = [p.arrows[-1:] for p in paths]
    for a in q.arrow_names:
        assert layout.by_next[a] == [r for r, end in enumerate(ends) if end and q.sigma[end[0]] == a]
    for i, walk in enumerate(layout.walks):
        got = layout.left_multiples(*walk)
        got = [(r, q.idempotent(s) if a is None else q.path_from(a, n)) for r, (s, a, n) in got]
        products = ((r, q.compose(paths[i], p)) for r, p in enumerate(paths))
        assert got == [(r, prod) for r, prod in products if prod is not None], layout.basis[i]


def assert_canonical_layout(basis):
    q = basis.quiver
    paths = list(basis.paths.values())
    assert list(basis.paths) == list(basis.basis) and len(paths) == len(basis.walks)
    for r, (label, (start, a, length)) in enumerate(zip(basis.basis, basis.walks)):
        path = q.idempotent(start) if a is None else q.path_from(a, length)
        assert path == basis.paths[label], (r, label)
        assert basis.index[label] == r
    for v in q.vertices:
        a = basis.eps.positive_arrow_at(q, v)
        assert basis.basis[q.position(v)] == f"e({v})"
        # x(v) closes the run of its positive arrow
        assert basis.basis[basis.top_index[v]] == f"x({v})"
        assert basis.top_index[v] == basis.first[a] + q.cycle_length(a) - 1
        assert basis.paths[f"x({v})"] == q.path_from(a, q.cycle_length(a))
    assert_sigma_rule(basis)
    for a in q.arrow_names:
        # the coordinate rule's data: n(a), the sign of a, and the runs
        n, i = q.cycle_length(a), q.source(a)
        positive = basis.eps.sign(a) == PLUS
        assert basis.top_lengths[a] == n
        assert basis.kept[a] == (n if positive else n - 1)
        if n > 1:
            assert basis.first[a] == basis.index[f"{a}:1"]
        elif positive:
            assert basis.first[a] == basis.index[f"x({i})"]
        assert basis.top_index[i] == basis.index[f"x({i})"]


def test_quotient_layout_matches_labels():
    rng = random.Random(3)
    for q in all_quivers():
        for eps in polarizations(q, rng):
            for m in (1, 2, 3):
                tw = build_quotient_algebra(q, GF3, m, eps)
                assert_quotient_layout(tw)
                assert_quotient_layout(plain_quotient(tw))
                assert_sigma_rule(tw)  # the rule the canonical basis reads, at every m


def test_canonical_layout_matches_paths():
    rng = random.Random(4)
    quivers = all_quivers()
    # pos(v) is the declared position, which the relabelled quivers shuffle
    assert any(list(q.vertices) != sorted(q.vertices) for q in quivers)
    for q in quivers:
        for eps in polarizations(q, rng):
            assert_canonical_layout(canonical_basis(q, eps))


def three_polarizations(q, rng):
    """The default, the quotient and a random polarization of q."""
    return [
        default_polarization(q),
        quotient_polarization(q, find_sigma_stable(q)),
        gen.random_polarization(rng, q),
    ]


def test_canonical_basis_is_the_twisted_quotient_layout_at_m1(monkeypatch):
    # 225 pairs: the corpus and 60 seeded quivers, three polarizations each
    rng = random.Random(17)
    pairs = failures = 0
    swapped = []  # the involution check_nu_symmetry reads: its polarization's, swapped
    monkeypatch.setattr(order, "involution_of", lambda q, eps, field: involution_of(q, swapped[0], field))
    for q in [corpus_quiver(name) for name in CORPUS_NAMES] + seeded_quivers(60):
        pols = three_polarizations(q, rng)
        for n, eps in enumerate(pols):
            basis = canonical_basis(q, eps)
            swapped[:] = [pols[(n + 1) % 3]]
            for field in (GF3, QQ):
                tw = build_quotient_algebra(q, field, 1, eps)
                assert basis.walks == tw.walks
                assert (basis.first, basis.kept, basis.top_index, basis.top_lengths) == (
                    tw.first,
                    tw.kept,
                    tw.top_index,
                    tw.top_lengths,
                )
                x = {r: f"x({v})" for v, r in tw.top_index.items()}
                assert basis.basis == tuple(x.get(r, label) for r, label in enumerate(tw.basis))
                inv = involution_of(q, eps, field)
                bar = nakayama_involution_bar(tw, inv)
                nu = order._nu_signs(basis, inv)
                assert bar.signs == nu
                # with another polarization's involution, the order's form
                # and its reduction modulo t fail on the same pairs: the
                # form reduced is the form at degree 0, and the one pair
                # of degree 1, (x(v), x(v)), has nu(x(v)) = 1 for every
                # polarization's involution, so it never fails
                other = involution_of(q, swapped[0], field)
                nu_report = check_nu_symmetry(q, eps, field)
                twist = check_canonical_bimodule_twist(tw, nakayama_involution_bar(tw, other))
                at = [(basis.index[x], basis.index[y]) for x, y in nu_report.counterexamples]
                assert twist.counterexamples == [f"({tw.basis[i]}, {tw.basis[j]})" for i, j in at]
                assert twist.twisted_symmetry == nu_report.ok
                failures += len(at)
            pairs += 1
    assert pairs == 225
    assert failures  # both checks fail somewhere


def test_one_evaluator_for_the_order_and_its_quotients(monkeypatch):
    # check_canonical_bimodule_twist calls the one evaluator of the twisted
    # symmetry exactly once; check_nu_symmetry calls it once in a failing
    # check's sweep, and not at all when its certificate holds
    assert fdalg.nu_counterexamples is order.nu_counterexamples
    real = order.nu_counterexamples
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (order, fdalg):
        monkeypatch.setattr(module, "nu_counterexamples", counted)
    checks = 0
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        eps = default_polarization(q)
        for field in (GF2, GF3, QQ):
            del calls[:]
            assert check_nu_symmetry(q, eps, field).ok
            assert not calls
            tw = build_quotient_algebra(q, field, 1, eps)
            bar = nakayama_involution_bar(tw, involution_of(q, eps, field))
            del calls[:]
            assert check_canonical_bimodule_twist(tw, bar).ok
            assert len(calls) == 1
            checks += 2
    assert checks == 6 * len(CORPUS_NAMES)

    def flipped(q, eps, field):  # the least arrow's sign negated
        signs = dict(involution_of(q, eps, field).signs)
        signs[min(signs)] = field.neg(signs[min(signs)])
        return Involution(quiver=q, field=field, signs=signs)

    monkeypatch.setattr(order, "involution_of", flipped)
    q = corpus_quiver("triangle")
    for field in (GF3, QQ):
        del calls[:]
        assert not check_nu_symmetry(q, default_polarization(q), field).ok
        assert len(calls) == 1


def test_views_read_on_the_layout_stay_with_it(monkeypatch):
    # canonical_basis builds its layout as a CanonicalBasis, and the
    # quotient builder takes the layout's fields, not the views cached on
    # it, so a layout whose every view was read first gives the same results
    cases = [(corpus_quiver(name), m) for name in CORPUS_NAMES for m in (1, 2)]
    expected = [
        (canonical_basis(q, default_polarization(q)), build_quotient_algebra(q, GF3, m)) for q, m in cases
    ]
    real = order.basis_layout

    def read_every_view(q, eps, mm, *kind):
        layout = real(q, eps, mm, *kind)
        layout.walks, layout.by_end, layout.by_next, layout.top_mask, layout.index, layout.paths
        return layout

    for module in (order, fdalg):
        monkeypatch.setattr(module, "basis_layout", read_every_view)
    for (q, m), (basis, alg) in zip(cases, expected):
        got = canonical_basis(q, default_polarization(q)), build_quotient_algebra(q, GF3, m)
        assert got == (basis, alg)
        assert (type(got[0]), type(got[1])) == (order.CanonicalBasis, FdAlgebra)
        assert got[0].paths == basis.paths and got[0].index == basis.index  # x(v), not a:n(a)


# ---------------------------------------------------------------------------
# guards: no check reads a label lookup


def _refuse(*args, **kwargs):
    raise AssertionError("a check read the label -> index map")


class RefusingIndex(dict):
    """A label -> index map that refuses every lookup."""

    __getitem__ = get = __contains__ = _refuse


def test_quotient_checks_never_read_the_index(monkeypatch):
    monkeypatch.setattr(FdAlgebra, "index", property(_refuse))
    with pytest.raises(AssertionError, match="label -> index"):
        build_quotient_algebra(corpus_quiver("loop2"), GF3).index
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in (GF2, GF3, GF5, QQ):
            for m in (1, 2, 3):
                assert decide(q, field, m).consistency_ok
                tw = build_quotient_algebra(q, field, m)
                for alg in (tw, plain_quotient(tw)):
                    check_algebra_axioms(alg)
                    bar = nakayama_involution_bar(alg, involution_of(q, alg.eps, field))
                    check_canonical_bimodule_twist(alg, bar)
                construct_psi_isomorphism(q, field, m)


def test_order_checks_never_read_the_index(monkeypatch):
    real = order.canonical_basis

    def guarded(q, eps):
        basis = real(q, eps)
        object.__setattr__(basis, "index", RefusingIndex(basis.index))
        return basis

    monkeypatch.setattr(order, "canonical_basis", guarded)
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for eps in islice(enumerate_polarizations(q), 4):
            for field in (GF2, GF3, QQ):
                nu = check_nu_symmetry(q, eps, field)
                assert nu.ok and nu.pairs_match
                assert verify_theta_psi(q, eps, field).ok


# ---------------------------------------------------------------------------
# labels on demand


def reference_labels(layout):
    """The labels as the layout's builder once wrote them: e(v) in vertex
    order, a:1 .. a:kept[a] per arrow in sorted order, and, in the
    canonical basis, x(v) at top_index[v]."""
    q = layout.quiver
    labels = [f"e({v})" for v in q.vertices]
    for a in sorted(q.arrow_names):
        labels += [f"{a}:{length}" for length in range(1, layout.kept[a] + 1)]
    if isinstance(layout, order.CanonicalBasis):
        for v, r in layout.top_index.items():
            labels[r] = f"x({v})"
    return labels


def test_label_is_the_basis_entry():
    # label(r) == basis[r] on the quotients at m = 1-3 under two
    # polarizations and on the canonical basis; label(r) read first
    # builds no basis view
    rng = random.Random(5)
    for q in all_quivers():
        for eps in polarizations(q, rng):
            layouts = [build_quotient_algebra(q, GF3, m, eps) for m in (1, 2, 3)]
            layouts.append(canonical_basis(q, eps))
            for layout in layouts:
                labels = [layout.label(r) for r in range(layout.dim)]
                assert "basis" not in vars(layout)
                assert labels == list(layout.basis) == reference_labels(layout)
                assert len(layout) == layout.dim == len(layout.walks)


def test_closed_form_arrow_residue_is_the_length_one_residue():
    # in both quotients, at every m, under two polarizations; a negative
    # arrow with n(a) = m = 1 keeps no path and is rewritten
    rng = random.Random(8)
    rewritten = {True: 0, False: 0}
    for q in all_quivers():
        for eps in polarizations(q, rng):
            for m in (1, 2, 3):
                for field in (GF2, GF3, QQ):
                    tw = build_quotient_algebra(q, field, m, eps)
                    for alg in (tw, plain_quotient(tw)):
                        for a in q.arrow_names:
                            k, c = alg.residue(a, 1)
                            assert alg.arrow_residue(a) == {k: c}, (a, m, field.name, alg.twisted)
                            if not alg.kept[a]:
                                assert a in alg.non_admissible and k == alg.top_index[q.source(a)]
                                rewritten[alg.twisted] += 1
    assert all(rewritten.values())


def test_decisions_build_no_label_tuple(monkeypatch):
    # the corpus grid and the decide_scaling inputs, decided and turned
    # into JSON, read no basis view (nor index or paths, which read it);
    # a not-symmetric certificate formats the one label it names
    built, labelled = [], []
    real_label = order.BasisLayout.label

    def counted_label(self, r):
        labelled.append(real_label(self, r))
        return labelled[-1]

    monkeypatch.setattr(order.BasisLayout, "basis", property(lambda self: built.append(self) or ()))
    monkeypatch.setattr(order.BasisLayout, "label", counted_label)
    items = workloads.corpus_grid(3) + workloads.decide_scaling(3)
    refuted = 0
    for item in items:
        del labelled[:]
        rep, report = workloads.run_item(item)
        assert rep.consistency_ok and not built, item.label
        c2 = rep.conditions["c2"]
        if "certificate" in c2.evidence:
            assert list(report["conditions"]["c2"]["evidence"]["certificate"]["element"]) == labelled, item.label
            refuted += 1
        else:
            assert not labelled, item.label
    assert refuted and refuted < len(items)
