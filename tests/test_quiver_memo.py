"""Each quiver computes its field-independent facts once.

``find_sigma_stable`` (the coloring or the odd walk), the default
polarization and, per (layout kind, multiplicity map), the basis layout
with its views live in one private memo on the quiver
(``GentleQuiver._memo``), filled by the public functions that compute
them.  The memo is transparent: decisions over every field and
multiplicity, order checks under several polarizations (among them a
distinct ``Polarization`` object with equal signs, which gets a layout
of its own) and quotient builds, run in shuffled order on one shared
quiver, give the results of the same calls on a fresh copy.  It holds
at most one layout per (kind, multiplicity map), and nothing outside
the quiver keeps a layout alive.  theta/psi's one product and c5's
relation check, which read lifted scales only where a scale is not
``field.one``, are compared with their references here too.
"""
import dataclasses
import gc
import random
import weakref

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    build_quotient_algebra,
    canonical_basis,
    check_nu_symmetry,
    construct_psi_isomorphism,
    corpus_quiver,
    decide,
    default_polarization,
    enumerate_polarizations,
    find_sigma_stable,
    quiver_from_ribbon_graph,
    quotient_polarization,
    verify_theta_psi,
)
from ribbonorders import fdalg, order
from ribbonorders.decide import report_to_jsonable
from ribbonorders.fields import GF2, GF3, GF5, QQ
from ribbonorders.fdalg import socle
from ribbonorders.order import BasisLayout, CanonicalBasis
from ribbonorders.polarize import Polarization
from ribbonorders.quiver import GentleQuiver

from reference import report_dict, theta_psi_products, verify_scaling_map
from test_random_instances import random_ribbon_graph

FIELDS = (GF2, GF3, GF5, QQ)
MULTIPLICITIES = (1, 2, 3)
DRAWS = 20


def quivers():
    """Every corpus quiver and 20 seeded random ribbon graph quivers, by name."""
    out = [(name, corpus_quiver(name)) for name in CORPUS_NAMES]
    rng = random.Random(20261021)
    out += [(f"draw{k}", quiver_from_ribbon_graph(random_ribbon_graph(rng, max_edges=6))) for k in range(DRAWS)]
    return out


QUIVERS = quivers()
IDS = [name for name, _ in QUIVERS]


def fresh(q: GentleQuiver) -> GentleQuiver:
    """An equal quiver with a memo of its own, empty."""
    return GentleQuiver(vertices=q.vertices, arrows=q.arrows, sigma=dict(q.sigma))


def layouts(q: GentleQuiver):
    """The layouts q's memo holds."""
    return [v for v in q._memo.values() if isinstance(v, BasisLayout)]


def layout_key(q: GentleQuiver, layout: BasisLayout):
    """(kind, multiplicity map) of a layout, read off its top lengths."""
    top = layout.top_lengths
    return type(layout), tuple(sorted((rep, top[rep] // len(orbit)) for rep, orbit in q.sigma_orbits()))


def assert_memo_bounded(q: GentleQuiver) -> None:
    # the two polarization facts, and at most one layout per (kind, multiplicity map)
    held = layouts(q)
    keys = [layout_key(q, layout) for layout in held]
    assert len(set(keys)) == len(keys)
    assert len(q._memo) - len(held) <= 2
    assert {k for k, v in q._memo.items() if not isinstance(v, BasisLayout)} <= {"sigma_stable", "default_polarization"}
    assert all(type(layout) in (BasisLayout, CanonicalBasis) for layout in held)
    assert len(held) <= 2 * len(MULTIPLICITIES)


def polarizations(q: GentleQuiver, rng: random.Random):
    """The default polarization, the quotients' one, a seeded one from the
    list and a distinct object with the quotients' signs: the order
    checks' and the quotient builds' polarizations, given as functions
    of the quiver so the fresh copy gets its own."""
    pols = [default_polarization, lambda q: quotient_polarization(q, find_sigma_stable(q))]
    k = rng.randrange(min(2 ** len(q.vertices), 16))
    pols.append(lambda q, k=k: next(p for n, p in enumerate(enumerate_polarizations(q)) if n == k))
    pols.append(lambda q: Polarization(signs=dict(quotient_polarization(q, find_sigma_stable(q)).signs)))
    return pols


def quotient_facts(alg):
    return alg.products, alg.top_pairing, socle(alg), alg.non_admissible, alg.multiplicity


def operations(q: GentleQuiver, rng: random.Random):
    """(label, call) pairs, call(q) giving a comparable result."""
    ops = []
    for field in FIELDS:
        for m in MULTIPLICITIES:
            ops.append((f"decide/{field.name}/m={m}", lambda q, f=field, m=m: report_to_jsonable(decide(q, f, m))))
            ops.append(
                (f"psi/{field.name}/m={m}", lambda q, f=field, m=m: dataclasses.asdict(construct_psi_isomorphism(q, f, m)))
            )
    for n, pol in enumerate(polarizations(q, rng)):
        for field in (GF2, GF3, QQ):
            ops.append((f"nu/eps{n}/{field.name}", lambda q, p=pol, f=field: report_dict(check_nu_symmetry(q, p(q), f))))
            ops.append((f"theta_psi/eps{n}/{field.name}", lambda q, p=pol, f=field: report_dict(verify_theta_psi(q, p(q), f))))
        for m in (1, 2):
            field = (GF3, QQ)[m - 1]
            ops.append(
                (f"quotient/eps{n}/m={m}", lambda q, p=pol, f=field, m=m: quotient_facts(build_quotient_algebra(q, f, m, p(q))))
            )
    rng.shuffle(ops)
    return ops


@pytest.mark.parametrize("name,q", QUIVERS, ids=IDS)
def test_shared_quiver_gives_the_fresh_copies_results(name, q):
    # decisions, order checks and quotients on one quiver, in shuffled
    # order, each equal to the same call on a fresh copy of the quiver
    q, rng = fresh(q), random.Random(name)
    ops = operations(q, rng)
    assert len(ops) == 2 * len(FIELDS) * len(MULTIPLICITIES) + 4 * (2 * 3 + 2)
    for label, call in ops:
        assert call(q) == call(fresh(q)), (name, label)
        assert_memo_bounded(q)
    assert layouts(q), name
    # the quiver's own facts are computed once: later calls return the same objects
    assert find_sigma_stable(q) is q._memo["sigma_stable"]
    assert default_polarization(q) is default_polarization(q)
    assert find_sigma_stable(q) == find_sigma_stable(fresh(q))


@pytest.mark.parametrize("name,q", QUIVERS[: len(CORPUS_NAMES)], ids=IDS[: len(CORPUS_NAMES)])
def test_an_equal_polarization_keeps_apart_from_the_stored_one(name, q):
    # a layout is reused for the same polarization object only: an equal
    # one gets its own layout, which takes the memo's place, and the
    # next call with the first builds it again; each time one per key
    q = fresh(q)
    eps = quotient_polarization(q, find_sigma_stable(q))
    twin = Polarization(signs=dict(eps.signs))
    a = build_quotient_algebra(q, GF3, 2, eps)
    assert build_quotient_algebra(q, QQ, 2, eps)._sigma_rule is a._sigma_rule
    b = build_quotient_algebra(q, GF3, 2, twin)
    assert b._sigma_rule is not a._sigma_rule and b._sigma_rule == a._sigma_rule
    c = build_quotient_algebra(q, GF3, 2, eps)
    assert c._sigma_rule is not a._sigma_rule and quotient_facts(c) == quotient_facts(a) == quotient_facts(b)
    assert [layout.eps is eps for layout in layouts(q)] == [True]
    assert_memo_bounded(q)
    basis = canonical_basis(q, eps)
    assert canonical_basis(q, eps) is basis and canonical_basis(q, twin) is not basis
    assert_memo_bounded(q)


@pytest.mark.parametrize("name,q", QUIVERS, ids=IDS)
def test_a_memoized_layout_dies_with_its_quiver(name, q):
    q = fresh(q)
    reports = [decide(q, field, m) for field in FIELDS for m in MULTIPLICITIES]
    eps = default_polarization(q)
    checks = [check_nu_symmetry(q, eps, GF3), verify_theta_psi(q, eps, QQ)]
    refs = [weakref.ref(layout) for layout in layouts(q)]
    assert len(refs) == len(MULTIPLICITIES) + 1  # the quotients' and the canonical basis
    refs.append(weakref.ref(q))
    del q, eps, checks
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs), name
    assert all(rep.consistency_ok for rep in reports)


# ---------------------------------------------------------------------------
# theta psi only


def assert_both_identities(q, eps, field):
    rep = verify_theta_psi(q, eps, field)
    theta, psi = order._theta_psi_columns(canonical_basis(q, eps))
    assert (rep.theta_psi_identity, rep.psi_theta_identity) == theta_psi_products(field, theta, psi)
    return rep


@pytest.mark.parametrize("name,q", QUIVERS, ids=IDS)
def test_psi_theta_is_read_off_theta_psi(name, q):
    rng = random.Random(name)
    pols = list(enumerate_polarizations(q))
    for eps in rng.sample(pols, min(len(pols), 4)):
        for field in (GF2, GF3, QQ):
            rep = assert_both_identities(q, eps, field)
            assert rep.theta_psi_identity and rep.psi_theta_identity and rep.ok, (name, field.name)


def planted_psi(flip_column):
    """_theta_psi_columns with one column of psi changed: its degree-0
    term negated, or, for the string "stray", a second term added."""
    real = order._theta_psi_columns

    def corrupted(basis):
        theta, psi = real(basis)
        psi = [list(col) for col in psi]
        if flip_column == "stray":
            psi[0].append((len(psi) - 1, 0, 1))
        else:
            r, d, c = psi[flip_column][0]
            psi[flip_column][0] = (r, d, -c)
        return theta, psi

    return corrupted


@pytest.mark.parametrize("plant", [0, -1, "stray"])
@pytest.mark.parametrize("name", ["triangle", "mixed", "circ3", "line4", "loop2"])
def test_a_planted_non_inverse_psi_fails_both_identities(name, plant, monkeypatch):
    # a flipped sign is no change in characteristic two, where both
    # identities still hold; a stray term breaks both in every field
    monkeypatch.setattr(order, "_theta_psi_columns", planted_psi(plant))
    q = corpus_quiver(name)
    eps = default_polarization(q)
    for field in (GF2, GF3, QQ):
        rep = assert_both_identities(q, eps, field)
        holds = field.char == 2 and plant != "stray"
        assert rep.theta_psi_identity is rep.psi_theta_identity is holds, (name, plant, field.name)
        assert (rep.det_theta_constant is None) is not holds


# ---------------------------------------------------------------------------
# c5's relation check on the lifted scales


@pytest.mark.parametrize("name,q", QUIVERS, ids=IDS)
def test_relation_check_on_the_decisions_scales_matches_the_reference(name, q):
    # the decision's scales, the same with each rescaled arrow reset to
    # the int 1 (equal to field.one, lifted all the same), and with a
    # zero on an arrow of a basis path
    stable = find_sigma_stable(q)
    eps = quotient_polarization(q, stable)
    verdicts = set()
    for field in FIELDS:
        for m in MULTIPLICITIES:
            tw = build_quotient_algebra(q, field, m, eps)
            psi = fdalg.psi_from_quotient(stable, tw)
            if psi.scales is None:
                continue
            trials = [psi.scales, {a: 1 if c is not field.one else c for a, c in psi.scales.items()}]
            zero = dict(psi.scales)
            zero[next(a for a, k in tw.kept.items() if k)] = field.zero
            trials.append(zero)
            for scales in trials:
                want = verify_scaling_map(tw, scales)
                assert fdalg._scaling_relations_hold(tw, scales) == want, (name, field.name, m)
                verdicts.add(want)
            assert psi.verified == verify_scaling_map(tw, psi.scales)
    assert verdicts == {True, False}, name
