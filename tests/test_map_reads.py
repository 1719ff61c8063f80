"""A decision reads the quiver's and the polarization's stored maps.

The per-arrow and per-vertex loops of a decision (the layout, the sigma
rule, the bipartite walk, the socle, c4's and c5's evidence and the
scaling map's check) read ``GentleQuiver.sources``, ``positions``,
``out_pairs``, ``tau`` and ``orbit_places`` and ``Polarization.signs``,
with no accessor call per fact.  The accessors stay the public API, and
the references here are built from them: the basis layout on relabelled
quivers, the polarization check's messages, and c5's scaling map with
one root of -1 per negative orbit, against the decision's one root per
multiplicity.
"""
import random
import sys
from pathlib import Path

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    build_quotient_algebra,
    corpus_quiver,
    decide,
    find_sigma_stable,
    normalize_multiplicity,
)
from ribbonorders import fdalg
from ribbonorders.corpus import line
from ribbonorders.decide import report_to_jsonable
from ribbonorders.fields import GF2, GF3, GF5, QQ, parse_field
from ribbonorders.order import basis_layout
from ribbonorders.polarize import MINUS, PLUS, Polarization, check_polarization
from ribbonorders.quiver import GentleQuiver, QuiverError

from reference import accessor_layout, per_orbit_psi

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)
import workloads  # noqa: E402  (perfbench's workload items)

REFUSED = (
    (GentleQuiver, "orbit_rep"),
    (GentleQuiver, "cycle_length"),
    (GentleQuiver, "position"),
    (GentleQuiver, "source"),
    (GentleQuiver, "arrows_out"),
    (GentleQuiver, "other_arrow_at"),
    (Polarization, "sign"),
    (Polarization, "positive_arrow_at"),
)


def guard_instances():
    """The corpus grid (four fields, m = 1, 2) and the seed-1
    ``decide_scaling`` items, as (quiver, field, m)."""
    cases = [
        (corpus_quiver(name), field, m) for name in CORPUS_NAMES for field in (GF2, GF3, GF5, QQ) for m in (1, 2)
    ]
    cases += [(q, field, None) for q, field, _, _ in (item.args for item in workloads.decide_scaling(1))]
    return cases


def test_a_decision_calls_no_per_fact_accessor(monkeypatch):
    cases = guard_instances()
    expected = [report_to_jsonable(decide(q, field, m)) for q, field, m in cases]

    def refusing(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"a decision called {name}")

        return refuse

    for cls, name in REFUSED:
        monkeypatch.setattr(cls, name, refusing(name))
    q = corpus_quiver("circ4")
    with pytest.raises(AssertionError, match="called source"):  # the patches are in force
        q.source(q.arrow_names[0])
    for (q, field, m), want in zip(cases, expected):
        assert report_to_jsonable(decide(q, field, m)) == want


def relabelled_draws():
    rng = random.Random(5)
    for valencies in ((4, 4, 4, 4), (3, 3, 3, 3, 2, 2), (5, 3, 2), (6,), (1, 1, 2, 4)):
        for bipartite in (None, False):
            q = gen.relabel(rng, gen.random_quiver(rng, valencies, bipartite))
            yield rng, q
    yield rng, gen.relabel(rng, corpus_quiver("triangle"))


def test_the_layout_is_the_accessor_layout_on_relabelled_draws():
    seen = 0
    for rng, q in relabelled_draws():
        assert list(q.arrow_names) != sorted(q.arrow_names) or len(q.arrow_names) <= 2
        for _ in range(3):
            eps = gen.random_polarization(rng, q)
            mm = normalize_multiplicity(q, {rng.choice(orbit): rng.randint(1, 3) for _, orbit in q.sigma_orbits()})
            layout = basis_layout(q, eps, mm)
            want = accessor_layout(q, eps, mm)
            got = {key: getattr(layout, key) for key in want}
            got["first"] = list(layout.first.items())
            got["by_next"] = {a: list(rs) for a, rs in layout.by_next.items()}
            assert got == want
            seen += 1
    assert seen == 33


def test_the_polarization_check_keeps_its_messages_and_precedence():
    for _, q in relabelled_draws():
        names = list(q.arrow_names)
        v = q.vertices[-1]
        a, b = q.arrows_out(v)
        good = gen.random_polarization(random.Random(len(names)), q)
        check_polarization(q, good)
        equal = {**good.signs, a: good.signs[b]}
        worst = names[-1]
        cases = [
            # a missing sign comes first, before a non-+- sign and equal signs
            ({x: s for x, s in equal.items() if x != names[0]} | {worst: "?"}, "must assign a sign to every arrow"),
            ({**good.signs, "no such arrow": PLUS}, "must assign a sign to every arrow"),
            # a non-+- sign, the first in declared arrow order, before equal signs
            ({**equal, worst: "?", names[1]: ["+"]}, f"polarization sign of {names[1]} is \\['\\+'\\]"),
            ({**equal, worst: 1}, f"polarization sign of {worst} is 1, not"),
            # then equal signs, at the first vertex in declared order
            (equal, f"arrows {a}, {b} out of {v} carry equal signs"),
        ]
        for signs, message in cases:
            with pytest.raises(QuiverError, match=message):
                check_polarization(q, Polarization(signs=signs))
        both = {**good.signs}
        for w in q.vertices[:2]:
            x, y = q.arrows_out(w)
            both[x] = both[y] = MINUS
        with pytest.raises(QuiverError, match=f"out of {q.vertices[0]} carry"):
            check_polarization(q, Polarization(signs=both))


PSI_FIELDS = (GF3, GF5, parse_field("gf7"), parse_field("gf13"), QQ)


def psi_instances():
    """Bipartite quivers with multiplicity maps that give the negative
    orbits different m in 1-4."""
    rng = random.Random(11)
    quivers = [line(n) for n in (4, 7, 10)]
    quivers += [gen.random_quiver(rng, v, True) for v in ((4, 4, 4, 4), (3, 3, 3, 3, 2, 2), (2, 2, 2, 2, 2, 2))]
    for q in quivers:
        stable = find_sigma_stable(q)
        assert isinstance(stable, Polarization)
        reps = [rep for rep, _ in q.sigma_orbits()]
        negative = [rep for rep in reps if stable.signs[rep] == MINUS]
        assert len(negative) >= 2
        for _ in range(4):
            yield q, stable, {rep: rng.randint(1, 4) for rep in reps}
        yield q, stable, {rep: 1 + k % 4 for k, rep in enumerate(reps)}


@pytest.mark.parametrize("field", PSI_FIELDS, ids=lambda f: f.name)
def test_one_root_per_multiplicity_is_the_per_orbit_scaling_map(monkeypatch, field):
    calls = []
    original = fdalg.root_of_minus_one

    def counted(fld, m):
        calls.append(m)
        return original(fld, m)

    monkeypatch.setattr(fdalg, "root_of_minus_one", counted)
    outcomes = set()
    for q, stable, mm in psi_instances():
        want = per_orbit_psi(stable, field, mm)
        calls.clear()
        ev5 = decide(q, field, mm).conditions["c5"].evidence
        read = [mm[rep] for rep in sorted(mm) if stable.signs[rep] == MINUS]
        if "scales" in want:
            assert ev5["kind"] == "isomorphism"
            assert ev5["scales"] == {a: field.scalar_str(c) for a, c in sorted(want["scales"].items())}
            assert list(ev5["scales"]) == sorted(q.arrow_names)
        else:
            assert ev5["kind"] == "inapplicable"
            assert (ev5["reason"], ev5["witness"]) == (want["reason"], want["witness"])
            read = read[: read.index(want["witness"]["multiplicity"]) + 1]
        assert calls == list(dict.fromkeys(read)), (field.name, mm)  # one call per distinct m, in first-read order
        tw = build_quotient_algebra(q, field, mm, stable)
        psi = fdalg.psi_from_quotient(stable, tw)
        if "scales" in want:
            assert psi.scales == want["scales"] and psi.verified
        outcomes.add("scales" in want)
    assert outcomes == {True, False}
