"""Default paths do each piece of work once and never list polarizations.

A decision needs one bipartite certificate and one quotient, the twisted
one: the plain quotient is derived from it only where its own oracle
verdict is read.  Wherever no polarization is given the default one is
built vertex by vertex, not picked out of the 2^|Q_0| list.  Calls are
intercepted at every name a package module bound the function to, since
package modules import functions from each other by name.
"""

import importlib
import random
import sys

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    build_quotient_algebra,
    cartan_matrix,
    construct_psi_isomorphism,
    corpus_quiver,
    decide,
    default_polarization,
    enumerate_polarizations,
    graph_of_quiver,
    is_bipartite,
    is_symmetric_oracle,
    quiver_from_ribbon_graph,
    rank_formula_check,
)
from ribbonorders import fdalg
from ribbonorders.cli import main
from ribbonorders.corpus import circular
from ribbonorders.fields import GF2, GF3, GF5, QQ

from test_random_instances import random_ribbon_graph

FIELDS = (GF2, GF3, QQ)


def replace_everywhere(monkeypatch, original, replacement):
    """Rebind every package-module name that refers to `original`."""
    for name, module in list(sys.modules.items()):
        if name != "ribbonorders" and not name.startswith("ribbonorders."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def count_calls(monkeypatch, original, counts):
    def counted(*args, **kwargs):
        counts[original.__name__] += 1
        return original(*args, **kwargs)

    replace_everywhere(monkeypatch, original, counted)


@pytest.fixture
def no_enumeration(monkeypatch):
    def refuse(q):
        raise AssertionError("a default path enumerated all polarizations")

    replace_everywhere(monkeypatch, enumerate_polarizations, refuse)


@pytest.mark.parametrize("q", [corpus_quiver("circ5"), circular(7)], ids=["circ5", "circular7"])
def test_library_defaults_do_not_enumerate(no_enumeration, q):
    for field in FIELDS:
        rep = decide(q, field)
        assert rep.consistency_ok
        alg = build_quotient_algebra(q, field)
        assert alg.eps == default_polarization(q)
        assert construct_psi_isomorphism(q, field).verified == (field.char == 2)
    assert len(cartan_matrix(q)) == len(q.vertices)
    assert rank_formula_check(q).matches_basis


@pytest.mark.parametrize("command", [["basis"], ["frobenius"], ["quotient", "--field", "gf3"]])
def test_cli_defaults_do_not_enumerate(no_enumeration, command):
    assert main([command[0], "corpus:circ5", *command[1:]]) == 0


def test_default_polarization_is_first_enumerated():
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES]
    rng = random.Random(77)
    quivers += [quiver_from_ribbon_graph(random_ribbon_graph(rng, max_edges=10)) for _ in range(40)]
    for q in quivers:
        assert len(q.vertices) <= 10
        assert default_polarization(q) == enumerate_polarizations(q)[0]


def test_decide_computes_certificate_once_and_quotient_pair_once(monkeypatch):
    counts = {"is_bipartite": 0, "build_quotient_algebra": 0}
    count_calls(monkeypatch, is_bipartite, counts)
    count_calls(monkeypatch, build_quotient_algebra, counts)
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in FIELDS:
            counts.update(is_bipartite=0, build_quotient_algebra=0)
            decide(q, field, 1)
            assert counts == {"is_bipartite": 1, "build_quotient_algebra": 1}, (name, field.name)


def test_decide_derives_the_plain_quotient_only_where_it_is_read(monkeypatch):
    # c5's scaling map is verified on the twisted quotient alone; the
    # plain quotient is derived once where no scaling map applies (its
    # oracle verdict is read there) and nowhere else
    module = importlib.import_module("ribbonorders.decide")
    original = module.plain_quotient
    cases = [(corpus_quiver(name), field, m) for name in CORPUS_NAMES for field in (GF2, GF3, GF5, QQ) for m in (1, 2)]
    derived = []

    def counted(tw):
        derived.append(tw)
        return original(tw)

    monkeypatch.setattr(module, "plain_quotient", counted)
    statuses = []
    for q, field, m in cases:
        del derived[:]
        c5 = decide(q, field, m).conditions["c5"]
        scaled = c5.evidence["kind"] != "inapplicable"
        assert scaled == (c5.status == "true")
        assert len(derived) == (0 if scaled else 1), (q, field.name, m)
        statuses.append(scaled)
    assert any(statuses) and not all(statuses)

    def refuse(tw):
        raise AssertionError("a decision derived the plain quotient")

    monkeypatch.setattr(module, "plain_quotient", refuse)
    for (q, field, m), scaled in zip(cases, statuses):
        if scaled:
            rep = decide(q, field, m)
            assert rep.consistency_ok and rep.status("c5") == "true"
        else:
            with pytest.raises(AssertionError, match="derived the plain quotient"):
                decide(q, field, m)


def test_decide_runs_plain_oracle_only_without_a_scaling(monkeypatch):
    # the plain quotient's verdict is read only where c5's scaling map
    # does not apply: outside characteristic two on a non-bipartite graph
    counts = {"is_symmetric_oracle": 0}
    count_calls(monkeypatch, is_symmetric_oracle, counts)
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in FIELDS:
            counts.update(is_symmetric_oracle=0)
            rep = decide(q, field, 1)
            scaled = rep.conditions["c5"].evidence["kind"] != "inapplicable"
            assert scaled == (field.char == 2 or is_bipartite(graph_of_quiver(q)).is_bipartite)
            assert counts["is_symmetric_oracle"] == (1 if scaled else 2), (name, field.name)


def test_oracle_reads_s_and_the_socle_once_through_fdalg(monkeypatch):
    # the benchmark's traced run wraps fdalg.symmetric_forms and
    # fdalg.socle at their module attributes: every oracle call makes
    # exactly one call of each through them
    calls = []

    def counted(name, original):
        def wrapper(alg):
            calls.append(name)
            return original(alg)

        return wrapper

    for name in ("symmetric_forms", "socle"):
        monkeypatch.setattr(fdalg, name, counted(name, getattr(fdalg, name)))
    oracle = is_symmetric_oracle
    per_call = []

    def checked(alg):
        start = len(calls)
        verdict = oracle(alg)
        per_call.append(sorted(calls[start:]))
        return verdict

    replace_everywhere(monkeypatch, oracle, checked)
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in FIELDS:
            for m in (1, 2):
                decide(q, field, m)
    assert len(per_call) >= 2 * len(CORPUS_NAMES) * len(FIELDS)
    assert all(c == ["socle", "symmetric_forms"] for c in per_call)
    assert len(calls) == 2 * len(per_call)
