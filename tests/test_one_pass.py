"""Default paths do each piece of work once and never list polarizations.

A decision needs one bipartite certificate, one quotient, the twisted
one, and one read of its socle (each order check, likewise, checks its
polarization once): c2 comes from the socle certificate
(``fdalg.socle_certificate``), so a decision computes no S, runs no
oracle and takes no determinant over every product, and the Brauer
graph algebra's symmetry is certified in closed form off the same
products, so the plain quotient is never derived.  The oracle stays the
reference, and its own calls still read S and the socle once each.
Wherever no polarization is given the default one is built vertex by
vertex, not picked out of the 2^|Q_0| list.  No command eliminates: the
Cartan rank is read off one component walk of the ribbon graph.  Calls
are intercepted at every name a package module bound the function to,
since package modules import functions from each other by name.
"""
import argparse
import importlib
import random
import sys

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    build_quotient_algebra,
    cartan_matrix,
    check_nu_symmetry,
    construct_psi_isomorphism,
    corpus_quiver,
    decide,
    default_polarization,
    enumerate_polarizations,
    find_sigma_stable,
    is_bipartite,
    is_symmetric_oracle,
    normalize_multiplicity,
    quiver_from_ribbon_graph,
    quotient_polarization,
    rank_formula_check,
    verify_theta_psi,
)
from ribbonorders import fdalg
from ribbonorders.cli import build_parser, main
from ribbonorders.corpus import circular
from ribbonorders.fields import GF2, GF3, GF5, QQ
from ribbonorders.linalg import rref
from ribbonorders.polarize import check_polarization

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


def test_no_cli_command_eliminates(monkeypatch, capsys):
    # every command on every corpus quiver, and the corpus batch: the
    # Cartan rank has a closed form, and no other step eliminates
    calls = []

    def recorded(*args):
        calls.append(args)
        return rref(*args)

    replace_everywhere(monkeypatch, rref, recorded)
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert "cartan" in commands
    for command in commands:
        names = [None] if command == "corpus" else CORPUS_NAMES
        for name in names:
            assert main([command] if name is None else [command, f"corpus:{name}"]) == 0, (command, name)
    capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize("command", [["basis"], ["frobenius"], ["quotient", "--field", "gf3"]])
def test_cli_defaults_do_not_enumerate(no_enumeration, command):
    assert main([command[0], "corpus:circ5", *command[1:]]) == 0


def test_default_polarization_is_first_enumerated():
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES]
    rng = random.Random(77)
    quivers += [quiver_from_ribbon_graph(random_ribbon_graph(rng, max_edges=10)) for _ in range(40)]
    for q in quivers:
        assert len(q.vertices) <= 10
        assert default_polarization(q) == next(enumerate_polarizations(q))


def test_decide_computes_certificate_once_and_quotient_pair_once(monkeypatch):
    # and the multiplicity map is normalized once, and the polarization
    # checked once, by the quotient builder
    once = {"is_bipartite": 1, "build_quotient_algebra": 1, "normalize_multiplicity": 1, "check_polarization": 1}
    counts = dict.fromkeys(once, 0)
    count_calls(monkeypatch, is_bipartite, counts)
    count_calls(monkeypatch, build_quotient_algebra, counts)
    count_calls(monkeypatch, normalize_multiplicity, counts)
    count_calls(monkeypatch, check_polarization, counts)
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in FIELDS:
            for m in (1, 2):
                counts.update(dict.fromkeys(once, 0))
                rep = decide(q, field, m)
                assert counts == once, (name, field.name, m)
                assert rep.multiplicity == {orbit_rep: m for orbit_rep, _ in q.sigma_orbits()}


@pytest.mark.parametrize("check", [check_nu_symmetry, verify_theta_psi], ids=["nu", "theta_psi"])
def test_order_checks_check_the_polarization_once(monkeypatch, check):
    # involution_of checks it, and the canonical basis is built unchecked
    counts = {"check_polarization": 0}
    count_calls(monkeypatch, check_polarization, counts)
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for eps in (default_polarization(q), quotient_polarization(q, find_sigma_stable(q))):
            for field in FIELDS:
                counts["check_polarization"] = 0
                assert check(q, eps, field).ok
                assert counts == {"check_polarization": 1}, (name, field.name)


def test_decide_derives_no_plain_quotient(monkeypatch):
    # c5's scaling map is verified on the twisted quotient alone, and
    # where none applies the Brauer graph algebra's symmetry is certified
    # in closed form off the same products: every decision constructs
    # exactly one algebra, the twisted quotient, scaled or not
    module = importlib.import_module("ribbonorders.decide")
    assert not hasattr(module, "plain_quotient")

    def refuse(tw):
        raise AssertionError("a decision derived the plain quotient")

    replace_everywhere(monkeypatch, fdalg.plain_quotient, refuse)
    built = []
    init = fdalg.FdAlgebra.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.twisted)

    monkeypatch.setattr(fdalg.FdAlgebra, "__init__", recorded)
    statuses = []
    for name in CORPUS_NAMES:
        for field in (GF2, GF3, GF5, QQ):
            for m in (1, 2):
                del built[:]
                rep = decide(corpus_quiver(name), field, m)
                assert rep.consistency_ok
                assert built == [True], (name, field.name, m)
                statuses.append(rep.conditions["c5"].evidence["kind"] != "inapplicable")
    assert any(statuses) and not all(statuses)


def test_decide_reads_the_socle_once_and_runs_no_oracle(monkeypatch):
    # c2 is certified from the socle and the products that land on it,
    # whether or not c5's scaling map applies (outside characteristic two
    # on a non-bipartite graph, or without a root of -1, it does not):
    # one quotient, one socle read, and no S, oracle or pairing determinant
    once = ("build_quotient_algebra", "socle", "socle_certificate")
    never = ("is_symmetric_oracle", "symmetric_forms", "pairing_det")
    counts = dict.fromkeys(once + never, 0)
    for name in counts:
        count_calls(monkeypatch, getattr(fdalg, name), counts)
    scaled = set()
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        for field in FIELDS:
            for m in (1, 2):
                counts.update(dict.fromkeys(counts, 0))
                rep = decide(q, field, m)
                scaled.add(rep.conditions["c5"].evidence["kind"] != "inapplicable")
                assert counts == {**dict.fromkeys(once, 1), **dict.fromkeys(never, 0)}, (name, field.name, m)
    assert scaled == {True, False}


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
    per_call = []
    for name in CORPUS_NAMES:
        q = corpus_quiver(name)
        eps = quotient_polarization(q, find_sigma_stable(q))
        for field in FIELDS:
            for m in (1, 2):
                start = len(calls)
                is_symmetric_oracle(build_quotient_algebra(q, field, m, eps))
                per_call.append(sorted(calls[start:]))
    assert len(per_call) == 2 * len(CORPUS_NAMES) * len(FIELDS)
    assert all(c == ["socle", "symmetric_forms"] for c in per_call)
    assert len(calls) == 2 * len(per_call)
