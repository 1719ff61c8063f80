"""Default paths do each piece of work once and never list polarizations.

A decision needs one bipartite certificate and one twisted/plain quotient
pair, and wherever no polarization is given the default one is built
vertex by vertex, not picked out of the 2^|Q_0| list.  Calls are
intercepted at every name a package module bound the function to, since
package modules import functions from each other by name.
"""

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
    is_bipartite,
    quiver_from_ribbon_graph,
    rank_formula_check,
)
from ribbonorders.cli import main
from ribbonorders.corpus import circular
from ribbonorders.fields import GF2, GF3, QQ

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
            assert counts == {"is_bipartite": 1, "build_quotient_algebra": 2}, (name, field.name)
