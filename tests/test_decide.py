"""The six-condition decision procedure and its consistency guarantees."""

import pytest

from ribbonorders import QuiverError, batch, corpus_quiver, decide
from ribbonorders.decide import FALSE, TRUE, UNKNOWN, report_to_jsonable
from ribbonorders.fields import GF2, GF3, QQ


def statuses(report):
    return {k: report.conditions[k].status for k in sorted(report.conditions)}


def test_loop2_gf2_all_true():
    rep = decide(corpus_quiver("loop2"), GF2, 1, instance="loop2")
    assert statuses(rep) == {f"c{i}": TRUE for i in range(1, 7)}
    assert rep.consistency_ok


def test_loop2_gf3_all_false():
    rep = decide(corpus_quiver("loop2"), GF3, 1, instance="loop2")
    assert statuses(rep) == {f"c{i}": FALSE for i in range(1, 7)}
    assert rep.consistency_ok
    assert rep.conditions["c3"].evidence["odd_walk"] == ["1"]


def test_line_rational_all_true_with_alternating_psi():
    rep = decide(corpus_quiver("line4"), QQ, 1, instance="line4")
    assert statuses(rep) == {f"c{i}": TRUE for i in range(1, 7)}
    scales = rep.conditions["c5"].evidence["scales"]
    assert scales["a1"] == "-1" and scales["a2"] == "1" and scales["a3"] == "-1"
    assert scales["b1"] == scales["b2"] == scales["b3"] == "1"


def test_triangle_m2_rational_counterexample():
    rep = decide(corpus_quiver("triangle"), QQ, 2, instance="triangle")
    assert rep.conditions["c2"].status == FALSE
    assert rep.conditions["c3"].status == FALSE
    assert rep.conditions["c5"].status == FALSE  # refuted through the oracles
    assert rep.conditions["c6"].status == FALSE
    assert "refutation" in rep.conditions["c5"].evidence
    assert rep.consistency_ok


def test_bipartite_even_multiplicity_rational_c5_unknown():
    # both quotients are symmetric but no rational root of x^2 = -1 exists,
    # so the isomorphism question is left open rather than guessed
    rep = decide(corpus_quiver("line2"), QQ, 2, instance="line2")
    assert rep.conditions["c2"].status == TRUE
    assert rep.conditions["c5"].status == UNKNOWN
    assert rep.conditions["c6"].status == UNKNOWN
    assert rep.consistency_ok


def test_circular_parity_rule():
    for n in range(1, 7):
        for fld in (GF3, QQ):
            rep = decide(corpus_quiver(f"circ{n}"), fld, 1, instance=f"circ{n}")
            want = TRUE if n % 2 == 0 else FALSE
            assert rep.conditions["c2"].status == want, (n, fld.name)
        rep2 = decide(corpus_quiver(f"circ{n}"), GF2, 1, instance=f"circ{n}")
        assert rep2.conditions["c2"].status == TRUE


def test_char2_collapse():
    for name in ("loop2", "triangle", "oneorbit", "mixed", "circ5"):
        rep = decide(corpus_quiver(name), GF2, 2, instance=name)
        for key in ("c2", "c3", "c4", "c5"):
            assert rep.conditions[key].status == TRUE, (name, key)


def test_c3_equals_c4_everywhere():
    for name in ("loop2", "nodal", "line3", "triangle", "oneorbit", "mixed", "circ4"):
        for fld in (GF2, GF3, QQ):
            rep = decide(corpus_quiver(name), fld, 1, instance=name)
            assert rep.conditions["c3"].status == rep.conditions["c4"].status


def test_c1_delegation_documented():
    rep = decide(corpus_quiver("nodal"), QQ, 1, instance="nodal")
    assert rep.conditions["c1"].status == TRUE
    assert "delegation" in rep.conditions["c1"].evidence
    assert rep.conditions["c1"].evidence["independent_evidence"]["quotient_oracle"] == "symmetric"


def test_all_six_agree_when_roots_exist():
    # with every required root of -1 available, the six conditions agree
    from ribbonorders.fdalg import root_of_minus_one
    from ribbonorders.order import normalize_multiplicity

    for name in ("loop2", "nodal", "line3", "triangle", "circ3", "circ4"):
        q = corpus_quiver(name)
        for fld in (GF2, GF3, QQ):
            for m in (1, 2):
                mm = normalize_multiplicity(q, m)
                if any(root_of_minus_one(fld, v) is None for v in mm.values()):
                    continue
                rep = decide(q, fld, m, instance=name)
                vals = {rep.conditions[f"c{i}"].status for i in range(1, 7)}
                assert len(vals) == 1, (name, fld.name, m, vals)


def test_batch_no_violations():
    instances = [(n, corpus_quiver(n)) for n in ("loop2", "nodal", "line3", "circ3")]
    result = batch(instances, [GF2, GF3], [1, 2], seed=0)
    assert result.consistent
    assert len(result.reports) == len(instances) * 2 * 2


def test_report_jsonable_schema():
    rep = decide(corpus_quiver("loop2"), GF3, 1, instance="loop2", seed=4)
    payload = report_to_jsonable(rep)
    assert set(payload) == {"schema", "instance", "field", "multiplicity", "conditions", "consistency", "violations"}
    assert payload["schema"] == 2
    assert set(payload["conditions"]) == {f"c{i}" for i in range(1, 7)}
    for cond in payload["conditions"].values():
        assert set(cond) == {"status", "evidence"}
    import json

    json.dumps(payload)  # must be serializable as-is


@pytest.mark.parametrize(
    "m, message",
    [
        (True, "multiplicity must be an int, not True"),
        (2.5, "multiplicity must be an int, not 2.5"),
        ("3", "multiplicity must be an int, not '3'"),
        ({"a": True}, "multiplicity of 'a' must be an int, not True"),
        ({"a": 2.5}, "multiplicity of 'a' must be an int, not 2.5"),
        ({"a": "3"}, "multiplicity of 'a' must be an int, not '3'"),
        ({"a": 0}, "multiplicity of 'a' must be positive"),
    ],
)
def test_multiplicity_values_must_be_ints(m, message):
    # a bool, a float or a string is refused by name, not truncated or
    # converted; before, True became 1, 2.5 became 2 and "3" became 3
    with pytest.raises(QuiverError) as exc:
        decide(corpus_quiver("loop2"), GF3, m)
    assert str(exc.value) == message
