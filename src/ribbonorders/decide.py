"""The six-condition symmetry decision procedure and its consistency checks.

The six conditions on an instance (quiver, multiplicity, field):
  c1  the order is symmetric,
  c2  the twisted quotient is symmetric,
  c3  the graph is bipartite or the field has characteristic two,
  c4  some polarization has trivial involution,
  c5  the twisted quotient is isomorphic to the Brauer graph algebra
      via the constructed scaling map,
  c6  the twisted quotient is isomorphic to some Brauer graph algebra.

c3 and c4 are decided exactly from the combinatorics; c2 comes from the
closed-form symmetry oracle on the twisted quotient (a socle-path
refutation, or a witness form whose monomial pairing has a nonzero
exact determinant, else unknown); c5 from the verified scaling
construction; c6 is bounded by c5 and by c2 (every Brauer graph algebra
is symmetric, so a certified non-symmetric quotient refutes c6).  c1
delegates to the bipartite criterion -- there is no finite direct test
at order level -- with the oracle verdict on the quotient recorded as
independent evidence.
Every report is checked against the implication lattice
c1 <=> c2 <=> c3 <=> c4 <= c6 <= c5.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Mapping, Tuple, Union

from .fdalg import (
    SymmetryVerdict,
    build_quotient_algebra,
    is_symmetric_oracle,
    plain_quotient,
    psi_from_quotient,
)
from .fields import Field
from .order import normalize_multiplicity
from .polarize import Polarization, default_polarization, find_sigma_stable, involution_of, quotient_polarization
from .quiver import GentleQuiver

TRUE = "true"
FALSE = "false"
UNKNOWN = "unknown"

# (antecedent, consequent): certain truth of the first forces the second
_IMPLICATIONS = [
    ("c1", "c2"), ("c2", "c1"),
    ("c2", "c3"), ("c3", "c2"),
    ("c3", "c4"), ("c4", "c3"),
    ("c4", "c1"), ("c1", "c4"),
    ("c5", "c6"),
    ("c6", "c2"),
]


@dataclass
class Condition:
    status: str
    evidence: Dict[str, object] = dc_field(default_factory=dict)

    @property
    def certain(self) -> bool:
        return self.status in (TRUE, FALSE)


@dataclass
class SymmetryReport:
    instance: str
    field_name: str
    multiplicity: Dict[str, int]
    conditions: Dict[str, Condition]
    consistency_ok: bool
    violations: List[str]

    def status(self, key: str) -> str:
        return self.conditions[key].status


def decide(
    q: GentleQuiver,
    field: Field,
    m: Union[int, Mapping[str, int], None] = None,
    seed: int = 0,
    instance: str = "",
) -> SymmetryReport:
    """Evaluate all six conditions and cross-check the implication lattice.

    One algebra is built, the twisted quotient.  c2's oracle and c5's
    scaling map read it; the Brauer graph algebra is derived from it
    (:func:`plain_quotient`) only when no scaling map applies and c5
    reads the plain quotient's own oracle verdict.

    ``seed`` is ignored: the decision is deterministic."""
    mm = normalize_multiplicity(q, m)
    stable = find_sigma_stable(q)
    bipartite = isinstance(stable, Polarization)
    char2 = field.char == 2

    conditions: Dict[str, Condition] = {}

    # c3: bipartite or characteristic two (node rep has color stable.sign(rep))
    ev3: Dict[str, object] = {"bipartite": bipartite, "char": field.char}
    if bipartite:
        ev3["coloring"] = {rep: stable.sign(rep) for rep, _ in q.sigma_orbits()}
    else:
        ev3["odd_walk"] = list(stable.odd_walk)
    conditions["c3"] = Condition(TRUE if bipartite or char2 else FALSE, ev3)

    # c4: some polarization with trivial involution
    if char2:
        eps4 = default_polarization(q)
        conditions["c4"] = Condition(
            TRUE,
            {
                "reason": "characteristic two collapses every involution",
                "polarization": dict(sorted(eps4.signs.items())),
            },
        )
    elif bipartite:
        inv = involution_of(q, stable, field)
        conditions["c4"] = Condition(
            TRUE if inv.is_trivial() else FALSE,
            {"polarization": dict(sorted(stable.signs.items())), "trivial": inv.is_trivial()},
        )
    else:
        conditions["c4"] = Condition(FALSE, {"odd_walk": list(stable.odd_walk)})

    twisted = build_quotient_algebra(q, field, mm, quotient_polarization(q, stable), twisted=True)
    verdict_tw = is_symmetric_oracle(twisted)

    conditions["c2"] = Condition(_status_from_verdict(verdict_tw), _verdict_evidence(verdict_tw))

    # c5: the constructed quotient isomorphism
    psi = psi_from_quotient(stable, twisted)
    if psi.kind in ("isomorphism", "identity"):
        if not psi.verified:
            raise AssertionError("constructed scaling map failed verification")
        ev5 = {
            "kind": psi.kind,
            "scales": {a: field.scalar_str(s) for a, s in sorted(psi.scales.items())},
        }
        conditions["c5"] = Condition(TRUE, ev5)
    else:
        ev5 = {"kind": "inapplicable", "reason": psi.reason, "witness": psi.witness}
        verdict_pl = is_symmetric_oracle(plain_quotient(twisted))  # only where no scaling applies
        if verdict_tw.kind == "not-symmetric" and verdict_pl.kind == "symmetric":
            ev5["refutation"] = (
                "twisted quotient certified non-symmetric while the Brauer graph "
                "algebra is symmetric, so no isomorphism exists"
            )
            conditions["c5"] = Condition(FALSE, ev5)
        else:
            ev5["plain_verdict"] = verdict_pl.kind
            conditions["c5"] = Condition(UNKNOWN, ev5)

    # c6: isomorphic to some Brauer graph algebra (lower bound via c5)
    if conditions["c5"].status == TRUE:
        conditions["c6"] = Condition(TRUE, {"witnessed_by": "c5"})
    elif verdict_tw.kind == "not-symmetric":
        conditions["c6"] = Condition(
            FALSE, {"reason": "every Brauer graph algebra is symmetric", "oracle": verdict_tw.kind}
        )
    else:
        conditions["c6"] = Condition(UNKNOWN, {"note": "search over all Brauer graph algebras is out of scope"})

    # c1: delegated to the combinatorial criterion
    conditions["c1"] = Condition(
        conditions["c3"].status,
        {
            "delegation": "order symmetry is decided through its equivalence with c3/c4; "
            "no direct order-level computation is attempted",
            "independent_evidence": {"quotient_oracle": verdict_tw.kind},
        },
    )

    violations = _lattice_violations(conditions)
    return SymmetryReport(
        instance=instance,
        field_name=field.name,
        multiplicity=mm,
        conditions=conditions,
        consistency_ok=not violations,
        violations=violations,
    )


def _status_from_verdict(v: SymmetryVerdict) -> str:
    return {
        "symmetric": TRUE,
        "not-symmetric": FALSE,
        "undecided": UNKNOWN,
    }[v.kind]


def _verdict_evidence(v: SymmetryVerdict) -> Dict[str, object]:
    ev: Dict[str, object] = {"verdict": v.kind, "method": v.method, "s_dim": v.s_dim}
    if v.certificate is not None:
        ev["certificate"] = v.certificate
    if v.witness_form is not None:
        ev["witness"] = "nondegenerate symmetric form found (exact determinant check)"
    return ev


def _lattice_violations(conditions: Dict[str, Condition]) -> List[str]:
    out = []
    for ant, cons in _IMPLICATIONS:
        a, c = conditions[ant], conditions[cons]
        if a.certain and c.certain and a.status == TRUE and c.status == FALSE:
            out.append(f"{ant} true but {cons} false")
    return out


@dataclass
class BatchResult:
    reports: List[SymmetryReport]
    violations: List[str]

    @property
    def consistent(self) -> bool:
        return not self.violations


def batch(
    instances: List[Tuple[str, GentleQuiver]],
    fields: List[Field],
    multiplicities: List[Union[int, Mapping[str, int]]],
    seed: int = 0,
    strict: bool = True,
) -> BatchResult:
    """Run decide over the instance x field x multiplicity grid.

    ``seed`` is ignored, as in :func:`decide`.

    With strict=True (the default) any implication-lattice violation
    aborts with a reproducer dump; strict=False collects them instead,
    for reporting front ends.
    """
    reports = []
    violations = []
    for name, q in instances:
        for fld in fields:
            for m in multiplicities:
                rep = decide(q, fld, m, instance=name)
                reports.append(rep)
                for v in rep.violations:
                    violations.append(f"{name}/{fld.name}/m={rep.multiplicity}: {v}")
                if strict and rep.violations:
                    raise AssertionError(
                        "implication lattice violated; reproducer: "
                        + repr(report_to_jsonable(rep))
                    )
    return BatchResult(reports=reports, violations=violations)


def report_to_jsonable(report: SymmetryReport) -> Dict[str, object]:
    """A JSON-ready dict with a stable, versioned schema.

    ``schema`` is the layout version (2: c2's evidence has no
    ``trials`` key); ``violations`` lists the
    implication-lattice violations (empty on a consistent report).
    """
    return {
        "schema": 2,
        "instance": report.instance,
        "field": report.field_name,
        "multiplicity": dict(sorted(report.multiplicity.items())),
        "conditions": {
            key: {"status": cond.status, "evidence": _jsonable(cond.evidence)}
            for key, cond in sorted(report.conditions.items())
        },
        "consistency": report.consistency_ok,
        "violations": report.violations,
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)
