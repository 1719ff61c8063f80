"""The six-condition symmetry decision procedure and its consistency checks.

The six conditions on an instance (quiver, multiplicity, field):
  c1  the order is symmetric,
  c2  the twisted quotient is symmetric,
  c3  the graph is bipartite or the field has characteristic two,
  c4  some polarization has trivial involution,
  c5  the twisted quotient is isomorphic to the Brauer graph algebra
      via the constructed scaling map,
  c6  the twisted quotient is isomorphic to some Brauer graph algebra.

c3 and c4 are decided exactly from the combinatorics (c4's trivial
involution is the sigma-stability of the bipartite polarization's
signs); c2 comes from the socle certificate on the twisted quotient
(``fdalg.socle_certificate``: the verdict of the symmetry oracle, which
is the reference, read off the socle and the products that land on it
-- a socle-path refutation, or a +-1 witness form on the socle whose
pairing has an exact determinant +-1); c5 from the verified scaling
construction, and where no scaling map applies, from the closed-form
certificate that the Brauer graph algebra is symmetric in its standard
form (``fdalg.brauer_form_pairing``), which refutes c5 when c2 is
certified false; c6 is bounded by c5 and by c2 (every Brauer graph
algebra is symmetric, so a certified non-symmetric quotient refutes
c6).  A decision lists no product of the quotient: it reads the
quotient's product rule (``fdalg.FdAlgebra.product``) at O(dim) pairs,
the socle on the rows and columns of the arrow residues and c2's and
c5's certificates at the pairs (i, pi(i)) of the layout's pairing
involution, and checks the scaling map on the relation at each vertex.
The product list is a view for the reference readers, the ``quotient``
command and the tests.  c1 delegates to the bipartite criterion --
there is no finite direct test at order level -- with c2's verdict on
the quotient recorded as independent evidence (under the key
``quotient_oracle``, kept from schema 2).
Every report is checked against the implication lattice
c1 <=> c2 <=> c3 <=> c4 <= c6 <= c5.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from .fdalg import (
    SymmetryVerdict,
    brauer_form_pairing,
    build_quotient_algebra,
    psi_from_quotient,
    socle_certificate,
)
from .fields import Field
from .polarize import Polarization, default_polarization, find_sigma_stable, quotient_polarization
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

    One algebra is built, the twisted quotient, and its socle is read
    once, by :func:`socle_certificate`, which gives c2's verdict from
    the socle and the products landing on it; no S is computed and no
    product is listed.  c2's certificate and c5's scaling map read the
    one algebra's product rule and layout.  Where no scaling map
    applies, c5 reads the Brauer graph algebra's symmetry off the same
    products: :func:`brauer_form_pairing` certifies its standard form in
    closed form, and a failed certificate, which would contradict the
    theorem, raises AssertionError.

    Every loop that runs once per arrow, vertex or basis path reads the
    maps the quiver and the polarization store, one lookup per fact:
    the quiver's ``sources``, ``positions``, ``out_pairs``, ``tau``,
    ``orbit_places`` and ``sigma``, and the polarizations' ``signs``
    (:func:`find_sigma_stable`, :func:`order.basis_layout`, the
    polarization check, the socle, c4 here and c5's scaling map).  The
    arrow names are sorted once, by the layout: c4's and c5's evidence
    read them in the order of ``twisted.first``.  The default
    polarization is built once, where c4 (characteristic two) or the
    quotient (no sigma-stable polarization) needs it.

    What does not depend on the field is computed once per quiver and
    kept in its memo (:class:`quiver.GentleQuiver`): the bicoloring or
    odd walk (:func:`find_sigma_stable`), the default polarization and
    the quotient's layout per multiplicity map, with its sigma-rule pass
    (:func:`order.basis_layout`).  So of the decisions on one quiver
    over several fields and multiplicities, only the first walks the
    graph and the first at each multiplicity lays out the quotient.
    Everything else runs on every call: the multiplicity map and the
    polarization check, the algebra on the layout, its socle with the
    injectivity and kept-top assertions, the pi landing and its signed
    components, the witness determinant, c5's scaling map and the
    evidence.

    ``seed`` is ignored: the decision is deterministic."""
    stable = find_sigma_stable(q)
    bipartite = isinstance(stable, Polarization)
    char2 = field.char == 2
    eps = quotient_polarization(q, stable)
    twisted = build_quotient_algebra(q, field, m, eps, twisted=True)
    names = twisted.first.keys()  # the arrow names, sorted: the evidence's key order

    conditions: Dict[str, Condition] = {}

    # c3: bipartite or characteristic two (node rep has color stable.signs[rep])
    ev3: Dict[str, object] = {"bipartite": bipartite, "char": field.char}
    if bipartite:
        sign = stable.signs
        ev3["coloring"] = {rep: sign[rep] for rep, _ in q.sigma_orbits()}
    else:
        ev3["odd_walk"] = list(stable.odd_walk)
    conditions["c3"] = Condition(TRUE if bipartite or char2 else FALSE, ev3)

    # c4: some polarization with trivial involution
    if char2:
        sign = (default_polarization(q) if bipartite else eps).signs
        conditions["c4"] = Condition(
            TRUE,
            {
                "reason": "characteristic two collapses every involution",
                "polarization": dict(zip(names, map(sign.__getitem__, names))),
            },
        )
    elif bipartite:
        # the involution scales a by eps(sigma(a)) eps(a): trivial iff the signs are sigma-stable
        sign, sigma = stable.signs, q.sigma
        trivial = all(sign[sigma[a]] == sign[a] for a in names)
        conditions["c4"] = Condition(
            TRUE if trivial else FALSE,
            {"polarization": dict(zip(names, map(sign.__getitem__, names))), "trivial": trivial},
        )
    else:
        conditions["c4"] = Condition(FALSE, {"odd_walk": list(stable.odd_walk)})

    verdict_tw = socle_certificate(twisted)

    conditions["c2"] = Condition(_status_from_verdict(verdict_tw), _verdict_evidence(verdict_tw))

    # c5: the constructed quotient isomorphism
    psi = psi_from_quotient(stable, twisted)
    if psi.kind in ("isomorphism", "identity"):
        if not psi.verified:
            raise AssertionError("constructed scaling map failed verification")
        ev5 = {"kind": psi.kind, "scales": _scale_strings(field, names, psi.scales)}
        conditions["c5"] = Condition(TRUE, ev5)
    else:
        ev5 = {"kind": "inapplicable", "reason": psi.reason, "witness": psi.witness}
        if brauer_form_pairing(twisted) is None:
            raise AssertionError(
                "the Brauer graph algebra's standard form failed its closed-form certificate"
            )
        if verdict_tw.kind == "not-symmetric":
            ev5["refutation"] = (
                "twisted quotient certified non-symmetric while the Brauer graph "
                "algebra is symmetric, so no isomorphism exists"
            )
            conditions["c5"] = Condition(FALSE, ev5)
        else:
            ev5["plain_verdict"] = "symmetric"
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
        multiplicity=twisted.multiplicity,
        conditions=conditions,
        consistency_ok=not violations,
        violations=violations,
    )


def _scale_strings(field: Field, names: Iterable[str], scales: Mapping[str, object]) -> Dict[str, str]:
    """{a: field.scalar_str(scales[a])} in the order of names, with one
    ``scalar_str`` call per distinct scale object: a scaling map has few
    distinct scales (1 and one root of -1 per multiplicity), and an
    element of Q formats and hashes in Python, so the scales are told
    apart by identity."""
    values = list(map(scales.__getitem__, names))
    text = {k: field.scalar_str(c) for k, c in dict(zip(map(id, values), values)).items()}
    return dict(zip(names, map(text.__getitem__, map(id, values))))


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
    status = {key: cond.status for key, cond in conditions.items()}
    return [
        f"{ant} true but {cons} false"
        for ant, cons in _IMPLICATIONS
        if status[ant] == TRUE and status[cons] == FALSE
    ]


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


_LEAVES = frozenset((str, int, bool, type(None)))


def _jsonable(value):
    # the exact leaf types first: most values of a report are strings and
    # ints.  No value is both a leaf and a container, so the order of the
    # isinstance branches below changes no result
    if type(value) in _LEAVES:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int)):
        return value
    return str(value)
