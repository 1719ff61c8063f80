"""Output checks: each returns a list of problems, empty when the output holds.

The checks recompute what they can from the inputs instead of trusting
the package's own flags where that is cheap: the c2 verdict against the
bipartite-or-characteristic-two criterion, the c5 scaling map against
freshly built quotient tables, and every returned arrow map against the
two quivers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Mapping, Optional

import ribbonorders as ro

from workloads import Item

CERTAIN = ("true", "false")


def check_item(item: Item, result) -> List[str]:
    kind, args = item.kind, item.args
    if kind == "grid":
        _, q, fld, _, _ = args
        return check_decision(q, fld, *result)
    if kind == "decide":
        q, fld, _, _ = args
        return check_decision(q, fld, *result)
    if kind == "nu":
        return check_nu(result)
    if kind == "theta_psi":
        return check_theta_psi(result)
    if kind == "roundtrip":
        return check_roundtrip(args[0], *result)
    if kind == "relabel":
        return check_arrow_map(args[0], args[1], result)
    if kind == "negative":
        return [] if result is None else ["non-isomorphic pair returned an arrow map"]
    raise ValueError(f"unknown item kind {kind!r}")


# ---------------------------------------------------------------------------
# decisions


def check_decision(q, fld, report, payload) -> List[str]:
    problems = []
    if not report.consistency_ok or report.violations:
        problems.append(f"implication lattice violated: {report.violations}")
    c2 = report.conditions["c2"]
    if c2.status in CERTAIN:
        expected = ro.is_bipartite(ro.graph_of_quiver(q)).is_bipartite or fld.char == 2
        if (c2.status == "true") != expected:
            problems.append(f"c2 is {c2.status} but bipartite-or-char-2 is {expected}")
    if c2.status == "true" and "witness" not in c2.evidence:
        problems.append("symmetric verdict carries no witness")
    if report.conditions["c5"].status == "true":
        problems.extend(check_psi(q, fld, report))
    problems.extend(_check_payload(report, payload))
    return problems


def _check_payload(report, payload) -> List[str]:
    try:
        json.dumps(payload)
    except (TypeError, ValueError) as exc:
        return [f"report is not JSON-ready: {exc}"]
    statuses = {k: v["status"] for k, v in payload["conditions"].items()}
    if statuses != {k: c.status for k, c in report.conditions.items()}:
        return ["JSON report disagrees with the report's statuses"]
    if payload["consistency"] != report.consistency_ok:
        return ["JSON report disagrees with the report's consistency"]
    return []


def _scalar(fld, text: str):
    value = Fraction(text)
    num, den = fld.from_int(value.numerator), fld.from_int(value.denominator)
    return num if value.denominator == 1 else fld.div(num, den)


def check_psi(q, fld, report) -> List[str]:
    """Re-verify a c5 witness: the reported arrow scalings must give an
    algebra isomorphism from the twisted quotient onto the plain one,
    both built afresh with the sigma-stable polarization recorded in c4."""
    ev5 = report.conditions["c5"].evidence
    ev4 = report.conditions["c4"].evidence
    if ev5.get("kind") not in ("isomorphism", "identity") or "polarization" not in ev4:
        return ["c5 true without a scaling witness and a polarization"]
    scales = {a: _scalar(fld, s) for a, s in ev5["scales"].items()}
    if set(scales) != set(q.arrow_names):
        return ["c5 scalings do not cover every arrow"]
    eps = ro.Polarization(signs=dict(ev4["polarization"]))
    tw = ro.build_quotient_algebra(q, fld, report.multiplicity, eps, twisted=True)
    pl = ro.build_quotient_algebra(q, fld, report.multiplicity, eps, twisted=False)
    return scaling_map_problems(tw, pl, scales)


def scaling_map_problems(tw, pl, scales: Mapping[str, object]) -> List[str]:
    """psi(b) = (product of the arrow scalings along b) * b must be
    bijective and multiplicative: psi(b_i b_j) = psi(b_i) psi(b_j)."""
    f = tw.field
    if tw.basis != pl.basis:
        return ["quotient bases differ"]
    diag = []
    for lab in tw.basis:
        acc = f.one
        for a in tw.paths[lab].arrows:
            acc = f.mul(acc, scales[a])
        diag.append(acc)
    if any(f.is_zero(d) for d in diag):
        return ["scaling map is singular"]
    for i in range(tw.dim):
        for j in range(tw.dim):
            lhs = {k: f.mul(diag[k], c) for k, c in tw.table[i][j].items()}
            factor = f.mul(diag[i], diag[j])
            rhs = {k: f.mul(factor, c) for k, c in pl.table[i][j].items()}
            if lhs != rhs:
                return [f"scaling map not multiplicative at ({tw.basis[i]}, {tw.basis[j]})"]
    return []


# ---------------------------------------------------------------------------
# order level


def check_nu(report) -> List[str]:
    problems = []
    if not report.ok:
        problems.append(f"nu-symmetry fails on {len(report.counterexamples)} pairs")
    if not report.pairs_match:
        problems.append("nonzero Frobenius pairs differ from the expected list")
    return problems


def check_theta_psi(report) -> List[str]:
    return [] if report.ok else ["theta and psi are not mutually inverse bimodule maps"]


# ---------------------------------------------------------------------------
# structure


def check_roundtrip(q, parsed, back, amap) -> List[str]:
    problems = []
    if parsed != q:
        problems.append("spec file round trip changed the quiver")
    problems.extend(check_arrow_map(q, back, amap))
    return problems


def check_arrow_map(q1, q2, amap: Optional[Dict[str, str]]) -> List[str]:
    """An arrow bijection that preserves sources and targets through one
    vertex bijection and conjugates sigma."""
    if amap is None:
        return ["isomorphic pair returned no arrow map"]
    ends1 = {a: (s, t) for a, s, t in q1.arrows}
    ends2 = {a: (s, t) for a, s, t in q2.arrows}
    if set(amap) != set(ends1) or sorted(amap.values()) != sorted(ends2):
        return ["arrow map is not a bijection"]
    vmap: Dict[str, str] = {}
    for a, b in amap.items():
        for v, w in zip(ends1[a], ends2[b]):
            if vmap.setdefault(v, w) != w:
                return [f"arrow map sends vertex {v} to both {vmap[v]} and {w}"]
    if sorted(vmap) != sorted(q1.vertices) or sorted(vmap.values()) != sorted(q2.vertices):
        return ["induced vertex map is not a bijection"]
    for a in ends1:
        if amap[q1.sigma[a]] != q2.sigma[amap[a]]:
            return [f"arrow map does not conjugate sigma at {a}"]
    return []
