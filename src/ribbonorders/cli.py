"""Command line interface.

Commands take a spec file path or a `corpus:NAME` pseudo-path; output is
human-readable text, or stable JSON with --json.  See the package README
for the spec-file grammar.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional

from .corpus import CORPUS_NAMES, UnknownCorpusEntry, corpus_quiver
from .decide import batch, decide, report_to_jsonable
from .fdalg import build_quotient_algebra, check_algebra_axioms, is_symmetric_oracle, socle
from .fields import FieldSpecError, parse_field
from .order import (
    canonical_basis,
    cartan_report,
    check_nu_symmetry,
    normalize_multiplicity,
    rank_formula_check,
)
from .polarize import find_sigma_stable, quotient_polarization
from .quiver import GentleQuiver, QuiverError
from .ribbon import connected_components, graph_of_quiver, is_bipartite
from .specfile import ParsedSpec, SpecFileError, parse_spec, serialize_quiver


class UsageError(ValueError):
    """A command-line value that the command cannot use."""


def _load(path: str) -> ParsedSpec:
    if path.startswith("corpus:"):
        name = path.split(":", 1)[1]
        return ParsedSpec(
            quiver=corpus_quiver(name), multiplicity=None, source_kind="quiver"
        )
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _multiplicity_arg(q: GentleQuiver, spec: Optional[str], from_file) -> Dict[str, int]:
    if spec is None:
        return normalize_multiplicity(q, from_file)
    spec = spec.strip()
    if spec.isdigit():
        return normalize_multiplicity(q, int(spec))
    table = {}
    for part in spec.split(","):
        key, sep, value = part.partition("=")
        if not sep or not value.strip().isdigit():
            raise SpecFileError(f"bad multiplicity argument {part!r} (want INT or rep=INT,...)")
        table[key.strip()] = int(value.strip())
    return normalize_multiplicity(q, table)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    try:
        parsed = _load(args.file)
    except (SpecFileError, QuiverError) as exc:
        _emit(args, {"valid": False, "error": str(exc)}, f"INVALID: {exc}")
        return 1
    q = parsed.quiver
    orbits = q.sigma_orbits()
    payload = {
        "valid": True,
        "source": parsed.source_kind,
        "vertices": list(q.vertices),
        "arrows": [{"name": a, "source": s, "target": t} for a, s, t in q.arrows],
        "sigma": {a: q.sigma[a] for a in sorted(q.arrow_names)},
        "orbits": {rep: list(orbit) for rep, orbit in orbits},
        "relations": sorted(f"{b}.{a}" for b, a in q.relations()),
    }
    lines = [
        f"valid complete gentle quiver: {len(q.vertices)} vertices, {len(q.arrows)} arrows",
        "sigma: " + "".join("(" + " ".join(orbit) + ")" for _, orbit in orbits),
        "zero relations: " + ", ".join(payload["relations"]),
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_graph(args) -> int:
    parsed = _load(args.file)
    q = parsed.quiver
    g = graph_of_quiver(q)
    cert = is_bipartite(g)
    comps = connected_components(g)
    payload = {
        "nodes": list(g.nodes),
        "edges": {e: list(g.endpoints(e)) for e in g.edges},
        "components": [list(c) for c in comps],
        "bipartite": cert.is_bipartite,
    }
    lines = [f"graph: {len(g.nodes)} nodes, {len(g.edges)} edges, {len(comps)} component(s)"]
    for e in g.edges:
        u, v = g.endpoints(e)
        lines.append(f"  edge e_{e}: {u} -- {v}" + ("  (loop)" if u == v else ""))
    if args.ribbon:
        payload["cyclic_orders"] = {v: list(g.slots[v]) for v in g.nodes}
        lines.append("cyclic edge orders:")
        for v in g.nodes:
            lines.append(f"  {v}: (" + " ".join(f"e_{e}" for e in g.slots[v]) + ")")
    if cert.is_bipartite:
        payload["coloring"] = dict(sorted(cert.coloring.items()))
        lines.append(
            "bipartite; coloring "
            + " ".join(f"{v}:{cert.coloring[v]}" for v in sorted(cert.coloring))
        )
    else:
        payload["odd_walk"] = list(cert.odd_walk)
        lines.append(f"not bipartite; odd closed walk through edges {list(cert.odd_walk)}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_basis(args) -> int:
    parsed = _load(args.file)
    q = parsed.quiver
    eps = quotient_polarization(q, find_sigma_stable(q))
    basis = canonical_basis(q, eps)
    rank = rank_formula_check(q, parsed.multiplicity)
    payload = {
        "polarization": dict(sorted(eps.signs.items())),
        "basis": [{"label": b.label, "path": b.path.label()} for b in basis.elements],
        "size": len(basis),
        "rank_formula": rank.total_rank,
        "per_arrow": dict(sorted(rank.per_arrow.items())),
    }
    lines = [
        "polarization: " + " ".join(f"{a}:{s}" for a, s in sorted(eps.signs.items())),
        f"canonical basis ({len(basis)} elements):",
    ]
    lines += [f"  {b.label} = {b.path.label()}" for b in basis.elements]
    lines.append(f"rank formula sum m(v_a) n(a) = {rank.total_rank}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_frobenius(args) -> int:
    parsed = _load(args.file)
    q = parsed.quiver
    field = parse_field(args.field)
    eps = quotient_polarization(q, find_sigma_stable(q))
    report = check_nu_symmetry(q, eps, field)
    payload = {
        "field": field.name,
        "polarization": dict(sorted(eps.signs.items())),
        "nu_symmetric": report.ok,
        "pairs_checked": report.pair_count,
        "nonzero_pairs": [list(p) for p in report.nonzero_pairs],
        "nonzero_pairs_match_expected": report.pairs_match,
    }
    lines = [
        f"nu-symmetry of the Frobenius form over {field.name}: "
        + ("PASS" if report.ok else f"FAIL {report.counterexamples[:3]}"),
        f"nonzero pairs (q, p) with phi(q p) != 0 ({len(report.nonzero_pairs)}):",
    ]
    lines += [f"  ({a}, {b})" for a, b in report.nonzero_pairs]
    lines.append(
        "pair list matches the predicted list: " + ("yes" if report.pairs_match else "NO")
    )
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok and report.pairs_match else 1


def cmd_cartan(args) -> int:
    parsed = _load(args.file)
    rep = cartan_report(parsed.quiver)
    payload = {
        "matrix": rep.matrix,
        "rank": rep.rank,
        "nodes": rep.nodes,
        "components": rep.components,
        "rank_criterion_value": rep.rank_criterion_value,
        "rank_criterion_matches": rep.rank_criterion_matches,
    }
    lines = ["Cartan matrix (entry (j,i) = basis paths i -> j):"]
    lines += ["  " + " ".join(f"{x:3d}" for x in row) for row in rep.matrix]
    lines.append(f"rank over Q: {rep.rank}")
    lines.append(
        f"bipartite rank criterion |G_0| - c = {rep.rank_criterion_value}: "
        + ("matches (graph bipartite)" if rep.rank_criterion_matches else "differs (graph not bipartite)")
    )
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_quotient(args) -> int:
    parsed = _load(args.file)
    q = parsed.quiver
    field = parse_field(args.field)
    mm = _multiplicity_arg(q, args.multiplicity, parsed.multiplicity)
    eps = quotient_polarization(q, find_sigma_stable(q))
    alg = build_quotient_algebra(q, field, mm, eps, twisted=not args.untwisted)
    check_algebra_axioms(alg)
    soc = socle(alg)
    verdict = is_symmetric_oracle(alg)
    nonzero = len(alg.products)
    payload = {
        "kind": "twisted" if alg.twisted else "brauer",
        "field": field.name,
        "multiplicity": dict(sorted(mm.items())),
        "dimension": alg.dim,
        "basis": list(alg.basis),
        "nonzero_products": nonzero,
        "socle_dimension": len(soc),
        "socle": [alg.element_str({i: field.one}) for i in soc],
        "non_admissible_arrows": list(alg.non_admissible),
        "oracle": {"verdict": verdict.kind, "method": verdict.method},
    }
    lines = [
        f"{'twisted Brauer graph algebra' if alg.twisted else 'Brauer graph algebra'} over {field.name}",
        f"dimension {alg.dim}; {nonzero} nonzero products among {alg.dim * alg.dim} basis pairs",
        f"socle dimension {len(soc)}",
        f"oracle: {verdict.kind} ({verdict.method})",
    ]
    if alg.non_admissible:
        lines.append(
            "note: defining ideal not admissible at arrows "
            + ", ".join(alg.non_admissible)
        )
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_decide(args) -> int:
    parsed = _load(args.file)
    q = parsed.quiver
    field = parse_field(args.field)
    mm = _multiplicity_arg(q, args.multiplicity, parsed.multiplicity)
    name = args.file.split(":", 1)[1] if args.file.startswith("corpus:") else args.file
    rep = decide(q, field, mm, instance=name)
    payload = report_to_jsonable(rep)
    lines = [f"symmetry report for {name} over {field.name}, m = {dict(sorted(mm.items()))}"]
    descriptions = {
        "c1": "order symmetric",
        "c2": "twisted quotient symmetric",
        "c3": "graph bipartite or char 2",
        "c4": "trivial-involution polarization",
        "c5": "isomorphic to its Brauer graph algebra",
        "c6": "isomorphic to some Brauer graph algebra",
    }
    for key in ("c1", "c2", "c3", "c4", "c5", "c6"):
        cond = rep.conditions[key]
        lines.append(f"  ({key[1]}) {descriptions[key]}: {cond.status}")
    lines.append("consistency: " + ("ok" if rep.consistency_ok else f"VIOLATED {rep.violations}"))
    _emit(args, payload, "\n".join(lines))
    return 0 if rep.consistency_ok else 1


def cmd_corpus(args) -> int:
    fields = [parse_field(f) for f in (args.field or ["gf2", "gf3", "gf5", "Q"])]
    try:
        mults = [int(x) for x in (args.multiplicity_grid or ["1", "2"])]
    except ValueError as exc:
        raise UsageError(f"bad --multiplicity-grid value: {exc}") from None
    instances = [(name, corpus_quiver(name)) for name in CORPUS_NAMES]
    result = batch(instances, fields, mults, strict=False)
    if args.json:
        payload = {
            "reports": [report_to_jsonable(r) for r in result.reports],
            "violations": result.violations,
            "consistent": result.consistent,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"{'instance':10} {'field':6} {'m':3} " + " ".join(f"c{i}" for i in range(1, 7)))
        marks = {"true": "T", "false": "F", "unknown": "?"}
        for rep in result.reports:
            mval = next(iter(sorted(set(rep.multiplicity.values()))))
            cells = " ".join(f"{marks[rep.conditions[f'c{i}'].status]:2}" for i in range(1, 7))
            print(f"{rep.instance:10} {rep.field_name:6} {mval:3} {cells}")
        print("consistency violations: " + (str(result.violations) if result.violations else "none"))
    return 0 if result.consistent else 1


def cmd_resolve(args) -> int:
    parsed = _load(args.file)
    q = parsed.quiver
    periods = {a: q.resolution_period(a) for a in sorted(q.arrow_names)}
    payload = {"periods": periods}
    lines = ["projective resolution periods:"]
    lines += [f"  {a}: {p}" for a, p in periods.items()]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_serialize(args) -> int:
    parsed = _load(args.file)
    sys.stdout.write(serialize_quiver(parsed.quiver, parsed.multiplicity))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonorders",
        description="complete gentle quivers, ribbon graph orders and Brauer graph algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field=False, mult=False):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if field:
            p.add_argument("--field", default="Q", help="gf2, gf3, gf5, gfP or Q (default Q)")
        if mult:
            p.add_argument(
                "-m",
                "--multiplicity",
                default=None,
                help="orbit multiplicities: an integer, or rep=INT[,rep=INT...]",
            )

    p = sub.add_parser("validate", help="check the complete gentle conditions")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("graph", help="ribbon graph, components, bipartite certificate")
    p.add_argument("file")
    p.add_argument("--ribbon", action="store_true", help="also print cyclic edge orders")
    common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("basis", help="canonical basis and rank formula")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("frobenius", help="Frobenius form pair table and nu-symmetry")
    p.add_argument("file")
    common(p, field=True)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("cartan", help="Cartan matrix, rank, bipartite rank criterion")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_cartan)

    p = sub.add_parser("quotient", help="finite-dimensional quotient and symmetry oracle")
    p.add_argument("file")
    flavor = p.add_mutually_exclusive_group()
    flavor.add_argument("--twisted", action="store_true", help="twisted quotient (default)")
    flavor.add_argument("--untwisted", action="store_true", help="plain Brauer graph algebra")
    common(p, field=True, mult=True)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("decide", help="evaluate the six symmetry conditions")
    p.add_argument("file")
    common(p, field=True, mult=True)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("corpus", help="batch decision over the built-in examples")
    p.add_argument("--field", action="append", help="restrict to a field (repeatable)")
    p.add_argument(
        "--multiplicity-grid",
        nargs="*",
        dest="multiplicity_grid",
        help="constant multiplicities to sweep (default: 1 2)",
    )
    common(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("resolve", help="projective resolution periods per arrow")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("serialize", help="print the spec-file form of the input")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_serialize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecFileError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (QuiverError, UnknownCorpusEntry, FieldSpecError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
