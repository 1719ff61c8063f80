"""Parser and serializer for the plain-text quiver spec format.

A quiver file:

    # comments run to end of line
    vertices: 1 2 3
    arrow a: 1 -> 2
    arrow b: 2 -> 1
    sigma: (a b)            # or:  relations: c.a, a.e, ...
    multiplicity: a = 2     # optional, keyed by any arrow of the orbit

A ribbon graph file instead carries a single block listing each node's
incident edges in cyclic slot order (every edge name appears exactly
twice overall):

    ribbon_graph {
      node u: e1 e1 e2
      node v: e2 e3 e3
    }

Either form may carry multiplicity lines; each key must name an arrow of
the quiver built (in the ribbon form, "v_i" is the arrow of node v's slot
i).

A relation token "b.a" names the zero composite of the two arrows; the
composable reading is chosen automatically, and when both readings
compose (loops) the literal one (a first, then b) is used.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .quiver import GentleQuiver, QuiverError, validate_complete_gentle
from .ribbon import RibbonGraph, quiver_from_ribbon_graph

_NAME = r"[A-Za-z0-9_][A-Za-z0-9_.]*"
# the grammar, compiled once
_RIBBON_OPEN = re.compile(r"ribbon_graph\s*\{")
_ARROW = re.compile(rf"arrow\s+({_NAME})")
_ENDS = re.compile(rf"({_NAME})\s*->\s*({_NAME})")
_MULTIPLICITY = re.compile(rf"\s*({_NAME})\s*=\s*([0-9]+)\s*")
_CYCLE = re.compile(r"\(([^()]*)\)")
_CYCLES_AND_SPACE = re.compile(r"\([^()]*\)|\s")
_RELATION = re.compile(rf"({_NAME})\s*\.\s*({_NAME})")
_NODE = re.compile(rf"node\s+({_NAME})\s*:\s*(.+)")


class SpecFileError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass
class ParsedSpec:
    quiver: GentleQuiver
    multiplicity: Optional[Dict[str, int]]
    source_kind: str  # "quiver" or "ribbon"
    ribbon_graph: Optional[RibbonGraph] = None


def parse_spec(text: str) -> ParsedSpec:
    vertices: Optional[List[str]] = None
    arrows: List[Tuple[str, str, str]] = []
    sigma_src: Optional[Tuple[str, int]] = None
    relations_src: Optional[Tuple[str, int]] = None
    multiplicity: Dict[str, int] = {}
    ribbon_lines: List[Tuple[int, str]] = []
    in_ribbon = False
    saw_ribbon = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_ribbon:
            if line == "}":
                in_ribbon = False
            else:
                ribbon_lines.append((lineno, line))
            continue
        if _RIBBON_OPEN.fullmatch(line):
            if saw_ribbon:
                raise SpecFileError("duplicate ribbon_graph block", lineno)
            saw_ribbon = True
            in_ribbon = True
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise SpecFileError(f"cannot parse {line!r}", lineno)
        key = key.strip()
        rest = rest.strip()
        if key == "vertices":
            if vertices is not None:
                raise SpecFileError("duplicate vertices line", lineno)
            vertices = rest.replace(",", " ").split()
            if not vertices:
                raise SpecFileError("empty vertex list", lineno)
        elif key.startswith("arrow"):
            m = _ARROW.fullmatch(key)
            if not m:
                raise SpecFileError(f"bad arrow declaration {key!r}", lineno)
            ends = _ENDS.fullmatch(rest)
            if not ends:
                raise SpecFileError(f"bad arrow endpoints {rest!r} (want SRC -> TGT)", lineno)
            arrows.append((m.group(1), ends.group(1), ends.group(2)))
        elif key == "sigma":
            if sigma_src is not None:
                raise SpecFileError("duplicate sigma line", lineno)
            sigma_src = (rest, lineno)
        elif key == "relations":
            if relations_src is not None:
                raise SpecFileError("duplicate relations line", lineno)
            relations_src = (rest, lineno)
        elif key == "multiplicity":
            for part in rest.split(","):
                mm = _MULTIPLICITY.fullmatch(part)
                if not mm:
                    raise SpecFileError(f"bad multiplicity entry {part.strip()!r}", lineno)
                if mm.group(1) in multiplicity:
                    raise SpecFileError(f"duplicate multiplicity for {mm.group(1)!r}", lineno)
                multiplicity[mm.group(1)] = int(mm.group(2))
        else:
            raise SpecFileError(f"unknown directive {key!r}", lineno)

    if in_ribbon:
        raise SpecFileError("unterminated ribbon_graph block")

    if saw_ribbon:
        if vertices is not None or arrows or sigma_src or relations_src:
            raise SpecFileError("ribbon_graph input cannot be mixed with quiver directives")
        graph = _parse_ribbon(ribbon_lines)
        quiver, kind = quiver_from_ribbon_graph(graph), "ribbon"
    else:
        graph = None
        quiver, kind = _parse_quiver(vertices, arrows, sigma_src, relations_src), "quiver"
    # either form keys its multiplicities by arrow
    for key in multiplicity:
        if key not in quiver.sigma:
            raise SpecFileError(f"multiplicity key {key!r} is not an arrow")
    return ParsedSpec(quiver=quiver, multiplicity=multiplicity or None, source_kind=kind, ribbon_graph=graph)


def _parse_quiver(vertices, arrows, sigma_src, relations_src) -> GentleQuiver:
    if vertices is None:
        raise SpecFileError("missing vertices line")
    if not arrows:
        raise SpecFileError("no arrows declared")
    if (sigma_src is None) == (relations_src is None):
        raise SpecFileError("give exactly one of sigma and relations")

    try:
        if sigma_src is not None:
            sigma = _parse_sigma(sigma_src[0], [a for a, _, _ in arrows], sigma_src[1])
            return validate_complete_gentle(vertices, arrows, sigma=sigma)
        rels = _parse_relations(relations_src[0], arrows, relations_src[1])
        return validate_complete_gentle(vertices, arrows, relations=rels)
    except QuiverError as exc:
        raise SpecFileError(str(exc)) from exc


def _parse_sigma(text: str, arrow_names: List[str], lineno: int) -> Dict[str, str]:
    cycles = _CYCLE.findall(text)
    if _CYCLES_AND_SPACE.sub("", text):
        raise SpecFileError(f"bad sigma syntax {text!r}", lineno)
    sigma: Dict[str, str] = {}
    known = set(arrow_names)
    seen = set()
    for cyc in cycles:
        names = cyc.replace(",", " ").split()
        if not names:
            raise SpecFileError("empty sigma cycle", lineno)
        for a in names:
            if a not in known:
                raise SpecFileError(f"sigma mentions unknown arrow {a!r}", lineno)
            if a in seen:
                raise SpecFileError(f"arrow {a!r} appears twice in sigma", lineno)
            seen.add(a)
        for i, a in enumerate(names):
            sigma[a] = names[(i + 1) % len(names)]
    for a in arrow_names:  # unlisted arrows are fixed points
        sigma.setdefault(a, a)
    return sigma


def _parse_relations(text: str, arrows, lineno: int) -> List[Tuple[str, str]]:
    source = {a: s for a, s, _ in arrows}
    target = {a: t for a, _, t in arrows}
    rels = []
    for token in text.split(","):
        token = token.strip()
        m = _RELATION.fullmatch(token)
        if not m:
            raise SpecFileError(f"bad relation token {token!r} (want SECOND.FIRST)", lineno)
        x, y = m.group(1), m.group(2)
        for name in (x, y):
            if name not in source:
                raise SpecFileError(f"relation mentions unknown arrow {name!r}", lineno)
        if source[x] == target[y]:
            rels.append((x, y))  # literal reading: y first, then x
        elif source[y] == target[x]:
            rels.append((y, x))
        else:
            raise SpecFileError(f"relation {token!r} is not composable either way", lineno)
    return rels


def _parse_ribbon(lines: List[Tuple[int, str]]) -> RibbonGraph:
    nodes: List[str] = []
    slots: Dict[str, Tuple[str, ...]] = {}
    for lineno, line in lines:
        m = _NODE.fullmatch(line)
        if not m:
            raise SpecFileError(f"bad node line {line!r}", lineno)
        name = m.group(1)
        if name in slots:
            raise SpecFileError(f"duplicate node {name!r}", lineno)
        edges = m.group(2).replace(",", " ").split()
        nodes.append(name)
        slots[name] = tuple(edges)
    if not nodes:
        raise SpecFileError("ribbon_graph block has no nodes")
    edge_names = list(dict.fromkeys(e for seq in slots.values() for e in seq))  # first-seen order
    try:
        return RibbonGraph(nodes=nodes, edges=edge_names, slots=slots)
    except QuiverError as exc:
        raise SpecFileError(str(exc)) from exc


def serialize_quiver(q: GentleQuiver, multiplicity: Optional[Dict[str, int]] = None) -> str:
    """Spec-file text that parses back to an equal quiver."""
    lines = [f"vertices: {' '.join(q.vertices)}"]
    for a, s, t in q.arrows:
        lines.append(f"arrow {a}: {s} -> {t}")
    cycles = []
    for _, orbit in q.sigma_orbits():
        cycles.append("(" + " ".join(orbit) + ")")
    lines.append(f"sigma: {''.join(cycles)}")
    if multiplicity:
        for rep in sorted(multiplicity):
            lines.append(f"multiplicity: {rep} = {multiplicity[rep]}")
    return "\n".join(lines) + "\n"
