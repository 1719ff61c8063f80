"""The benchmark workloads: their inputs and how one item runs.

An item is one closed-loop request: the next starts only when the
previous one has returned.  Items call the package through module
attributes looked up at call time, so the traced run sees its spans.

* corpus_grid     -- the 120 decisions of ``ribbonorders corpus --json``.
* decide_scaling  -- a few large decisions over GF(3) and Q, plus seeded
                     random ribbon graphs with eight edges.
* order_structure -- order-level nu-symmetry and theta/psi checks,
                     spec-file and ribbon-graph round trips, isomorphism
                     against seeded relabellings and one hard negative.
"""

from __future__ import annotations

import importlib
import random
from typing import Callable, Dict, List, NamedTuple, Tuple

import ribbonorders as ro
from ribbonorders.corpus import circular, line
from ribbonorders.quiver import disjoint_union

import gen

decide_module = importlib.import_module("ribbonorders.decide")


class Item(NamedTuple):
    kind: str
    label: str
    args: Tuple


# the corpus grid: the CLI defaults of `ribbonorders corpus`
GRID_FIELDS = ("gf2", "gf3", "gf5", "Q")
GRID_MULTIPLICITIES = (1, 2)

# the scaling set: (family, n, field) with fixed sizes ...
SCALING_FIXED = (
    ("circular", 12, "gf3"),
    ("circular", 16, "gf3"),
    ("circular", 17, "gf3"),  # odd circle: the 2^17 polarization list
    ("line", 20, "gf3"),
    ("circular", 12, "Q"),  # quotient dimension 48
    ("circular", 13, "Q"),
    ("line", 12, "Q"),
)
# ... and seeded random graphs, eight edges each: (valencies, bipartite).
# Quotient dimension is the sum of squared valencies: 64, 44 and 226;
# the last exceeds the oracle's default dim_cap of 200.
SCALING_PROFILES = (
    ((4, 4, 4, 4), True),
    ((4, 4, 4, 4), False),
    ((3, 3, 3, 3, 2, 2), True),
    ((3, 3, 3, 3, 2, 2), False),
    ((15, 1), False),
)
SCALING_RANDOM_FIELDS = ("gf2", "gf3", "Q")
# Two graphs per profile: the cost of a draw varies with the seed, and the
# median item falls among the small GF(2)/GF(3) draws, so more of them
# steady item_p50_ms from seed to seed.
SCALING_DRAWS = 2

# order_structure: order checks on eight-edge random graphs and built-ins.
# Isomorphism search against a relabelling costs whatever the relabelling
# makes it cost, so those graphs are small (six edges) and the cheap,
# steady round trips outnumber them: neither latency percentile then
# lands on a search whose cost is drawn by the seed.  The hard negative
# pair shows the factorial search at a fixed size.
ORDER_PROFILES = ((4, 4, 4, 4), (4, 4, 4, 4), (3, 3, 2, 2, 2, 2, 2), (3, 3, 2, 2, 2, 2, 2))
ORDER_BUILTINS = ("mixed", "oneorbit", "line4", "circ6")
ORDER_FIELDS = ("gf3", "Q")
RELABEL_PROFILE = (3, 3, 2, 2, 2)
RELABEL_RANDOM = 32  # many, so the median item is not set by a few draws
RELABEL_BUILTINS = ("mixed", "oneorbit", "triangle", "line4", "circ6")


def corpus_grid(seed: int) -> List[Item]:
    fields = [ro.parse_field(s) for s in GRID_FIELDS]
    items = []
    for name in ro.CORPUS_NAMES:
        q = ro.corpus_quiver(name)
        for fld in fields:
            for m in GRID_MULTIPLICITIES:
                items.append(Item("grid", f"{name}/{fld.name}/m={m}", (name, q, fld, m, seed)))
    return items


def decide_scaling(seed: int) -> List[Item]:
    items = []
    for family, n, spec in SCALING_FIXED:
        q = circular(n) if family == "circular" else line(n)
        fld = ro.parse_field(spec)
        label = f"{family}({n})/{fld.name}"
        items.append(Item("decide", label, (q, fld, seed, label)))
    rng = random.Random(seed)
    fields = [ro.parse_field(s) for s in SCALING_RANDOM_FIELDS]
    for k, (valencies, bipartite) in enumerate(SCALING_PROFILES):
        for d in range(SCALING_DRAWS):
            q = gen.random_quiver(rng, valencies, bipartite)
            for fld in fields:
                label = f"random{k}.{d}{list(valencies)}/{fld.name}"
                items.append(Item("decide", label, (q, fld, seed, label)))
    return items


def order_structure(seed: int) -> List[Item]:
    rng = random.Random(seed)
    randoms = [(f"random{k}{list(v)}", gen.random_quiver(rng, v)) for k, v in enumerate(ORDER_PROFILES)]
    builtins = [(name, ro.corpus_quiver(name)) for name in ORDER_BUILTINS]
    fields = [ro.parse_field(s) for s in ORDER_FIELDS]
    items = []
    for name, q in randoms + builtins:
        eps = gen.random_polarization(rng, q)
        for fld in fields:
            items.append(Item("nu", f"{name}/{fld.name}", (q, eps, fld)))
            items.append(Item("theta_psi", f"{name}/{fld.name}", (q, eps, fld)))
    pairs = [(n, ro.corpus_quiver(n)) for n in RELABEL_BUILTINS]
    for k in range(RELABEL_RANDOM):
        pairs.append((f"small{k}{list(RELABEL_PROFILE)}", gen.random_quiver(rng, RELABEL_PROFILE)))
    pairs = [(name, q, gen.relabel(rng, q)) for name, q in pairs]
    structures = randoms + [(n, ro.corpus_quiver(n)) for n in ro.CORPUS_NAMES]
    for name, q, q2 in pairs[len(RELABEL_BUILTINS) :]:
        structures += [(name, q), (f"{name}'", q2)]
    for name, q in structures:
        items.append(Item("roundtrip", name, (q,)))
    for name, q, q2 in pairs:
        items.append(Item("relabel", name, (q, q2)))
    items.append(
        Item("negative", "circular(8)|circular(4)+circular(4)", (circular(8), disjoint_union(circular(4), circular(4))))
    )
    return items


WORKLOADS: Dict[str, Callable[[int], List[Item]]] = {
    "corpus_grid": corpus_grid,
    "decide_scaling": decide_scaling,
    "order_structure": order_structure,
}


def run_item(item: Item):
    """Run one item through the package's public functions."""
    kind, args = item.kind, item.args
    if kind == "grid":
        name, q, fld, m, seed = args
        rep = ro.batch([(name, q)], [fld], [m], seed=seed, strict=False).reports[0]
        return rep, decide_module.report_to_jsonable(rep)
    if kind == "decide":
        q, fld, seed, label = args
        rep = ro.decide(q, fld, seed=seed, instance=label)
        return rep, decide_module.report_to_jsonable(rep)
    if kind == "nu":
        return ro.check_nu_symmetry(*args)
    if kind == "theta_psi":
        return ro.verify_theta_psi(*args)
    if kind == "roundtrip":
        (q,) = args
        parsed = ro.parse_spec(ro.serialize_quiver(q)).quiver
        back = ro.quiver_from_ribbon_graph(ro.graph_of_quiver(parsed))
        return parsed, back, ro.quiver_isomorphism(q, back)
    if kind in ("relabel", "negative"):
        return ro.quiver_isomorphism(*args)
    raise ValueError(f"unknown item kind {kind!r}")


def is_decision(item: Item) -> bool:
    return item.kind in ("grid", "decide")
