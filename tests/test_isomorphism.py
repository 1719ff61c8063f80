"""Quiver isomorphism by arrow-image propagation.

Every map ``quiver_isomorphism`` returns is checked to be an
isomorphism, and its yes/no answer is compared with the vertex
permutation search it replaced, kept here as the reference.  The search
is factorial, so the differential pairs stay at six vertices or fewer;
the large cases check only the propagation rule.
"""

import itertools
import random
from typing import Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonorders import (
    CORPUS_NAMES,
    corpus_quiver,
    quiver_from_ribbon_graph,
    quiver_isomorphism,
    validate_complete_gentle,
)
from ribbonorders.corpus import circular
from ribbonorders.quiver import disjoint_union
from ribbonorders.ribbon import RibbonGraph

MAX_REFERENCE_VERTICES = 6


def reference_isomorphism(q1, q2) -> Optional[Dict[str, str]]:
    """The earlier search: every vertex bijection, then arrow backtracking."""
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return None
    type1 = sorted(len(o) for _, o in q1.sigma_orbits())
    type2 = sorted(len(o) for _, o in q2.sigma_orbits())
    if type1 != type2:
        return None
    for image in itertools.permutations(q2.vertices):
        amap = _reference_match_arrows(q1, q2, dict(zip(q1.vertices, image)))
        if amap is not None:
            return amap
    return None


def _reference_match_arrows(q1, q2, vmap) -> Optional[Dict[str, str]]:
    amap: Dict[str, str] = {}
    used = set()

    def candidates(a):
        s, t = vmap[q1.source(a)], vmap[q1.target(a)]
        return [
            b
            for b in q2.arrow_names
            if b not in used and q2.source(b) == s and q2.target(b) == t
        ]

    def extend(i, order):
        if i == len(order):
            return all(amap[q1.sigma[a]] == q2.sigma[amap[a]] for a in order)
        a = order[i]
        for b in candidates(a):
            amap[a] = b
            used.add(b)
            ok = True
            for x in order[: i + 1]:
                y = q1.sigma[x]
                if y in amap and amap[y] != q2.sigma[amap[x]]:
                    ok = False
                    break
            if ok and extend(i + 1, order):
                return True
            used.discard(b)
            del amap[a]
        return False

    order = list(q1.arrow_names)
    if extend(0, order):
        return dict(amap)
    return None


def assert_isomorphism(q1, q2, amap):
    """amap is an arrow bijection whose ends induce one vertex bijection
    preserving sources and targets, and it conjugates sigma."""
    assert amap is not None
    assert sorted(amap) == sorted(q1.arrow_names)
    assert sorted(amap.values()) == sorted(q2.arrow_names)
    vmap: Dict[str, str] = {}
    for a, b in amap.items():
        for v, w in ((q1.source(a), q2.source(b)), (q1.target(a), q2.target(b))):
            assert vmap.setdefault(v, w) == w, (a, b, v)
    assert sorted(vmap) == sorted(q1.vertices)
    assert sorted(vmap.values()) == sorted(q2.vertices)
    for a in q1.arrow_names:
        assert amap[q1.sigma[a]] == q2.sigma[amap[a]], a


def relabel(rng: random.Random, q):
    """An isomorphic copy with fresh names, declared in shuffled order."""
    vnames = [f"w{i}" for i in range(len(q.vertices))]
    anames = [f"r{i}" for i in range(len(q.arrows))]
    rng.shuffle(vnames)
    rng.shuffle(anames)
    vmap = dict(zip(q.vertices, vnames))
    amap = dict(zip(q.arrow_names, anames))
    arrows = [(amap[a], vmap[s], vmap[t]) for a, s, t in q.arrows]
    vertices = [vmap[v] for v in q.vertices]
    rng.shuffle(arrows)
    rng.shuffle(vertices)
    sigma = {amap[a]: amap[b] for a, b in q.sigma.items()}
    return validate_complete_gentle(vertices, arrows, sigma=sigma)


def quiver_with_valencies(rng: random.Random, valencies):
    """A random quiver whose sigma-orbit sizes are the given valencies."""
    edges = [f"E{k}" for k in range(sum(valencies) // 2)]
    labels = edges * 2
    rng.shuffle(labels)
    nodes = [f"n{i}" for i in range(len(valencies))]
    slots, pos = {}, 0
    for node, v in zip(nodes, valencies):
        slots[node] = tuple(labels[pos : pos + v])
        pos += v
    return quiver_from_ribbon_graph(RibbonGraph(nodes=nodes, edges=edges, slots=slots))


def random_valencies(rng: random.Random, edges: int):
    """A random composition of 2 * edges into node valencies."""
    slots = 2 * edges
    count = rng.randint(1, slots)
    cuts = sorted(rng.sample(range(1, slots), count - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [slots])]


def check_against_reference(q1, q2) -> bool:
    amap = quiver_isomorphism(q1, q2)
    expected = reference_isomorphism(q1, q2) is not None
    assert (amap is not None) == expected
    if amap is not None:
        assert_isomorphism(q1, q2, amap)
    return expected


def test_corpus_pairs_match_reference():
    small = [corpus_quiver(n) for n in CORPUS_NAMES]
    small = [q for q in small if len(q.vertices) <= MAX_REFERENCE_VERTICES]
    answers = [check_against_reference(q1, q2) for q1 in small for q2 in small]
    assert True in answers and False in answers


def test_same_cycle_type_pairs_match_reference():
    # equal vertex count and cycle type, so only the search itself can
    # tell the pairs apart; both answers must occur
    rng = random.Random(5)
    answers = []
    for _ in range(120):
        valencies = random_valencies(rng, rng.randint(2, MAX_REFERENCE_VERTICES))
        q1 = quiver_with_valencies(rng, valencies)
        q2 = quiver_with_valencies(rng, valencies)
        if rng.random() < 0.5:
            q2 = relabel(rng, q2)
        answers.append(check_against_reference(q1, q2))
    assert answers.count(True) >= 20 and answers.count(False) >= 20


def test_disjoint_unions_match_reference():
    # components declared in the other order, plus a swapped-in component
    # of the same cycle type that may or may not be isomorphic
    rng = random.Random(11)
    answers = []
    for _ in range(60):
        va = random_valencies(rng, rng.randint(1, 3))
        vb = random_valencies(rng, rng.randint(1, 3))
        a, b, c = (quiver_with_valencies(rng, v) for v in (va, vb, va))
        union = disjoint_union(a, b)
        for other in (disjoint_union(b, a), relabel(rng, disjoint_union(b, a)), disjoint_union(b, c)):
            answers.append(check_against_reference(union, other))
    assert True in answers and False in answers


def test_unequal_sizes_are_not_isomorphic():
    assert quiver_isomorphism(corpus_quiver("circ2"), corpus_quiver("circ3")) is None
    assert quiver_isomorphism(corpus_quiver("line1"), corpus_quiver("line2")) is None
    # a component of the larger quiver matches the whole smaller one
    circ2 = corpus_quiver("circ2")
    assert quiver_isomorphism(circ2, disjoint_union(circ2, corpus_quiver("circ1"))) is None


@st.composite
def ribbon_quivers(draw):
    """The quiver of a ribbon graph with 1 to 12 edges."""
    edges = draw(st.integers(1, 12))
    labels = draw(st.permutations([f"E{k}" for k in range(edges)] * 2))
    cuts = draw(st.sets(st.integers(1, 2 * edges - 1), max_size=2 * edges - 1))
    bounds = [0] + sorted(cuts) + [2 * edges]
    nodes = [f"n{i}" for i in range(len(bounds) - 1)]
    slots = {n: tuple(labels[bounds[i] : bounds[i + 1]]) for i, n in enumerate(nodes)}
    return quiver_from_ribbon_graph(
        RibbonGraph(nodes=nodes, edges=[f"E{k}" for k in range(edges)], slots=slots)
    )


@st.composite
def quivers_with_relabelling(draw):
    q = draw(ribbon_quivers())
    return q, relabel(random.Random(draw(st.integers(0, 2**32))), q)


@settings(max_examples=150, deadline=None)
@given(quivers_with_relabelling())
def test_relabelling_is_always_isomorphic(pair):
    q, q2 = pair
    assert_isomorphism(q, q2, quiver_isomorphism(q, q2))


def test_large_circle_against_shuffled_relabelling():
    q = circular(40)
    q2 = relabel(random.Random(40), q)
    assert_isomorphism(q, q2, quiver_isomorphism(q, q2))


def test_large_circle_against_two_half_circles():
    # same vertex count and cycle type (all orbits of size two)
    q1, q2 = circular(40), disjoint_union(circular(20), circular(20))
    assert sorted(len(o) for _, o in q1.sigma_orbits()) == sorted(
        len(o) for _, o in q2.sigma_orbits()
    )
    assert quiver_isomorphism(q1, q2) is None
    assert quiver_isomorphism(q2, q1) is None
