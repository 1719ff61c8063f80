"""Polarizations and the induced involution of a ribbon graph order.

A polarization puts opposite signs on the two arrows out of each vertex.
Its involution scales each arrow a by the sign epsilon(sigma(a)) *
epsilon(a), read in the base field, so every path is scaled by +-1 and in
characteristic two the involution collapses to the identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple, Union

from .fields import Field
from .quiver import GentleQuiver, QuiverError
from .ribbon import BipartiteCertificate, _two_coloring

PLUS = "+"
MINUS = "-"


@dataclass(frozen=True)
class Polarization:
    """Sign map on arrows; opposite signs at each vertex's out-pair."""

    signs: Dict[str, str]

    def sign(self, arrow: str) -> str:
        return self.signs[arrow]

    def positive_arrow_at(self, q: GentleQuiver, vertex: str) -> str:
        a, b = q.arrows_out(vertex)
        return a if self.signs[a] == PLUS else b


@dataclass(frozen=True)
class Involution:
    """The algebra involution of a polarization, as field signs on arrows.

    ``signs[a]`` is epsilon(sigma(a)) * epsilon(a) in the field; a path
    a_m is scaled by the product of the signs of sigma^j(a) for j < m.
    """

    quiver: GentleQuiver
    field: Field
    signs: Dict[str, object]

    def is_trivial(self) -> bool:
        return all(s == self.field.one for s in self.signs.values())


def check_polarization(q: GentleQuiver, eps: Polarization) -> None:
    """Raise QuiverError unless eps puts '+' or '-' on every arrow of q
    and opposite signs on the two arrows out of each vertex."""
    signs = eps.signs
    if signs.keys() != q.sources.keys():
        raise QuiverError("polarization must assign a sign to every arrow")
    for a in q.arrow_names:
        if signs[a] not in (PLUS, MINUS):
            raise QuiverError(f"polarization sign of {a} is {signs[a]!r}, not '+' or '-'")
    for v, (a, b) in q.out_pairs.items():  # in vertex order
        if signs[a] == signs[b]:
            raise QuiverError(f"arrows {a}, {b} out of {v} carry equal signs")


def enumerate_polarizations(q: GentleQuiver) -> Iterator[Polarization]:
    """All 2^{|Q_0|} polarizations, one at a time, in a reproducible order.

    Vertices are taken in declared order and the last vertex varies
    fastest; the first choice at each vertex puts '+' on the
    lexicographically smaller outgoing arrow, so the first one yielded is
    :func:`default_polarization`.  Each is built when it is asked for,
    so ``next`` or ``itertools.islice`` costs O(|Q_0|) per polarization
    taken, and the 2^{|Q_0|} are never held at once.
    """
    per_vertex = [[{a: PLUS, b: MINUS}, {a: MINUS, b: PLUS}] for a, b in q.out_pairs.values()]  # a < b
    for combo in itertools.product(*per_vertex):
        signs: Dict[str, str] = {}
        for d in combo:
            signs.update(d)
        yield Polarization(signs=signs)


def default_polarization(q: GentleQuiver) -> Polarization:
    """'+' on the lexicographically smaller arrow out of each vertex.

    This is ``next(enumerate_polarizations(q))``, built in O(|Q_0|) on
    the first call and kept in q's memo: every later call returns the
    same object, so the quotients and the canonical basis built with it
    find their layout there (:func:`order.basis_layout`).
    """
    memo = q._memo
    eps = memo.get("default_polarization")
    if eps is None:
        signs: Dict[str, str] = {}
        for a, b in q.out_pairs.values():  # in vertex order; sorted, so a < b
            signs[a] = PLUS
            signs[b] = MINUS
        eps = memo["default_polarization"] = Polarization(signs=signs)
    return eps


def find_sigma_stable(
    q: GentleQuiver,
) -> Union[Polarization, BipartiteCertificate]:
    """A sigma-stable polarization, or the odd-walk witness of its absence.

    Sigma-stable polarizations are exactly pullbacks of node two-colorings
    along the orbit map, so one exists iff the graph is bipartite.  The
    returned one pulls back the package-wide coloring convention, so the
    sign of an orbit representative is the color of its node: in each
    component of the ribbon graph, the class of the node with the
    lexicographically least representative is '-'.  The '-' orbits are the
    ones whose representatives get rescaled when comparing the twisted
    quotient with the Brauer graph algebra; on line graphs this reproduces
    the familiar alternating signs a_j -> (-1)^j a_j.

    The coloring, or the odd walk, is ``is_bipartite(graph_of_quiver(q))``
    read off the quiver, with no ribbon graph built: the node of an orbit
    lists the edge e_{s(a)} for each of its arrows a, so the two ends of
    the edge v are the orbits of the two arrows out of v.  One pass over
    the vertices reads each one's two representatives once: a loop is
    the certificate first, the first in vertex (edge) order, as there;
    else the pass has built :meth:`ribbon.RibbonGraph.adjacency` of
    ``graph_of_quiver(q)``, and the one component walk
    (:func:`ribbon._component_walk`) runs on it over the orbit
    representatives, in ``q.sigma_orbits()`` (sorted) order.  This is
    the one place that reads the adjacency off the quiver: a decision
    builds no ribbon graph, and every other graph query walks
    :func:`ribbon.graph_of_quiver`.

    The pass reads the stored maps, one lookup per fact: each vertex's
    two arrows off ``q.out_pairs`` (in vertex order) and each arrow's
    representative off ``q.orbit_places``, which the signs, in arrow
    order, read again.

    The pullback is a polarization, so it is not checked here (the
    quotient builder checks the polarization it is given).  The coloring
    is proper, so the two arrows out of v get the two colors '+' and
    '-'.  Were both arrows in one orbit, the edge v would be a loop, and
    a graph with a loop has no proper coloring.

    The result depends on q alone, so the pass runs on the first call
    and the result is kept in q's memo: every later call, whatever the
    field of the decision that makes it, returns the same object, and
    a decision's quotient, built with it, finds its layout there.
    """
    memo = q._memo
    stable = memo.get("sigma_stable")
    if stable is None:
        stable = memo["sigma_stable"] = _sigma_stable_pass(q)
    return stable


def _sigma_stable_pass(q: GentleQuiver) -> Union[Polarization, BipartiteCertificate]:
    """:func:`find_sigma_stable`'s one pass over the vertices and its
    component walk."""
    place = q.orbit_places
    adj: Dict[str, List[Tuple[str, str]]] = {r: [] for r, _ in q.sigma_orbits()}
    for v, (a, b) in q.out_pairs.items():  # graph_of_quiver(q).adjacency(), stopping at the first loop
        u, w = place[a][0][0], place[b][0][0]
        if u == w:
            return BipartiteCertificate(odd_walk=(v,))
        adj[u].append((w, v))
        adj[w].append((u, v))
    cert = _two_coloring(list(adj), adj)
    if not cert.is_bipartite:
        return cert
    color = cert.coloring
    return Polarization(signs={a: color[place[a][0][0]] for a in q.arrow_names})


def quotient_polarization(
    q: GentleQuiver, stable: Union[Polarization, BipartiteCertificate]
) -> Polarization:
    """The polarization every quotient of q is built with, given
    :func:`find_sigma_stable` of q: the sigma-stable one when the graph
    is bipartite, :func:`default_polarization` otherwise."""
    return stable if isinstance(stable, Polarization) else default_polarization(q)


def involution_of(q: GentleQuiver, eps: Polarization, field: Field) -> Involution:
    """Arrow signs epsilon(sigma(a)) * epsilon(a) read in the field.

    In characteristic two both polarization signs act as +1, so every
    arrow sign is 1 and the involution is the identity.
    """
    check_polarization(q, eps)
    one = field.one
    if field.char == 2:
        return Involution(quiver=q, field=field, signs=dict.fromkeys(q.arrow_names, one))
    minus, sign, sigma = field.neg(one), eps.signs, q.sigma
    signs = {a: one if sign[a] == sign[sigma[a]] else minus for a in q.arrow_names}
    return Involution(quiver=q, field=field, signs=signs)
