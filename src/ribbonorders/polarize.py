"""Polarizations and the induced involution of a ribbon graph order.

A polarization puts opposite signs on the two arrows out of each vertex.
Its involution scales each arrow a by the sign epsilon(sigma(a)) *
epsilon(a), read in the base field, so every path is scaled by +-1 and in
characteristic two the involution collapses to the identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Union

from .fields import Field
from .quiver import GentleQuiver, Path, QuiverError
from .ribbon import BipartiteCertificate, graph_of_quiver, is_bipartite

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

    def negative_arrow_at(self, q: GentleQuiver, vertex: str) -> str:
        a, b = q.arrows_out(vertex)
        return a if self.signs[a] == MINUS else b

    def is_sigma_stable(self, q: GentleQuiver) -> bool:
        return all(self.signs[a] == self.signs[q.sigma[a]] for a in q.arrow_names)


@dataclass(frozen=True)
class Involution:
    """The algebra involution of a polarization, as field signs on arrows.

    ``signs[a]`` is epsilon(sigma(a)) * epsilon(a) in the field; a path
    a_m is scaled by the product of the signs of sigma^j(a) for j < m.
    """

    quiver: GentleQuiver
    field: Field
    signs: Dict[str, object]

    def path_sign(self, p: Path):
        f = self.field
        acc = f.one
        for a in p.arrows:
            acc = f.mul(acc, self.signs[a])
        return acc

    def is_trivial(self) -> bool:
        return all(s == self.field.one for s in self.signs.values())


def check_polarization(q: GentleQuiver, eps: Polarization) -> None:
    if set(eps.signs) != set(q.arrow_names):
        raise QuiverError("polarization must assign a sign to every arrow")
    for v in q.vertices:
        a, b = q.arrows_out(v)
        if eps.signs[a] == eps.signs[b]:
            raise QuiverError(f"arrows {a}, {b} out of {v} carry equal signs")


def enumerate_polarizations(q: GentleQuiver) -> List[Polarization]:
    """All 2^{|Q_0|} polarizations, in a reproducible order.

    Vertices are taken in declared order and the last vertex varies
    fastest; the first choice at each vertex puts '+' on the
    lexicographically smaller outgoing arrow, so the first entry is
    :func:`default_polarization`.
    """
    per_vertex = []
    for v in q.vertices:
        a, b = q.arrows_out(v)  # sorted, so a < b
        per_vertex.append([{a: PLUS, b: MINUS}, {a: MINUS, b: PLUS}])
    out = []
    for combo in itertools.product(*per_vertex):
        signs: Dict[str, str] = {}
        for d in combo:
            signs.update(d)
        out.append(Polarization(signs=signs))
    return out


def default_polarization(q: GentleQuiver) -> Polarization:
    """'+' on the lexicographically smaller arrow out of each vertex.

    This is ``enumerate_polarizations(q)[0]``, built in O(|Q_0|).
    """
    signs: Dict[str, str] = {}
    for v in q.vertices:
        a, b = q.arrows_out(v)  # sorted, so a < b
        signs[a] = PLUS
        signs[b] = MINUS
    return Polarization(signs=signs)


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
    """
    cert = is_bipartite(graph_of_quiver(q))
    if not cert.is_bipartite:
        return cert
    signs = {a: cert.coloring[q.orbit_rep(a)] for a in q.arrow_names}
    eps = Polarization(signs=signs)
    check_polarization(q, eps)
    return eps


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
    signs: Dict[str, object] = {}
    for a in q.arrow_names:
        if field.char == 2:
            signs[a] = field.one
        else:
            same = eps.signs[a] == eps.signs[q.sigma[a]]
            signs[a] = field.one if same else field.neg(field.one)
    return Involution(quiver=q, field=field, signs=signs)
