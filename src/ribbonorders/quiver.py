"""Complete gentle quivers: validation, successor permutation, cycles, paths.

A complete gentle quiver has exactly two arrows in and out of every vertex,
and its length-two zero relations are encoded by a successor permutation
``sigma`` on arrows: the composite b*a of arrows with s(b) = t(a) is nonzero
exactly when b = sigma(a).  The relation ideal is therefore derived data and
is never stored.  A quiver is validated and its maps are built in one pass,
when it is constructed: sources, targets, the arrows out of each vertex,
sigma's companion tau (the other arrow out of an arrow's source) and the
sigma-orbits are each built once and checked as they are built.  All
values here are immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class QuiverError(ValueError):
    """Raised when input data violates the complete gentle conditions."""


@dataclass(frozen=True)
class Path:
    """A nonzero path: a start vertex and a composable arrow sequence.

    The empty sequence is the lazy path (idempotent) e_i at the start
    vertex.  A nonzero path of length m >= 1 is determined by its first
    arrow a as a_m = sigma^{m-1}(a) ... sigma(a) a; the ``arrows`` tuple
    is stored in application order, so arrows[0] acts first.
    """

    start: str
    arrows: Tuple[str, ...] = ()

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def is_idempotent(self) -> bool:
        return not self.arrows

    def label(self) -> str:
        if not self.arrows:
            return f"e_{self.start}"
        return "*".join(reversed(self.arrows))

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True)
class Cycle:
    """The repetition-free cyclic path c_a starting with a given arrow."""

    base: str
    arrows: Tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)


@dataclass(frozen=True)
class GentleQuiver:
    """A validated complete gentle quiver (Q_0, Q_1, sigma).

    ``arrows`` is an ordered tuple of (name, source, target); ``sigma``
    maps each arrow name to its unique nonzero successor.  Construction
    checks the complete gentle conditions (see
    :func:`validate_complete_gentle`, which also normalizes raw input and
    accepts relations in place of sigma) on the maps it builds, in one
    pass: sources, targets, the sorted pair of arrows out of each vertex,
    each vertex's position, tau, and the walk along sigma that stores the
    orbits with each arrow's orbit and position.  So every orbit query is
    a lookup; equality and repr still read only the three fields.  The
    maps themselves are read-only properties (``sources``,
    ``positions``, ``out_pairs``, ``tau``, ``orbit_places``), for the
    loops that read one fact per arrow or vertex with no call per fact.

    Each quiver also holds one private memo, ``_memo``, of the facts
    that do not depend on a field and that the decisions and the order
    checks compute on it: :func:`polarize.find_sigma_stable`,
    :func:`polarize.default_polarization` and, per (layout kind,
    multiplicity map), the last :func:`order.basis_layout`.  The
    functions that compute them fill it on first call; it is no field,
    so equality and repr do not read it, and it dies with the quiver.
    """

    vertices: Tuple[str, ...]
    arrows: Tuple[Tuple[str, str, str], ...]
    sigma: Mapping[str, str]

    def __post_init__(self):
        pos, source, target, out, tau = _structure(self.vertices, self.arrows)
        sigma = self.sigma
        if sigma.keys() != source.keys() or set(sigma.values()) != source.keys():
            raise QuiverError("sigma is not a permutation of the arrow set")
        for a, t in target.items():
            b = sigma[a]
            if source[b] != t:
                raise QuiverError(f"sigma({a}) = {b} but source({b}) = {source[b]} != target({a}) = {t}")
        # the one walk along sigma: the orbits, each started at its least
        # arrow, and per arrow (its orbit, its position in the orbit)
        orbits = []
        place: Dict[str, Tuple[Tuple[str, ...], int]] = {}
        for a in sorted(source):
            if a in place:
                continue
            orbit = [a]
            b = sigma[a]
            while b != a:
                orbit.append(b)
                b = sigma[b]
            orbit = tuple(orbit)
            orbits.append((a, orbit))
            for k, b in enumerate(orbit):
                place[b] = (orbit, k)
        object.__setattr__(self, "_source", source)
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_out", {v: (x, y) if x < y else (y, x) for v, (x, y) in out.items()})
        object.__setattr__(self, "_tau", tau)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_names", tuple(source))
        object.__setattr__(self, "_orbits", tuple(orbits))
        object.__setattr__(self, "_place", place)
        object.__setattr__(self, "_memo", {})

    # basic accessors -------------------------------------------------

    @property
    def arrow_names(self) -> Tuple[str, ...]:
        return self._names

    def source(self, a: str) -> str:
        return self._source[a]

    def target(self, a: str) -> str:
        return self._target[a]

    def position(self, vertex: str) -> int:
        """The index of `vertex` in ``vertices``."""
        return self._pos[vertex]

    def arrows_out(self, vertex: str) -> Tuple[str, ...]:
        return self._out[vertex]

    def other_arrow_at(self, vertex: str, a: str) -> str:
        """The second arrow starting at `vertex`, given one of the two:
        tau(a)."""
        if self._source.get(a) != vertex:
            raise QuiverError(f"arrow {a!r} does not start at {vertex!r}")
        return self._tau[a]

    # the stored maps, for loops that read one fact per arrow or vertex:
    # the dicts the accessors above and below read, shared, not copied,
    # and like sigma never to be written

    @property
    def sources(self) -> Mapping[str, str]:
        """{arrow: source}; ``source(a)`` is ``sources[a]``."""
        return self._source

    @property
    def positions(self) -> Mapping[str, int]:
        """{vertex: index in ``vertices``}; ``position(v)`` is ``positions[v]``."""
        return self._pos

    @property
    def out_pairs(self) -> Mapping[str, Tuple[str, str]]:
        """{vertex: its two arrows out, sorted}; ``arrows_out(v)`` is
        ``out_pairs[v]``."""
        return self._out

    @property
    def tau(self) -> Mapping[str, str]:
        """{arrow: the other arrow out of its source};
        ``other_arrow_at(source(a), a)`` is ``tau[a]``."""
        return self._tau

    @property
    def orbit_places(self) -> Mapping[str, Tuple[Tuple[str, ...], int]]:
        """{arrow a: (its sigma-orbit from the representative, a's place
        in it)}: ``orbit_rep(a)`` is ``orbit_places[a][0][0]`` and
        ``cycle_length(a)`` is ``len(orbit_places[a][0])``."""
        return self._place

    def sigma_power(self, a: str, p: int) -> str:
        """sigma^p(a); p may be negative."""
        orbit, k = self._place[a]
        return orbit[(k + p) % len(orbit)]

    # orbits and cycles -----------------------------------------------

    def sigma_orbits(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """Partition of Q_1 into sigma-orbits.

        Returns (representative, orbit-in-cycle-order) pairs, where the
        representative is the lexicographically least arrow name and the
        orbit tuple starts at the representative and follows sigma.
        Pairs are sorted by representative.
        """
        return list(self._orbits)

    def orbit_of(self, a: str) -> Tuple[str, ...]:
        orbit, k = self._place[a]
        return orbit[k:] + orbit[:k]

    def orbit_rep(self, a: str) -> str:
        return self._place[a][0][0]

    def cycle_of(self, a: str) -> Cycle:
        """The unique repetition-free cyclic path c_a starting with `a`.

        Its length n(a) equals the sigma-orbit size of `a`.
        """
        return Cycle(base=a, arrows=self.orbit_of(a))

    def cycle_length(self, a: str) -> int:
        return len(self._place[a][0])

    # paths -------------------------------------------------------------

    def idempotent(self, vertex: str) -> Path:
        if vertex not in self._out:
            raise QuiverError(f"unknown vertex {vertex!r}")
        return Path(start=vertex)

    def path_from(self, a: str, m: int) -> Path:
        """The unique nonzero path a_m of length m starting with arrow `a`."""
        if m < 0:
            raise QuiverError("path length must be >= 0")
        orbit, k = self._place[a]
        turn = orbit[k:] + orbit[:k]
        return Path(start=self._source[a], arrows=(turn * (m // len(orbit) + 1))[:m])

    def path_end(self, p: Path) -> str:
        if not p.arrows:
            return p.start
        return self._target[p.arrows[-1]]

    def compose(self, q: Path, p: Path) -> Optional[Path]:
        """The product q*p (first p, then q), or None if it is zero.

        Zero happens at a source/target mismatch or when the junction
        arrow of q is not the sigma-successor of the last arrow of p.
        """
        if self.path_end(p) != q.start:
            return None
        if not p.arrows:
            return q
        if not q.arrows:
            return p
        if q.arrows[0] != self.sigma[p.arrows[-1]]:
            return None
        return Path(start=p.start, arrows=p.arrows + q.arrows)

    def first_arrow_form(self, p: Path) -> Optional[Tuple[str, int]]:
        """Write a nonzero path as (first arrow, length); None for e_i."""
        if not p.arrows:
            return None
        return p.arrows[0], len(p.arrows)

    # derived constructions ----------------------------------------------

    def normalization(self) -> List["CyclicQuiver"]:
        """One cyclic quiver per sigma-orbit; sizes form the cycle type.

        The j-th factor has the orbit's arrows in cycle order, with a
        fresh vertex i_a for each arrow a and a: i_a -> i_{sigma(a)}.
        """
        out = []
        for rep, orbit in self.sigma_orbits():
            vertices = tuple(f"i_{a}" for a in orbit)
            arrows = tuple(
                (a, f"i_{a}", f"i_{orbit[(k + 1) % len(orbit)]}")
                for k, a in enumerate(orbit)
            )
            out.append(CyclicQuiver(representative=rep, vertices=vertices, arrows=arrows))
        return out

    def resolution_period(self, a: str) -> int:
        """Period of the minimal projective resolution of the arrow ideal at `a`.

        phi(a) is the unique arrow at t(a) other than sigma(a) (the
        forbidden successor); the period is the phi-orbit size of `a`.
        """
        if a not in self._source:
            raise QuiverError(f"unknown arrow {a!r}")
        b = self.resolution_successor(a)
        period = 1
        while b != a:
            b = self.resolution_successor(b)
            period += 1
        return period

    def resolution_successor(self, a: str) -> str:
        """tau(sigma(a)), the arrow at t(a) other than sigma(a)."""
        return self._tau[self.sigma[a]]

    def relations(self) -> List[Tuple[str, str]]:
        """The derived length-two zero relations as (b, a) pairs with b*a = 0."""
        rels = []
        for a in self.arrow_names:
            rels.append((self.resolution_successor(a), a))
        return rels

    def __str__(self) -> str:
        arrows = ", ".join(f"{a}:{s}->{t}" for a, s, t in self.arrows)
        return f"GentleQuiver({len(self.vertices)} vertices; {arrows})"


@dataclass(frozen=True)
class CyclicQuiver:
    """A cyclic quiver factor of the normalization (not complete gentle)."""

    representative: str
    vertices: Tuple[str, ...]
    arrows: Tuple[Tuple[str, str, str], ...]

    @property
    def size(self) -> int:
        return len(self.arrows)


@dataclass(frozen=True)
class IdempotentSubquiver:
    """Result of restricting to a vertex subset: the quiver plus, for each
    kept arrow, the path of the parent quiver realizing it."""

    quiver: GentleQuiver
    realization: Mapping[str, Path]


def validate_complete_gentle(
    vertices: Sequence[str],
    arrows: Sequence[Tuple[str, str, str]],
    sigma: Optional[Mapping[str, str]] = None,
    relations: Optional[Iterable[Tuple[str, str]]] = None,
) -> GentleQuiver:
    """Validate raw quiver data and return a GentleQuiver.

    Names are coerced to str.  Exactly one of ``sigma`` and ``relations``
    must be given.  Relations are (b, a) pairs meaning the composite b*a
    is zero; sigma is then reconstructed as the unique permitted
    successor.  The :class:`GentleQuiver` construction checks the rest,
    in this order, and the first failure raises: duplicate vertices,
    duplicate arrows, an arrow at an undeclared vertex (first in arrow
    order), out- and then in-degree 2 (vertex by vertex), sigma a
    permutation, and s(sigma(a)) = t(a) (first in arrow order).  The
    structural conditions, the first four, come before a missing or
    doubled sigma and before every relation error.
    """
    vertices = tuple(map(str, vertices))
    arrows = tuple([(str(a), str(s), str(t)) for a, s, t in arrows])
    if sigma is None or relations is not None:
        # relations are read on the structure's maps, so its errors come first
        _, source, target, out, _ = _structure(vertices, arrows)
        if (sigma is None) == (relations is None):
            raise QuiverError("give exactly one of sigma and relations")
        sigma = _sigma_from_relations(source, target, out, relations)
    return GentleQuiver(vertices=vertices, arrows=arrows, sigma=dict(sigma))


def _structure(vertices, arrows):
    """The maps of (vertices, arrows), checked as they are built: each
    vertex's position, each arrow's source and target, the two arrows out
    of each vertex in declared order, and tau, which swaps those two.
    Raises QuiverError at the first structural condition that fails."""
    pos = {v: i for i, v in enumerate(vertices)}
    if len(pos) != len(vertices):
        raise QuiverError("duplicate vertex names")
    source = {a: s for a, s, _ in arrows}
    if len(source) != len(arrows):
        raise QuiverError("duplicate arrow names")
    target: Dict[str, str] = {}
    out: Dict[str, List[str]] = {v: [] for v in vertices}
    indegree = dict.fromkeys(vertices, 0)
    for a, s, t in arrows:
        if s not in pos or t not in pos:
            raise QuiverError(f"arrow {a!r} uses undeclared vertex")
        target[a] = t
        out[s].append(a)
        indegree[t] += 1
    tau: Dict[str, str] = {}
    for v, pair in out.items():
        if len(pair) != 2:
            raise QuiverError(f"vertex {v!r} has out-degree {len(pair)} != 2")
        if indegree[v] != 2:
            raise QuiverError(f"vertex {v!r} has in-degree {indegree[v]} != 2")
        x, y = pair
        tau[x] = y
        tau[y] = x
    return pos, source, target, out, tau


def _sigma_from_relations(source, target, out, relations) -> Dict[str, str]:
    rel_set = set()
    for b, a in relations:
        if b not in source or a not in source:
            raise QuiverError(f"relation {b}.{a} uses unknown arrow")
        if source[b] != target[a]:
            raise QuiverError(
                f"relation {b}.{a} is not composable: source({b}) != target({a})"
            )
        rel_set.add((b, a))
    sigma = {}
    for a, t in target.items():
        candidates = [b for b in out[t] if (b, a) not in rel_set]
        if len(candidates) != 1:
            forbidden = [b for b in out[t] if (b, a) in rel_set]
            raise QuiverError(
                f"arrow {a!r} has {len(candidates)} permitted successors "
                f"(relations forbid {forbidden}); the gentle condition needs exactly one"
            )
        sigma[a] = candidates[0]
    return sigma


def idempotent_subquiver(q: GentleQuiver, kept: Iterable[str]) -> IdempotentSubquiver:
    """Restrict to a nonempty proper vertex subset.

    The kept arrows are those with source in the subset; the new successor
    is sigma' (a) = sigma^m(a) for the least m >= 1 landing on a kept
    arrow, and new targets follow.  The realizing parent path a_m is
    recorded per arrow.  The result is again complete gentle.
    """
    kept = tuple(dict.fromkeys(str(v) for v in kept))
    kept_set = set(kept)
    if not kept_set:
        raise QuiverError("kept vertex set is empty")
    for v in kept:
        if v not in q._pos:
            raise QuiverError(f"unknown vertex {v!r}")
    if len(kept_set) == len(q.vertices):
        raise QuiverError("kept vertex set must be a proper subset of Q_0")

    new_vertices = tuple(v for v in q.vertices if v in kept_set)
    kept_arrows = [a for a in q.arrow_names if q.source(a) in kept_set]
    # along each orbit, every kept arrow's successor is the next kept one
    step: Dict[str, Tuple[str, int]] = {}
    for _, orbit in q.sigma_orbits():
        at = [k for k, a in enumerate(orbit) if q.source(a) in kept_set]
        for k, k2 in zip(at, at[1:] + at[:1]):
            step[orbit[k]] = (orbit[k2], (k2 - k - 1) % len(orbit) + 1)
    sigma_prime: Dict[str, str] = {}
    realization: Dict[str, Path] = {}
    for a in kept_arrows:
        sigma_prime[a], m = step[a]
        realization[a] = q.path_from(a, m)
    arrows = tuple(
        (a, q.source(a), q.source(sigma_prime[a])) for a in kept_arrows
    )
    sub = validate_complete_gentle(new_vertices, arrows, sigma=sigma_prime)
    return IdempotentSubquiver(quiver=sub, realization=realization)


def disjoint_union(q1: GentleQuiver, q2: GentleQuiver) -> GentleQuiver:
    """Disjoint union, each name tagged "L." (from q1) or "R." (from q2);
    operations work componentwise."""
    parts = (("L", q1), ("R", q2))
    vertices = tuple(f"{t}.{v}" for t, q in parts for v in q.vertices)
    arrows = tuple((f"{t}.{a}", f"{t}.{s}", f"{t}.{r}") for t, q in parts for a, s, r in q.arrows)
    sigma = {f"{t}.{a}": f"{t}.{b}" for t, q in parts for a, b in q.sigma.items()}
    return validate_complete_gentle(vertices, arrows, sigma=sigma)


def quiver_isomorphism(q1: GentleQuiver, q2: GentleQuiver) -> Optional[Dict[str, str]]:
    """An arrow bijection realizing an isomorphism, or None.

    An isomorphism is a vertex bijection plus an arrow bijection that
    preserves sources and targets and conjugates sigma.  It then also
    conjugates tau, which swaps the two arrows out of each vertex, and
    sigma and tau together act transitively on the arrows of a connected
    component.  So the image of one arrow fixes the map on its component,
    and a map conjugating both is an isomorphism: tau-orbits are the
    vertices, and t(a) = s(sigma(a)) carries the targets.  Each component
    of q1, in declared arrow order, tries every unused arrow of q2 as the
    image of its first arrow; matching greedily is sound because
    isomorphism is an equivalence relation.  A try costs O(component
    size), so the test is O(|Q_1|^2) in all.  |Q_1| = 2 |Q_0|, so equal
    arrow counts give equal vertex counts.
    """
    if len(q1.arrows) != len(q2.arrows):
        return None
    amap: Dict[str, str] = {}
    used = set()
    for a in q1.arrow_names:
        if a in amap:
            continue
        for b in q2.arrow_names:
            if b not in used:
                part = _propagate(q1, q2, a, b)
                if part is not None:
                    break
        else:
            return None
        amap.update(part)
        used.update(part.values())
    return amap


def _propagate(q1, q2, a, b) -> Optional[Dict[str, str]]:
    """The map on the component of `a` that sends `a` to `b` and conjugates
    sigma and tau, or None if one arrow needs two images or two arrows one."""
    sigma1, tau1, sigma2, tau2 = q1.sigma, q1._tau, q2.sigma, q2._tau
    part = {a: b}
    images = {b}
    stack = [a]
    while stack:
        x = stack.pop()
        y = part[x]
        for x2, y2 in ((sigma1[x], sigma2[y]), (tau1[x], tau2[y])):
            if x2 in part:
                if part[x2] != y2:
                    return None
            elif y2 in images:
                return None
            else:
                part[x2] = y2
                images.add(y2)
                stack.append(x2)
    return part
