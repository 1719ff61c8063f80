"""Complete gentle quivers: validation, successor permutation, cycles, paths.

A complete gentle quiver has exactly two arrows in and out of every vertex,
and its length-two zero relations are encoded by a successor permutation
``sigma`` on arrows: the composite b*a of arrows with s(b) = t(a) is nonzero
exactly when b = sigma(a).  The relation ideal is therefore derived data and
is never stored.  All values here are immutable; every operation is a pure
function.
"""

from __future__ import annotations

import itertools
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
    maps each arrow name to its unique nonzero successor.  Use
    :func:`validate_complete_gentle` (or the from_* helpers) to build one.
    """

    vertices: Tuple[str, ...]
    arrows: Tuple[Tuple[str, str, str], ...]
    sigma: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "_source", {a: s for a, s, _ in self.arrows})
        object.__setattr__(self, "_target", {a: t for a, _, t in self.arrows})
        out: Dict[str, List[str]] = {v: [] for v in self.vertices}
        inc: Dict[str, List[str]] = {v: [] for v in self.vertices}
        for a, s, t in self.arrows:
            out[s].append(a)
            inc[t].append(a)
        object.__setattr__(self, "_out", {v: tuple(sorted(ar)) for v, ar in out.items()})
        object.__setattr__(self, "_in", {v: tuple(sorted(ar)) for v, ar in inc.items()})

    # basic accessors -------------------------------------------------

    @property
    def arrow_names(self) -> Tuple[str, ...]:
        return tuple(a for a, _, _ in self.arrows)

    def source(self, a: str) -> str:
        return self._source[a]

    def target(self, a: str) -> str:
        return self._target[a]

    def arrows_out(self, vertex: str) -> Tuple[str, ...]:
        return self._out[vertex]

    def arrows_in(self, vertex: str) -> Tuple[str, ...]:
        return self._in[vertex]

    def other_arrow_at(self, vertex: str, a: str) -> str:
        """The second arrow starting at `vertex`, given one of the two."""
        x, y = self._out[vertex]
        return y if a == x else x

    def sigma_power(self, a: str, p: int) -> str:
        for _ in range(p):
            a = self.sigma[a]
        return a

    # orbits and cycles -----------------------------------------------

    def sigma_orbits(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """Partition of Q_1 into sigma-orbits.

        Returns (representative, orbit-in-cycle-order) pairs, where the
        representative is the lexicographically least arrow name and the
        orbit tuple starts at the representative and follows sigma.
        Pairs are sorted by representative.
        """
        seen = set()
        orbits = []
        for a in sorted(self.arrow_names):
            if a in seen:
                continue
            orbit = [a]
            b = self.sigma[a]
            while b != a:
                orbit.append(b)
                b = self.sigma[b]
            seen.update(orbit)
            orbits.append((a, tuple(orbit)))
        return orbits

    def orbit_of(self, a: str) -> Tuple[str, ...]:
        orbit = [a]
        b = self.sigma[a]
        while b != a:
            orbit.append(b)
            b = self.sigma[b]
        return tuple(orbit)

    def orbit_rep(self, a: str) -> str:
        return min(self.orbit_of(a))

    def cycle_of(self, a: str) -> Cycle:
        """The unique repetition-free cyclic path c_a starting with `a`.

        Its length n(a) equals the sigma-orbit size of `a`.
        """
        return Cycle(base=a, arrows=self.orbit_of(a))

    def cycle_length(self, a: str) -> int:
        return len(self.orbit_of(a))

    # paths -------------------------------------------------------------

    def idempotent(self, vertex: str) -> Path:
        if vertex not in self._out:
            raise QuiverError(f"unknown vertex {vertex!r}")
        return Path(start=vertex)

    def path_from(self, a: str, m: int) -> Path:
        """The unique nonzero path a_m of length m starting with arrow `a`."""
        if m < 0:
            raise QuiverError("path length must be >= 0")
        seq = []
        b = a
        for _ in range(m):
            seq.append(b)
            b = self.sigma[b]
        return Path(start=self._source[a], arrows=tuple(seq))

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
        return self.other_arrow_at(self._target[a], self.sigma[a])

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

    Exactly one of ``sigma`` and ``relations`` must be given.  Relations
    are (b, a) pairs meaning the composite b*a is zero; sigma is then
    reconstructed as the unique permitted successor and checked to be a
    permutation compatible with sources and targets.
    """
    vertices = tuple(str(v) for v in vertices)
    if len(set(vertices)) != len(vertices):
        raise QuiverError("duplicate vertex names")
    arrows = tuple((str(a), str(s), str(t)) for a, s, t in arrows)
    names = [a for a, _, _ in arrows]
    if len(set(names)) != len(names):
        raise QuiverError("duplicate arrow names")
    vertex_set = set(vertices)
    for a, s, t in arrows:
        if s not in vertex_set or t not in vertex_set:
            raise QuiverError(f"arrow {a!r} uses undeclared vertex")

    out: Dict[str, List[str]] = {v: [] for v in vertices}
    inc: Dict[str, List[str]] = {v: [] for v in vertices}
    for a, s, t in arrows:
        out[s].append(a)
        inc[t].append(a)
    for v in vertices:
        if len(out[v]) != 2:
            raise QuiverError(f"vertex {v!r} has out-degree {len(out[v])} != 2")
        if len(inc[v]) != 2:
            raise QuiverError(f"vertex {v!r} has in-degree {len(inc[v])} != 2")

    source = {a: s for a, s, _ in arrows}
    target = {a: t for a, _, t in arrows}

    if (sigma is None) == (relations is None):
        raise QuiverError("give exactly one of sigma and relations")

    if sigma is None:
        sigma = _sigma_from_relations(names, source, target, out, relations)

    sigma = dict(sigma)
    if sorted(sigma) != sorted(names) or sorted(sigma.values()) != sorted(names):
        raise QuiverError("sigma is not a permutation of the arrow set")
    for a in names:
        b = sigma[a]
        if source[b] != target[a]:
            raise QuiverError(
                f"sigma({a}) = {b} but source({b}) = {source[b]} != target({a}) = {target[a]}"
            )
    return GentleQuiver(vertices=vertices, arrows=arrows, sigma=sigma)


def _sigma_from_relations(names, source, target, out, relations) -> Dict[str, str]:
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
    for a in names:
        candidates = [b for b in out[target[a]] if (b, a) not in rel_set]
        if len(candidates) != 1:
            forbidden = [b for b in out[target[a]] if (b, a) in rel_set]
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
    if not kept_set < set(q.vertices):
        raise QuiverError("kept vertex set must be a proper subset of Q_0")
    for v in kept:
        if v not in set(q.vertices):
            raise QuiverError(f"unknown vertex {v!r}")

    new_vertices = tuple(v for v in q.vertices if v in kept_set)
    kept_arrows = [a for a in q.arrow_names if q.source(a) in kept_set]
    sigma_prime: Dict[str, str] = {}
    realization: Dict[str, Path] = {}
    for a in kept_arrows:
        b = q.sigma[a]
        m = 1
        while q.source(b) not in kept_set:
            b = q.sigma[b]
            m += 1
        sigma_prime[a] = b
        realization[a] = q.path_from(a, m)
    arrows = tuple(
        (a, q.source(a), q.source(sigma_prime[a])) for a in kept_arrows
    )
    sub = validate_complete_gentle(new_vertices, arrows, sigma=sigma_prime)
    return IdempotentSubquiver(quiver=sub, realization=realization)


def disjoint_union(q1: GentleQuiver, q2: GentleQuiver, tags=("L", "R")) -> GentleQuiver:
    """Disjoint union with tagged names (operations work componentwise)."""

    def tag(name, t):
        return f"{t}.{name}"

    vertices = tuple(tag(v, tags[0]) for v in q1.vertices) + tuple(
        tag(v, tags[1]) for v in q2.vertices
    )
    arrows = tuple(
        (tag(a, tags[0]), tag(s, tags[0]), tag(t, tags[0])) for a, s, t in q1.arrows
    ) + tuple((tag(a, tags[1]), tag(s, tags[1]), tag(t, tags[1])) for a, s, t in q2.arrows)
    sigma = {tag(a, tags[0]): tag(b, tags[0]) for a, b in q1.sigma.items()}
    sigma.update({tag(a, tags[1]): tag(b, tags[1]) for a, b in q2.sigma.items()})
    return validate_complete_gentle(vertices, arrows, sigma=sigma)


def quiver_isomorphism(q1: GentleQuiver, q2: GentleQuiver) -> Optional[Dict[str, str]]:
    """An arrow bijection realizing an isomorphism, or None.

    An isomorphism is a vertex bijection plus an arrow bijection that
    preserves sources, targets and conjugates sigma.  Instances here are
    small, so backtracking over vertex images is fine.
    """
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return None
    type1 = sorted(len(o) for _, o in q1.sigma_orbits())
    type2 = sorted(len(o) for _, o in q2.sigma_orbits())
    if type1 != type2:
        return None

    verts2 = list(q2.vertices)
    for image in itertools.permutations(verts2):
        vmap = dict(zip(q1.vertices, image))
        amap = _match_arrows(q1, q2, vmap)
        if amap is not None:
            return amap
    return None


def _match_arrows(q1, q2, vmap) -> Optional[Dict[str, str]]:
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
            # prune: sigma must be conjugated wherever both sides are mapped
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
