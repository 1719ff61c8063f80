"""Built-in example quivers used by the CLI, the test suite and `batch`.

The fifteen entries: the two-loop quiver with anti-diagonal successor
("loop2"), the nodal quiver with two fixed loops ("nodal"), the cuspidal
line family line1..line4 (line1 coincides with nodal), the doubled
triangle ("triangle"), the single-orbit triangle ("oneorbit"), a mixed
five-vertex quiver with cycle type (1,2,3,4) ("mixed"), and the circular
family circ1..circ6 (circ1 coincides with loop2 up to names).
"""

from __future__ import annotations

from typing import Dict

from .quiver import GentleQuiver, validate_complete_gentle


def loop2() -> GentleQuiver:
    """Two loops a, b at one vertex with sigma = (a b): k<<a,b>>/(a^2, b^2)."""
    return validate_complete_gentle(
        ["1"],
        [("a", "1", "1"), ("b", "1", "1")],
        sigma={"a": "b", "b": "a"},
    )


def nodal() -> GentleQuiver:
    """Two fixed loops x, y at one vertex: the nodal curve k[[x,y]]/(xy)."""
    return validate_complete_gentle(
        ["1"],
        [("x", "1", "1"), ("y", "1", "1")],
        sigma={"x": "x", "y": "y"},
    )


def line(n: int) -> GentleQuiver:
    """The cuspidal quiver on n vertices: loops x, y at the ends and
    doubled arrows a_j, b_j along the line; its graph is a line with n
    edges."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return nodal()
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [("x", "1", "1"), ("y", str(n), str(n))]
    sigma = {"x": "x", "y": "y"}
    for j in range(1, n):
        arrows.append((f"a{j}", str(j), str(j + 1)))
        arrows.append((f"b{j}", str(j + 1), str(j)))
        sigma[f"a{j}"] = f"b{j}"
        sigma[f"b{j}"] = f"a{j}"
    return validate_complete_gentle(vertices, arrows, sigma=sigma)


def triangle() -> GentleQuiver:
    """The doubled oriented triangle with sigma = (a b)(c d)(e f); its
    graph is a triangle and every cycle has length two."""
    return validate_complete_gentle(
        ["1", "2", "3"],
        [
            ("a", "1", "2"),
            ("b", "2", "1"),
            ("c", "2", "3"),
            ("d", "3", "2"),
            ("e", "3", "1"),
            ("f", "1", "3"),
        ],
        sigma={"a": "b", "b": "a", "c": "d", "d": "c", "e": "f", "f": "e"},
    )


def oneorbit() -> GentleQuiver:
    """The doubled triangle with sigma = (a b c d e f): one orbit of size
    six, so the graph is three loops at a single node."""
    return validate_complete_gentle(
        ["1", "2", "3"],
        [
            ("a", "1", "2"),
            ("b", "2", "3"),
            ("c", "3", "1"),
            ("d", "1", "2"),
            ("e", "2", "3"),
            ("f", "3", "1"),
        ],
        sigma={"a": "b", "b": "c", "c": "d", "d": "e", "e": "f", "f": "a"},
    )


def mixed() -> GentleQuiver:
    """A five-vertex quiver whose permutation has cycle type (1, 2, 3, 4);
    restricting to the vertices 2, 4, 5 recovers the doubled triangle."""
    return validate_complete_gentle(
        ["1", "2", "3", "4", "5"],
        [
            ("x", "1", "1"),
            ("y", "1", "2"),
            ("c", "2", "3"),
            ("b", "2", "4"),
            ("h", "3", "5"),
            ("g", "3", "3"),
            ("f", "4", "5"),
            ("a", "4", "1"),
            ("e", "5", "4"),
            ("d", "5", "2"),
        ],
        sigma={
            "x": "x",
            "a": "y",
            "y": "b",
            "b": "a",
            "c": "g",
            "g": "h",
            "h": "d",
            "d": "c",
            "e": "f",
            "f": "e",
        },
    )


def circular(n: int) -> GentleQuiver:
    """The circular graph order quiver: doubled n-cycle with sigma
    exchanging each a_j with b_j; its graph is a circle of length n."""
    if n < 1:
        raise ValueError("need n >= 1")
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = []
    sigma = {}
    for j in range(1, n + 1):
        nxt = str(j % n + 1)
        arrows.append((f"a{j}", str(j), nxt))
        arrows.append((f"b{j}", nxt, str(j)))
        sigma[f"a{j}"] = f"b{j}"
        sigma[f"b{j}"] = f"a{j}"
    return validate_complete_gentle(vertices, arrows, sigma=sigma)


_BUILDERS = {
    "loop2": loop2,
    "nodal": nodal,
    "line1": lambda: line(1),
    "line2": lambda: line(2),
    "line3": lambda: line(3),
    "line4": lambda: line(4),
    "triangle": triangle,
    "oneorbit": oneorbit,
    "mixed": mixed,
    "circ1": lambda: circular(1),
    "circ2": lambda: circular(2),
    "circ3": lambda: circular(3),
    "circ4": lambda: circular(4),
    "circ5": lambda: circular(5),
    "circ6": lambda: circular(6),
}

CORPUS_NAMES = tuple(_BUILDERS)


class UnknownCorpusEntry(ValueError):
    """A name that is not in CORPUS_NAMES."""


def corpus_quiver(name: str) -> GentleQuiver:
    if name not in _BUILDERS:
        raise UnknownCorpusEntry(f"unknown corpus entry {name!r}; known: {', '.join(CORPUS_NAMES)}")
    return _BUILDERS[name]()


def corpus() -> Dict[str, GentleQuiver]:
    return {name: corpus_quiver(name) for name in CORPUS_NAMES}
