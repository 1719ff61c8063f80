"""Polarizations, sigma-stability, and the induced involution."""

import random
import sys
from itertools import islice
from pathlib import Path as FilePath

import pytest

from ribbonorders import (
    CORPUS_NAMES,
    build_quotient_algebra,
    check_nu_symmetry,
    corpus_quiver,
    default_polarization,
    enumerate_polarizations,
    find_sigma_stable,
    graph_of_quiver,
    involution_of,
    is_bipartite,
    serialize_quiver,
    verify_theta_psi,
)
from ribbonorders.corpus import circular
from ribbonorders.fields import GF2, GF3, QQ
from ribbonorders.polarize import Polarization, check_polarization
from ribbonorders.quiver import QuiverError

from reference import is_sigma_stable, path_sign

sys.path.insert(0, str(FilePath(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (perfbench's seeded generator)

STABLE_PROFILES = ((4, 4, 4, 4), (3, 3, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (6, 2, 2, 2), (1, 3, 2, 2, 1, 1))

CORPUS = [
    "loop2", "nodal", "line2", "line3", "line4",
    "triangle", "oneorbit", "mixed", "circ2", "circ3", "circ6",
]


def test_enumeration_count_and_validity():
    for name, count in [("loop2", 2), ("nodal", 2), ("triangle", 8), ("mixed", 32)]:
        q = corpus_quiver(name)
        pols = list(enumerate_polarizations(q))
        assert len(pols) == count
        for eps in pols:
            check_polarization(q, eps)
        assert len({tuple(sorted(p.signs.items())) for p in pols}) == count


def test_enumeration_deterministic_first_entry():
    # first entry: '+' on the lexicographically smaller arrow at each vertex
    q = corpus_quiver("nodal")
    first = next(enumerate_polarizations(q))
    assert first.signs == {"x": "+", "y": "-"}
    q = corpus_quiver("line2")
    first = next(enumerate_polarizations(q))
    assert first.signs["a1"] == "+" and first.signs["x"] == "-"


def test_enumeration_builds_only_what_is_taken():
    # 2^200 polarizations: the first two are built, and nothing else
    q = circular(200)
    first, second = islice(enumerate_polarizations(q), 2)
    assert first == default_polarization(q)
    last = set(q.arrows_out(q.vertices[-1]))  # the last vertex varies fastest
    assert {a for a in q.arrow_names if first.sign(a) != second.sign(a)} == last


def test_positive_x_polarization_is_enumerated():
    # nodal with x positive is among the enumerated polarizations
    q = corpus_quiver("nodal")
    assert any(p.signs == {"x": "+", "y": "-"} for p in enumerate_polarizations(q))


def test_check_polarization_rejects_equal_signs():
    q = corpus_quiver("loop2")
    with pytest.raises(QuiverError):
        check_polarization(q, Polarization(signs={"a": "+", "b": "+"}))


@pytest.mark.parametrize(
    "signs",
    [{"a": "x", "b": "y"}, {"a": "+", "b": "+"}, {"a": "+"}],
    ids=["other-values", "equal-signs", "partial"],
)
def test_checks_and_quotient_reject_an_invalid_polarization(signs):
    # the order checks and the quotient builder validate a polarization
    # the caller passes in, and raise the input error, not a report with
    # ok=False, an AssertionError or a KeyError
    q = corpus_quiver("loop2")
    eps = Polarization(signs=signs)
    with pytest.raises(QuiverError):
        check_polarization(q, eps)
    for check in (check_nu_symmetry, verify_theta_psi):
        with pytest.raises(QuiverError):
            check(q, eps, GF3)
    for twisted in (True, False):
        with pytest.raises(QuiverError):
            build_quotient_algebra(q, GF3, 1, eps, twisted=twisted)


def test_sigma_stable_iff_bipartite():
    # find_sigma_stable does not check its result: the pullback of a
    # proper 2-coloring is a polarization, on the corpus and on 60 seeded
    # draws by valency profile
    rng = random.Random(23)
    quivers = [corpus_quiver(name) for name in CORPUS_NAMES]
    for k in range(60):
        profile = STABLE_PROFILES[k % len(STABLE_PROFILES)]
        quivers.append(gen.random_quiver(rng, profile, bipartite=True if k % 3 else None))
    stable = 0
    for q in quivers:
        result = find_sigma_stable(q)
        bip = is_bipartite(graph_of_quiver(q)).is_bipartite
        if bip:
            assert isinstance(result, Polarization), serialize_quiver(q)
            check_polarization(q, result)
            assert is_sigma_stable(result, q)
            stable += 1
        else:
            assert not isinstance(result, Polarization), serialize_quiver(q)
            assert len(result.odd_walk) % 2 == 1
    assert stable >= 40


def test_loop2_has_no_sigma_stable():
    # sigma(a) = b forces equal signs on the two arrows at the vertex
    result = find_sigma_stable(corpus_quiver("loop2"))
    assert not isinstance(result, Polarization)
    assert result.odd_walk == ("1",)


def test_line_sigma_stable_alternates():
    q = corpus_quiver("line3")
    eps = find_sigma_stable(q)
    assert isinstance(eps, Polarization)
    # orbits alternate along the line; arrows of one orbit share a sign
    assert eps.signs["a1"] == eps.signs["b1"]
    assert eps.signs["a1"] != eps.signs["x"]
    assert eps.signs["a1"] != eps.signs["a2"]


def test_involution_loop2_sign_per_length():
    q = corpus_quiver("loop2")
    eps = Polarization(signs={"a": "+", "b": "-"})
    inv = involution_of(q, eps, QQ)
    minus_one = QQ.neg(QQ.one)
    assert inv.signs == {"a": minus_one, "b": minus_one}
    # nu(p) = (-1)^len(p) p
    for m in range(0, 7):
        p = q.path_from("a", m) if m else q.idempotent("1")
        want = QQ.one if m % 2 == 0 else minus_one
        assert path_sign(inv, p) == want


def test_involution_nodal_identity():
    q = corpus_quiver("nodal")
    eps = Polarization(signs={"x": "+", "y": "-"})
    for field in (QQ, GF3, GF2):
        inv = involution_of(q, eps, field)
        assert inv.is_trivial()


def test_involution_char2_always_identity():
    for name in CORPUS:
        q = corpus_quiver(name)
        for eps in enumerate_polarizations(q):
            assert involution_of(q, eps, GF2).is_trivial()


def test_involution_squares_to_identity_and_fixes_cycles():
    for name in ("loop2", "triangle", "oneorbit", "mixed"):
        q = corpus_quiver(name)
        eps = next(enumerate_polarizations(q))
        inv = involution_of(q, eps, QQ)
        maxn = max(q.cycle_length(a) for a in q.arrow_names)
        for a in q.arrow_names:
            for m in range(1, 2 * maxn + 1):
                p = q.path_from(a, m)
                s = path_sign(inv, p)
                assert QQ.mul(s, s) == QQ.one  # nu^2 = id on every path
            # nu fixes the full cycle c_a
            assert path_sign(inv, q.path_from(a, q.cycle_length(a))) == QQ.one


def test_involution_multiplicative_on_composable_paths():
    q = corpus_quiver("triangle")
    eps = next(islice(enumerate_polarizations(q), 3, None))
    inv = involution_of(q, eps, QQ)
    for a in q.arrow_names:
        for m in range(1, 5):
            for k in range(1, 5):
                p = q.path_from(a, m)
                nxt = q.sigma_power(a, m)
                r = q.path_from(nxt, k)
                prod = q.compose(r, p)
                assert prod is not None
                assert path_sign(inv, prod) == QQ.mul(path_sign(inv, r), path_sign(inv, p))


def test_involution_fixes_idempotents():
    # the involution is the identity on every lazy path, so it permutes
    # the indecomposable projectives trivially (weak symmetry)
    for name in ("loop2", "triangle", "mixed"):
        q = corpus_quiver(name)
        for eps in islice(enumerate_polarizations(q), 2):
            inv = involution_of(q, eps, QQ)
            for v in q.vertices:
                assert path_sign(inv, q.idempotent(v)) == QQ.one


def test_trivial_involution_from_sigma_stable():
    # a sigma-stable polarization gives the identity involution over any field
    q = corpus_quiver("circ4")
    eps = find_sigma_stable(q)
    assert isinstance(eps, Polarization)
    assert involution_of(q, eps, GF3).is_trivial()
    assert involution_of(q, eps, QQ).is_trivial()
