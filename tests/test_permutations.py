import math
import random
import re
import time
from itertools import permutations as iter_perms

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import filtered_centralizer, set_walk_format
from quandles.limits import SearchCapError
from quandles.permutations import (
    Permutation,
    _format_image,
    _parse_image,
    all_permutations,
    centralizer,
    compose,
    conjugacy_class_representatives,
    conjugator,
    format_cycles,
    inverse,
    is_conjugate,
    orbits,
    order,
    parse_cycles,
)


def P(text, n):
    return parse_cycles(text, n)


def test_parse_cycles_examples():
    assert P("(1 2)", 2).image == (2, 1)
    assert P("()", 3).image == (1, 2, 3)
    assert P("", 3).image == (1, 2, 3)
    assert P("(1 2 3)", 3).image == (2, 3, 1)
    assert P("(1 2)(4 5)", 5).image == (2, 1, 3, 5, 4)
    assert eval(repr(P("(1 2)(4 5)", 5))) == P("(1 2)(4 5)", 5)


@pytest.mark.parametrize("bad", ["(1 2)(2 3)", "(1 4)", "(1 2", "1 2)", "(1 x)"])
def test_parse_cycles_errors(bad):
    with pytest.raises(ValueError):
        parse_cycles(bad, 3)


def test_constructor_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_compose_examples():
    t = P("(1 2)", 2)
    assert compose(t, t).image == (1, 2)
    c = P("(1 2 3)", 3)
    assert compose(c, c) == P("(1 3 2)", 3)
    assert compose(Permutation.identity(2), t) == t


def test_order_examples():
    assert order(P("(1 2)", 2)) == 2
    assert order(P("(1 2 3)(4 5)", 5)) == 6
    assert order(Permutation.identity(4)) == 1


def test_orbits_examples():
    assert orbits(P("(1 2)", 3)) == [[1, 2], [3]]
    assert orbits(P("(1 2 3)", 3)) == [[1, 2, 3]]
    assert orbits(Permutation.identity(2)) == [[1], [2]]


def test_conjugacy_and_witness():
    a, b = P("(1 2)", 3), P("(1 3)", 3)
    assert is_conjugate(a, b)
    h = conjugator(a, b)
    assert h == P("(2 3)", 3)
    assert compose(compose(inverse(h), b), h) == a

    assert not is_conjugate(P("(1 2)", 3), P("(1 2 3)", 3))
    assert conjugator(P("(1 2)", 3), P("(1 2 3)", 3)) is None

    c = P("(1 4)(2 3)", 4)
    assert conjugator(c, c) == Permutation.identity(4)


def test_conjugator_on_all_s4_pairs():
    for a in all_permutations(4):
        for b in all_permutations(4):
            h = conjugator(a, b)
            if a.cycle_type == b.cycle_type:
                assert h is not None
                assert compose(compose(inverse(h), b), h) == a
            else:
                assert h is None


def test_centralizer_against_brute_force():
    # oracle: direct filter over raw S_3 image tuples, no library calls
    def after(f, g):  # f(g(x)) as an image tuple
        return tuple(f[g[x] - 1] for x in range(3))

    for img in iter_perms((1, 2, 3)):
        oracle = sorted(g for g in iter_perms((1, 2, 3))
                        if after(img, g) == after(g, img))
        got = sorted(g.image for g in centralizer(Permutation(img)))
        assert got == oracle


def test_centralizer_examples():
    assert {g.image for g in centralizer(P("(1 2)", 3))} == {(1, 2, 3), (2, 1, 3)}
    assert len(centralizer(Permutation.identity(3))) == 6
    assert {g.image for g in centralizer(P("(1 2 3)", 3))} == {
        (1, 2, 3), (2, 3, 1), (3, 1, 2)}


def test_centralizer_order_formula():
    # |C(a)| = prod over cycle lengths l with multiplicity c: c! * l^c
    for n in (3, 4, 5):
        for a in conjugacy_class_representatives(n):
            counts = {}
            for length in a.cycle_type:
                counts[length] = counts.get(length, 0) + 1
            expected = 1
            for length, c in counts.items():
                expected *= math.factorial(c) * length**c
            assert len(centralizer(a)) == expected


def test_centralizer_matches_the_filter_oracle_in_order():
    # every class up to degree 7 and one of degree 8: same maps, same order
    for a in [*(a for n in range(8) for a in conjugacy_class_representatives(n)),
              P("(1 2 3)(4 5)", 8)]:
        assert centralizer(a) == filtered_centralizer(a)


def test_centralizer_bound(monkeypatch):
    # the search cap is the only bound: n * n! point checks, charged up front
    monkeypatch.delenv("QUANDLE_SEARCH_CAP", raising=False)
    start = time.perf_counter()
    with pytest.raises(SearchCapError, match="^centralizer search exceeded 10000000 nodes$"):
        centralizer(Permutation.identity(10))
    assert time.perf_counter() - start < 1
    assert len(centralizer(P("(1 2)", 9))) == 2 * math.factorial(7)
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "18")  # 3 * 3!
    assert len(centralizer(Permutation.identity(3))) == 6
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "17")
    with pytest.raises(SearchCapError):
        centralizer(Permutation.identity(3))


def test_orbit_stabilizer_up_to_s6():
    for n in (4, 5, 6):
        everyone = all_permutations(n)
        for a in conjugacy_class_representatives(n):
            cls = sum(1 for g in everyone if g.cycle_type == a.cycle_type)
            assert len(centralizer(a)) * cls == math.factorial(n)


def test_compose_is_associative():
    rng = random.Random(7)
    perms = all_permutations(5)
    for _ in range(200):
        a, b, c = (rng.choice(perms) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation.identity(2), Permutation.identity(3))


def test_cycle_format_round_trip():
    for a in all_permutations(4):
        assert parse_cycles(format_cycles(a), 4) == a
    a = P("(1 5)(2 4 6)", 6)
    assert parse_cycles(format_cycles(a), 6) == a
    assert format_cycles(Permutation.identity(3)) == "()"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))),
       st.sampled_from((0, 1)))
def test_cycle_codec_round_trips_in_both_labellings(points, first):
    image = tuple(p + first for p in points)
    text = _format_image(image, first)
    assert _parse_image(text, len(image), first) == image
    if first == 1:
        assert format_cycles(Permutation(image)) == text


def _involutions(n):
    """Every involution of range(n) as an image tuple: the least point left is
    fixed or swapped with each later one, then the rest are paired."""
    def build(image, rest):
        if not rest:
            yield tuple(image)
            return
        p, *others = rest
        yield from build(image, others)
        for q in others:
            image[p], image[q] = q, p
            yield from build(image, [r for r in others if r != q])
            image[p], image[q] = p, q
    return list(build(list(range(n)), list(range(n))))


def test_format_image_matches_the_set_walk():
    for n in range(1, 8):
        for points in iter_perms(range(n)):
            for first in (0, 1):
                image = tuple(p + first for p in points)
                assert _format_image(image, first) == set_walk_format(image, first)
    rhos = _involutions(10)
    assert len(rhos) == 9496
    for first in (0, 1):
        shifted = [tuple(p + first for p in rho) for rho in rhos]
        assert ([_format_image(rho, first) for rho in shifted]
                == [set_walk_format(rho, first) for rho in shifted])


@pytest.mark.parametrize("text, first, message", [
    ("(1 4)", 1, "point 4 outside 1..3"),
    ("(0 3)", 0, "point 3 outside 0..2"),
    ("(0 1 0)", 0, "point 0 repeated"),
    ("(1 2)(2 3)", 1, "point 2 repeated"),
])
def test_codec_errors_name_the_point_as_typed(text, first, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        _parse_image(text, 3, first)


def test_representatives_cover_all_cycle_types():
    for n in (3, 4, 5):
        reps = conjugacy_class_representatives(n)
        assert len({r.cycle_type for r in reps}) == len(reps)
        assert {r.cycle_type for r in reps} == {g.cycle_type for g in all_permutations(n)}


@pytest.mark.parametrize("image", [(True, 2), (2, True), (1.0, 2.0)])
def test_constructor_rejects_non_integer_points(image):
    with pytest.raises(ValueError):
        Permutation(image)
