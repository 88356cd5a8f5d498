"""Exact arithmetic in the symmetric group S_n on the points {1, ..., n}.

Permutations are immutable; ``image[i]`` is the image of the point ``i + 1``.
Composition is function composition: ``compose(a, b)`` maps x to a(b(x)).
One cycle-notation codec serves these points and quandle elements, which
start at 0 instead of 1.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import cached_property

from .limits import Budget

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A bijection of {1, ..., n}, stored as a tuple of images."""

    def __init__(self, image):
        image = tuple(image)
        n = len(image)
        if any(type(v) is not int for v in image) or sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {image}")
        self.n, self.image = n, image

    @classmethod
    def _of(cls, image: tuple) -> "Permutation":  # an image tuple known to be one: unchecked
        p = object.__new__(cls)
        p.n, p.image = len(image), image
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self.n:
            raise ValueError(f"point {point} outside 1..{self.n}")
        return self.image[point - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"parse_cycles({format_cycles(self)!r}, {self.n})"

    @cached_property
    def orbit_list(self):
        return orbits(self)

    @cached_property
    def cycle_type(self) -> tuple:
        """Cycle lengths in decreasing order, fixed points included."""
        return tuple(sorted((len(o) for o in self.orbit_list), reverse=True))

    def fixed_points(self):
        return [i + 1 for i, v in enumerate(self.image) if v == i + 1]


def _cycles(image, first: int):
    """The cycles of the map i + first -> image[i], fixed points included: each
    walked from its least point, listed in order of least point."""
    seen = set()  # points walked to; a cycle's least point is never walked to
    cycles = []
    for start, p in enumerate(image, first):
        if start not in seen:
            cycle = [start]
            while p != start:
                seen.add(p)
                cycle.append(p)
                p = image[p - first]
            cycles.append(cycle)
    return cycles


def _parse_image(text: str, n: int, first: int) -> tuple:
    """The image tuple of disjoint cycle notation like "(1 2 3)(4 5)" on the
    points first..first+n-1; "()" or "" is the identity."""
    stripped = text.strip()
    if _CYCLE_RE.sub("", stripped).strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    image = list(range(first, first + n))
    seen = set()
    for body in _CYCLE_RE.findall(stripped):
        points = [int(tok) for tok in body.split()]
        for p in points:
            if not first <= p < first + n:
                raise ValueError(f"point {p} outside {first}..{first + n - 1}")
            if p in seen:
                raise ValueError(f"point {p} repeated")
            seen.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            image[a - first] = b
    return tuple(image)


def _format_image(image, first: int) -> str:
    """Cycle notation of an image tuple on first..; fixed points omitted, the
    identity as "()". The cycles are those of _cycles, in its order."""
    done = [False] * (len(image) + first)  # by point: walked to from a least point
    parts = []
    for start, p in enumerate(image, first):
        if p != start and not done[start]:
            cycle = [start]
            while p != start:
                done[p] = True
                cycle.append(p)
                p = image[p - first]
            parts.append("(%d %d)" % (start, cycle[1]) if len(cycle) == 2
                         else "(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse disjoint cycle notation like "(1 2 3)(4 5)"; "()" or "" is the identity."""
    return Permutation(_parse_image(text, n, 1))


def format_cycles(a: Permutation) -> str:
    """Cycle notation with fixed points omitted; identity renders as "()"."""
    return _format_image(a.image, 1)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The permutation x -> a(b(x))."""
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} != {b.n}")
    return Permutation._of(tuple(a.image[v - 1] for v in b.image))


def inverse(a: Permutation) -> Permutation:
    return Permutation._of(tuple(i + 1 for i in sorted(range(a.n), key=a.image.__getitem__)))


def order(a: Permutation) -> int:
    """Least m >= 1 with a^m = id; the lcm of the cycle lengths."""
    return math.lcm(*(len(o) for o in a.orbit_list)) if a.n else 1


def orbits(a: Permutation):
    """Partition of {1..n} into cycles, each sorted, listed by least element."""
    return [sorted(c) for c in _cycles(a.image, 1)]


def is_conjugate(a: Permutation, b: Permutation) -> bool:
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} != {b.n}")
    return a.cycle_type == b.cycle_type


def conjugator(a: Permutation, b: Permutation) -> Permutation | None:
    """Some h with a = h^-1 b h, or None if the cycle types differ.

    The cycles of a and of b are paired in order of length; the sort is
    stable, so cycles of equal length pair in least-element order, which
    makes the witness deterministic.
    """
    if not is_conjugate(a, b):
        return None
    image = [0] * a.n
    for acyc, bcyc in zip(*(sorted(_cycles(p.image, 1), key=len) for p in (a, b))):
        for x, y in zip(acyc, bcyc):
            image[x - 1] = y
    h = Permutation(image)
    assert compose(compose(inverse(h), b), h) == a
    return h


def all_permutations(n: int):
    """All of S_n in lexicographic image order."""
    return [Permutation._of(img) for img in itertools.permutations(range(1, n + 1))]


def centralizer(a: Permutation):
    """All g in S_n commuting with a, in lexicographic image order."""
    n, image = a.n, a.image
    Budget("centralizer", n * math.factorial(n))  # each point of each g, charged up front
    return [Permutation._of(g) for g in itertools.permutations(range(1, n + 1))
            if all(g[v - 1] == image[w - 1] for v, w in zip(image, g))]  # g(a(x)) = a(g(x))


def conjugacy_class_representatives(n: int):
    """One permutation per cycle type of S_n, built from integer partitions."""
    reps = []
    for partition in _partitions(n, n):
        image, start = [], 1
        for length in partition:  # the cycle (start ... start + length - 1)
            image += [*range(start + 1, start + length), start]
            start += length
        reps.append(Permutation(image))
    return reps


def _partitions(n: int, largest: int):
    """The partitions of n into parts of at most largest, largest parts first."""
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest
