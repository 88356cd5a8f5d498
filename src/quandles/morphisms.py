"""Quandle homomorphisms: enumeration, Aut/Inn groups, isomorphism, Hom quandles.

The hom search is one solver problem (see solve.py): a constraint
f(a*g) = f(a)*f(g) for each a != g, g in a generating set of X, propagated
forward through Y's table and backward through its inverse columns (and into
a latin Y, from f(a) and f(a*g) to f(g)). It branches on f(0), f(1), ... in
that order, trying images in increasing order, so the returned lists are
complete and lexicographically sorted by image tuple, and the isomorphism
found first is the lexicographically first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter

from .limits import Budget
from .quandle import Quandle, _generators
from .solve import plan, solve


@dataclass(frozen=True, slots=True)
class QuandleMap:
    """A map between quandles satisfying f(x*y) = f(x)*f(y)."""

    source: Quandle
    target: Quandle
    image: tuple

    def verify(self) -> bool:
        s, t, f = self.source.table, self.target.table, self.image
        return len(f) == self.source.m and all(0 <= v < self.target.m for v in f) and all(
            f[s[x][g]] == t[f[x]][f[g]]  # generators g are enough, as in _search
            for g in self.source._gens for x in range(self.source.m))


class FiniteGroupTable:
    """A finite group as a multiplication table, validated exhaustively."""

    def __init__(self, table):
        self.table = tuple(tuple(row) for row in table)
        self.order = n = len(self.table)
        if any(len(row) != n or min(row) < 0 or max(row) >= n for row in self.table):
            raise ValueError("table entries must index elements")
        self.identity = next((e for e in range(n) if self.table[e] == tuple(range(n))
                              and all(row[e] == x for x, row in enumerate(self.table))), None)
        if self.identity is None:
            raise ValueError("no identity element")
        self._validate()

    def _validate(self) -> None:
        n, t = self.order, self.table
        for x in range(n):
            if self.identity not in t[x]:
                raise ValueError(f"element {x} has no inverse")
        # Light's test: the b with (ab)c = a(bc) for all a, c are closed under the
        # product, so b runs over generators (so n > 1): itemgetter(*t[b])(t[a]) is a(bc)
        gets = [(b, itemgetter(*t[b])) for b in _generators(t, range(n), [self.identity])]
        if any(t[row[b]] != get(row) for b, get in gets for row in t):
            a, b, c = next((a, b, c) for a, b, c in product(range(n), repeat=3)
                           if t[t[a][b]][c] != t[a][t[b][c]])
            raise ValueError(f"associativity fails at ({a},{b},{c})")

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def element_orders(self):
        return [self.element_order(a) for a in range(self.order)]

    def is_cyclic(self) -> bool:
        return any(self.element_order(a) == self.order for a in range(self.order))

    def is_abelian(self) -> bool:
        return self.table == tuple(zip(*self.table))


def _search(x: Quandle, y: Quandle, bijective=False, order=(), domains=None, budget=None):
    """The image tuples of the homs X -> Y, as an iterator that advances as it is
    read, charged to budget (default a new one), branching on f(v) for v in order,
    then f(0), f(1), ..., f(v) over domains[v] (default all of Y): lex order by
    default. One constraint f(a*g) = f(a)*f(g) per a != g, g a generator, gives
    every pair's, as the b with f(a*b) = f(a)*f(b) for all a are closed under *
    (a*(c*g) = ((a/g)*c)*g): the node counts are those of one per pair a != b."""
    sx, ty, by = x.table, y.table, y.bar_table
    constraints = [(a, g, sx[a][g], ty, by) for g in x._gens for a in range(x.m) if a != g]
    levels = plan(x.m, y.m, constraints, [*order, *range(x.m)], bijective)
    return solve(x.m, y.m, levels, budget or Budget("hom"), bijective, domains)


def homs(x: Quandle, y: Quandle):
    """All quandle homomorphisms X -> Y, sorted by image tuple."""
    return [QuandleMap(x, y, image) for image in _search(x, y)]


def endomorphisms(q: Quandle):
    return homs(q, q)


def is_isomorphic(x: Quandle, y: Quandle) -> QuandleMap | None:
    """The lexicographically first bijective homomorphism X -> Y, else None."""
    found = next(_search(x, y, bijective=True), None) if x.m == y.m else None
    return None if found is None else QuandleMap(x, y, found)


def _group_table(images):
    """Composition table of a list of permutations given as image tuples, which
    must be closed; row f, column g holds f after g. Only generators' rows (of
    images not reached from earlier ones) are composed, each by one itemgetter
    over all images, and that checks closure; row b h is row b read through row h.
    Each of the |G|^2 cells is a node of one Budget, charged before any is built."""
    Budget("group", len(images) ** 2)
    index = {image: i for i, image in enumerate(images)}
    rows, gens = [None] * len(images), []
    try:
        if images:  # the identity's row
            rows[index[tuple(range(len(images[0])))]] = tuple(range(len(images)))
        for a, f in enumerate(images):
            if rows[a] is None:  # so two or more images: f after each g, concatenated
                cells = itemgetter(*chain.from_iterable(images))(f)
                rows[a] = tuple(map(index.__getitem__, zip(*[iter(cells)] * len(f))))
                gens.append(rows[a])
                reached = [h for h, row in enumerate(rows) if row is not None]
                for h in reached:  # grows while walked: closes it under gens
                    for row_b in gens:
                        if rows[k := row_b[h]] is None:
                            rows[k] = itemgetter(*rows[h])(row_b)  # a tuple: two or more images
                            reached.append(k)
    except KeyError:
        raise ValueError("set of maps is not closed under composition") from None
    return FiniteGroupTable(rows)


def automorphism_group(q: Quandle):
    """All bijective endomorphisms with their composition table."""
    images = list(_search(q, q, bijective=True))
    return [QuandleMap(q, q, image) for image in images], _group_table(images)


def inner_group(q: Quandle) -> FiniteGroupTable:
    """The identity and the generators' columns, which generate Inn, closed under composition."""
    gens = {q._columns[0][i] for i in q._gen_ids}  # the generators' distinct columns
    elems, pending = {*gens, tuple(q.elements)}, list(gens)
    while pending:
        a = pending.pop()
        for c in (tuple(map(a.__getitem__, b)) for b in gens):
            if c not in elems:
                elems.add(c)
                Budget("group", len(elems) ** 2)  # the table's cells, charged as Inn grows
                pending.append(c)
    return _group_table(sorted(elems))


def hom_quandle(x: Quandle, a: Quandle):
    """The quandle on Hom(X, A) under (f*g)(t) = f(t)*g(t), for abelian A.

    Returns the quandle together with the image tuples labelling its elements
    (element i of the result is the map labels[i]). The k^2 * m steps of the
    medial-law check on A (k distinct columns, see Quandle.is_abelian), and
    then the |Hom|^3 axiom checks of that quandle, are nodes of a "homquandle"
    Budget, each charged before its work is done.
    """
    Budget("homquandle", len(a._columns[0]) ** 2 * a.m)
    if not a.is_abelian():
        raise ValueError("target quandle is not abelian")
    images = list(_search(x, a))
    Budget("homquandle", len(images) ** 3)
    index, ta = {image: i for i, image in enumerate(images)}, a.table
    table = [[index[tuple(ta[u][v] for u, v in zip(f, g))] for g in images] for f in images]
    return Quandle(table), images


def relabel_quandle(q: Quandle, order) -> Quandle:
    """The same quandle with element i renamed from old label order[i]."""
    order = list(order)
    if sorted(order) != list(range(q.m)):
        raise ValueError("order must be a permutation of the elements")
    pos = {old: new for new, old in enumerate(order)}
    return Quandle([[pos[q.table[order[i]][order[j]]] for j in range(q.m)] for i in range(q.m)])
