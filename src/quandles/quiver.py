"""Coloring quivers under endomorphism sets, and the 2-cocycle link invariant.

Quiver vertices are the colorings of a diagram in canonical (sorted) order;
for each coloring c and each map f in S there is one directed edge c -> f.c,
where f.c recolors every arc through f. The invariant Phi sums, over all
colorings, a formal power of t whose exponent accumulates the signed cocycle
weight of every crossing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .cohomology import Cocycle2, is_2cocycle
from .invariants import _Terms
from .limits import Budget
from .links import Coloring, LinkDiagram, colorings
from .morphisms import QuandleMap
from .quandle import Quandle


class GroupRingElement(_Terms):
    """A finite integer combination of powers of t (element of Z[t, t^-1])."""

    coeffs = property(lambda self: self.terms, doc="The coefficient of each power of t.")

    def evaluate_at_one(self) -> int:
        return sum(self.terms.values())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if k == 0:
                parts.append(str(c))
            else:
                tpow = "t" if k == 1 else f"t^{k}"
                parts.append(tpow if c == 1 else f"{c}*{tpow}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"GroupRingElement({self})"


@dataclass(frozen=True)
class Quiver:
    """Directed multigraph on colorings; edges has one (source, target) per
    (coloring, endomorphism) pair, in endomorphism order within each source."""

    vertices: tuple
    labels: tuple
    edges: tuple

    @cached_property
    def multiplicity(self) -> dict:
        return Counter(self.edges)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def quiver(d: LinkDiagram, q: Quandle, s) -> Quiver:
    """The coloring quiver of d under the endomorphism set s. Its edges, one per
    coloring and map, are charged to a "quiver" Budget before any map is checked."""
    verts = colorings(d, q)
    Budget("quiver", len(verts) * len(s))
    for f in s:
        if not isinstance(f, QuandleMap) or f.source != q or f.target != q:
            raise ValueError("S must consist of endomorphisms of the coloring quandle")
        if not f.verify():
            raise ValueError(f"map {f.image} is not an endomorphism")
    # recolor[i](f) is f after coloring i, keyed alike: an int for a one-arc diagram
    recolor = [itemgetter(*v.colors) for v in verts]
    index = {get(range(q.m)): i for i, get in enumerate(recolor)}
    edges = [(i, index.get(get(f.image))) for i, get in enumerate(recolor) for f in s]
    if any(j is None for _, j in edges):
        raise RuntimeError("endomorphism image is not a coloring")
    return Quiver(tuple(verts), tuple(v.base_colors(d) for v in verts), tuple(edges))


def quiver_isomorphic(q1: Quiver, q2: Quiver, max_vertices: int | None = None) -> bool:
    """Exact test by colour refinement and individualisation (McKay & Piperno,
    J. Symbolic Comput. 2014) of one colouring of both quivers, q2's vertex w
    being n + w. A branch ends when a split part holds more vertices of one
    quiver than of the other; a discrete colouring is the bijection, re-verified
    edge by edge. Each splitter vertex scanned is one node of a "quiver" Budget."""
    if q1.n_vertices != q2.n_vertices or len(q1.edges) != len(q2.edges):
        return False
    n, budget = q1.n_vertices, Budget("quiver")
    if max_vertices is not None and n > max_vertices:
        raise ValueError(f"{n} vertices exceed the bound {max_vertices}")
    sources, targets = [[] for _ in range(2 * n)], [[] for _ in range(2 * n)]
    for shift, qv in ((0, q1), (n, q2)):  # a -> b as often as the edge occurs
        for a, b in qv.edges:
            sources[b + shift].append(a + shift), targets[a + shift].append(b + shift)
    colour, cells, queue, stack = [0] * 2 * n, [set(range(2 * n))], [0], []
    while True:  # a depth-first search on an explicit stack; no cell set is changed once made
        while queue:  # split each cell by its vertices' edges to and from a splitter cell
            splitter, split = cells[queue.pop()], {}
            for _ in splitter:
                budget.spend()
            to, fro = (Counter([v for u in splitter for v in e[u]]) for e in (sources, targets))
            for v in to.keys() | fro.keys():
                split.setdefault((colour[v], to.get(v, 0), fro.get(v, 0)), []).append(v)
            if any(2 * sum(map(n.__gt__, part)) != len(part) for part in split.values()):
                break
            for (d, *_), part in sorted(split.items()):  # a part short of its cell d splits off
                if len(part) < len(cells[d]):
                    cells[d] = cells[d].difference(part)
                    for v in part:
                        colour[v] = len(cells)
                    # queue the new part if d waits, else the smaller side: d gives the other
                    queue.append(len(cells) if d in queue or len(part) <= len(cells[d]) else d)
                    cells.append(set(part))
        else:  # stable; branch on q1's first vertex in the smallest open cell
            sizes = list(map(len, cells))
            if max(sizes) <= 2:  # discrete
                f = list(map(dict(zip(colour[n:], range(n))).get, colour[:n]))
                assert Counter((f[a], f[b]) for a, b in q1.edges) == q2.multiplicity
                return True
            c = sizes.index(min(filter((2).__lt__, sizes)))
            members = sorted(cells[c])
            stack.append((colour, cells, c, members[0], iter(members[len(members) // 2:])))
        while stack and (w := next(stack[-1][-1], None)) is None:
            stack.pop()
        if not stack:
            return False
        colour, cells, c, v, _ = stack[-1]  # individualise v against q2's next candidate w
        colour, cells, queue = colour[:], cells + [{v, w}], [len(cells)]
        cells[c] = cells[c] - {v, w}
        colour[v] = colour[w] = queue[0]


def quiver_dot(qv: Quiver) -> str:
    """Graphviz digraph with deterministic vertex and edge order."""
    lines = ["digraph quiver {"]
    lines += [f'  v{i} [label="({", ".join(map(str, label))})"];'
              for i, label in enumerate(qv.labels)]
    lines += [f"  v{a} -> v{b};" for a, b in qv.edges]
    return "\n".join(lines + ["}"]) + "\n"


def theta_weight(d: LinkDiagram, q: Quandle, phi: Cocycle2, coloring: Coloring) -> int:
    """Summed exponent of the coloring: +phi(under_in, over) at positive
    crossings, -phi(under_out, over) at negative ones."""
    col = coloring.colors
    total = 0
    for c in d.crossings:
        if c.sign > 0:
            total += phi(col[c.under_in], col[c.over])
        else:
            total -= phi(col[c.under_out], col[c.over])
    return total


def cocycle_invariant(d: LinkDiagram, q: Quandle, phi: Cocycle2) -> GroupRingElement:
    """Formal sum over colorings of t^(theta-weight), each weight theta_weight's
    with phi's values and each crossing's (under arc, over arc) read once."""
    if not is_2cocycle(q, phi):
        raise ValueError("phi is not a 2-cocycle of the quandle")
    values = phi.values
    pos = [(c.under_in, c.over) for c in d.crossings if c.sign > 0]
    neg = [(c.under_out, c.over) for c in d.crossings if c.sign < 0]
    return GroupRingElement(Counter(
        sum(values[col[a]][col[b]] for a, b in pos) - sum(values[col[a]][col[b]] for a, b in neg)
        for col in (coloring.colors for coloring in colorings(d, q))))
