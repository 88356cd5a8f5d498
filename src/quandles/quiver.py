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

from .cohomology import Cocycle2, is_2cocycle
from .invariants import _Terms
from .limits import Budget
from .links import Coloring, LinkDiagram, colorings
from .morphisms import QuandleMap
from .quandle import Quandle


class GroupRingElement(_Terms):
    """A finite integer combination of powers of t (element of Z[t, t^-1])."""

    coeffs = property(lambda self: self.terms, doc="The coefficient of each power of t.")

    @classmethod
    def constant(cls, c: int) -> "GroupRingElement":
        return cls({0: c})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = Counter(self.terms)
        out.update(other.terms)  # adds, keeping negative sums, unlike Counter's +
        return GroupRingElement(out)

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
    """The coloring quiver of d under the endomorphism set s."""
    for f in s:
        if not isinstance(f, QuandleMap) or f.source != q or f.target != q:
            raise ValueError("S must consist of endomorphisms of the coloring quandle")
        if not f.verify():
            raise ValueError(f"map {f.image} is not an endomorphism")
    verts = colorings(d, q)
    index = {v.colors: i for i, v in enumerate(verts)}
    edges = []
    movers = [f.image.__getitem__ for f in s]
    for i, v in enumerate(verts):
        for move in movers:
            j = index.get(tuple(map(move, v.colors)))
            if j is None:
                raise RuntimeError("endomorphism image is not a coloring")
            edges.append((i, j))
    labels = tuple(v.base_colors(d) for v in verts)
    return Quiver(tuple(verts), labels, tuple(edges))


def _vertex_signature(qv: Quiver):
    n = qv.n_vertices
    out_m, in_m = [[] for _ in range(n)], [[] for _ in range(n)]
    loops = [0] * n
    for (a, b), k in qv.multiplicity.items():
        out_m[a].append(k)
        in_m[b].append(k)
        if a == b:
            loops[a] += k
    return [(loops[v], tuple(sorted(out_m[v])), tuple(sorted(in_m[v])))
            for v in range(n)]


def quiver_isomorphic(q1: Quiver, q2: Quiver, max_vertices: int | None = None) -> bool:
    """Exact search for a vertex bijection matching edge multiplicities; each
    candidate image tried is one node of a "quiver" Budget."""
    if q1.n_vertices != q2.n_vertices or len(q1.edges) != len(q2.edges):
        return False
    n = q1.n_vertices
    if max_vertices is not None and n > max_vertices:
        raise ValueError(f"{n} vertices exceed the bound {max_vertices}")
    sig1, sig2 = _vertex_signature(q1), _vertex_signature(q2)
    if sorted(sig1) != sorted(sig2):
        return False
    candidates = {}  # the vertices of q2 of each signature, in order
    for w, sig in enumerate(sig2):
        candidates.setdefault(sig, []).append(w)
    order = sorted(range(n), key=lambda v: len(candidates[sig1[v]]))
    m1, m2 = q1.multiplicity, q2.multiplicity
    nbrs1, nbrs2 = [set() for _ in range(n)], [set() for _ in range(n)]
    for mult, nbrs in ((m1, nbrs1), (m2, nbrs2)):
        for a, b in mult:
            nbrs[a].add(b), nbrs[b].add(a)
    mapping, used, tries = [-1] * n, [False] * n, [None] * n  # tries: candidates left
    budget = Budget("quiver")
    pos = 0  # a depth-first search on an explicit stack, so no depth limit applies
    while pos < n:
        v = order[pos]
        if mapping[v] < 0:
            tries[pos] = iter(candidates[sig1[v]])
        else:  # back from a dead end: free v's image and go on to its next candidate
            used[mapping[v]], mapping[v] = False, -1
        # w fits iff it matches v's placed neighbours and has no others (sig1 matched loops)
        placed = [p for p in nbrs1[v] if mapping[p] >= 0]
        for w in tries[pos]:
            if used[w]:
                continue
            budget.spend()
            if len(placed) == sum(used[u] for u in nbrs2[w]) and all(
                    m1.get((v, p), 0) == m2.get((w, mapping[p]), 0)
                    and m1.get((p, v), 0) == m2.get((mapping[p], w), 0) for p in placed):
                mapping[v], used[w] = w, True
                break
        pos += 1 if mapping[v] >= 0 else -1
        if pos < 0:
            return False
    # re-verify the induced edge bijection edge by edge
    assert Counter((mapping[a], mapping[b]) for a, b in q1.edges) == m2
    return True


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
    """Formal sum over colorings of t^(theta-weight)."""
    if not is_2cocycle(q, phi):
        raise ValueError("phi is not a 2-cocycle of the quandle")
    return GroupRingElement(Counter(theta_weight(d, q, phi, coloring)
                                    for coloring in colorings(d, q)))
