"""Combinatorial oriented link diagrams, colorings, and linking numbers.

A diagram is signed Gauss data: arcs are labelled 0..A-1 and cut at
undercrossings only, so each crossing is a record (under_in, over, under_out,
sign). Every arc occurs exactly once as an under_in and once as an under_out,
except arcs declared as free loops (closed circles with no undercrossing,
which may still pass over other strands). Planarity is not checked.

Text format (.lnk): one crossing per line "X <under_in> <over> <under_out> <+|->",
free loops "O <arc>", comments "#".

Colorings are one solver problem (see solve.py) with a constraint per
crossing. The crossing rule propagates forward (under_in and over give
under_out) and backward (under_out and over give under_in, since quandle
columns are bijections); over a latin quandle under_in and under_out also
give over. The search branches first on the arcs whose colors determine the
most other arcs. Inner automorphisms permute the colorings, so the first of
those arcs takes one color per Inn-orbit and inner maps give the rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .limits import DEFAULT_SEARCH_CAP, Budget
from .permutations import _cycles
from .quandle import Quandle
from .solve import plan, solve


class DiagramError(ValueError):
    """Structurally invalid link diagram data."""


@dataclass(frozen=True)
class Crossing:
    under_in: int
    over: int
    under_out: int
    sign: int


class LinkDiagram:
    """Signed Gauss data with its component partition."""

    def __init__(self, crossings, free_loops=()):
        self.crossings = tuple(
            c if isinstance(c, Crossing) else Crossing(*c) for c in crossings)
        self.free_loops = tuple(sorted(free_loops))
        self._validate()

    def _validate(self) -> None:
        used = set(self.free_loops)
        for c in self.crossings:
            if c.sign not in (1, -1):
                raise DiagramError(f"crossing sign must be +1 or -1, got {c.sign}")
            used.update((c.under_in, c.over, c.under_out))
        if not used:
            raise DiagramError("empty diagram")
        if any(a < 0 for a in used):
            raise DiagramError("negative arc label")
        self.n_arcs = max(used) + 1
        if len(used) < self.n_arcs:
            least = next(a for a in range(self.n_arcs) if a not in used)
            raise DiagramError(f"arc labels must be contiguous; {self.n_arcs - len(used)} "
                               f"missing, the least is {least}")
        if len(set(self.free_loops)) != len(self.free_loops):
            raise DiagramError("duplicate free loop declaration")

        ins, outs = {}, {}
        for idx, c in enumerate(self.crossings):
            if c.under_in in ins:
                raise DiagramError(f"arc {c.under_in} used twice as under_in")
            if c.under_out in outs:
                raise DiagramError(f"arc {c.under_out} used twice as under_out")
            ins[c.under_in] = idx
            outs[c.under_out] = idx
        free = set(self.free_loops)
        for a in free:
            if a in ins or a in outs:
                raise DiagramError(f"free loop {a} also appears at an undercrossing")
        for a in range(self.n_arcs):
            if a not in free and (a not in ins or a not in outs):
                raise DiagramError(f"dangling arc {a}: needs one under_in and one under_out")

    @cached_property
    def components(self) -> tuple:
        """Arc cycles under the under_in -> under_out successor, each from its
        least arc, free loops as cycles of one arc, sorted by least arc."""
        succ = list(range(self.n_arcs))
        for c in self.crossings:
            succ[c.under_in] = c.under_out
        return tuple(map(tuple, _cycles(succ, 0)))

    @cached_property
    def component_of(self) -> tuple:
        owner = {a: i for i, comp in enumerate(self.components) for a in comp}
        return tuple(map(owner.__getitem__, range(self.n_arcs)))

    @property
    def n_components(self) -> int:
        return len(self.components)

    def to_text(self) -> str:
        lines = [f"X {c.under_in} {c.over} {c.under_out} {'+' if c.sign > 0 else '-'}"
                 for c in self.crossings]
        lines.extend(f"O {a}" for a in self.free_loops)
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (f"LinkDiagram(arcs={self.n_arcs}, crossings={len(self.crossings)}, "
                f"components={self.n_components})")


def parse_diagram(text: str) -> LinkDiagram:
    """Parse the .lnk text format."""
    crossings = []
    loops = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "X" and len(fields) == 5:
                sign = {"+": 1, "-": -1}[fields[4]]
                crossings.append(Crossing(int(fields[1]), int(fields[2]),
                                          int(fields[3]), sign))
            elif fields[0] == "O" and len(fields) == 2:
                loops.append(int(fields[1]))
            else:
                raise KeyError
        except (KeyError, ValueError):
            raise DiagramError(f"line {lineno}: cannot parse {raw!r}") from None
    return LinkDiagram(crossings, loops)


@dataclass(frozen=True)
class LinkingGraph:
    """Symmetric integer pairwise-linking weights with zero diagonal."""

    weights: tuple

    def __post_init__(self):
        w = tuple(tuple(row) for row in self.weights)
        object.__setattr__(self, "weights", w)
        m = len(w)
        for i, row in enumerate(w):
            if len(row) != m:
                raise ValueError("weight matrix must be square")
            for j, v in enumerate(row):
                if type(v) is not int:  # bool is not a weight
                    raise ValueError(f"weight {v!r} at ({i},{j}) is not an integer")
        for i, row in enumerate(w):
            if row[i] != 0:
                raise ValueError("diagonal weights must be zero")
            for j in range(m):
                if row[j] != w[j][i]:
                    raise ValueError("weight matrix must be symmetric")

    @property
    def m(self) -> int:
        return len(self.weights)

    @classmethod
    def from_json(cls, text: str) -> "LinkingGraph":
        data = json.loads(text)
        weights = data.get("weights") if isinstance(data, dict) else None
        if not isinstance(weights, list) or not all(isinstance(r, list) for r in weights):
            raise ValueError('linking graph JSON needs a "weights" field: a list of rows')
        graph = cls(tuple(tuple(r) for r in weights))
        if graph.m != data.get("m"):
            raise ValueError("m field is missing or does not match weight matrix size")
        return graph


def linking_number(d: LinkDiagram, i: int, j: int) -> int:
    """Half the signed count of crossings between components i and j."""
    if i == j:
        raise ValueError("linking number needs two distinct components")
    if not (0 <= i < d.n_components and 0 <= j < d.n_components):
        raise ValueError(f"components must lie in 0..{d.n_components - 1}")
    owner = d.component_of
    total = sum(c.sign for c in d.crossings if {owner[c.under_in], owner[c.over]} == {i, j})
    if total % 2:
        raise DiagramError(f"odd signed crossing count {total} between {i} and {j}")
    return total // 2


def linking_graph(d: LinkDiagram) -> LinkingGraph:
    m = d.n_components
    w = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            w[i][j] = w[j][i] = linking_number(d, i, j)
    return LinkingGraph(tuple(tuple(r) for r in w))


@dataclass(frozen=True)
class Coloring:
    """An arc coloring satisfying the crossing rule everywhere."""

    colors: tuple

    def base_colors(self, d: LinkDiagram) -> tuple:
        """One color per component, read at its least arc."""
        return tuple(self.colors[min(comp)] for comp in d.components)

    def verify(self, d: LinkDiagram, q: Quandle) -> bool:
        col = self.colors
        return all(col[c.under_out] == (q.op(col[c.under_in], col[c.over]) if c.sign > 0
                                        else q.bar(col[c.under_in], col[c.over]))
                   for c in d.crossings)


def colorings(d: LinkDiagram, q: Quandle):
    """All colorings, sorted by color tuple.

    One solver constraint per crossing: under_out = T[under_in][over] with T
    the quandle table at a positive crossing and its inverse columns at a
    negative one. The plan picks each branch arc as the one that determines
    the most others, and propagates each crossing forward and backward. Each
    column S_y is an automorphism, and c -> g∘c keeps the crossing rule as
    g(a*b) = g(a)*g(b), so Inn(q) permutes the colorings. The first branch arc takes only the least point r of each
    Inn-orbit; g∘c, with g inner and g(r) = e, gives the colorings where it is e.
    """
    op, bar = q.table, q.bar_table
    constraints = [(c.under_in, c.over, c.under_out) + ((op, bar) if c.sign > 0 else (bar, op))
                   for c in d.crossings]
    levels = plan(d.n_arcs, q.m, constraints)
    least, moves = q._orbits
    found = []
    for colors in solve(d.n_arcs, q.m, levels, Budget("coloring"),
                        domains={levels[0][0]: [r for r in q.elements if least[r] == r]}):
        found.append(colors)
        found += [tuple(map(g.__getitem__, colors)) for g in moves[colors[levels[0][0]]]]
    return [Coloring(colors) for colors in sorted(found)]


def synthesize_link(g: LinkingGraph, edge_order=None) -> LinkDiagram:
    """A diagram whose linking graph is g.

    Each component is a circle; every nonzero edge (i, j, w) becomes a twist
    region of 2|w| crossings of sign sgn(w), the two strands alternating which
    one passes over. Regions are threaded along each component in edge order.
    """
    m = g.m
    if edge_order is None:
        edge_order = [(i, j) for i in range(m) for j in range(i + 1, m)
                      if g.weights[i][j] != 0]
    else:
        edge_order = list(edge_order)
        for i, j in edge_order:
            if i == j or g.weights[i][j] == 0:
                raise ValueError(f"edge ({i},{j}) is not a weighted edge of the graph")
        if len(set(map(frozenset, edge_order))) != len(edge_order):
            raise ValueError("duplicate edge in edge_order")
        needed = {frozenset((i, j)) for i in range(m) for j in range(i + 1, m)
                  if g.weights[i][j] != 0}
        if {frozenset(e) for e in edge_order} != needed:
            raise ValueError("edge_order must cover exactly the nonzero edges")

    under_total = [sum(abs(g.weights[i][j]) for i, j in edge_order if comp in (i, j))
                   for comp in range(m)]
    if sum(under_total) > DEFAULT_SEARCH_CAP:  # what the default cap allows is never refused
        Budget("crossing", sum(under_total))  # a crossing per under event

    # a component's arcs follow the earlier ones'; one with no undercrossing is a free loop
    arc_base = list(accumulate((max(k, 1) for k in under_total), initial=0))
    free = [arc_base[comp] for comp in range(m) if under_total[comp] == 0]

    consumed = [0] * m  # under events threaded so far, per component

    def current_arc(comp: int) -> int:
        return arc_base[comp] + (consumed[comp] % under_total[comp])

    crossings = []
    for i, j in edge_order:
        w = g.weights[i][j]
        for step in range(2 * abs(w)):
            under, over = (i, j) if step % 2 == 0 else (j, i)
            a_in, over_arc = current_arc(under), current_arc(over)
            consumed[under] += 1  # under goes under over, onto its next arc
            crossings.append(Crossing(a_in, over_arc, current_arc(under), 1 if w > 0 else -1))
    return LinkDiagram(crossings, free)
