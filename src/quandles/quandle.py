"""Finite quandles as validated Cayley tables on {0, ..., m-1}.

``table[x][y]`` is x*y; column y is the bijection S_y: x -> x*y. Construction
checks idempotence, bijective columns and right self-distributivity
(x*y)*z = (x*z)*(y*z), that is S_z S_y = S_(y*z) S_z: whole columns composed
once per distinct S_z and new pair of column ids, O(k m^2) for k distinct
columns. Only a failure scans the cells, for the first witness. The inverse
column operation is written bar(x, y), the unique z with z*y = x.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import product
from operator import itemgetter

from .permutations import Permutation


class AxiomError(ValueError):
    """A Cayley table violating a quandle axiom, with a witness."""

    def __init__(self, axiom: str, witness, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class Quandle:
    """An order-m quandle given by its Cayley table."""

    def __init__(self, table):
        table = tuple(tuple(row) for row in table)
        _validate(table)
        self.table, self.m = table, len(table)

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    @cached_property
    def bar_table(self) -> tuple:
        """The inverse columns: bar_table[x][y] = bar(x, y). Sorting the points
        by their images under a column lists its inverse."""
        return tuple(zip(*(sorted(self.elements, key=col.__getitem__)
                           for col in zip(*self.table))))

    def bar(self, x: int, y: int) -> int:
        """The unique z with z*y = x."""
        return self.bar_table[x][y]

    @cached_property
    def _columns(self) -> tuple:
        """(the distinct columns as image tuples, the id of each element's column
        in that list, the id of each element's inverse column or -1 when that
        inverse is not a column)."""
        ids = {}
        col_id = [ids.setdefault(col, len(ids)) for col in zip(*self.table)]
        inv_id = [ids.get(col, -1) for col in zip(*self.bar_table)]
        return list(ids), col_id, inv_id

    @cached_property
    def _orbits(self) -> tuple:
        """(the least point of each element's Inn-orbit, and for each least point
        r the inner maps g with g(r) = e, one per other e of its orbit, as image
        tuples), from one walk over the distinct columns S_y: g_(x*y) = S_y g_x."""
        least, moves = [-1] * self.m, [[] for _ in self.elements]
        for start in self.elements:
            if least[start] >= 0:
                continue
            least[start], pending = start, [(start, None)]  # None: the identity
            while pending:
                x, g = pending.pop()
                for col in self._columns[0]:
                    if least[z := col[x]] < 0:
                        least[z] = start
                        moves[start].append(col if g is None else tuple(map(col.__getitem__, g)))
                        pending.append((z, moves[start][-1]))
        return least, moves

    @property
    def elements(self) -> range:
        return range(self.m)

    def is_abelian(self) -> bool:
        """Medial law (x*y)*(z*w) = (x*z)*(y*w). A quandle is medial iff its
        displacement group is abelian (Hulpke, Stanovsky & Vojtechovsky, JPAA
        2016), and the maps S_c S_0^-1, one per distinct column c, generate
        that group; so they are checked to commute pairwise, in k^2 * m steps
        for k distinct columns."""
        inv0 = next(zip(*self.bar_table), ())  # S_0^-1; empty at order 0
        gens = [tuple(map(col.__getitem__, inv0)) for col in self._columns[0]]
        return all(tuple(map(f.__getitem__, g)) == tuple(map(g.__getitem__, f))
                   for f in gens for g in gens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Quandle) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"Quandle(order={self.m})"

    def show(self) -> str:
        """The Cayley table, one row per line, entries space-separated."""
        width = len(str(self.m - 1))
        return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in self.table)

    def to_json(self) -> str:
        return json.dumps({"order": self.m, "table": [list(r) for r in self.table]})

    @classmethod
    def from_json(cls, text: str) -> "Quandle":
        data = json.loads(text)
        table = data.get("table") if isinstance(data, dict) else None
        if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
            raise ValueError('quandle JSON needs a "table" field: a list of rows')
        q = cls(table)
        if q.m != data.get("order"):
            raise ValueError("order field is missing or does not match table size")
        return q


def _validate(table) -> None:
    m = len(table)
    for x, row in enumerate(table):
        if len(row) != m:
            raise AxiomError("shape", x, f"row {x} has length {len(row)}, expected {m}")
        if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= m:  # bool is not an entry
            y, v = next((y, v) for y, v in enumerate(row) if type(v) is not int or not 0 <= v < m)
            raise AxiomError("range", (x, y), f"entry {v} at ({x},{y}) outside 0..{m - 1}")
    for x in range(m):
        if table[x][x] != x:
            raise AxiomError("idempotence", x, f"{x}*{x} = {table[x][x]} != {x}")
    ids, col_id = {}, []  # the distinct columns, and the id of each element's column
    for y, col in enumerate(zip(*table)):
        if len(set(col)) != m:
            raise AxiomError("column-bijection", y, f"column {y} is not a bijection: {list(col)}")
        col_id.append(ids.setdefault(col, len(ids)))
    # c = S_z, y*z = c[y], and itemgetter(*f)(g) is g after f (an int at m = 1). The
    # least x where two composites differ is the witness's x; its (y, z) are scanned
    distinct, get = list(ids), [itemgetter(*col) for col in ids]
    x = min((next(w for w, u, v in zip(range(m), f, g) if u != v) for i, c in enumerate(distinct)
             for j, k in set(zip(col_id, map(col_id.__getitem__, c)))
             if (f := get[j](c)) != (g := get[i](distinct[k]))), default=m)
    if x < m:
        y, z = next((y, z) for y, z in product(range(m), repeat=2)
                    if table[table[x][y]][z] != table[table[x][z]][table[y][z]])
        raise AxiomError("self-distributivity", (x, y, z), f"({x}*{y})*{z} = "
                         f"{table[table[x][y]][z]} but ({x}*{z})*({y}*{z}) = "
                         f"{table[table[x][z]][table[y][z]]}")


def trivial(m: int) -> Quandle:
    """T_m: x*y = x."""
    if m < 1:
        raise ValueError("order must be positive")
    return Quandle([[x] * m for x in range(m)])


def dihedral(m: int) -> Quandle:
    """R_m on Z_m: x*y = 2y - x mod m."""
    if m < 1:
        raise ValueError("order must be positive")
    return Quandle([[(2 * y - x) % m for y in range(m)] for x in range(m)])


def p_quandle(n: int, sigma: Permutation) -> Quandle:
    """The order-(n+1) quandle on {0..n} whose only non-identity column is column 0.

    x*y = x for y != 0, 0*0 = 0, and x*0 = sigma(x) for positive x, so column 0
    acts on the positive elements as the degree-n permutation sigma.
    """
    if sigma.n != n:
        raise ValueError(f"permutation degree {sigma.n} != n = {n}")
    return Quandle([[sigma(x)] + [x] * n if x else [0] * (n + 1) for x in range(n + 1)])
