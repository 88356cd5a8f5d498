"""Exact integer linear algebra for the sparse boundary matrices of cohomology.

A row is a tuple of (column, value) pairs in increasing column order, with
no zero value; a matrix is a list or tuple of rows. One sparse pass,
`_eliminate`, takes +-1 pivots on rows, shortest row first (Dumas, Saunders &
Villard, J. Symb. Comput. 2001); quandle boundaries have entries in
{0, +-1, +-2} and almost every pivot is a unit. One dense `_echelon` with
least-absolute-value pivots reduces the small core that is left.
`smith_normal_form` counts a factor 1 per pivot and diagonalises the core; the
rank over Q (nonzero factors) and over GF(p) (factors not divisible by p) are
read from the factors. `integer_kernel_basis` takes the kernel of the core and
back-substitutes it through the pivot rows.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from operator import itemgetter


def mat_mul(a, b):
    """The product a*b; a column of a that names no row of b is a shape mismatch."""
    if any(row and row[-1][0] >= len(b) for row in a):
        raise ValueError("shape mismatch")
    out, nonzero = [], itemgetter(1)
    for row in a:
        acc = {}
        for c, x in row:
            for j, v in b[c]:
                acc[j] = acc.get(j, 0) + x * v
        out.append(tuple(sorted(filter(nonzero, acc.items()))))
    return out


def transpose(a, cols: int):
    """The cols rows of the transpose of a, whose columns are all below cols."""
    out = [[] for _ in range(cols)]
    for i, row in enumerate(a):
        for j, v in row:
            out[j].append((i, v))
    return list(map(tuple, out))


def rank(a, p: int | None = None) -> int:
    """Rank over Q (p=None) or GF(p), from the invariant factors."""
    return sum(1 for d in smith_normal_form(a) if p is None or d % p)


def integer_kernel_basis(a, cols: int):
    """Basis of ker(a) as a sublattice of Z^cols (saturated, hence a direct summand).

    The core left by the unit pivots is column-reduced with a unit tail on each
    column, so the tails of the columns that reduce to zero span its kernel;
    back-substitution through the pivot rows, last pivot first, extends each
    to all of Z^cols. The pivots are +-1, so this stays integral.
    """
    pivots, core = _eliminate(a)
    pivot_cols = {j for j, _ in pivots}
    free = [c for c in range(cols) if c not in pivot_cols]
    n = len(core)
    vecs = [[r.get(c, 0) for r in core] + [int(k == i) for k in range(len(free))]
            for i, c in enumerate(free)]
    basis = []
    for vec in _echelon(vecs, n)[1]:
        x = [0] * cols
        for c, v in zip(free, vec[n:]):
            x[c] = v
        # last pivot first: a pivot row holds no column of an earlier pivot
        for j, r in reversed(pivots):
            x[j] = -r[j] * sum(v * x[c] for c, v in r.items() if c != j)
        basis.append(tuple((c, v) for c, v in enumerate(x) if v))
    return basis


def smith_normal_form(a):
    """Nonzero invariant factors of an integer matrix, in divisibility order."""
    # a tall matrix is eliminated by its columns, as SNF(a^T) = SNF(a)^T; the
    # zero columns past the last nonzero one change no factor
    width = 1 + max((row[-1][0] for row in a if row), default=-1)
    pivots, core = _eliminate(transpose(a, width) if len(a) > width else a)
    core_cols = sorted({c for r in core for c in r})
    m = [[r.get(c, 0) for c in core_cols] for r in core]
    # row and column echelon forms in turn until diagonal; each round lowers
    # the first unsettled pivot or settles it, as ties go to the earlier vector
    while True:
        m = _echelon(m, len(m[0]) if m else 0)[0]
        if all(sum(map(bool, v)) == 1 for v in m):
            break
        m = [list(v) for v in zip(*m)]
    return [1] * len(pivots) + _invariant_factors([abs(x) for v in m for x in v if x])


def _invariant_factors(diag):
    """The invariant factors of the diagonal matrix of positive integers diag,
    in divisibility order: each pair is replaced by its gcd and lcm."""
    for i in range(len(diag)):
        for k in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[k])
            diag[i], diag[k] = g, diag[i] * diag[k] // g
    return diag


def _eliminate(a):
    """Take +-1 pivots on the rows of a, shortest row first (sparsest column
    among its units), clearing each pivot's column from every other row.

    Returns the pivots in the order taken, as (column, row dict as it was
    when taken), and the list of core row dicts that are left. The row
    operations are unimodular, so pivots and core together have the row
    lattice of a; no pivot row holds the column of an earlier pivot.
    """
    rows, holders = {}, {}  # holders: column -> the rows with a nonzero entry there
    for i, row in enumerate(a):
        r = dict(row)
        if r:
            rows[i] = r
            for j in r:
                holders.setdefault(j, set()).add(i)
    pivots = []
    heap = [(len(r), i) for i, r in rows.items()]
    heapify(heap)
    while heap:
        size, i = heappop(heap)
        r = rows.get(i)
        if r is None or len(r) != size:
            continue  # stale entry: the row was eliminated or has changed
        unit_cols = [j for j, v in r.items() if v in (1, -1)]
        if not unit_cols:
            continue  # re-queued if another pivot changes it
        j = min(unit_cols, key=lambda c: len(holders[c]))
        del rows[i]
        for c in r:
            holders[c].discard(i)
        rest = [(c, v) for c, v in r.items() if c != j]
        for k in holders.pop(j):
            other = rows[k]
            f = other.pop(j) * r[j]
            for c, v in rest:  # holders change only where an entry appears or vanishes
                w = other.get(c, 0) - f * v
                if not w:
                    del other[c]
                    holders[c].discard(k)
                    continue
                if c not in other:
                    holders[c].add(k)
                other[c] = w
            if other:
                heappush(heap, (len(other), k))
            else:
                del rows[k]
        pivots.append((j, r))
    return pivots, list(rows.values())


def _echelon(vecs, n):
    """Echelon form of integer vectors on their first n coordinates.

    Returns (echelon, rest): the vectors with a nonzero head, in order of
    their leading coordinate, and those whose first n coordinates vanish.
    Each coordinate is cleared by Euclid's algorithm with the least absolute
    value as pivot (the first such vector on ties); all operations are
    unimodular, and the vectors given are not modified.
    """
    echelon = []
    for c in range(n):
        active = [v for v in vecs if v[c]]
        if not active:
            continue
        rest = [v for v in vecs if not v[c]]
        while len(active) > 1:
            piv = min(active, key=lambda v: abs(v[c]))
            reduced = [piv]
            for v in active:
                if v is not piv:
                    q = v[c] // piv[c]
                    v = [x - q * y for x, y in zip(v, piv)]
                    (reduced if v[c] else rest).append(v)
            active = reduced
        echelon.append(active[0])
        vecs = rest
    return echelon, vecs
