"""Exact integer linear algebra for the sparse boundary matrices of cohomology.

Matrices are lists of row lists of Python ints (arbitrary precision). One
elimination does all the work: `smith_normal_form` gives the invariant
factors, and the rank over Q (nonzero factors) and over GF(p) (factors not
divisible by p) are read from them. It first takes +-1 pivots on sparse rows,
shortest row first, each of which isolates a factor 1 (Dumas, Saunders &
Villard, J. Symb. Comput. 2001); quandle boundaries have entries in
{0, +-1, +-2} and almost every pivot is a unit. The small core that is left is
reduced densely with least-absolute-value pivoting. `integer_kernel_basis`
gives a saturated basis of an integer kernel.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def zeros(rows: int, cols: int):
    return [[0] * cols for _ in range(rows)]


def mat_mul(a, b):
    """The dense product a*b; zero entries of a and b cost nothing."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    width = len(b[0]) if b else 0
    sparse_b = [[(j, v) for j, v in enumerate(row) if v] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, sparse_b):
            if x:
                for j, v in b_row:
                    acc[j] += x * v
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def is_zero_matrix(a) -> bool:
    return not any(map(any, a))


def rank(a, p: int | None = None) -> int:
    """Rank over Q (p=None) or GF(p), from the invariant factors."""
    return sum(1 for d in smith_normal_form(a) if p is None or d % p)


def in_column_span(a, v, p: int | None = None) -> bool:
    """Whether v lies in the column span of a over Q or GF(p)."""
    return rank(a, p) == rank([row + [vi] for row, vi in zip(a, v)], p)


def integer_kernel_basis(a, cols: int | None = None):
    """Basis of ker(a) as a sublattice of Z^cols (saturated, hence a direct summand).

    Column reduction with a unimodular transform U: the U-columns matching the
    zero columns of the echelon form span the kernel.
    """
    rows = len(a)
    if cols is None:
        if not rows:
            raise ValueError("pass cols for a matrix with no rows")
        cols = len(a[0])
    work = [[a[r][c] for r in range(rows)] for c in range(cols)]
    u = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]  # columns of U

    lead = 0
    for r in range(rows):
        active = [c for c in range(lead, cols) if work[c][r] != 0]
        while len(active) > 1:
            active.sort(key=lambda c: abs(work[c][r]))
            piv = active[0]
            for c in active[1:]:
                q = work[c][r] // work[piv][r]
                if q:
                    work[c] = [x - q * y for x, y in zip(work[c], work[piv])]
                    u[c] = [x - q * y for x, y in zip(u[c], u[piv])]
            active = [c for c in active if work[c][r] != 0]
        if active:
            piv = active[0]
            work[lead], work[piv] = work[piv], work[lead]
            u[lead], u[piv] = u[piv], u[lead]
            lead += 1
            if lead == cols:
                break
    return [list(u[c]) for c in range(lead, cols)]


def smith_normal_form(a):
    """Nonzero invariant factors of an integer matrix, in divisibility order."""
    rows, holders = {}, {}  # holders: column -> the rows with a nonzero entry there
    for i, row in enumerate(a):
        r = {j: v for j, v in enumerate(row) if v}
        if r:
            rows[i] = r
            for j in r:
                holders.setdefault(j, set()).add(i)
    units = 0
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
        # clear column j from the other rows; the pivot row and column then
        # split off with the factor 1 (column operations would clear the row)
        for k in holders[j] - {i}:
            other = rows[k]
            f = other[j] * r[j]
            for c, v in r.items():
                w = other.get(c, 0) - f * v
                if w:
                    other[c] = w
                    holders[c].add(k)
                else:
                    del other[c]
                    holders[c].discard(k)
            if other:
                heappush(heap, (len(other), k))
            else:
                del rows[k]
        for c in r:
            holders[c].discard(i)
        del rows[i]
        units += 1
    # dense least-absolute-value reduction of the core that is left
    core_cols = sorted({c for r in rows.values() for c in r})
    m = [[r.get(c, 0) for c in core_cols] for r in rows.values()]
    n_rows, n_cols = len(m), len(core_cols)
    factors = [1] * units
    t = 0
    while _least_nonzero(m, t) is not None:
        while True:
            i, j = _least_nonzero(m, t)  # re-pick after each reduction pass
            m[t], m[i] = m[i], m[t]
            for row in m:
                row[t], row[j] = row[j], row[t]
            dirty = False
            for r in range(t + 1, n_rows):
                q = m[r][t] // m[t][t]
                if q:
                    m[r] = [x - q * y for x, y in zip(m[r], m[t])]
                if m[r][t]:
                    dirty = True
            for c in range(t + 1, n_cols):
                q = m[t][c] // m[t][t]
                if q:
                    for r in range(n_rows):
                        m[r][c] -= q * m[r][t]
                if m[t][c]:
                    dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block
            offender = None
            d = m[t][t]
            for r in range(t + 1, n_rows):
                for c in range(t + 1, n_cols):
                    if m[r][c] % d:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[offender])]
        factors.append(abs(m[t][t]))
        t += 1
    return factors


def _least_nonzero(m, t):
    best = None
    for i in range(t, len(m)):
        for j in range(t, len(m[0])):
            v = abs(m[i][j])
            if v and (best is None or v < abs(m[best[0]][best[1]])):
                best = (i, j)
                if v == 1:
                    return best
    return best
