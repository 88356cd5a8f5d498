"""One propagating search over quandle table constraints.

Variables take values in range(n). A constraint (x, y, z, T, B) means
z = T[x][y]; the columns of T are bijections and B holds their inverses, so it
also means x = B[z][y]. Once y is known it propagates forward to z and
backward to x. The search branches on the first unassigned variable of a
given order and tries values in increasing order, so with the order
range(n_vars) solutions come out in lexicographic order. Every value tried
at a branch spends one node of a Budget.
"""

from __future__ import annotations

from .limits import Budget


def _watch_lists(n_vars: int, constraints):
    """For each variable w, entries (u, target, table): once w and u are known,
    target = table[value of w][value of u]. One entry per direction a
    constraint propagates in (four, or two when x and z are one variable)."""
    tables = {id(t): t for con in constraints for t in con[3:]}
    cols = {key: tuple(zip(*t)) for key, t in tables.items()}
    watch = [[] for _ in range(n_vars)]
    for x, y, z, t, b in constraints:
        watch[x].append((y, z, t))
        watch[y].append((x, z, cols[id(t)]))
        if z != x:
            watch[z].append((y, x, b))
            watch[y].append((z, x, cols[id(b)]))
    return watch


def solve(n_vars: int, n: int, constraints, budget: Budget, order=None,
          distinct: bool = False):
    """An iterator over the assignments (tuples of values) satisfying every
    constraint, in search order.

    ``order`` lists every variable (default range(n_vars)). ``distinct``
    requires all values to differ. The search runs as the iterator is read,
    so a reader that stops early spends only the nodes before its last answer.
    """
    order = list(range(n_vars)) if order is None else list(order)
    watch = _watch_lists(n_vars, constraints)
    val = [-1] * n_vars
    used = [False] * n  # only set when distinct
    trail = []  # variables set by propagation, in order

    def propagate(v: int, val=val, watch=watch, trail=trail) -> bool:
        """Assign everything v determines; False on a conflict. The hot loop
        of every search (the defaults make its names locals)."""
        pending = [v]
        while pending:
            w = pending.pop()
            row = val[w]
            for u, target, table in watch[w]:
                col = val[u]
                if col < 0:
                    continue
                want = table[row][col]
                have = val[target]
                if have == want:
                    continue
                if have >= 0 or distinct and used[want]:
                    return False
                used[want] = distinct
                val[target] = want
                trail.append(target)
                pending.append(target)
        return True

    spend, depth = budget.spend, len(order)

    def extend(pos: int, val=val, used=used, trail=trail, order=order):
        """Yield each solution below the branch on order[pos], which is unassigned."""
        v, mark = order[pos], len(trail)
        for a in range(n):
            if distinct and used[a]:
                continue
            spend()
            used[a] = distinct
            val[v] = a
            if propagate(v):
                nxt = pos + 1
                while nxt < depth and val[order[nxt]] >= 0:
                    nxt += 1
                if nxt < depth:
                    yield from extend(nxt)
                else:
                    yield tuple(val)
            if len(trail) > mark:
                for w in trail[mark:]:
                    used[val[w]] = False
                    val[w] = -1
                del trail[mark:]
            used[a] = False
        val[v] = -1

    return extend(0) if order else iter([()])


def greedy_order(n_vars: int, constraints) -> list:
    """A branch order: each next variable is the one whose assignment determines
    the most unknown variables by two-way closure (ties to the least index),
    followed by the variables it determines."""
    watch = _watch_lists(n_vars, constraints)
    known = [False] * n_vars

    def closure(v: int) -> set:
        found = {v}
        pending = [v]
        while pending:
            for u, w, _ in watch[pending.pop()]:
                if (known[u] or u in found) and not (known[w] or w in found):
                    found.add(w)
                    pending.append(w)
        return found

    order = []
    while len(order) < n_vars:
        best = max((v for v in range(n_vars) if not known[v]),
                   key=lambda v: (len(closure(v)), -v))
        determined = sorted(closure(best) - {best})
        order += [best, *determined]
        for w in order[-len(determined) - 1:]:
            known[w] = True
    return order
