"""One propagating search over quandle table constraints.

Variables take values in range(n). A constraint (x, y, z, T, B) means
z = T[x][y]; the columns of T are bijections and B holds their inverses, so it
also means x = B[z][y]. Once y is known it propagates forward to z and
backward to x; if the rows of T are bijections too (T is latin), x and z fix
y. The search branches on the first unassigned variable of a given order and
tries values in increasing order, so with the order range(n_vars) solutions
come out in lexicographic order. Every value tried at a branch spends one node
of a Budget. The last unknown is not propagated (unless values must differ or
it sits at a kink): the values that pass are the AND of one bitmask per watch
entry on it (forward checking, Haralick & Elliott 1980), each still spending
its node, so node counts are unchanged.
"""

from __future__ import annotations

from .limits import Budget


def _watch_lists(n_vars: int, constraints):
    """For each variable w, entries (u, target, table): once w and u are known,
    target = table[value of w][value of u]. One entry per direction a
    constraint propagates in: four, or two when x and z are one variable, and
    two more when the rows of T are bijections too (T is latin), as x and z
    then fix y through the left division L, L[x][T[x][y]] = y."""
    tables = {id(t): t for con in constraints for t in con[3:]}
    left = {key: tuple(tuple(sorted(range(len(row)), key=row.__getitem__)) for row in t)
            for key, t in tables.items() if all(len(set(row)) == len(row) for row in t)}
    cols = {id(t): tuple(zip(*t)) for t in (*tables.values(), *left.values())}
    watch = [[] for _ in range(n_vars)]
    for x, y, z, t, b in constraints:
        watch[x].append((y, z, t))
        watch[y].append((x, z, cols[id(t)]))
        if z != x:
            watch[z].append((y, x, b))
            watch[y].append((z, x, cols[id(b)]))
            if (div := left.get(id(t))) is not None:
                watch[x].append((z, y, div))
                watch[z].append((x, y, cols[id(div)]))
    return watch


def solve(n_vars: int, n: int, constraints, budget: Budget, order=None,
          distinct: bool = False, first=None):
    """An iterator over the assignments (tuples of values) satisfying every
    constraint, in search order.

    ``order`` lists every variable (default range(n_vars)). ``distinct``
    requires all values to differ. ``first`` lists the values order[0] tries
    (default range(n)): one per orbit, say, when a symmetry gives the others.
    The search runs as the iterator is read,
    so a reader that stops early spends only the nodes before its last answer.
    """
    order = list(range(n_vars)) if order is None else list(order)
    if not order:
        yield ()
        return
    watch = _watch_lists(n_vars, constraints)
    val = [-1] * n_vars
    used = [False] * (n + 1)  # set only when distinct; used[-1] is spare, for val -1
    trail = []  # variables set by propagation, in order
    # checks[w]: w's watch entries with their tables' masks; None if distinct or at a kink
    masks = {}
    checks = [None if distinct or any(u == w for u, _, _ in entries) else
              [(u, target, t, masks.setdefault(id(t), [None] * n)) for u, target, t in entries]
              for w, entries in enumerate(watch)]

    spend, depth, last = budget.spend, len(order), n_vars - 1
    stack = []  # the branches above the one on order[pos]: (pos, mark, values)
    pos, mark, values = 0, 0, iter(range(n) if first is None else first)  # values left to try
    while True:
        v = order[pos]
        if len(stack) + mark == last and checks[v] is not None:
            # v is the last unknown, so each of its watch entries is a check:
            # AND one mask per entry instead of propagating each value
            allowed = -1
            for u, target, table, cache in checks[v]:
                col = val[u]
                if cache[col] is None:  # [t]: the b with table[b][col] == t;
                    # [n], read as [-1] when target is v: those equal to b
                    cache[col] = [0] * (n + 1)
                    for b, row in enumerate(table):
                        cache[col][row[col]] |= 1 << b
                        cache[col][n] |= (row[col] == b) << b
                allowed &= cache[col][val[target]]
            for a in values:
                spend()
                if allowed >> a & 1:
                    val[v] = a
                    yield tuple(val)
        for a in values:
            if len(trail) > mark:  # undo what the value before propagated
                for w in trail[mark:]:
                    used[val[w]] = False
                    val[w] = -1
                del trail[mark:]
            if distinct:
                used[val[v]] = False  # the value before
                if used[a]:
                    continue
                used[a] = True
            spend()
            val[v] = a
            pending = [v]  # assign everything v determines; a break is a conflict
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
                        break
                    used[want] = distinct
                    val[target] = want
                    trail.append(target)
                    pending.append(target)
                else:
                    continue  # w conflicts with nothing
                break
            else:  # no conflict: branch on the next unknown, or yield
                nxt = pos + 1
                while nxt < depth and val[order[nxt]] >= 0:
                    nxt += 1
                if nxt < depth:
                    stack.append((pos, mark, values))
                    pos, mark, values = nxt, len(trail), iter(range(n))
                    break
                yield tuple(val)
        else:  # every value tried; the next value of a branch above undoes them
            used[val[v]] = False
            val[v] = -1
            if not stack:
                return
            pos, mark, values = stack.pop()


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
