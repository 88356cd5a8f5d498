"""One search over quandle table constraints, run from a plan made once.

Variables take values in range(n). A constraint (x, y, z, T, B) means
z = T[x][y]; B holds the inverses of T's columns, which are bijections, so
known x and y fix z and known y and z fix x = B[z][y]. If T is latin and
x != z, known x and z fix y by left division. What is known at each branch
level depends on the branch order alone, so each constraint is one op, fixed in
advance at the level where its third variable becomes known; given no order,
the plan picks each branch variable. Levels try values in increasing order, or
a variable's domain in its order, one Budget node each; a last level with one
variable left reads the values that pass from a bitmask ANDed in over the
levels above (forward checking, Haralick & Elliott 1980).
"""

from __future__ import annotations

from functools import cache, partial

from .limits import Budget


def _closure(n_vars: int, constraints):
    """close(known, v) returns (constraint, op, whether op assigns) per
    constraint that v and what it determines complete, each op reading only
    variables known before it; known is left as it was."""
    touching, left, forms = [[] for _ in range(n_vars)], {}, []
    for i, (x, y, z, t, b) in enumerate(constraints):
        for w in {x, y, z}:
            touching[w].append(i)
        if id(t) not in left:  # T's left division, if T is latin
            left[id(t)] = (tuple(tuple(sorted(range(len(r)), key=r.__getitem__)) for r in t)
                           if all(len(set(row)) == len(row) for row in t) else None)
        forms.append([(z, t, x, y), (x, b, z, y)] + ([(y, left[id(t)], x, z)]
                                                     if x != z and left[id(t)] else []))

    def close(known: list, v: int) -> list:
        known[v], found, done, made = True, [], set(), [v]
        for w in made:  # grows; a constraint on a variable known before v is not met again
            for i in touching[w]:
                for op in forms[i] if i not in done else ():
                    if known[op[2]] and known[op[3]]:
                        break
                else:
                    continue
                done.add(i)
                found.append((i, op, not known[op[0]]))
                if not known[op[0]]:
                    known[op[0]] = True
                    made.append(op[0])
        for w in made:
            known[w] = False
        return found
    return close


def _mask_row(t, n: int, fixed: bool, i: int) -> list:
    """Row i of table t's masks of a last variable, which the closure leaves
    unknown only as y or as x and z: bit a of entry k is set where t[i][a] ==
    k; if fixed (x and z), bit a of every entry is set where t[a][i] == a."""
    if fixed:
        return [sum(1 << a for a, r in enumerate(t) if r[i] == a)] * n
    row = [0] * n
    for a, w in enumerate(t[i]):
        row[w] |= 1 << a
    return row


def _schedule(found) -> list:
    """A level's ops as (c, t, a, b, whether a check): each check right after
    the assigns it reads, so a failing one stops early; unread assigns last."""
    maker, made, ops = {op[0]: k for k, (_, op, new) in enumerate(found) if new}, set(), []
    for check in [op for _, op, new in found if not new] + [None]:
        stack, need = list(maker) if check is None else [check[0], *check[2:]], []
        while stack:
            k = maker.get(stack.pop())
            if k is not None and k not in made:
                made.add(k)
                need.append(k)
                stack += found[k][1][2:]
        ops += [(*found[k][1], False) for k in sorted(need)] + ([(*check, True)] if check else [])
    return ops


def plan(n_vars: int, n: int, constraints, order=None, distinct: bool = False) -> list:
    """The levels (v branched on, ops as _schedule makes them, the variables
    they assign, masks); with no order, each v is the one whose closure assigns
    the most, the least on ties. A last v left alone reads a mask (ops None)
    unless values must differ or v is y and also x or z of a constraint."""
    close, known, levels, level_of = _closure(n_vars, constraints), [False] * n_vars, [], {}
    rest = iter(order or ())
    while not all(known):
        picks = range(n_vars) if order is None else [next(v for v in rest if not known[v])]
        found, v = max(((close(known, v), v) for v in picks if not known[v]),
                       key=lambda trial: (sum(new for *_, new in trial[0]), -trial[1]))
        assigned = [op[0] for _, op, new in found if new]
        for w in (v, *assigned):
            known[w], level_of[w] = True, len(levels)
        levels.append((v, _schedule(found), assigned, []))
    if distinct or not levels or assigned or any(
            y == v in (x, z) for x, y, z, *_ in (constraints[i] for i, *_ in found)):
        return levels
    levels[-1], tables = (v, None, [], []), {}
    for i, *_ in found:
        x, y, z, t, _ = constraints[i]
        rows = tables.setdefault((id(t), x == v), cache(partial(_mask_row, t, n, x == v)))
        levels[max(level_of[w] for w in (x, y, z) if w != v)][3].append(
            (rows, y, y) if x == v else (rows, x, z))
    return levels


def solve(n_vars: int, n: int, levels, budget: Budget, distinct: bool = False, domains=None):
    """The assignments (tuples of values) satisfying every constraint, in
    search order, found as the iterator is read. ``levels`` is the plan made
    with the same ``distinct``, which requires all values to differ; ``domains``
    maps a variable to the values it tries when branched on (default range(n))."""
    if not levels:
        yield ()
        return
    # a value is read only below the level that set it, so none is cleared
    val, top, spend = [0] * n_vars, len(levels) - 1, budget.spend
    # acc[lvl]: the values taken above lvl if distinct, else those the masks allow
    acc = [0 if distinct else -1] * (top + 2)
    tries = [(domains or {}).get(v, range(n)) for v, *_ in levels]
    tried, lvl, values = [None] * top, 0, iter(tries[0])
    while True:
        v, ops, assigned, masks = levels[lvl]
        if ops is None:  # the masked last level; its values are all tried here
            allowed = acc[lvl]
            for a in values:
                spend()
                if allowed >> a & 1:
                    val[v] = a
                    yield tuple(val)
        for a in values:
            if distinct and acc[lvl] >> a & 1:
                continue
            spend()
            val[v] = a
            for c, t, x, y, check in ops:
                w = t[val[x]][val[y]]
                if not check:
                    val[c] = w
                elif val[c] != w:
                    break
            else:
                bits = acc[lvl]
                if distinct:
                    bits |= sum(1 << w for w in {a, *map(val.__getitem__, assigned)})
                    if bits.bit_count() <= acc[lvl].bit_count() + len(assigned):
                        continue
                for rows, x, y in masks:
                    bits &= rows(val[x])[val[y]]
                acc[lvl + 1] = bits
                if lvl < top:
                    tried[lvl], lvl, values = values, lvl + 1, iter(tries[lvl + 1])
                    break
                yield tuple(val)
        else:  # every value tried: back to the level above
            if not lvl:
                return
            lvl, values = lvl - 1, tried[lvl - 1]

