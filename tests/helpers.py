"""Shared test utilities: independent brute-force oracles and raw constructors."""

from itertools import permutations, product
from pathlib import Path

from quandles import (
    AxiomError,
    CochainComplexSlice,
    Coeff,
    Coloring,
    FiniteGroupTable,
    LinkDiagram,
    LinkingGraph,
    Quandle,
    all_permutations,
    cochain_slice,
    compose,
    conjugacy_class_representatives,
    format_cycles,
    linalg,
    parse_diagram,
)
from quandles.cohomology import _cohomology
from quandles.invariants import _good_involution_defect
from quandles.limits import Budget
from quandles.permutations import _cycles
from quandles.solve import plan

FIXTURES = Path(__file__).parent / "fixtures"


def sparse(dense_rows):
    """The library's matrix of dense rows: each row as its (column, value)
    pairs, in column order, zeros left out."""
    return [tuple((c, v) for c, v in enumerate(row) if v) for row in dense_rows]


def dense(rows, cols: int):
    """The dense rows, cols cells wide, of a matrix of (column, value) rows."""
    out = [[0] * cols for _ in rows]
    for row, cells in zip(rows, out):
        for c, v in row:
            cells[c] = v
    return out


def load_diagram(name: str) -> LinkDiagram:
    return parse_diagram((FIXTURES / name).read_text())


# the constructor expressions whose CLI answers and group tables the oracles check
ORACLE_QUANDLES = ([f"T {m}" for m in range(1, 6)] + [f"R {m}" for m in range(3, 8)]
                   + [f"P {n} {format_cycles(s)}" for n in range(1, 5)
                      for s in conjugacy_class_representatives(n)])


def cell_scan_validate(table) -> None:
    """The quandle axioms checked cell by cell, self-distributivity on all m^3
    triples, raising the first AxiomError in the constructor's order."""
    m = len(table)
    for x, row in enumerate(table):
        if len(row) != m:
            raise AxiomError("shape", x, f"row {x} has length {len(row)}, expected {m}")
        for y, v in enumerate(row):
            if type(v) is not int or not 0 <= v < m:
                raise AxiomError("range", (x, y), f"entry {v} at ({x},{y}) outside 0..{m - 1}")
    for x in range(m):
        if table[x][x] != x:
            raise AxiomError("idempotence", x, f"{x}*{x} = {table[x][x]} != {x}")
    for y in range(m):
        col = [table[x][y] for x in range(m)]
        if len(set(col)) != m:
            raise AxiomError("column-bijection", y, f"column {y} is not a bijection: {col}")
    for x in range(m):
        for y in range(m):
            xy = table[x][y]
            for z in range(m):
                if table[xy][z] != table[table[x][z]][table[y][z]]:
                    raise AxiomError(
                        "self-distributivity", (x, y, z),
                        f"({x}*{y})*{z} = {table[xy][z]} but "
                        f"({x}*{z})*({y}*{z}) = {table[table[x][z]][table[y][z]]}")


def raw_quandle(table):
    """A Quandle instance that skips axiom validation (negative-test inputs)."""
    q = object.__new__(Quandle)
    q.table = tuple(tuple(row) for row in table)
    q.m = len(q.table)
    return q


def brute_force_homs(x: Quandle, y: Quandle):
    """Every set map checked against the homomorphism law directly."""
    found = []
    for image in product(range(y.m), repeat=x.m):
        if all(image[x.table[a][b]] == y.table[image[a]][image[b]]
               for a in range(x.m) for b in range(x.m)):
            found.append(image)
    return found


def brute_force_automorphisms(q: Quandle):
    """The bijections among brute_force_homs(q, q), in lex order."""
    maps = set(brute_force_homs(q, q))
    return [img for img in permutations(range(q.m)) if img in maps]


def medial_law_holds(q: Quandle) -> bool:
    """(x*y)*(z*w) = (x*z)*(y*w), checked over all m^4 quadruples."""
    t = q.table
    rng = range(q.m)
    return all(t[t[x][y]][t[z][w]] == t[t[x][z]][t[y][w]]
               for x in rng for y in rng for z in rng for w in rng)


def labelled_quandles(m: int):
    """Every quandle table on {0..m-1}, in lex order of its columns. The
    columns are placed one at a time, each S_z a permutation that fixes z.
    (x*y)*z = (x*z)*(y*z) for all x says S_z S_y = S_(S_z(y)) S_z, and that
    is checked for each y, z once the three columns it names are placed.
    The constructor checks every table again."""
    choices = [[p for p in permutations(range(m)) if p[z] == z] for z in range(m)]
    cols, found = [], []

    def law_holds(c: int) -> bool:  # the (y, z) whose last column placed is c
        for y, z in product(range(c + 1), repeat=2):
            w = cols[z][y]
            if w <= c and c in (y, z, w) and any(
                    cols[z][cols[y][x]] != cols[w][cols[z][x]] for x in range(m)):
                return False
        return True

    def place(c: int) -> None:
        if c == m:
            found.append(Quandle(list(zip(*cols))))
            return
        for col in choices[c]:
            cols.append(col)
            if law_holds(c):
                place(c + 1)
            cols.pop()

    place(0)
    return found


def relabelled_table(table, p) -> tuple:
    """The table with each element x renamed p[x]."""
    out = [[0] * len(p) for _ in p]
    for x, row in enumerate(table):
        for y, v in enumerate(row):
            out[p[x]][p[y]] = p[v]
    return tuple(map(tuple, out))


def quandle_classes(m: int):
    """One quandle of order m per isomorphism class, sorted: the least
    relabelling of each of labelled_quandles(m), as a tuple of rows."""
    relabellings = list(permutations(range(m)))
    least = {min(relabelled_table(q.table, p) for p in relabellings)
             for q in labelled_quandles(m)}
    return [Quandle(table) for table in sorted(least)]


def all_ones_graph(k: int) -> LinkingGraph:
    """The linking graph of k components, each pair linked once."""
    return LinkingGraph(tuple(tuple(int(i != j) for j in range(k)) for i in range(k)))


def plan_order(levels) -> list:
    """The branch order of a solver plan: each level's variable, then the
    variables it assigns, sorted."""
    return [w for v, _, assigned, _ in levels for w in (v, *sorted(assigned))]


def coloring_problem(d: LinkDiagram, q: Quandle):
    """(variables, values, constraints, order) of the solver problem that
    colorings() builds for d over q, with every value tried on each arc; the
    order is that of the plan colorings() makes."""
    constraints = [(c.under_in, c.over, c.under_out)
                   + ((q.table, q.bar_table) if c.sign > 0 else (q.bar_table, q.table))
                   for c in d.crossings]
    return d.n_arcs, q.m, constraints, plan_order(plan(d.n_arcs, q.m, constraints))


def recorded_budgets(monkeypatch, target):
    """Every Budget made through the name target in the test, in order."""
    made = []

    class Recording(Budget):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(target, Recording)
    return made


def brute_force_colorings(d: LinkDiagram, q: Quandle):
    """Filter all |Q|^arcs assignments by the crossing rule."""
    found = []
    for colors in product(range(q.m), repeat=d.n_arcs):
        ok = True
        for c in d.crossings:
            want = (q.op(colors[c.under_in], colors[c.over]) if c.sign > 0
                    else q.bar(colors[c.under_in], colors[c.over]))
            if colors[c.under_out] != want:
                ok = False
                break
        if ok:
            found.append(Coloring(colors))
    return found


def cell_law_defect(q: Quandle, rho):
    """The first cell (law, x, y), in (x, y) order, where rho(x*y) = rho(x)*y
    or x*rho(y) = bar(x, y) fails, else None: both good-involution laws
    checked cell by cell."""
    t = q.table
    for x in range(q.m):
        for y in range(q.m):
            if rho[t[x][y]] != t[rho[x]][y]:
                return ("rho(x*y) = rho(x)*y", x, y)
            if t[x][rho[y]] != q.bar(x, y):
                return ("x*rho(y) = bar(x,y)", x, y)
    return None


def symmetric_quandle_error(q: Quandle, rho):
    """The message SymmetricQuandle(q, rho) must raise for a permutation rho,
    or None when rho is a good involution."""
    bad = next((x for x in range(q.m) if rho[rho[x]] != x), None)
    if bad is not None:
        return f"rho is not an involution at {bad}"
    defect = cell_law_defect(q, rho)
    return None if defect is None else "{} fails at ({},{})".format(*defect)


def remaining_list_good_involutions(q: Quandle, budget: Budget):
    """The good involutions of q in lex order, built by recursion over a list
    of unpaired points that each level rebuilds: it pairs the least unpaired x
    with each y of the inverse column in turn. Each involution built spends
    one node of the budget and is then filtered by both laws."""
    _, col_id, inv_id = q._columns
    out = []

    def build(remaining, image):
        if not remaining:
            budget.spend()
            out.append(tuple(image))
            return
        x = remaining[0]
        for y in remaining:  # y = x first: the images come out in lex order
            if col_id[y] == inv_id[x]:
                image[x], image[y] = y, x
                build([z for z in remaining[1:] if z != y], image)

    build(list(q.elements), [0] * q.m)
    return [rho for rho in out if _good_involution_defect(q, rho) is None]


def associativity_witness(table):
    """The first (a, b, c) in lex order with (ab)c != a(bc), else None."""
    n = len(table)
    for a, b, c in product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return (a, b, c)
    return None


def group_table_error(table):
    """The message FiniteGroupTable(table) raises, found by brute force, else
    None: entries out of range, then no two-sided identity, then an element
    with no right inverse, then the first non-associative triple."""
    n = len(table)
    if any(len(row) != n or not all(0 <= v < n for v in row) for row in table):
        return "table entries must index elements"
    identities = [e for e in range(n)
                  if all(table[e][x] == x and table[x][e] == x for x in range(n))]
    if not identities:
        return "no identity element"
    for x in range(n):
        if identities[0] not in table[x]:
            return f"element {x} has no inverse"
    witness = associativity_witness(table)
    return None if witness is None else "associativity fails at ({},{},{})".format(*witness)


def group_mul_table(perms):
    """Multiplication table of a list of permutations (as image tuples),
    product = left-then-right composition a;b = b after a."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(b[v] for v in a)] for b in perms] for a in perms]


def composition_table(images):
    """The composition table of a closed list of image tuples with every one of
    its |G|^2 cells composed point by point: row f, column g holds f after g."""
    Budget("group", len(images) ** 2)
    index = {image: i for i, image in enumerate(images)}
    try:
        table = [[index[tuple(map(f.__getitem__, g))] for g in images] for f in images]
    except KeyError:
        raise ValueError("set of maps is not closed under composition") from None
    return FiniteGroupTable(table)


def inner_images(q: Quandle):
    """The columns of q closed under composition by repeated squaring of the
    set, sorted."""
    elems = {tuple(row[y] for row in q.table) for y in q.elements}
    while (grown := elems | {tuple(map(a.__getitem__, b)) for a in elems for b in elems}) != elems:
        elems = grown
    return sorted(elems)


def conjugation_quandle(perms):
    """g*h = h^-1 g h on a closed set of permutations given as image tuples."""
    index = {p: i for i, p in enumerate(perms)}

    def inv(p):
        out = [0] * len(p)
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    table = []
    for g in perms:
        row = []
        for h in perms:
            hi = inv(h)
            conj = tuple(hi[g[h[x]]] for x in range(len(g)))
            row.append(index[conj])
        table.append(row)
    return Quandle(table)


def symmetric_group_elements(n: int):
    """All image tuples of S_n acting on {0..n-1}, sorted."""
    return sorted(map(tuple, permutations(range(n))))


def filtered_centralizer(a):
    """Every g in S_n, from all_permutations, with compose(g, a) == compose(a, g):
    the library's former n!-filter, kept as the oracle of its list and order."""
    return [g for g in all_permutations(a.n) if compose(g, a) == compose(a, g)]


def p_coloring_tuple_predicate(sigma, weights, combo):
    """Whether a component color tuple extends to a coloring of a link with the
    given pairwise linking numbers, for the one-column quandle of sigma.

    Traversing a positively colored component applies one power of sigma per
    undercrossing below a 0-colored component, so the closure condition is that
    the color's orbit length divides the SUM of the linking numbers into the
    0-colored components (per-pair divisibility is not necessary when several
    0-colored components contribute).
    """
    m = len(combo)
    for j in range(m):
        if combo[j] == 0:
            continue
        twist = sum(weights[i][j] for i in range(m) if i != j and combo[i] == 0)
        if twist % next(len(o) for o in sigma.orbit_list if combo[j] in o):
            return False
    return True


def two_kernel_symmetric_cohomology_z(q: Quandle, rho, n: int):
    """Symmetric H^n over Z as (free rank, torsion), by two integer kernels.

    The cocycles are a kernel basis Zb of delta_out stacked with the relation
    rows; the coboundaries among them are the a-parts of the kernel of
    [Zb | -delta_in] (Zb*a = delta_in*b), whose Smith form gives the quotient.
    """
    sl = cochain_slice(q, n, rho)
    c_n, n_b = len(sl.basis), len(sl.basis_below)
    d_in = dense(sl.delta_in, n_b)
    cocycles = dense(linalg.integer_kernel_basis(sl.delta_out + sl.relations, cols=c_n), c_n)
    z = len(cocycles)
    if z == 0:
        return 0, ()
    mixed = [[cocycles[k][i] for k in range(z)] + [-d_in[i][j] for j in range(n_b)]
             for i in range(c_n)]
    meet = dense(linalg.integer_kernel_basis(sparse(mixed), cols=z + n_b), z + n_b)
    gens = [[vec[k] for vec in meet] for k in range(z)]
    factors = linalg.smith_normal_form(sparse(gens)) if meet else []
    return z - len(factors), tuple(d for d in factors if d > 1)


def cycle_text(image):
    """0-based cycle notation of an image tuple, fixed points omitted and the
    identity as "()", by a walk of its own."""
    parts, seen = [], set()
    for start, p in enumerate(image):
        if p == start or start in seen:
            continue
        cycle = [start]
        while p != start:
            seen.add(p)
            cycle.append(p)
            p = image[p]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def product_tuple_basis(q: Quandle, n: int):
    """Non-degenerate n-tuples, by filtering every n-tuple in lexicographic order."""
    tuples = product(q.elements, repeat=n) if n >= 1 else ()
    return [t for t in tuples if all(t[i] != t[i + 1] for i in range(n - 1))]


def face_loop_coboundary_rows(q: Quandle, basis, lower):
    """One dense row per tuple of basis, each face built by calling q.op."""
    index = {t: i for i, t in enumerate(lower)}
    rows = []
    for t in basis:
        row = [0] * len(lower)
        for i in range(1, len(t) + 1):
            sign = -1 if i % 2 else 1
            acted = tuple(q.op(x, t[i - 1]) for x in t[: i - 1]) + t[i:]
            for face, coeff in ((t[: i - 1] + t[i:], sign), (acted, -sign)):
                if face in index:
                    row[index[face]] += coeff
        rows.append(row)
    return tuple(rows)


def dense_relation_rows(q: Quandle, rho, n: int, basis):
    """The involution relation rows, one dense candidate row per n-tuple and
    position, kept when nonzero and sorted once duplicates go."""
    index = {t: i for i, t in enumerate(basis)}
    rows = set()
    for t in product(q.elements, repeat=n):
        for i in range(1, n + 1):
            other = tuple(q.op(x, t[i - 1]) for x in t[: i - 1]) + (rho[t[i - 1]],) + t[i:]
            row = [0] * len(basis)
            for tup in (t, other):
                pos = index.get(tup)
                if pos is not None:
                    row[pos] += 1
            if any(row):
                rows.add(tuple(row))
    return tuple(sorted(rows))


def whole_slice_cohomology(q: Quandle, n: int, coeffs, rho=None):
    """H^n over each of coeffs from one slice of the whole complex, every
    face built by the face loop (inert ones included) and every relation row
    by the dense builder, each row then made sparse, under the library's
    formula: cohomology before the complex was split into blocks. Any degree
    n >= 2 is allowed."""
    below, basis, above = (tuple(product_tuple_basis(q, k)) for k in (n - 1, n, n + 1))
    sl = CochainComplexSlice(q, n, below, basis, above,
                             tuple(sparse(face_loop_coboundary_rows(q, basis, below))),
                             tuple(sparse(face_loop_coboundary_rows(q, above, basis))),
                             None if rho is None
                             else tuple(sparse(dense_relation_rows(q, rho, n, basis))))
    return [_cohomology(sl, Coeff.parse(coeff)) for coeff in coeffs]


def disjoint_union(a: Quandle, b: Quandle) -> Quandle:
    """a and b side by side, b's elements shifted past a's; an element of one
    acts trivially on the other."""
    m = a.m + b.m
    table = [[x] * m for x in range(m)]
    for x, y in product(range(a.m), repeat=2):
        table[x][y] = a.table[x][y]
    for x, y in product(range(b.m), repeat=2):
        table[a.m + x][a.m + y] = a.m + b.table[x][y]
    return Quandle(table)


def watch_lists(n_vars: int, constraints):
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


def watch_closure(watch, known, v: int) -> set:
    """v and the unknown variables it determines, by walking the watch lists
    from the known ones (a list of flags)."""
    found = {v}
    pending = [v]
    while pending:
        for u, w, _ in watch[pending.pop()]:
            if (known[u] or u in found) and not (known[w] or w in found):
                found.add(w)
                pending.append(w)
    return found


def watch_greedy_order(n_vars: int, constraints) -> list:
    """The greedy branch order by watch lists: each next variable is the one
    whose closure is largest (ties to the least index), then the variables it
    determines, sorted."""
    watch = watch_lists(n_vars, constraints)
    known, order = [False] * n_vars, []
    while len(order) < n_vars:
        best = max((v for v in range(n_vars) if not known[v]),
                   key=lambda v: (len(watch_closure(watch, known, v)), -v))
        determined = sorted(watch_closure(watch, known, best) - {best})
        order += [best, *determined]
        for w in order[-len(determined) - 1:]:
            known[w] = True
    return order


def reference_solve(n_vars: int, n: int, constraints, budget, order=None,
                    distinct: bool = False):
    """The solver as plain recursion, one generator per open branch and a
    value loop at every level: solutions in search order, one Budget node per
    value tried."""
    order = list(range(n_vars)) if order is None else list(order)
    watch = watch_lists(n_vars, constraints)
    val = [-1] * n_vars
    used = [False] * n  # only set when distinct
    trail = []  # variables set by propagation, in order

    def propagate(v: int) -> bool:
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

    def extend(pos: int):
        v, mark = order[pos], len(trail)
        for a in range(n):
            if distinct and used[a]:
                continue
            budget.spend()
            used[a] = distinct
            val[v] = a
            if propagate(v):
                nxt = pos + 1
                while nxt < len(order) and val[order[nxt]] >= 0:
                    nxt += 1
                if nxt < len(order):
                    yield from extend(nxt)
                else:
                    yield tuple(val)
            for w in trail[mark:]:
                used[val[w]] = False
                val[w] = -1
            del trail[mark:]
            used[a] = False
        val[v] = -1

    return extend(0) if order else iter([()])


def set_walk_format(image, first: int) -> str:
    """Cycle notation of an image tuple on first.. as each cycle's points
    joined from the set-walk of _cycles; fixed points omitted, the identity
    as "()"."""
    return "".join("(" + " ".join(map(str, c)) + ")"
                   for c in _cycles(image, first) if len(c) > 1) or "()"
