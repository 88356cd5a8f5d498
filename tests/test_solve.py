"""The propagating table-constraint solver behind colorings and the hom search:
property tests against the brute-force oracles, and node-count regressions
read from the search Budget (machine-independent work counts)."""

import importlib
import inspect
import pkgutil
import re
from bisect import bisect_right
from collections import Counter
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles
from helpers import (
    FIXTURES,
    all_ones_graph,
    brute_force_colorings,
    brute_force_homs,
    coloring_problem,
    load_diagram,
    p_coloring_tuple_predicate,
    plan_order,
    recorded_budgets,
    reference_solve,
    watch_closure,
    watch_greedy_order,
    watch_lists,
)
from quandles import (
    Coeff,
    LinkingGraph,
    SearchCapError,
    all_permutations,
    centralizer,
    conjugacy_class_representatives,
    cohomology_Q,
    colorings,
    dihedral,
    good_involutions,
    hom_quandle,
    homs,
    inner_group,
    is_isomorphic,
    orbits,
    p_quandle,
    parse_cycles,
    parse_diagram,
    relabel_quandle,
    synthesize_link,
    trivial,
)
from quandles import morphisms
from quandles.limits import Budget
from quandles.solve import _closure, plan, solve

ORACLE = settings(max_examples=40, deadline=None, derandomize=True)

CONSTRUCTORS = (
    lambda: trivial(2), lambda: trivial(3), lambda: dihedral(3), lambda: dihedral(4),
    # latin, and unlike R3 (Aut(R3) = S3) not every relabelling is itself
    lambda: dihedral(5),
    lambda: p_quandle(2, parse_cycles("(1 2)", 2)),
    lambda: p_quandle(3, parse_cycles("(1 2 3)", 3)),
    lambda: p_quandle(3, parse_cycles("(1 2)", 3)),
)
SIGMAS = (("(1 2)", 2), ("(1 2 3)", 3), ("(1 2)(3 4)", 4), ("(1 2 3)", 4), ("(1 2 3 4)", 4))


@st.composite
def relabelled_quandles(draw):
    q = draw(st.sampled_from(CONSTRUCTORS))()
    return relabel_quandle(q, draw(st.permutations(range(q.m))))


@st.composite
def linking_graphs(draw, max_m=3, max_w=None):
    """Small enough by default for brute force: at most 6 arcs."""
    m = draw(st.integers(2, max_m))
    if max_w is None:
        max_w = 3 if m == 2 else 1
    w = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            w[i][j] = w[j][i] = draw(st.integers(-max_w, max_w))
    return LinkingGraph(tuple(map(tuple, w)))


@ORACLE
@given(linking_graphs(), relabelled_quandles())
def test_colorings_match_brute_force(g, q):
    d = synthesize_link(g)
    assert colorings(d, q) == brute_force_colorings(d, q)


@ORACLE
@given(linking_graphs(max_m=4, max_w=3), st.sampled_from(SIGMAS))
def test_base_colors_follow_the_closed_form(g, sigma_text):
    text, n = sigma_text
    sigma = parse_cycles(text, n)
    d = synthesize_link(g)
    found = colorings(d, p_quandle(n, sigma))
    tuples = [c.base_colors(d) for c in found]
    assert len(set(tuples)) == len(found)
    assert set(tuples) == {combo for combo in product(range(n + 1), repeat=g.m)
                           if p_coloring_tuple_predicate(sigma, g.weights, combo)}


@ORACLE
@given(relabelled_quandles(), relabelled_quandles())
def test_homs_match_brute_force(x, y):
    assert [f.image for f in homs(x, y)] == brute_force_homs(x, y)


@ORACLE
@given(relabelled_quandles(), st.data())
def test_is_isomorphic_returns_the_first_bijective_hom(x, data):
    # y is either a relabelling of x or an unrelated quandle of the same order
    y = data.draw(st.one_of(
        st.permutations(range(x.m)).map(lambda order: relabel_quandle(x, order)),
        relabelled_quandles().filter(lambda q: q.m == x.m)))
    bijective = [img for img in brute_force_homs(x, y) if len(set(img)) == x.m]
    found = is_isomorphic(x, y)
    assert (found.image if found else None) == (bijective[0] if bijective else None)


ORACLE_QUANDLES = ([trivial(m) for m in range(1, 5)] + [dihedral(m) for m in range(3, 7)]
                   + [p_quandle(n, s) for n in range(1, 5) for s in all_permutations(n)])
ORACLE_NAMES = ([f"T{m}" for m in range(1, 5)] + [f"R{m}" for m in range(3, 7)]
                + [f"P{s.n}{s.image}" for n in range(1, 5) for s in all_permutations(n)])
# the quandles above up to isomorphism: one P(n, σ) per cycle type
SWEEP_QUANDLES = ORACLE_QUANDLES[:8] + [p_quandle(n, s) for n in range(1, 5)
                                        for s in conjugacy_class_representatives(n)]
# a search of at most this many nodes among them is also run at every cap
# below its count
SWEEP_NODES = 300


def _hom_problem(x, y):
    constraints = [(a, b, x.table[a][b], y.table, y.bar_table)
                   for a in range(x.m) for b in range(x.m) if a != b]
    return x.m, y.m, constraints, list(range(x.m))


def planned_solve(n_vars, n, constraints, budget, order=None, distinct=False):
    """solve run on its plan, called as reference_solve is; with no order the
    plan picks it, where reference_solve takes range(n_vars)."""
    return solve(n_vars, n, plan(n_vars, n, constraints, order, distinct), budget, distinct)


def _run(search, problem, distinct=False, cap=None):
    """(answers, Budget.nodes as each answer came, nodes at the end, whether the
    cap stopped the search)."""
    n_vars, n, constraints, order = problem
    budget = Budget("test")
    if cap is not None:
        budget.cap = cap
    answers, nodes_at = [], []
    try:
        for answer in search(n_vars, n, constraints, budget, order=order, distinct=distinct):
            answers.append(answer)
            nodes_at.append(budget.nodes)
    except SearchCapError:
        return answers, nodes_at, budget.nodes, True
    return answers, nodes_at, budget.nodes, False


def assert_solves_like_the_reference(problem, distinct=False, sweep=False):
    """The same answers in the same order as the recursive value-loop solver,
    with the same node count at each answer and at the end. With ``sweep``,
    every cap below a count of at most SWEEP_NODES stops the search on node
    cap + 1, after the answers the reference yields within cap nodes."""
    want = _run(reference_solve, problem, distinct)
    assert _run(planned_solve, problem, distinct) == want
    answers, nodes_at, nodes, _ = want
    if sweep and nodes <= SWEEP_NODES:
        for cap in range(nodes):
            k = bisect_right(nodes_at, cap)  # the answers found within cap nodes
            stopped = (answers[:k], nodes_at[:k], cap + 1, True)
            assert _run(planned_solve, problem, distinct, cap) == stopped


@pytest.mark.parametrize("x", ORACLE_QUANDLES, ids=ORACLE_NAMES)
def test_hom_search_matches_the_reference_solver(x):
    for y in ORACLE_QUANDLES:
        sweep = x in SWEEP_QUANDLES and y in SWEEP_QUANDLES
        for distinct in (False, True):
            assert_solves_like_the_reference(_hom_problem(x, y), distinct, sweep)


def _subquandle(q, elements):
    """The closure of elements under *, by brute force."""
    found = set(elements)
    while new := {q.table[a][b] for a in found for b in found} - found:
        found |= new
    return found


@pytest.mark.parametrize("x", ORACLE_QUANDLES, ids=ORACLE_NAMES)
def test_hom_search_on_generators_matches_all_pairs(x, monkeypatch):
    # one constraint per a != g for g in a generating set: the same answers in
    # the same order as one per pair a != b, with the same node count at each
    # answer and at the end
    made = recorded_budgets(monkeypatch, "quandles.morphisms.Budget")
    for y in ORACLE_QUANDLES:
        for distinct in (False, True):
            answers, nodes_at = [], []
            for image in morphisms._search(x, y, bijective=distinct):
                answers.append(image)
                nodes_at.append(made[-1].nodes)
            assert (answers, nodes_at, made[-1].nodes, False) == _run(
                planned_solve, _hom_problem(x, y), distinct)


def test_generators_are_taken_greedily():
    # each generator is the least element outside the subquandle that the
    # earlier ones generate, and together they generate the quandle
    odd = [dihedral(m) for m in range(3, 16, 2)]
    for q in ORACLE_QUANDLES + odd:
        gens = morphisms._generators(q.table)
        for i, g in enumerate(gens):
            assert g == min(set(q.elements) - _subquandle(q, gens[:i]))
        assert _subquandle(q, gens) == set(q.elements)
    assert all(morphisms._generators(q.table) == [0, 1] for q in odd)
    for m in range(1, 6):
        assert morphisms._generators(trivial(m).table) == list(range(m))
    for n in range(1, 5):
        for s in all_permutations(n):  # 0 and one point per cycle of σ, fixed points included
            assert len(morphisms._generators(p_quandle(n, s).table)) == 1 + len(orbits(s))


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.lnk")))
def test_fixture_colorings_match_the_reference_solver(name):
    d = load_diagram(name)
    for q in ORACLE_QUANDLES:
        assert_solves_like_the_reference(coloring_problem(d, q), sweep=q in SWEEP_QUANDLES)


@ORACLE
@given(linking_graphs(max_m=4, max_w=3), st.sampled_from(ORACLE_QUANDLES))
def test_synthesized_colorings_match_the_reference_solver(g, q):
    assert_solves_like_the_reference(coloring_problem(synthesize_link(g), q))


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.lnk")))
def test_greedy_order_matches_the_watch_list_oracle_on_fixtures(name):
    d = load_diagram(name)
    for q in ORACLE_QUANDLES:
        n_vars, _, constraints, order = coloring_problem(d, q)
        assert order == watch_greedy_order(n_vars, constraints)


@ORACLE
@given(linking_graphs(max_m=4, max_w=3), st.sampled_from(ORACLE_QUANDLES))
def test_greedy_order_matches_the_watch_list_oracle_on_synthesized_links(g, q):
    n_vars, _, constraints, order = coloring_problem(synthesize_link(g), q)
    assert order == watch_greedy_order(n_vars, constraints)


def assert_plan_follows_the_closure(problem, distinct):
    """Each plan level knows what the watch-list closure knows after its
    branch variable, and each constraint is one op there: an assign or check
    in a form its variables allow, or else a mask on the last variable. With
    no order, the plan's branch variables are watch_greedy_order's picks."""
    n_vars, n, constraints, order = problem
    levels = plan(n_vars, n, constraints, order, distinct)
    order = watch_greedy_order(n_vars, constraints) if order is None else order
    masked = levels[-1][1] is None
    watch, close = watch_lists(n_vars, constraints), _closure(n_vars, constraints)
    known, ref, seen = [False] * n_vars, [False] * n_vars, []
    for k, (v, ops, assigned, _) in enumerate(levels):
        assert v == next(w for w in order if not known[w])
        found = close(known, v)
        for w in (v, *(op[0] for _, op, new in found if new)):
            known[w] = True
        for w in watch_closure(watch, ref, v):
            ref[w] = True
        assert known == ref
        for i, (c, t, x, y), new in found:
            X, Y, Z, T, B = constraints[i]
            assert ((c, x, y, t) in ((Z, X, Y, T), (X, Z, Y, B)) or (c, x, y) == (Y, X, Z) and all(
                t[a][T[a][b]] == b for a in range(n) for b in range(n)))  # L[x][T[x][y]] = y
        seen += [i for i, *_ in found]
        if not (masked and k == len(levels) - 1):
            assert sorted(assigned) == sorted(op[0] for _, op, new in found if new)
            assert Counter(ops) == Counter((*op, not new) for _, op, new in found)
    assert sorted(seen) == list(range(len(constraints)))
    masks = sum(len(level[3]) for level in levels)
    assert masks == (sum(levels[-1][0] in con[:3] for con in constraints) if masked else 0)
    assert masks + sum(len(level[1] or ()) for level in levels) == len(constraints)


@pytest.mark.parametrize("x", ORACLE_QUANDLES[:12], ids=ORACLE_NAMES[:12])
def test_plan_ops_follow_the_reference_closure_on_hom_problems(x):
    for y in ORACLE_QUANDLES[:12]:
        for distinct in (False, True):
            assert_plan_follows_the_closure(_hom_problem(x, y), distinct)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.lnk")))
def test_plan_ops_follow_the_reference_closure_on_fixtures(name):
    d = load_diagram(name)
    for q in ORACLE_QUANDLES:
        assert_plan_follows_the_closure((*coloring_problem(d, q)[:3], None), False)


@ORACLE
@given(linking_graphs(max_m=4, max_w=3), st.sampled_from(ORACLE_QUANDLES))
def test_plan_ops_follow_the_reference_closure_on_synthesized_links(g, q):
    assert_plan_follows_the_closure((*coloring_problem(synthesize_link(g), q)[:3], None), False)


@pytest.mark.parametrize("text", [(FIXTURES / "kink1.lnk").read_text(), "X 0 0 1 +\nX 1 1 0 +\n"])
def test_a_kink_has_one_coloring_per_element(text):
    # at a kink an arc is its own over-arc: the last unknown is its own
    # partner in a constraint, so no table column is known for a mask
    d = parse_diagram(text)
    for q in ORACLE_QUANDLES:
        assert colorings(d, q) == brute_force_colorings(d, q)
        assert len(colorings(d, q)) == q.m


def test_solver_options():
    # z = T[x][y] over the dihedral quandle R3, variables (x, y, z)
    r3 = dihedral(3)
    con = [(0, 1, 2, r3.table, r3.bar_table)]
    every = list(planned_solve(3, 3, con, Budget("test")))
    assert every == sorted((x, y, r3.op(x, y)) for x in range(3) for y in range(3))
    assert list(islice(planned_solve(3, 3, con, Budget("test")), 1)) == every[:1]
    assert list(planned_solve(3, 3, con, Budget("test"), distinct=True)) == [
        s for s in every if len(set(s)) == 3]
    # branching on z and y first reaches x through the inverse columns
    budget = Budget("test")
    backward = list(planned_solve(3, 3, con, budget, order=[2, 1, 0]))
    assert sorted(backward) == every and budget.nodes == 3 + 9
    assert list(planned_solve(0, 3, [], Budget("test"))) == [()]


@pytest.mark.parametrize("limit", (None, 1, 2, 8, 9, 10, 100))
def test_emit_takes_each_solution_up_to_the_limit(limit):
    # the 9 solutions of z = T[x][y] over R3, and the 36 homs of P(3, (1 2)):
    # the first `limit` of them read off the iterator are its first in order
    r3 = dihedral(3)
    con = [(0, 1, 2, r3.table, r3.bar_table)]
    every = list(planned_solve(3, 3, con, Budget("test")))
    assert list(islice(planned_solve(3, 3, con, Budget("test")), limit)) == every[:limit]
    q = p_quandle(3, parse_cycles("(1 2)", 3))
    total = len(homs(q, q))
    taken = list(islice(morphisms._search(q, q), limit))
    assert len(taken) == (total if limit is None else min(limit, total))


def test_the_first_solution_spends_fewer_nodes_than_all():
    # the search runs only as the iterator is read
    r3 = dihedral(3)
    con = [(0, 1, 2, r3.table, r3.bar_table)]
    first, every = Budget("test"), Budget("test")
    solutions = planned_solve(3, 3, con, first)
    assert first.nodes == 0
    assert next(solutions) == (0, 0, 0) and first.nodes == 2
    assert len(list(planned_solve(3, 3, con, every))) == 9 and every.nodes == 3 + 9


def test_greedy_order_branches_on_determining_arcs():
    # on the (5, 1, 1) twist link three branch arcs determine all others
    d = synthesize_link(LinkingGraph(((0, 5, 1), (5, 0, 1), (1, 1, 0))))
    q = p_quandle(4, parse_cycles("(1 2)", 4))
    constraints = [(c.under_in, c.over, c.under_out, q.table, q.bar_table) for c in d.crossings]
    levels = plan(d.n_arcs, q.m, constraints)
    assert len(levels) == 3 and sorted(plan_order(levels)) == list(range(d.n_arcs))
    greedy, by_index = Budget("test"), Budget("test")
    assert (sorted(solve(d.n_arcs, q.m, levels, greedy))
            == list(planned_solve(d.n_arcs, q.m, constraints, by_index, range(d.n_arcs))))
    assert greedy.nodes == 5 + 5**2 + 5**3 < by_index.nodes


@pytest.fixture
def coloring_budgets(monkeypatch):
    """The Budget of every colorings() call made in the test, in call order."""
    return recorded_budgets(monkeypatch, "quandles.links.Budget")


def _twist_nodes(k, budgets):
    d = synthesize_link(LinkingGraph(((0, k, 1), (k, 0, 1), (1, 1, 0))))
    found = colorings(d, p_quandle(4, parse_cycles("(1 2)", 4)))
    return len(found), budgets[-1].nodes


def test_twist_ladder_is_linear_in_crossings(coloring_budgets):
    # the node count does not grow with the twist: only the propagation
    # along the 2k crossings does. The first branch arc takes one color per
    # Inn-orbit of P(4, (1 2)), {0}, {1, 2}, {3}, {4}, and two more arcs branch
    count_50, nodes_50 = _twist_nodes(50, coloring_budgets)
    count_100, nodes_100 = _twist_nodes(100, coloring_budgets)
    assert count_50 == count_100 == 93
    assert nodes_50 == nodes_100 == _twist_nodes(7, coloring_budgets)[1] == 4 * (1 + 5 + 25)
    # at a kink the arc is its own over-arc, so it fixes the next arc: the
    # plan branches on kink arc 1 (fixing 0), then on 2 (fixing 3), in
    # 4 * (1 + 5) nodes; index order (arc 0 first) would take 44
    found = colorings(load_diagram("hopf_kink.lnk"), p_quandle(4, parse_cycles("(1 2)", 4)))
    assert len(found) == 21 and coloring_budgets[-1].nodes == 24


def test_k6_over_r5_finishes_under_the_benchmark_cap(coloring_budgets, monkeypatch):
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", str(10**6))
    found = colorings(synthesize_link(all_ones_graph(6)), dihedral(5))
    assert len(found) == 5  # the constant colorings
    # R5 is one Inn-orbit, so the first branch arc takes one color:
    # sum of 5^i for i = 0..4
    assert coloring_budgets[-1].nodes == 781


@pytest.mark.parametrize("m", (3, 5))
@pytest.mark.parametrize("k", range(3, 7))
def test_all_ones_link_over_r_odd_branches_on_all_but_one_component(k, m, coloring_budgets):
    # in the latin R_m two under-arcs at a crossing fix the over-arc, so the
    # greedy order branches on k - 1 arcs, not k; R_m (m odd) is one Inn-orbit,
    # so the first of them takes one color: sum of m^i for i = 0..k-2
    d = synthesize_link(all_ones_graph(k))
    assert [c.colors for c in colorings(d, dihedral(m))] == [(a,) * d.n_arcs for a in range(m)]
    assert coloring_budgets[-1].nodes == sum(m**i for i in range(k - 1))


def test_small_cap_still_stops_k3_over_r3(coloring_budgets, monkeypatch):
    d = synthesize_link(all_ones_graph(3))
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "2")
    with pytest.raises(SearchCapError) as err:
        colorings(d, dihedral(3))
    assert err.value.budget.nodes == 3
    monkeypatch.delenv("QUANDLE_SEARCH_CAP")
    assert len(colorings(d, dihedral(3))) == 3
    # 1 + 3: two of the three arcs branch, the first on one color per Inn-orbit
    assert coloring_budgets[-1].nodes == 4


def test_cap_messages_name_the_search(monkeypatch):
    shape = re.compile(r"\w+ search exceeded \d+ nodes")
    cases = [
        (3, lambda: colorings(synthesize_link(all_ones_graph(3)), dihedral(3)), "coloring"),
        (5, lambda: homs(trivial(3), trivial(3)), "hom"),
        (0, lambda: is_isomorphic(trivial(3), trivial(3)), "hom"),
        (7, lambda: good_involutions(trivial(5)), "involution"),
        (0, lambda: inner_group(dihedral(3)), "group"),
        (10, lambda: hom_quandle(trivial(1), trivial(3)), "homquandle"),
        (0, lambda: cohomology_Q(dihedral(3), 2, "Z"), "cochain"),
        (0, lambda: Coeff.parse("Z5"), "primality"),
        (17, lambda: centralizer(parse_cycles("(1 2)", 3)), "centralizer"),
    ]
    for cap, call, word in cases:
        monkeypatch.setenv("QUANDLE_SEARCH_CAP", str(cap))
        with pytest.raises(SearchCapError) as err:
            call()
        assert shape.fullmatch(str(err.value)) and str(err.value).startswith(word + " ")


def test_no_public_callable_takes_a_cap():
    # QUANDLE_SEARCH_CAP is the one limit on work; no call can set its own cap
    # or bound. The one exception is quiver_isomorphic's max_vertices, an
    # optional extra bound with no default that acceptance criterion 11b passes
    found = []
    for info in pkgutil.iter_modules(quandles.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"quandles.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith("quandles"):
                continue
            found.append((name, obj))
            if inspect.isclass(obj):
                found += [(f"{name}.{attr}", getattr(obj, attr))
                          for attr in vars(obj) if not attr.startswith("_")]
    assert len(found) > 50
    takes_cap = []
    for name, obj in found:
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # not callable
            continue
        takes_cap += [(name, p) for p in params if p == "cap" or "bound" in p
                      or p.startswith("max_")]
    assert takes_cap == [("quiver_isomorphic", "max_vertices")]


def test_involution_budget_counts_each_involution(monkeypatch):
    # T5 has 26 involutions, all good; the cap is exactly enough
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "26")
    assert len(good_involutions(trivial(5))) == 26
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "25")
    with pytest.raises(SearchCapError):
        good_involutions(trivial(5))
