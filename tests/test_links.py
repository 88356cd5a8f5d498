import random
from itertools import product

import pytest

from helpers import (
    FIXTURES,
    all_ones_graph,
    brute_force_colorings,
    coloring_problem,
    conjugation_quandle,
    disjoint_union,
    labelled_quandles,
    load_diagram,
    p_coloring_tuple_predicate,
    recorded_budgets,
    symmetric_group_elements,
)
from quandles import (
    DiagramError,
    LinkDiagram,
    LinkingGraph,
    SearchCapError,
    all_permutations,
    colorings,
    dihedral,
    linking_graph,
    linking_number,
    p_quandle,
    parse_cycles,
    parse_diagram,
    relabel_quandle,
    synthesize_link,
    trivial,
)
from quandles.limits import Budget
from quandles.solve import plan, solve

P3 = p_quandle(2, parse_cycles("(1 2)", 2))
HOPF = load_diagram("hopf_pos.lnk")
KINK = load_diagram("hopf_kink.lnk")
TORUS = load_diagram("torus24_pos.lnk")
TORUS_NEG = load_diagram("torus24_neg.lnk")
TREFOIL = load_diagram("trefoil.lnk")
UNKNOT = load_diagram("unknot.lnk")
SPLIT2 = load_diagram("split2.lnk")


def test_parse_fixtures():
    assert HOPF.n_components == 2 and HOPF.n_arcs == 2
    assert UNKNOT.n_components == 1 and not UNKNOT.crossings
    assert TORUS.n_components == 2 and len(TORUS.crossings) == 4
    assert TREFOIL.n_components == 1 and TREFOIL.n_arcs == 3


def test_parse_errors():
    with pytest.raises(DiagramError):
        parse_diagram("X 0 2 1 +\n")  # arc 1 never returns
    with pytest.raises(DiagramError):
        parse_diagram("")
    with pytest.raises(DiagramError):
        parse_diagram("X 0 1 0 + garbage\n")
    with pytest.raises(DiagramError):
        parse_diagram("X 0 1 0 +\nX 0 1 0 +\n")  # arc 0 under_in twice
    with pytest.raises(DiagramError):
        parse_diagram("X 0 1 0 +\nX 1 0 1 +\nO 1\n")  # free loop also under
    with pytest.raises(DiagramError, match="^arc labels must be contiguous; "
                       "1 missing, the least is 2$"):
        parse_diagram("X 0 3 1 +\nX 1 3 0 +\nO 3\n")  # arc 2 missing


def test_contiguity_error_counts_the_missing_labels():
    with pytest.raises(DiagramError) as err:
        parse_diagram("O 3000000\n")
    assert str(err.value) == "arc labels must be contiguous; 3000000 missing, the least is 0"


def test_parse_comments_and_roundtrip():
    text = "# comment\nX 0 1 0 +\n\nX 1 0 1 +\n"
    d = parse_diagram(text)
    assert parse_diagram(d.to_text()).crossings == d.crossings


def test_components_follow_under_successors():
    assert TORUS.components == ((0, 1), (2, 3))
    assert KINK.components == ((0, 1), (2, 3))
    assert SPLIT2.components == ((0,), (1,))


def test_linking_numbers():
    assert linking_number(HOPF, 0, 1) == 1
    assert linking_number(TORUS, 0, 1) == 2
    assert linking_number(TORUS_NEG, 0, 1) == -2
    assert linking_number(SPLIT2, 0, 1) == 0
    assert linking_number(KINK, 0, 1) == 1
    with pytest.raises(ValueError):
        linking_number(HOPF, 1, 1)
    for i, j in ((0, 99), (-1, 5), (2, 0), (0, -1)):
        with pytest.raises(ValueError, match=r"^components must lie in 0\.\.1$"):
            linking_number(HOPF, i, j)


def test_linking_number_odd_sum_is_an_error():
    # abstract Gauss data with three positive inter-component crossings
    d = LinkDiagram([(0, 2, 1, 1), (1, 2, 0, 1), (2, 0, 2, 1)])
    with pytest.raises(DiagramError):
        linking_number(d, 0, 1)


def test_linking_graph():
    assert linking_graph(TORUS).weights == ((0, 2), (2, 0))
    assert linking_graph(SPLIT2).weights == ((0, 0), (0, 0))


def test_linking_graph_validation():
    with pytest.raises(ValueError):
        LinkingGraph(((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        LinkingGraph(((1, 0), (0, 1)))
    for bad in ("x", True, 1.0, None):
        with pytest.raises(ValueError, match="not an integer"):
            LinkingGraph(((0, bad), (bad, 0)))
    g = LinkingGraph(((0, -3), (-3, 0)))
    assert LinkingGraph.from_json('{"m": 2, "weights": [[0, -3], [-3, 0]]}') == g


def test_hopf_colorings_with_p3():
    found = colorings(HOPF, P3)
    assert [c.colors for c in found] == [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_torus_colorings_with_p3():
    found = colorings(TORUS, P3)
    assert len(found) == 9
    mixed = [c for c in found if 0 in c.colors and set(c.colors) != {0}]
    assert len(mixed) == 4


def test_trivial_quandle_counts_components():
    for d in (HOPF, TORUS, TREFOIL, UNKNOT, SPLIT2, KINK):
        for n in (2, 3):
            assert len(colorings(d, trivial(n))) == n**d.n_components


def test_trefoil_tricolorings():
    assert len(colorings(TREFOIL, dihedral(3))) == 9


@pytest.mark.parametrize("name", ["hopf_pos.lnk", "hopf_kink.lnk", "trefoil.lnk",
                                  "unknot.lnk", "split2.lnk", "torus24_pos.lnk"])
@pytest.mark.parametrize("q", [trivial(3), dihedral(3), P3])
def test_backtracking_matches_brute_force(name, q):
    d = load_diagram(name)
    assert colorings(d, q) == brute_force_colorings(d, q)


def test_colorings_verify_and_cap(monkeypatch):
    for c in colorings(TORUS, P3):
        assert c.verify(TORUS, P3)
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "2")
    with pytest.raises(SearchCapError):
        colorings(TORUS, P3)


def test_reidemeister_sanity_equal_counts():
    for q in (trivial(3), dihedral(3), P3, p_quandle(3, parse_cycles("(1 2 3)", 3))):
        assert len(colorings(HOPF, q)) == len(colorings(KINK, q))


def test_synthesize_single_edge():
    d = synthesize_link(LinkingGraph(((0, 1), (1, 0))))
    assert len(d.crossings) == 2
    assert all(c.sign == 1 for c in d.crossings)
    assert linking_number(d, 0, 1) == 1


def test_synthesize_triangle():
    g = LinkingGraph(((0, 1, 1), (1, 0, 0), (1, 0, 0)))
    assert linking_graph(synthesize_link(g)) == g


def test_synthesize_negative_weight():
    d = synthesize_link(LinkingGraph(((0, -3), (-3, 0))))
    assert len(d.crossings) == 6
    assert all(c.sign == -1 for c in d.crossings)
    assert linking_number(d, 0, 1) == -3


def test_synthesize_zero_graph_gives_free_loops():
    d = synthesize_link(LinkingGraph(((0, 0), (0, 0))))
    assert d.free_loops == (0, 1)
    assert d.n_components == 2


def test_synthesize_edge_order_validation():
    g = LinkingGraph(((0, 1, 0), (1, 0, 2), (0, 2, 0)))
    synthesize_link(g, edge_order=[(1, 2), (0, 1)])
    with pytest.raises(ValueError):
        synthesize_link(g, edge_order=[(0, 1)])
    with pytest.raises(ValueError):
        synthesize_link(g, edge_order=[(0, 1), (0, 2)])


def test_synthesis_round_trip_random():
    rng = random.Random(20260809)
    for _ in range(15):
        m = rng.randint(2, 5)
        w = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                w[i][j] = w[j][i] = rng.randint(-4, 4)
        g = LinkingGraph(tuple(tuple(r) for r in w))
        assert linking_graph(synthesize_link(g)) == g


def test_coloring_parametrization_on_synthesized_links():
    # base-arc color tuples are injective over colorings, and realized tuples
    # are exactly those passing the orbit-divides-linking-number test
    rng = random.Random(7)
    sigmas = [("(1 2)", 2), ("(1 2 3)", 3), ("(1 2)(3 4)", 4), ("(1 2 3)", 4)]
    for text, n in sigmas:
        sigma = parse_cycles(text, n)
        q = p_quandle(n, sigma)
        for _ in range(4):
            m = rng.randint(2, 3)
            w = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    w[i][j] = w[j][i] = rng.randint(-3, 3)
            g = LinkingGraph(tuple(tuple(r) for r in w))
            d = synthesize_link(g)
            found = colorings(d, q)
            tuples = [c.base_colors(d) for c in found]
            assert len(set(tuples)) == len(found)
            expected = {combo for combo in product(range(n + 1), repeat=m)
                        if p_coloring_tuple_predicate(sigma, w, combo)}
            assert set(tuples) == expected


def test_coloring_parametrization_on_fixtures():
    for d in (HOPF, TORUS, TORUS_NEG, SPLIT2):
        w = [list(r) for r in linking_graph(d).weights]
        for text, n in [("(1 2)", 2), ("(1 2 3)", 3)]:
            sigma = parse_cycles(text, n)
            q = p_quandle(n, sigma)
            found = colorings(d, q)
            tuples = {c.base_colors(d) for c in found}
            expected = {combo for combo in product(range(n + 1), repeat=d.n_components)
                        if p_coloring_tuple_predicate(sigma, w, combo)}
            assert tuples == expected and len(tuples) == len(found)


def _seeded_links(seed, count, max_arcs):
    """Synthesized links of 2 or 3 components with weights in -2..2, the first
    count of at most max_arcs arcs that the seed draws."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        m = rng.randint(2, 3)
        w = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                w[i][j] = w[j][i] = rng.randint(-2, 2)
        d = synthesize_link(LinkingGraph(tuple(map(tuple, w))))
        if d.n_arcs <= max_arcs:
            found.append(d)
    return found


FIXTURE_DIAGRAMS = [load_diagram(p.name) for p in sorted(FIXTURES.glob("*.lnk"))]
# the transpositions of S5 under conjugation: one Inn-orbit, which the walk
# from (0 1) crosses in several steps of different columns
TRANSPOSITIONS = conjugation_quandle(
    [p for p in symmetric_group_elements(5) if sum(x != i for i, x in enumerate(p)) == 2])


def _unrestricted(d, q):
    """The sorted colorings and the node count of the same search with every
    value tried on the first branch arc."""
    n_vars, n, constraints, order = coloring_problem(d, q)
    budget = Budget("test")
    return sorted(solve(n_vars, n, plan(n_vars, n, constraints, order), budget)), budget.nodes


def test_colorings_match_brute_force_on_every_small_labelled_quandle():
    # the first branch arc takes one color per Inn-orbit, and inner maps give
    # the rest: every labelled quandle of order <= 4, transitive or not
    diagrams = FIXTURE_DIAGRAMS + _seeded_links(20261019, 8, 6)
    for m in range(1, 5):
        for q in labelled_quandles(m):
            for d in diagrams:
                assert colorings(d, q) == brute_force_colorings(d, q)
    for d in FIXTURE_DIAGRAMS:
        assert colorings(d, TRANSPOSITIONS) == brute_force_colorings(d, TRANSPOSITIONS)


def test_colorings_match_the_unrestricted_search(monkeypatch):
    # relabelled R5 and R7 (one Inn-orbit), P(4, (1 2)) and P(5, (1 2 3))
    # (orbits {0}, the cycles and the fixed points of the permutation), and a
    # disjoint union (no orbit meets both halves): the same colorings, in no
    # more nodes; over T_m every orbit is a point, so the same search
    made = recorded_budgets(monkeypatch, "quandles.links.Budget")
    rng = random.Random(5)
    quandles = [relabel_quandle(dihedral(m), rng.sample(range(m), m)) for m in (5, 7)]
    quandles += [p_quandle(4, parse_cycles("(1 2)", 4)), p_quandle(5, parse_cycles("(1 2 3)", 5)),
                 disjoint_union(dihedral(3), P3), TRANSPOSITIONS,
                 relabel_quandle(TRANSPOSITIONS, rng.sample(range(10), 10))]
    diagrams = (FIXTURE_DIAGRAMS + _seeded_links(7, 8, 12)
                + [synthesize_link(all_ones_graph(k)) for k in (3, 4)]
                + [synthesize_link(LinkingGraph(((0, 5, 1), (5, 0, 1), (1, 1, 0))))])
    trivials = [trivial(m) for m in (2, 3, 4)]
    for d in diagrams:
        for q in quandles + trivials:
            want, nodes = _unrestricted(d, q)
            assert [c.colors for c in colorings(d, q)] == want
            assert made[-1].nodes == nodes if q in trivials else made[-1].nodes <= nodes


@pytest.mark.parametrize("text, count", [("O 0\n", 3), ("O 0\nO 1\nO 2\n", 27),
                                         ((FIXTURES / "kink1.lnk").read_text(), 3)])
def test_free_loops_and_a_kink_keep_their_counts(text, count):
    # free loops: no crossing constrains them, so each takes every color; a
    # kink: one arc that is its own over-arc, which every element colors
    d = parse_diagram(text)
    for q in (dihedral(3), trivial(3)):
        found = colorings(d, q)
        assert found == brute_force_colorings(d, q) and len(found) == count
