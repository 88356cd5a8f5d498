import importlib
import random
import sys
import time
from collections import Counter

import networkx as nx
import pytest

from helpers import FIXTURES, load_diagram
from quandles import (
    Cocycle2,
    GroupRingElement,
    LinkingGraph,
    Quiver,
    QuandleMap,
    SearchCapError,
    cocycle_invariant,
    colorings,
    dihedral,
    endomorphisms,
    p_quandle,
    parse_cycles,
    quiver,
    quiver_dot,
    quiver_isomorphic,
    synthesize_link,
    theta_cocycle,
    theta_weight,
    trivial,
    two_cocycle_basis,
)
from quandles.limits import Budget

P3 = p_quandle(2, parse_cycles("(1 2)", 2))
HOPF = load_diagram("hopf_pos.lnk")
TORUS = load_diagram("torus24_pos.lnk")
TREFOIL = load_diagram("trefoil.lnk")
UNKNOT = load_diagram("unknot.lnk")
SPLIT2 = load_diagram("split2.lnk")


def test_group_ring_element():
    a = GroupRingElement({0: 5, 2: 4})
    assert str(a) == "5 + 4*t^2"
    assert a.evaluate_at_one() == 9
    assert str(GroupRingElement({-2: 4, 0: 5})) == "4*t^-2 + 5"
    assert str(GroupRingElement({1: 1})) == "t"
    assert str(GroupRingElement({})) == "0"
    assert GroupRingElement({3: 0}) == GroupRingElement({})


def test_quiver_counts():
    qv = quiver(HOPF, P3, endomorphisms(P3))
    assert qv.n_vertices == 5 and len(qv.edges) == 35
    identity = QuandleMap(P3, P3, (0, 1, 2))
    loops = quiver(HOPF, P3, [identity])
    assert all(a == b for a, b in loops.edges)
    t2 = trivial(2)
    qv2 = quiver(UNKNOT, t2, endomorphisms(t2))
    assert qv2.n_vertices == 2 and len(qv2.edges) == 8
    empty = quiver(HOPF, P3, [])
    assert empty.edges == ()


def test_quiver_rejects_non_endomorphisms():
    not_endo = QuandleMap(P3, P3, (1, 1, 2))
    with pytest.raises(ValueError):
        quiver(HOPF, P3, [not_endo])
    with pytest.raises(ValueError):
        quiver(HOPF, P3, [QuandleMap(trivial(3), trivial(3), (0, 1, 2))])


def test_quiver_charges_its_edges_before_checking_any_map(monkeypatch):
    # 6^4 colorings of four unlinked circles times 6^6 endomorphisms of T6 pass
    # the default cap, so the build stops before one of the 46,656 maps is verified
    monkeypatch.delenv("QUANDLE_SEARCH_CAP", raising=False)
    t6, checked = trivial(6), []
    endos = endomorphisms(t6)
    monkeypatch.setattr(QuandleMap, "verify", lambda f: checked.append(f) or True)
    with pytest.raises(SearchCapError, match="^quiver search exceeded 10000000 nodes$"):
        quiver(load_diagram("unlink4.lnk"), t6, endos)
    assert len(endos) == 46656 and len(checked) == 0


def test_quiver_labels_are_base_colors():
    qv = quiver(HOPF, P3, [])
    assert qv.labels == ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2))


def test_quiver_isomorphism_same_linking_number():
    endos = endomorphisms(P3)
    d = synthesize_link(LinkingGraph(((0, 1), (1, 0))))
    assert quiver_isomorphic(quiver(HOPF, P3, endos), quiver(d, P3, endos))
    assert not quiver_isomorphic(quiver(HOPF, P3, endos), quiver(TORUS, P3, endos))


def test_quiver_isomorphism_trivial_quandle_counts_components():
    t2 = trivial(2)
    endos = endomorphisms(t2)
    assert quiver_isomorphic(quiver(SPLIT2, t2, endos), quiver(HOPF, t2, endos))
    assert not quiver_isomorphic(quiver(UNKNOT, t2, endos), quiver(HOPF, t2, endos))


def test_quiver_isomorphism_vertex_bound():
    endos = endomorphisms(P3)
    qv = quiver(TORUS, P3, endos)
    with pytest.raises(ValueError):
        quiver_isomorphic(qv, qv, max_vertices=4)
    assert quiver_isomorphic(qv, qv, max_vertices=16)


def _networkx(qv):
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(qv.n_vertices))
    g.add_edges_from(qv.edges)
    return g


def _renumbered(qv, rng):
    """The same quiver with its vertices renumbered at random."""
    new = list(range(qv.n_vertices))
    rng.shuffle(new)
    old = sorted(range(qv.n_vertices), key=new.__getitem__)
    return Quiver(tuple(qv.vertices[v] for v in old), tuple(qv.labels[v] for v in old),
                  tuple((new[a], new[b]) for a, b in qv.edges))


@pytest.mark.parametrize("q", [P3, trivial(2)])
def test_quiver_isomorphic_matches_networkx(q):
    # endomorphism subsets give loops (constant maps fix a vertex) and
    # parallel edges; each quiver also appears renumbered
    rng = random.Random(q.m)
    endos = endomorphisms(q)
    diagrams = (HOPF, TORUS, TREFOIL, UNKNOT, SPLIT2,
                load_diagram("torus24_neg.lnk"), load_diagram("hopf_kink.lnk"))
    quivers = []
    for d in diagrams:
        for s in (endos, endos[:1], endos[1:3], endos[-2:]):
            qv = quiver(d, q, s)
            quivers += [qv, _renumbered(qv, rng)]
    graphs = [_networkx(qv) for qv in quivers]
    verdicts = []
    for i, (qa, ga) in enumerate(zip(quivers, graphs)):
        for qb, gb in zip(quivers[i:], graphs[i:]):
            verdicts.append(nx.is_isomorphic(ga, gb))
            assert quiver_isomorphic(qa, qb) == verdicts[-1]
    assert any(a == b for qv in quivers for a, b in qv.edges)
    assert True in verdicts and False in verdicts


def test_quiver_isomorphic_honours_the_search_cap(monkeypatch):
    # 27 vertices, more than the old default bound of 24; one node is spent per
    # splitter vertex scanned, and the first splitter is every vertex of both
    # quivers, so the fourth vertex of that scan passes a cap of 3
    d = synthesize_link(LinkingGraph(((0, 2, 2), (2, 0, 2), (2, 2, 0))))
    qv = quiver(d, P3, endomorphisms(P3))
    assert qv.n_vertices == 27
    other = _renumbered(qv, random.Random(0))
    assert quiver_isomorphic(qv, other)
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "3")
    with pytest.raises(SearchCapError, match="^quiver search exceeded 3 nodes$") as exc:
        quiver_isomorphic(qv, other)
    assert exc.value.budget.nodes == 4


def test_quiver_isomorphic_runs_deeper_than_the_recursion_limit():
    # four unlinked circles over T6 under a 6-cycle: 216 disjoint 6-cycles,
    # more vertices than the recursion limit; the search individualises one
    # vertex per cycle, 216 levels deep on its explicit stack
    t6 = trivial(6)
    d = synthesize_link(LinkingGraph(((0,) * 4,) * 4))
    qv = quiver(d, t6, [QuandleMap(t6, t6, (1, 2, 3, 4, 5, 0))])
    assert qv.n_vertices == 1296 > sys.getrecursionlimit()
    assert quiver_isomorphic(qv, qv)


def test_quiver_isomorphic_matches_a_renumbered_symmetric_quiver(monkeypatch):
    # the quiver of the test above against a renumbering of itself: 216
    # disjoint 6-cycles, which no refinement tells apart; individualising one
    # vertex of each cycle in turn matches them, in 5,182 nodes
    t6 = trivial(6)
    d = synthesize_link(LinkingGraph(((0,) * 4,) * 4))
    qv = quiver(d, t6, [QuandleMap(t6, t6, (1, 2, 3, 4, 5, 0))])
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "100000")
    assert quiver_isomorphic(qv, _renumbered(qv, random.Random(0)))


def test_quiver_isomorphic_node_costs_the_degree(monkeypatch):
    # four unlinked circles over T6 under the 6-cycle and (0 0 1 2 3 4), against
    # a renumbering of itself: a node is one splitter vertex scanned, at the cost
    # of its degree. The search takes 9,094 nodes, the summed sizes of the 1,296
    # splitter cells it pops; the first holds all 2 * 1,296 vertices of both
    # quivers, and three individualisations make the colouring discrete
    t6 = trivial(6)
    d = synthesize_link(LinkingGraph(((0,) * 4,) * 4))
    endos = [QuandleMap(t6, t6, (1, 2, 3, 4, 5, 0)), QuandleMap(t6, t6, (0, 0, 1, 2, 3, 4))]
    qv = quiver(d, t6, endos)
    other = _renumbered(qv, random.Random(0))
    budgets = []

    class Recording(Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    monkeypatch.setattr(importlib.import_module("quandles.quiver"), "Budget", Recording)
    start = time.perf_counter()
    assert quiver_isomorphic(qv, other)
    assert qv.n_vertices == 1296 and time.perf_counter() - start < 1
    assert budgets[-1].nodes == 9094
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "9093")
    for q2 in (other, qv):  # one node short, under either numbering
        with pytest.raises(SearchCapError, match="^quiver search exceeded 9093 nodes$"):
            quiver_isomorphic(qv, q2)


def test_quiver_isomorphic_has_no_default_vertex_bound():
    # K6 with unit weights under all 7 endomorphisms of P3: 365 vertices, more
    # than the former default bound of 128; one edge moved breaks the match
    k6 = LinkingGraph(tuple(tuple(int(i != j) for j in range(6)) for i in range(6)))
    qv = quiver(synthesize_link(k6), P3, endomorphisms(P3))
    assert qv.n_vertices == 365
    (a, b), rest = qv.edges[-1], qv.edges[:-1]
    moved = Quiver(qv.vertices, qv.labels, rest + ((a, (b + 1) % qv.n_vertices),))
    for other, same in ((qv, True), (moved, False)):
        other = _renumbered(other, random.Random(1))
        assert nx.is_isomorphic(_networkx(qv), _networkx(other)) == same
        assert quiver_isomorphic(qv, other) == same


def test_quiver_isomorphic_answers_diagrams_that_share_a_linking_graph():
    # over P(n, sigma) the quiver depends only on the linking graph (the paper's
    # link result). Each seeded graph with 3-4 components and weights -3..3 gives
    # two diagrams, its edges threaded in two orders, and one quiver is
    # renumbered; True is certified by the edge-by-edge check of the bijection
    rng = random.Random(4)
    qs = [P3, p_quandle(3, parse_cycles("(1 2 3)", 3)), p_quandle(3, parse_cycles("(1 2)", 3))]
    endos = [endomorphisms(q) for q in qs]
    differ = 0
    for _ in range(8):
        m = rng.choice((3, 4))
        w = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                w[i][j] = w[j][i] = rng.randint(-3, 3)
        graph = LinkingGraph(w)
        order = [(i, j)[::rng.choice((1, -1))]
                 for i in range(m) for j in range(i + 1, m) if w[i][j]]
        rng.shuffle(order)
        d1, d2 = synthesize_link(graph), synthesize_link(graph, edge_order=order)
        differ += d1.to_text() != d2.to_text()
        for q, s in zip(qs, endos):
            qa, qb = quiver(d1, q, s), _renumbered(quiver(d2, q, s), rng)
            start = time.perf_counter()
            assert quiver_isomorphic(qa, qb), (w, order, q.m)
            assert time.perf_counter() - start < 0.25
    assert differ >= 6


def test_quiver_isomorphic_tells_a_6_cycle_from_two_3_cycles():
    # every vertex has one edge in and one out, so refinement alone splits
    # nothing: each individualisation is tried, refined and abandoned
    def cycles(*lengths):
        starts = [sum(lengths[:k]) for k in range(len(lengths))]
        edges = tuple((s + i, s + (i + 1) % k) for s, k in zip(starts, lengths) for i in range(k))
        return Quiver(tuple(range(6)), tuple(range(6)), edges)

    six, two = cycles(6), cycles(3, 3)
    assert not quiver_isomorphic(six, two) and not quiver_isomorphic(two, six)
    assert quiver_isomorphic(six, six) and quiver_isomorphic(two, two)


def test_quiver_dot_golden_file():
    qv = quiver(HOPF, P3, endomorphisms(P3))
    expected = (FIXTURES / "hopf_p3_end.dot").read_text()
    assert quiver_dot(qv) == expected
    assert quiver_dot(qv) == expected  # byte-stable across calls


def test_quiver_dot_tiny():
    t1 = trivial(1)
    qv = quiver(UNKNOT, t1, endomorphisms(t1))
    assert quiver_dot(qv) == 'digraph quiver {\n  v0 [label="(0)"];\n  v0 -> v0;\n}\n'


def test_cocycle_invariant_examples():
    theta = theta_cocycle(2)
    assert cocycle_invariant(HOPF, P3, theta) == GroupRingElement({0: 5})
    assert cocycle_invariant(TORUS, P3, theta) == GroupRingElement({0: 5, 2: 4})
    neg = load_diagram("torus24_neg.lnk")
    assert cocycle_invariant(neg, P3, theta) == GroupRingElement({0: 5, -2: 4})


def test_cocycle_invariant_knot_is_constant():
    theta = theta_cocycle(2)
    count = len(colorings(TREFOIL, P3))
    assert cocycle_invariant(TREFOIL, P3, theta) == GroupRingElement({0: count})


def test_cocycle_invariant_at_one_is_coloring_count():
    theta = theta_cocycle(2)
    for d in (HOPF, TORUS, TREFOIL, SPLIT2):
        assert cocycle_invariant(d, P3, theta).evaluate_at_one() == len(colorings(d, P3))


@pytest.mark.parametrize("q", [P3, p_quandle(3, parse_cycles("(1 2)", 3)), dihedral(3),
                               dihedral(4), trivial(2)], ids=["P2", "P3(12)", "R3", "R4", "T2"])
def test_cocycle_invariant_sums_theta_weight_over_colorings(q):
    # theta_weight is the per-coloring oracle of the weights cocycle_invariant sums
    basis = two_cocycle_basis(q)
    mixed = tuple(tuple(sum(k * c.values[x][y] for k, c in enumerate(basis, 1))
                        for y in q.elements) for x in q.elements)
    combos = [*basis, Cocycle2(q.m, mixed)]
    diagrams = [load_diagram(p.name) for p in sorted(FIXTURES.glob("*.lnk"))]
    for d in diagrams + [synthesize_link(LinkingGraph(((0, 2, -1), (2, 0, 1), (-1, 1, 0))))]:
        for phi in combos:
            assert cocycle_invariant(d, q, phi) == GroupRingElement(Counter(
                theta_weight(d, q, phi, c) for c in colorings(d, q)))


def test_cocycle_invariant_rejects_non_cocycles():
    bad = Cocycle2.from_pairs(3, {(0, 1): 1})
    with pytest.raises(ValueError):
        cocycle_invariant(HOPF, P3, bad)


def test_linking_numbers_do_not_determine_quiver_on_three_components():
    # equal quivers and invariants for tree weights (1,1,w) with w in {2, 4},
    # but a third link with weights (2,2,2) differs
    def graph(w12, w13, w23):
        return LinkingGraph(((0, w12, w13), (w12, 0, w23), (w13, w23, 0)))

    endos = endomorphisms(P3)
    theta = theta_cocycle(2)
    d1 = synthesize_link(graph(1, 1, 2))
    d2 = synthesize_link(graph(1, 1, 4))
    d3 = synthesize_link(graph(2, 2, 2))
    # the all-positive cube and the zero coloring, plus (k, 0, 0) for k in {1, 2}
    # (the two unit edges into the first component sum to an even twist)
    phi12 = GroupRingElement({0: 9, 2: 2})
    assert cocycle_invariant(d1, P3, theta) == phi12
    assert cocycle_invariant(d2, P3, theta) == phi12
    assert quiver_isomorphic(quiver(d1, P3, endos), quiver(d2, P3, endos))
    phi3 = cocycle_invariant(d3, P3, theta)
    assert phi3 == GroupRingElement({0: 9, 4: 18})
    q3 = quiver(d3, P3, endos)
    assert q3.n_vertices == 27
    assert not quiver_isomorphic(quiver(d1, P3, endos), q3, max_vertices=30)


def test_mixed_colorings_with_several_zero_components():
    # two 0-colored components whose linking numbers into a third sum to a
    # multiple of the cycle length produce extra colorings; with a 3-cycle no
    # subset sum of unit weights is divisible, so only the pure colorings remain
    ones = LinkingGraph(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    d = synthesize_link(ones)
    theta2 = theta_cocycle(2)
    phi2 = cocycle_invariant(d, P3, theta2)
    assert phi2 == GroupRingElement({0: 9, 2: 6})
    assert quiver(d, P3, endomorphisms(P3)).n_vertices == 15

    p4 = p_quandle(3, parse_cycles("(1 2 3)", 3))
    assert cocycle_invariant(d, p4, theta_cocycle(3)) == GroupRingElement({0: 28})
    assert len(colorings(d, p4)) == 28


def test_quiver_out_degree_equals_endomorphism_count():
    endos = endomorphisms(P3)
    qv = quiver(TORUS, P3, endos)
    out_degree = [0] * qv.n_vertices
    for a, _ in qv.edges:
        out_degree[a] += 1
    assert all(d == len(endos) for d in out_degree)


def test_phi_coefficients_nonnegative_and_sum_to_count():
    theta = theta_cocycle(2)
    for d in (HOPF, TORUS, SPLIT2):
        phi = cocycle_invariant(d, P3, theta)
        assert all(c > 0 for c in phi.coeffs.values())
        assert phi.evaluate_at_one() == len(colorings(d, P3))
