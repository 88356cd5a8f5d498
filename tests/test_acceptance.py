"""Acceptance checks, one per numbered criterion; exact arithmetic throughout.

Each check prints a trailing PASS/FAIL line (visible with pytest -s) so the
whole gate reads as a checklist.
"""

import random
from contextlib import contextmanager
from itertools import product

from helpers import (
    brute_force_colorings,
    dense,
    load_diagram,
    p_coloring_tuple_predicate,
    sparse,
)
from quandles import (
    Cocycle2,
    GroupRingElement,
    LinkingGraph,
    Quandle,
    all_permutations,
    automorphism_group,
    boundary_matrix,
    centralizer,
    cochain_slice,
    cocycle_invariant,
    cohomology_Q,
    colorings,
    conjugacy_class_representatives,
    dihedral,
    endomorphisms,
    good_involutions,
    hom_quandle,
    inner_group,
    is_2cocycle,
    is_isomorphic,
    linking_graph,
    order,
    p_polynomial_formula,
    p_quandle,
    parse_cycles,
    quandle_polynomial,
    quiver,
    quiver_isomorphic,
    relabel_quandle,
    symmetric_cohomology,
    synthesize_link,
    theta_cocycle,
    trivial,
    tuple_basis,
)
from quandles import linalg


@contextmanager
def criterion(label, text):
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL  {text}")
        raise
    print(f"criterion {label}: PASS  {text}")


def n_cycle(n):
    return parse_cycles("(" + " ".join(map(str, range(1, n + 1))) + ")", n)


P3 = p_quandle(2, parse_cycles("(1 2)", 2))

TABLE1_T3 = ((0, 0, 0), (1, 1, 1), (2, 2, 2))
TABLE1_R3 = ((0, 2, 1), (2, 1, 0), (1, 0, 2))
TABLE1_P3 = ((0, 0, 0), (2, 1, 1), (1, 2, 2))


def test_criterion_01_order_three_tables():
    with criterion(1, "order-3 Cayley tables reproduced byte-exactly"):
        assert trivial(3).table == TABLE1_T3
        assert dihedral(3).table == TABLE1_R3
        assert P3.table == TABLE1_P3
        for table in (TABLE1_T3, TABLE1_R3, TABLE1_P3):
            Quandle(table)  # all three pass axiom validation


def test_criterion_02_one_column_construction_is_a_quandle():
    with criterion(2, "one-column construction valid for every sigma, n <= 5"):
        count = 0
        for n in range(1, 6):
            for sigma in all_permutations(n):
                q = p_quandle(n, sigma)  # constructor validates all axioms
                assert q.m == n + 1
                count += 1
        assert count == 1 + 2 + 6 + 24 + 120


def test_criterion_03_isomorphism_matches_conjugacy_on_s4():
    with criterion(3, "isomorphism iff equal cycle type over S_4 pairs"):
        perms = [s for s in all_permutations(4) if s.image != (1, 2, 3, 4)]
        quandles = {s: p_quandle(4, s) for s in perms}
        for sigma in perms:
            for tau in perms:
                found = is_isomorphic(quandles[sigma], quandles[tau])
                assert (found is not None) == (sigma.cycle_type == tau.cycle_type)
                if found is not None:
                    assert found.verify()
                    assert len(set(found.image)) == found.source.m == found.target.m


def test_criterion_04_automorphism_and_inner_groups():
    with criterion(4, "Aut order = centralizer order, Inn cyclic of sigma's order"):
        for n in range(2, 6):
            for sigma in conjugacy_class_representatives(n):
                if sigma.image == tuple(range(1, n + 1)):
                    continue
                q = p_quandle(n, sigma)
                maps, aut = automorphism_group(q)
                assert aut.order == len(centralizer(sigma))
                inn = inner_group(q)
                assert inn.is_cyclic()
                assert inn.order == order(sigma)


def test_criterion_05_quandle_polynomial_closed_form():
    with criterion(5, "quandle polynomial matches the closed form, n <= 5"):
        for n in range(2, 6):
            for sigma in all_permutations(n):
                if sigma.image == tuple(range(1, n + 1)):
                    continue
                assert quandle_polynomial(p_quandle(n, sigma)) == \
                    p_polynomial_formula(n, sigma)
        spot = quandle_polynomial(p_quandle(3, parse_cycles("(1 2)", 3)))
        assert str(spot) == "s^4t^4 + 2s^3t^4 + s^4t^2"


HOM_TABLE_ORDER = [(0, 0, 0), (0, 1, 2), (0, 2, 1), (1, 1, 1), (2, 2, 2),
                   (1, 2, 2), (2, 1, 1)]
HOM_TABLE = (
    (0, 0, 0, 0, 0, 0, 0),
    (2, 1, 1, 1, 1, 1, 1),
    (1, 2, 2, 2, 2, 2, 2),
    (4, 6, 6, 3, 3, 3, 3),
    (3, 5, 5, 4, 4, 4, 4),
    (6, 4, 4, 5, 5, 5, 5),
    (5, 3, 3, 6, 6, 6, 6),
)


def test_criterion_06_hom_quandle_tables():
    with criterion(6, "Hom quandle tables: 7-element table and 13-element relations"):
        hom_q, labels = hom_quandle(P3, P3)
        assert hom_q.m == 7
        renumber = [labels.index(img) for img in HOM_TABLE_ORDER]
        assert relabel_quandle(hom_q, renumber).table == HOM_TABLE

        q4 = p_quandle(3, n_cycle(3))
        hom13, labels13 = hom_quandle(q4, q4)
        assert hom13.m == 13
        shift = {1: 2, 2: 3, 3: 1}

        def as_pair(img):
            return (img[0], img[1])

        def expected(a, b):
            if a == (0, 0):
                return (0, 0)
            p, q = a
            if b == (0, 0):
                return (shift[p] if p else 0, shift[q])
            if b[0] == 0:
                return (shift[p] if p else 0, q)
            return (p, q)

        pairs = [as_pair(img) for img in labels13]
        assert len(set(pairs)) == 13
        for i, a in enumerate(pairs):
            for j, b in enumerate(pairs):
                assert pairs[hom13.op(i, j)] == expected(a, b)


def test_criterion_07_degree_two_cohomology():
    with criterion(7, "H^2 free of rank k^2+k over Z, Q, Z2, Z3 (sigma = id included)"):
        for n in range(1, 5):
            for sigma in conjugacy_class_representatives(n):
                k = len(sigma.orbit_list)
                q = p_quandle(n, sigma)
                expected = k * k + k
                got_z = cohomology_Q(q, 2, "Z")
                assert got_z.rank == expected and got_z.torsion == ()
                for coeff in ("Q", "Z2", "Z3"):
                    assert cohomology_Q(q, 2, coeff).rank == expected


def test_criterion_08_good_involutions():
    with criterion(8, "good involutions: none for a 3-cycle; classified for (1 2)"):
        assert good_involutions(p_quandle(3, n_cycle(3))) == []
        for n in (2, 3, 4):
            sigma = parse_cycles("(1 2)", n)
            q = p_quandle(n, sigma)
            central = {g.image for g in centralizer(sigma)}
            expected = set()
            for image in product(range(n + 1), repeat=n + 1):
                if sorted(image) != list(range(n + 1)):
                    continue
                if any(image[image[x]] != x for x in range(n + 1)):
                    continue
                if image[0] == 0 and tuple(image[x] for x in range(1, n + 1)) in central:
                    expected.add(image)
            assert {s.rho for s in good_involutions(q)} == expected


def test_criterion_09_symmetric_cohomology_dimension_one():
    with criterion(9, "symmetric H^2 of P_3 over Z_2 is one-dimensional"):
        rho = (0, 2, 1)
        got = symmetric_cohomology(P3, rho, 2, "Z2")
        assert got.rank == 1

        generator = Cocycle2.from_pairs(3, {(0, 1): 1, (0, 2): 1})
        assert is_2cocycle(P3, generator)
        sl = cochain_slice(P3, 2, rho)
        vec = [generator(x, y) for x, y in sl.basis]
        for row in dense(sl.relations, len(sl.basis)):
            assert sum(r * v for r, v in zip(row, vec)) % 2 == 0
        # not a coboundary: outside the mod-2 column span of delta_in
        d_in = dense(sl.delta_in, len(sl.basis_below))
        assert (linalg.rank(sparse(d_in), 2)
                != linalg.rank(sparse([r + [v] for r, v in zip(d_in, vec)]), 2))


def test_criterion_10_two_component_invariant_formula():
    with criterion(10, "Phi on 2-component links: 1+n^2 plus 2n t^lk when n | lk"):
        for n in (2, 3):
            q = p_quandle(n, n_cycle(n))
            theta = theta_cocycle(n)
            for lk in (0, 1, 2, 3, 4, -2):
                d = synthesize_link(LinkingGraph(((0, lk), (lk, 0))))
                expected = {0: 1 + n * n}
                if lk % n == 0:
                    expected[lk] = expected.get(lk, 0) + 2 * n
                got = cocycle_invariant(d, q, theta)
                assert got == GroupRingElement(expected)
                assert got.evaluate_at_one() == len(colorings(d, q))


def test_criterion_11a_trivial_quandle_quivers():
    with criterion("11a", "trivial-quandle quivers depend only on component count"):
        t3 = trivial(3)
        endos = endomorphisms(t3)
        q_hopf = quiver(load_diagram("hopf_pos.lnk"), t3, endos)
        q_torus = quiver(load_diagram("torus24_pos.lnk"), t3, endos)
        assert q_hopf.n_vertices == q_torus.n_vertices == 9
        assert quiver_isomorphic(q_hopf, q_torus)


def test_criterion_11b_equal_linking_graphs_give_isomorphic_quivers():
    with criterion("11b", "equal linking graphs, different diagrams: isomorphic quivers"):
        g = LinkingGraph(((0, 1, 2), (1, 0, 2), (2, 2, 0)))
        d_fwd = synthesize_link(g)
        d_rev = synthesize_link(g, edge_order=[(1, 2), (0, 2), (0, 1)])
        assert d_fwd.to_text() != d_rev.to_text()
        endos2 = endomorphisms(P3)
        qf = quiver(d_fwd, P3, endos2)
        qr = quiver(d_rev, P3, endos2)
        assert qf.n_vertices == 15
        assert quiver_isomorphic(qf, qr)
        theta = theta_cocycle(2)
        assert cocycle_invariant(d_fwd, P3, theta) == cocycle_invariant(d_rev, P3, theta)

        ones = LinkingGraph(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
        q4 = p_quandle(3, n_cycle(3))
        endos3 = endomorphisms(q4)
        qa = quiver(synthesize_link(ones), q4, endos3)
        qb = quiver(synthesize_link(ones, edge_order=[(1, 2), (0, 1), (0, 2)]), q4, endos3)
        assert qa.n_vertices == 28
        assert quiver_isomorphic(qa, qb, max_vertices=30)


def test_criterion_11c_spanning_tree_instance():
    # No spanning-tree weight is divisible by the 2-cycle, yet mixed colorings
    # exist: a positively colored component is twisted by sigma once per unit
    # of linking number into the 0-colored components, and closes up when the
    # orbit length divides the SUM of those twists. Counting by how many
    # components are colored 0: all three, 1; none, 2^3 = 8; exactly one, twist
    # 1 (odd), 0; exactly two, twist 1 + 1 = 2, 3 * 2 = 6. Total 15. In each
    # mixed coloring the two 0-colored components pass under the positive one,
    # each adding theta(0, c) = 1, so each mixed coloring has weight t^2.
    with criterion("11c", "spanning-tree instance: Phi = 9 + 6t^2 with 15 vertices "
                          "(twists add over 0-colored components)"):
        ones = LinkingGraph(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
        d = synthesize_link(ones)
        theta = theta_cocycle(2)
        assert cocycle_invariant(d, P3, theta) == GroupRingElement({0: 9, 2: 6})
        qv = quiver(d, P3, endomorphisms(P3))
        assert qv.n_vertices == 15
        found = colorings(d, P3)
        assert found == brute_force_colorings(d, P3)
        sigma = parse_cycles("(1 2)", 2)
        accepted = {combo for combo in product(range(3), repeat=3)
                    if p_coloring_tuple_predicate(sigma, ones.weights, combo)}
        assert len(found) == len(accepted) == 15
        assert {c.base_colors(d) for c in found} == accepted


def test_criterion_12_linking_graph_realization():
    with criterion(12, "linking_graph(synthesize_link(G)) == G, 50 random graphs"):
        rng = random.Random(5904)
        for _ in range(50):
            m = rng.randint(2, 5)
            w = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    w[i][j] = w[j][i] = rng.randint(-4, 4)
            g = LinkingGraph(tuple(tuple(row) for row in w))
            assert linking_graph(synthesize_link(g)) == g


def test_criterion_13_coloring_oracle_equivalence():
    with criterion(13, "backtracking colorings equal brute force on small fixtures"):
        names = ["hopf_pos.lnk", "hopf_kink.lnk", "torus24_pos.lnk",
                 "torus24_neg.lnk", "trefoil.lnk", "unknot.lnk", "split2.lnk"]
        quandles = [trivial(3), dihedral(3), P3]
        for name in names:
            d = load_diagram(name)
            assert d.n_arcs <= 6
            for q in quandles:
                assert colorings(d, q) == brute_force_colorings(d, q)


def test_criterion_14_chain_complex_laws():
    with criterion(14, "boundary and coboundary compose to zero in degrees 2-3"):
        cases = [trivial(3), dihedral(3), P3,
                 p_quandle(4, parse_cycles("(1 2)(3 4)", 4))]
        for q in cases:
            for n in (2, 3):
                lower = boundary_matrix(q, n)
                upper = boundary_matrix(q, n + 1)
                assert not any(linalg.mat_mul(lower, upper))
                c_n, c_above = (len(tuple_basis(q, k)) for k in (n, n + 1))
                dual = linalg.mat_mul(linalg.transpose(upper, c_above),
                                      linalg.transpose(lower, c_n))
                assert not any(dual)
                cochain_slice(q, n)  # validates the same law at construction
