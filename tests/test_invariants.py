import random
import sys
from itertools import permutations

import pytest

from helpers import (
    cell_law_defect,
    recorded_budgets,
    remaining_list_good_involutions,
    symmetric_quandle_error,
)
from quandles import (
    Quandle,
    SymmetricQuandle,
    TwoVarPolynomial,
    all_permutations,
    centralizer,
    conjugacy_class_representatives,
    dihedral,
    good_involutions,
    p_polynomial_formula,
    p_quandle,
    parse_cycles,
    quandle_polynomial,
    relabel_quandle,
    trivial,
)
from quandles import invariants
from quandles.limits import Budget

P3 = p_quandle(2, parse_cycles("(1 2)", 2))


def test_polynomial_examples():
    assert quandle_polynomial(P3) == TwoVarPolynomial({(3, 1): 1, (2, 3): 2})
    q = p_quandle(3, parse_cycles("(1 2)", 3))
    assert quandle_polynomial(q) == TwoVarPolynomial({(4, 4): 1, (3, 4): 2, (4, 2): 1})
    for m in (1, 3, 5):
        assert quandle_polynomial(trivial(m)) == TwoVarPolynomial({(m, m): m})


def test_formula_examples():
    assert p_polynomial_formula(2, parse_cycles("(1 2)", 2)) == TwoVarPolynomial(
        {(3, 1): 1, (2, 3): 2})
    assert p_polynomial_formula(4, parse_cycles("(1 2)(3 4)", 4)) == TwoVarPolynomial(
        {(4, 5): 4, (5, 1): 1})
    assert p_polynomial_formula(3, parse_cycles("(1 2 3)", 3)) == TwoVarPolynomial(
        {(3, 4): 3, (4, 1): 1})


def test_polynomial_matches_formula_up_to_n4():
    for n in (2, 3, 4):
        for sigma in all_permutations(n):
            if sigma.image == tuple(range(1, n + 1)):
                continue
            assert quandle_polynomial(p_quandle(n, sigma)) == p_polynomial_formula(n, sigma)


def test_polynomial_distinguishes_by_fixed_points():
    for n in (2, 3, 4):
        reps = [s for s in conjugacy_class_representatives(n) if s.image != tuple(range(1, n + 1))]
        for a in reps:
            for b in reps:
                same_poly = (quandle_polynomial(p_quandle(n, a))
                             == quandle_polynomial(p_quandle(n, b)))
                assert same_poly == (len(a.fixed_points()) == len(b.fixed_points()))


def test_polynomial_str_order():
    q = p_quandle(3, parse_cycles("(1 2)", 3))
    assert str(quandle_polynomial(q)) == "s^4t^4 + 2s^3t^4 + s^4t^2"
    assert str(quandle_polynomial(P3)) == "2s^2t^3 + s^3t"
    assert str(TwoVarPolynomial({})) == "0"


def test_polynomial_total_is_order():
    for q in (P3, trivial(4), dihedral(5)):
        assert sum(quandle_polynomial(q).terms.values()) == q.m


def test_good_involutions_examples():
    assert good_involutions(p_quandle(3, parse_cycles("(1 2 3)", 3))) == []
    found = good_involutions(P3)
    assert [s.rho for s in found] == [(0, 1, 2), (0, 2, 1)]
    assert len(good_involutions(trivial(2))) == 2


def test_good_involutions_pair_only_inverse_columns(monkeypatch):
    # every column of R11 is its own inverse and no two are equal, so only the
    # identity is built: one node of the involution budget, not 35,696
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "1")
    assert [s.rho for s in good_involutions(dihedral(11))] == [tuple(range(11))]


def test_good_involutions_brute_force_cross_check():
    # for sigma = (1 2): exactly the involutions fixing 0 whose positive part
    # centralizes sigma
    for n in (2, 3, 4):
        sigma = parse_cycles("(1 2)", n)
        q = p_quandle(n, sigma)
        central = {g.image for g in centralizer(sigma)}
        expected = set()
        for g_img in central:
            rho = (0,) + tuple(g_img)
            if all(rho[rho[x]] == x for x in range(n + 1)):
                expected.add(rho)
        assert {s.rho for s in good_involutions(q)} == expected


def test_good_involutions_iff_sigma_involutive():
    for n in (2, 3, 4, 5):
        for sigma in conjugacy_class_representatives(n):
            if sigma.image == tuple(range(1, n + 1)):
                continue
            found = good_involutions(p_quandle(n, sigma))
            involutive = all(sigma(sigma(x)) == x for x in range(1, n + 1))
            assert bool(found) == involutive
            if involutive:
                expected = sum(
                    1 for g in centralizer(sigma)
                    if all(g(g(x)) == x for x in range(1, n + 1)))
                assert len(found) == expected


def test_trivial_quandle_all_involutions_good():
    for m in (2, 3, 4):
        involution_count = len(good_involutions(trivial(m)))
        # telephone numbers: involutions of an m-set including the identity
        expected = {2: 2, 3: 4, 4: 10}[m]
        assert involution_count == expected


def test_symmetric_quandle_validation():
    SymmetricQuandle(P3, (0, 2, 1))
    with pytest.raises(ValueError, match=r"^rho\(x\*y\) = rho\(x\)\*y fails at \(0,0\)$"):
        SymmetricQuandle(P3, (1, 0, 2))  # moves 0: rho(0*0) = 1, rho(0)*0 = 2
    with pytest.raises(ValueError, match=r"^x\*rho\(y\) = bar\(x,y\) fails at \(1,0\)$"):
        SymmetricQuandle(p_quandle(3, parse_cycles("(1 2 3)", 3)), (0, 1, 2, 3))
    with pytest.raises(ValueError, match="^rho is not an involution at 0$"):
        SymmetricQuandle(P3, (1, 2, 0))


def test_returned_symmetric_quandles_pass_both_laws():
    for q in (P3, trivial(3), p_quandle(4, parse_cycles("(1 2)(3 4)", 4))):
        for sym in good_involutions(q):
            rho = sym.rho
            for x in q.elements:
                for y in q.elements:
                    assert rho[q.op(x, y)] == q.op(rho[x], y)
                    assert q.op(x, rho[y]) == q.bar(x, y)


def test_formula_also_covers_identity():
    # with the identity permutation the closed form collapses to the trivial
    # quandle's polynomial (n+1) s^(n+1) t^(n+1)
    for n in (1, 2, 3):
        sigma = parse_cycles("()", n)
        assert p_polynomial_formula(n, sigma) == quandle_polynomial(p_quandle(n, sigma))


def test_symmetric_quandle_names_the_failing_law():
    # (1 3) is an involution pairing identity columns, so x*rho(y) = bar(x,y)
    # holds, but it does not commute with column 0, which acts as (1 2)
    p312 = p_quandle(3, parse_cycles("(1 2)", 3))
    with pytest.raises(ValueError) as exc:
        SymmetricQuandle(p312, (0, 3, 2, 1))
    assert str(exc.value) == "rho(x*y) = rho(x)*y fails at (1,0)"
    with pytest.raises(ValueError) as exc:
        SymmetricQuandle(p_quandle(3, parse_cycles("(1 2 3)", 3)), (0, 1, 2, 3))
    assert str(exc.value) == "x*rho(y) = bar(x,y) fails at (1,0)"


def test_good_involutions_check_each_involution_once(monkeypatch):
    # P(3, (1 2)) builds 4 involutions and 2 of them commute with column 0; the
    # law check runs once on each of those 2 as a SymmetricQuandle, and never on
    # the 2 that the walk's column check rejects
    q = p_quandle(3, parse_cycles("(1 2)", 3))
    made = recorded_budgets(monkeypatch, "quandles.invariants.Budget")
    calls = []
    check = invariants._good_involution_defect

    def counted(q, rho):
        calls.append(rho)
        return check(q, rho)

    monkeypatch.setattr(invariants, "_good_involution_defect", counted)
    found = good_involutions(q)
    assert [s.rho for s in found] == [(0, 1, 2, 3), (0, 2, 1, 3)]
    assert calls == [s.rho for s in found]
    assert [(b.what, b.nodes) for b in made] == [("involution", 4)]


def test_involutions_are_built_on_an_explicit_stack():
    # the pairing of each point is a level of an explicit stack, not a call, so
    # trivial(60) needs no frames beyond the caller's 30; the involutions are
    # made one at a time, so the first of its 2.7 * 10^43 comes at once. The
    # empty quandle has one, the empty map
    assert list(invariants._good_involutions(Quandle(()))) == [()]
    q = trivial(60)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        first = next(invariants._good_involutions(q))
    finally:
        sys.setrecursionlimit(limit)
    assert first == tuple(range(60))


def test_good_involutions_match_the_remaining_list_oracle(monkeypatch):
    # T1-T8, R1-R12 and each P(n, sigma) class for n <= 6, and a seeded
    # relabelling of each that moves element 0: the same involutions in the same
    # order, for the same "involution" nodes
    budgets = []

    class Recording(Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    monkeypatch.setattr(invariants, "Budget", Recording)
    qs = [trivial(m) for m in range(1, 9)] + [dihedral(m) for m in range(1, 13)]
    qs += [p_quandle(n, sigma) for n in range(1, 7)
           for sigma in conjugacy_class_representatives(n)]
    rng = random.Random(18)
    for q in qs:
        order = rng.sample(range(q.m), q.m)
        if q.m > 1 and order[0] == 0:
            order.reverse()
        for copy in (q, relabel_quandle(q, order)):
            oracle = Budget("involution")
            expected = remaining_list_good_involutions(copy, oracle)
            assert list(invariants._good_involutions(copy)) == expected, copy.table
            assert budgets[-1].nodes == oracle.nodes


def test_column_law_check_matches_the_cell_scan():
    # every permutation, involution or not, of T1-T5, R3-R6 and each P(n, sigma)
    # class for n <= 4: the per-column check finds the same first defect as a
    # scan of all m^2 cells, and SymmetricQuandle raises exactly when the
    # oracle finds a defect, with the same message
    qs = [trivial(m) for m in range(1, 6)] + [dihedral(m) for m in range(3, 7)]
    qs += [p_quandle(n, sigma) for n in range(1, 5)
           for sigma in conjugacy_class_representatives(n)]
    for q in qs:
        good = set()
        for rho in permutations(range(q.m)):
            assert invariants._good_involution_defect(q, rho) == cell_law_defect(q, rho)
            try:
                SymmetricQuandle(q, rho)
                message = None
                good.add(rho)
            except ValueError as exc:
                message = str(exc)
            assert message == symmetric_quandle_error(q, rho), (q.table, rho)
        assert good == {s.rho for s in good_involutions(q)}
