import inspect
import math

import pytest

import quandles
from helpers import (
    conjugation_quandle,
    inner_images,
    labelled_quandles,
    medial_law_holds,
    symmetric_group_elements,
)
from quandles import (
    AxiomError,
    Permutation,
    Quandle,
    all_permutations,
    dihedral,
    p_quandle,
    parse_cycles,
    trivial,
)

T3_TABLE = ((0, 0, 0), (1, 1, 1), (2, 2, 2))
R3_TABLE = ((0, 2, 1), (2, 1, 0), (1, 0, 2))
P3_TABLE = ((0, 0, 0), (2, 1, 1), (1, 2, 2))


def p3():
    return p_quandle(2, parse_cycles("(1 2)", 2))


def test_order_three_tables():
    assert trivial(3).table == T3_TABLE
    assert dihedral(3).table == R3_TABLE
    assert p3().table == P3_TABLE


def test_from_table_accepts_valid():
    assert Quandle(P3_TABLE).table == P3_TABLE
    assert Quandle(T3_TABLE) == trivial(3)


def test_orders_zero_one_and_two_validate():
    # with one point, itemgetter gives an int on both sides of the column law
    assert Quandle([]).m == 0 and Quandle([]).table == ()
    assert Quandle([[0]]).table == ((0,),)
    assert Quandle([[0, 0], [1, 1]]) == trivial(2)
    for bad, axiom in (([[1]], "range"), ([[0, 1]], "shape"),
                       ([[0, 0], [0, 1]], "column-bijection")):
        with pytest.raises(AxiomError) as exc:
            Quandle(bad)
        assert exc.value.axiom == axiom


def test_from_table_rejects_bad_column():
    with pytest.raises(AxiomError) as exc:
        Quandle([[0, 0], [0, 1]])
    assert exc.value.axiom == "column-bijection"
    assert exc.value.witness == 0


def test_from_table_rejects_bad_diagonal():
    with pytest.raises(AxiomError) as exc:
        Quandle([[1, 0], [1, 1]])
    assert exc.value.axiom == "idempotence"
    assert exc.value.witness == 0


def test_from_table_rejects_non_distributive():
    # idempotent with bijective columns, but (0*1)*2 != (0*2)*(1*2)
    bad = [[0, 2, 1], [1, 1, 0], [2, 0, 2]]
    with pytest.raises(AxiomError) as exc:
        Quandle(bad)
    assert exc.value.axiom == "self-distributivity"
    assert exc.value.witness == (0, 1, 2)


def test_from_table_rejects_out_of_range():
    with pytest.raises(AxiomError) as exc:
        Quandle([[0, 5], [1, 1]])
    assert exc.value.axiom == "range"
    with pytest.raises(AxiomError) as exc:
        Quandle([[0, 0], [True, 1]])
    assert exc.value.axiom == "range" and exc.value.witness == (1, 0)


def test_from_json_needs_a_table():
    for text in ('{"order": 2}', '[[0, 0], [1, 1]]', '{"order": 2, "table": 5}',
                 '{"table": [[0, 0], [1, 1]]}'):
        with pytest.raises(ValueError):
            Quandle.from_json(text)


def test_p_quandle_examples():
    assert p3().table == P3_TABLE
    for n in range(1, 5):
        assert p_quandle(n, parse_cycles("()", n)) == trivial(n + 1)
    q = p_quandle(3, parse_cycles("(1 2 3)", 3))
    assert tuple(row[0] for row in q.table) == (0, 2, 3, 1)
    for y in range(1, 4):
        assert tuple(row[y] for row in q.table) == (0, 1, 2, 3)


def test_p_quandle_degree_mismatch():
    with pytest.raises(ValueError):
        p_quandle(3, parse_cycles("(1 2)", 2))


def test_bar_op():
    q = p3()
    assert q.bar(1, 0) == 2
    assert trivial(3).bar(2, 1) == 2
    for q in (p3(), dihedral(5), trivial(4)):
        for x in q.elements:
            for y in q.elements:
                assert q.bar(q.op(x, y), y) == x
                assert q.op(q.bar(x, y), y) == x


def test_column_perms():
    assert tuple(row[0] for row in p3().table) == (0, 2, 1)
    assert tuple(row[1] for row in p3().table) == (0, 1, 2)
    assert tuple(row[0] for row in dihedral(3).table) == (0, 2, 1)


def test_is_abelian():
    assert p_quandle(4, parse_cycles("(1 2 3)", 4)).is_abelian()
    assert trivial(5).is_abelian()
    s3 = conjugation_quandle(symmetric_group_elements(3))
    assert not s3.is_abelian()


def test_orbits_give_an_inner_map_to_each_point_of_an_orbit():
    # the Inn-orbit of x is {g(x) : g in Inn}, with Inn from the columns closed
    # under composition; the transpositions of S5 are one orbit that the walk
    # crosses in several steps of different columns
    transpositions = [p for p in symmetric_group_elements(5)
                      if sum(x != i for i, x in enumerate(p)) == 2]
    cases = [conjugation_quandle(transpositions), conjugation_quandle(symmetric_group_elements(4)),
             dihedral(6), p_quandle(4, parse_cycles("(1 2 3)", 4))]
    for q in cases + [q for m in range(1, 5) for q in labelled_quandles(m)]:
        inn = inner_images(q)
        least, moves = q._orbits
        for x in q.elements:
            orbit = {g[x] for g in inn}
            assert least[x] == min(orbit)
            if least[x] == x:  # one map per other point, taking x there
                assert sorted(g[x] for g in moves[x]) == sorted(orbit - {x})
                assert set(moves[x]) <= set(inn)
            else:
                assert moves[x] == []


def _alexander(n: int, t: int) -> Quandle:
    """x*y = t*x + (1 - t)*y on Z_n, for a unit t."""
    return Quandle([[(t * x + (1 - t) * y) % n for y in range(n)] for x in range(n)])


def _conjugacy_classes(n: int):
    """The conjugacy classes of S_n on {0..n-1}, as sorted image tuples, by cycle type."""
    classes = {}
    for g in symmetric_group_elements(n):
        classes.setdefault(Permutation([v + 1 for v in g]).cycle_type, []).append(g)
    return list(classes.values())


def test_is_abelian_matches_the_medial_law_on_every_quadruple():
    # the displacement-group test against the m^4 scan: all labelled quandles
    # of order <= 4 (4 of the 43 are not medial), R1-R12, every P(n, sigma)
    # with n <= 5, the Alexander quandles on Z_n with n <= 12, and the
    # conjugation quandles of S3 and of each class of S4
    small = [q for m in range(1, 5) for q in labelled_quandles(m)]
    assert len(small) == 43 and sum(not medial_law_holds(q) for q in small) == 4
    quandles_ = [*small, *map(dihedral, range(1, 13)),
                 *(p_quandle(n, s) for n in range(1, 6) for s in all_permutations(n)),
                 *(_alexander(n, t) for n in range(1, 13) for t in range(n)
                   if math.gcd(n, t) == 1),
                 conjugation_quandle(symmetric_group_elements(3)),
                 *map(conjugation_quandle, _conjugacy_classes(4))]
    for q in quandles_:
        assert q.is_abelian() == medial_law_holds(q), q.table
    assert Quandle([]).is_abelian()


def test_p_quandles_are_abelian_exhaustively():
    for n in range(1, 5):
        for sigma in all_permutations(n):
            assert p_quandle(n, sigma).is_abelian()


def test_every_constructor_output_revalidates():
    for q in (trivial(1), trivial(6), dihedral(1), dihedral(6),
              p_quandle(4, parse_cycles("(1 2)(3 4)", 4))):
        assert Quandle(q.table) == q


def test_dihedral_even_order():
    q = dihedral(4)
    assert q.op(1, 2) == 3
    assert q.op(3, 0) == 1


def test_json_round_trip():
    q = p_quandle(3, parse_cycles("(1 3)", 3))
    assert Quandle.from_json(q.to_json()) == q


def test_show_is_stable():
    assert trivial(3).show() == "0 0 0\n1 1 1\n2 2 2"
    assert p3().show() == "0 0 0\n2 1 1\n1 2 2"


def test_column_zero_restricts_to_sigma():
    for n in (2, 3, 4):
        for sigma in all_permutations(n):
            q = p_quandle(n, sigma)
            col0 = tuple(row[0] for row in q.table)
            assert col0[0] == 0
            assert all(col0[x] == sigma(x) for x in range(1, n + 1))
            for y in range(1, n + 1):
                assert tuple(row[y] for row in q.table) == tuple(range(n + 1))


def test_all_lists_public_objects_and_no_module():
    assert len(set(quandles.__all__)) == len(quandles.__all__)
    for name in quandles.__all__:
        assert not inspect.ismodule(getattr(quandles, name)), name
    namespace = {}
    exec("from quandles import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(quandles.__all__)
