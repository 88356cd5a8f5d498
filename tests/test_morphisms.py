import math
import random
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ORACLE_QUANDLES,
    associativity_witness,
    brute_force_automorphisms,
    brute_force_homs,
    composition_table,
    conjugation_quandle,
    group_mul_table,
    group_table_error,
    inner_images,
    symmetric_group_elements,
)
from quandles import (
    FiniteGroupTable,
    Quandle,
    QuandleMap,
    SearchCapError,
    all_permutations,
    automorphism_group,
    centralizer,
    conjugacy_class_representatives,
    dihedral,
    endomorphisms,
    format_cycles,
    hom_quandle,
    homs,
    inner_group,
    is_conjugate,
    is_isomorphic,
    order,
    p_quandle,
    parse_cycles,
    relabel_quandle,
    trivial,
)
from quandles.cli import load_quandle
from quandles.morphisms import _group_table

P3 = p_quandle(2, parse_cycles("(1 2)", 2))


def test_homs_p3_p3_exactly_seven():
    maps = homs(P3, P3)
    assert [f.image for f in maps] == [
        (0, 0, 0), (0, 1, 2), (0, 2, 1), (1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 2)]


def test_homs_trivial_targets():
    assert len(homs(trivial(2), trivial(3))) == 9
    assert len(homs(P3, trivial(1))) == 1


@pytest.mark.parametrize("x,y", [
    (P3, P3),
    (dihedral(3), dihedral(3)),
    (trivial(2), trivial(3)),
    (P3, dihedral(3)),
    (dihedral(3), P3),
])
def test_homs_match_brute_force(x, y):
    assert [f.image for f in homs(x, y)] == brute_force_homs(x, y)


def test_every_returned_hom_revalidates():
    for f in homs(p_quandle(3, parse_cycles("(1 2 3)", 3)), P3):
        assert f.verify()


def test_hom_search_cap(monkeypatch):
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", "5")
    with pytest.raises(SearchCapError):
        homs(trivial(3), trivial(3))


def test_automorphism_group_table_obeys_the_given_cap(monkeypatch):
    # the cap is QUANDLE_SEARCH_CAP, for the hom search and the table alike
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", str(120**2))
    assert automorphism_group(trivial(5))[1].order == 120
    monkeypatch.setenv("QUANDLE_SEARCH_CAP", str(120**2 - 1))
    with pytest.raises(SearchCapError) as err:
        automorphism_group(trivial(5))
    assert (err.value.budget.what, err.value.budget.nodes) == ("group", 120**2)


def test_automorphism_groups():
    maps, group = automorphism_group(P3)
    assert group.order == 2
    maps3, group3 = automorphism_group(p_quandle(3, parse_cycles("(1 2 3)", 3)))
    assert group3.order == 3
    _, group_t3 = automorphism_group(trivial(3))
    assert group_t3.order == 6


@pytest.mark.parametrize("q", [P3, dihedral(3), trivial(3),
                               p_quandle(3, parse_cycles("(1 2)", 3))])
def test_automorphisms_match_brute_force(q):
    maps, _ = automorphism_group(q)
    assert sorted(f.image for f in maps) == sorted(brute_force_automorphisms(q))


def test_inner_groups():
    g = inner_group(p_quandle(3, parse_cycles("(1 2 3)", 3)))
    assert g.order == 3 and g.is_cyclic()
    assert inner_group(trivial(5)).order == 1
    r3 = inner_group(dihedral(3))
    assert r3.order == 6 and not r3.is_abelian()


def test_inner_group_stops_at_the_cap_while_it_grows(monkeypatch):
    # the 36 transpositions of S_9 generate Inn = S_9, of 362,880 elements;
    # each element added charges the cells of the table so far, so the closure
    # stops at 3163 elements, the first whose square passes the cap
    monkeypatch.delenv("QUANDLE_SEARCH_CAP", raising=False)
    swaps = [tuple(j if k == i else i if k == j else k for k in range(9))
             for i in range(9) for j in range(i + 1, 9)]
    q = conjugation_quandle(swaps)
    start = time.perf_counter()
    with pytest.raises(SearchCapError) as err:
        inner_group(q)
    assert time.perf_counter() - start < 1
    assert str(err.value) == "group search exceeded 10000000 nodes"
    assert err.value.budget.nodes == 3163**2


GROUP_TABLE_CASES = {
    **{f"T{m}": trivial(m) for m in range(1, 6)},
    **{f"R{m}": dihedral(m) for m in (*range(3, 13), 15)},
    **{f"P{n} {format_cycles(sigma)}": p_quandle(n, sigma)
       for n in range(1, 6) for sigma in conjugacy_class_representatives(n)},
}


@pytest.mark.parametrize("q", GROUP_TABLE_CASES.values(), ids=GROUP_TABLE_CASES.keys())
def test_group_tables_match_the_all_cells_oracle(q):
    maps, group = automorphism_group(q)
    assert group.table == composition_table([f.image for f in maps]).table
    assert inner_group(q).table == composition_table(inner_images(q)).table


def test_group_table_rejects_sets_that_are_not_closed():
    images = [f.image for f in automorphism_group(dihedral(5))[0]]
    identity, a, b = images[0], images[1], images[5]
    # x -> 2x and x -> x + 1 generate the 20 affine maps of Z/5
    assert (identity, a, b, len(images)) == ((0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (1, 2, 3, 4, 0), 20)
    cases = [images[:i] + images[i + 1:] for i in range(len(images))]
    cases += [[a, b], [identity, a, b], images[1:]]
    for case in cases:
        for build in (composition_table, _group_table):
            with pytest.raises(ValueError, match="^set of maps is not closed under composition$"):
                build(case)
    for build in (composition_table, _group_table):
        with pytest.raises(ValueError, match="^no identity element$"):
            build([])


def test_group_table_composes_only_generator_rows():
    # at most log2|G| generators (Lagrange), so that many rows of |G| maps of
    # m points each are composed point by point; the all-cells table composes
    # all |G|^2 pairs, 14,400 * 15 lookups for Aut(R15)
    lookups = 0

    class CountingImage(tuple):
        def __getitem__(self, i):
            nonlocal lookups
            lookups += 1
            return tuple.__getitem__(self, i)

    images = [f.image for f in automorphism_group(dihedral(15))[0]]
    group = _group_table([CountingImage(image) for image in images])
    assert group.table == composition_table(images).table
    assert 0 < lookups <= math.ceil(math.log2(120)) * 120 * 15


@pytest.mark.parametrize("source", ORACLE_QUANDLES)
def test_group_table_errors_match_the_brute_force_scan(source):
    # Aut and Inn of each oracle quandle, each with one cell changed to the next
    # element: every cell up to order 24, a seeded sample of 40 cells above
    q = load_quandle(source)
    for group in (automorphism_group(q)[1], inner_group(q)):
        t, n = group.table, group.order
        assert group_table_error(t) is None
        cells = list(product(range(n), repeat=2))
        for a, b in cells if n <= 24 else random.Random(n).sample(cells, 40):
            table = [list(row) for row in t]
            table[a][b] = (t[a][b] + 1) % n
            expected = group_table_error(table)
            if expected is None:
                assert FiniteGroupTable(table).order == n
            else:
                with pytest.raises(ValueError) as exc:
                    FiniteGroupTable(table)
                assert str(exc.value) == expected, (source, a, b)


def test_isomorphism_examples():
    a = p_quandle(3, parse_cycles("(1 2)", 3))
    b = p_quandle(3, parse_cycles("(2 3)", 3))
    f = is_isomorphic(a, b)
    assert f is not None and len(set(f.image)) == f.source.m == f.target.m and f.verify()
    assert is_isomorphic(a, p_quandle(3, parse_cycles("(1 2 3)", 3))) is None
    assert is_isomorphic(trivial(3), dihedral(3)) is None
    assert is_isomorphic(trivial(3), trivial(4)) is None


def test_the_empty_quandle_is_isomorphic_to_itself_by_the_empty_map():
    # its only map is (), which is falsy: found is told apart from None
    empty = Quandle([])
    f = is_isomorphic(empty, empty)
    assert f is not None and f.image == () and f.verify()


def test_isomorphism_matches_conjugacy_up_to_s3():
    for n in (2, 3):
        perms = [s for s in all_permutations(n) if s.image != tuple(range(1, n + 1))]
        for sigma in perms:
            for tau in perms:
                got = is_isomorphic(p_quandle(n, sigma), p_quandle(n, tau))
                assert (got is not None) == is_conjugate(sigma, tau)


def test_aut_inn_structure_up_to_n4():
    for n in (2, 3, 4):
        for sigma in conjugacy_class_representatives(n):
            if sigma.image == tuple(range(1, n + 1)):
                continue
            q = p_quandle(n, sigma)
            maps, group = automorphism_group(q)
            assert group.order == len(centralizer(sigma))
            assert all(f.image[0] == 0 for f in maps)  # every automorphism fixes 0
            inn = inner_group(q)
            assert inn.is_cyclic() and inn.order == order(sigma)


def test_hom_quandle_p3():
    h, labels = hom_quandle(P3, P3)
    assert h.m == 7
    assert h.is_abelian()
    assert labels == [f.image for f in homs(P3, P3)]
    # spot entries in lex labelling: constant map 1 * zero map = constant map 2
    i_const1 = labels.index((1, 1, 1))
    i_zero = labels.index((0, 0, 0))
    i_const2 = labels.index((2, 2, 2))
    assert h.op(i_const1, i_zero) == i_const2


def test_hom_quandle_trivial():
    h, labels = hom_quandle(trivial(2), trivial(3))
    assert h == trivial(9)
    assert len(labels) == 9


def test_hom_quandle_rejects_nonabelian_target():
    s3 = conjugation_quandle(symmetric_group_elements(3))
    with pytest.raises(ValueError):
        hom_quandle(trivial(2), s3)


def test_relabel_quandle():
    q = relabel_quandle(P3, [2, 1, 0])
    assert q.m == 3
    assert relabel_quandle(q, [2, 1, 0]) == P3
    with pytest.raises(ValueError):
        relabel_quandle(P3, [0, 0, 1])


def test_finite_group_table_validation():
    c3 = FiniteGroupTable([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert c3.identity == 0 and c3.is_cyclic() and c3.is_abelian()
    assert c3.element_orders() == [1, 3, 3]
    with pytest.raises(ValueError):
        FiniteGroupTable([[0, 1], [1, 1]])  # 1 has no inverse / not a group
    # the shape check runs before the identity search reads a short row
    for table in ([[1], [0, 1]], [[0, 1], [1, 2]], [[0, -1], [1, 0]]):
        with pytest.raises(ValueError, match="^table entries must index elements$"):
            FiniteGroupTable(table)


def test_groups_of_order_one_and_two_pass_the_checks():
    # Light's test skips the identity, the only element at order 1, so no
    # one-index itemgetter result is compared with a row
    one = FiniteGroupTable([[0]])
    assert (one.order, one.identity, one.is_cyclic(), one.element_orders()) == (1, 0, True, [1])
    for q, order_ in ((Quandle([]), 1), (trivial(1), 1), (trivial(2), 2), (trivial(3), 6)):
        maps, group = automorphism_group(q)
        assert group.order == len(maps) == order_
        assert group.table == composition_table([f.image for f in maps]).table
    assert inner_group(trivial(3)).table == ((0,),)
    assert inner_group(Quandle([])).table == ((0,),)


def test_quandle_map_verify_rejects_wrong_length_and_range():
    assert QuandleMap(P3, P3, (0, 1, 2)).verify()
    assert not QuandleMap(P3, P3, (0, 1)).verify()
    assert not QuandleMap(P3, P3, (0, 1, 2, 3)).verify()
    assert not QuandleMap(P3, P3, (0, 1, 3)).verify()


def test_quandle_map_verify_matches_the_full_cell_check():
    # verify reads only the generators' columns; on every map between 14 small
    # quandles it must agree with f(x*y) = f(x)*f(y) checked on all m^2 cells
    small = ([trivial(m) for m in (1, 2, 3)] + [dihedral(m) for m in range(1, 6)]
             + [p_quandle(n, sigma) for n in (1, 2, 3)
                for sigma in conjugacy_class_representatives(n)])
    seen = Counter()
    for source, target in product(small, repeat=2):
        s, t = source.table, target.table
        for f in product(range(target.m), repeat=source.m):
            homomorphic = all(f[s[x][y]] == t[f[x]][f[y]]
                              for x in range(source.m) for y in range(source.m))
            assert QuandleMap(source, target, f).verify() == homomorphic, (s, t, f)
            seen[homomorphic] += 1
    assert len(small) == 14 and sum(seen.values()) == 18942 and seen[True] < seen[False]


def test_endomorphisms_alias():
    assert [f.image for f in endomorphisms(P3)] == [f.image for f in homs(P3, P3)]


def test_homs_sorted_and_duplicate_free():
    for x, y in [(P3, P3), (trivial(2), trivial(3)), (dihedral(3), dihedral(3))]:
        images = [f.image for f in homs(x, y)]
        assert images == sorted(images)
        assert len(set(images)) == len(images)


def test_group_table_rejects_a_non_associative_loop():
    # an identity and an inverse for every element: only associativity fails
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError) as exc:
        FiniteGroupTable(loop)
    assert str(exc.value) == "associativity fails at (1,1,2)"


@st.composite
def tables_with_identity_and_inverses(draw):
    """A group table (cyclic, Klein four or S3) or a random table, with a few
    cells changed, then forced to have identity 0 and a right inverse in every
    row, and relabelled."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("cyclic", "klein", "s3", "random")))
    if kind == "klein" and n in (1, 2, 4):
        table = [[a ^ b for b in range(n)] for a in range(n)]
    elif kind == "s3" and n == 6:
        table = group_mul_table(symmetric_group_elements(3))
    elif kind == "random":
        table = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    else:
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            table[a][b] = draw(st.integers(0, n - 1))
    for x in range(n):
        table[0][x] = table[x][0] = x
        if 0 not in table[x]:
            table[x][draw(st.integers(1, n - 1))] = 0
    p = draw(st.permutations(range(n)))
    relabelled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabelled[p[a]][p[b]] = p[table[a][b]]
    return relabelled


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables_with_identity_and_inverses())
def test_group_table_accepts_exactly_the_associative_tables(table):
    witness = associativity_witness(table)
    if witness is None:
        assert FiniteGroupTable(table).order == len(table)
    else:
        with pytest.raises(ValueError) as exc:
            FiniteGroupTable(table)
        assert str(exc.value) == "associativity fails at ({},{},{})".format(*witness)
