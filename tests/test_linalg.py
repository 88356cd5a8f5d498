import math
import random

import pytest
from sympy import GF, QQ, ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from helpers import dense, sparse
from quandles import cochain_slice, dihedral, p_quandle, parse_cycles, trivial
from quandles.linalg import (
    integer_kernel_basis,
    mat_mul,
    rank,
    smith_normal_form,
    transpose,
)


def sympy_factors(a):
    """Nonzero invariant factors from sympy, in divisibility order."""
    return sorted(abs(int(d)) for d in invariant_factors(Matrix(a), domain=ZZ) if d)


def sympy_rank(a, p=None):
    return DomainMatrix.from_list(a, ZZ).convert_to(QQ if p is None else GF(p)).rank()


def random_matrix(rng, rows, cols, pool):
    return [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]


def test_mat_mul():
    product = mat_mul(sparse([[1, 2], [3, 4]]), sparse([[0, 1], [1, 0]]))
    assert dense(product, 2) == [[2, 1], [4, 3]]
    with pytest.raises(ValueError, match="^shape mismatch$"):
        mat_mul(sparse([[1, 2]]), sparse([[1, 2]]))


def test_mat_mul_matches_the_definition_on_sparse_matrices():
    rng = random.Random(5)
    for _ in range(50):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        a = random_matrix(rng, n, k, [0, 0, 0, 1, -1, 2, 7])
        b = random_matrix(rng, k, m, [0, 0, 0, 1, -1, -2, 3])
        expected = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
                    for i in range(n)]
        product = mat_mul(sparse(a), sparse(b))
        assert dense(product, m) == expected
        assert product == sparse(expected)  # each row in column order, no zero kept


def test_rank_over_q_and_modular():
    m = sparse([[2, 4], [1, 2]])
    assert rank(m) == 1
    assert rank(sparse([[1, 0], [0, 1]])) == 2
    assert rank(sparse([[2, 0], [0, 2]]), p=2) == 0
    assert rank(sparse([[2, 0], [0, 3]]), p=3) == 1
    assert rank(sparse([[0, 0], [0, 0]])) == 0
    # the row (2, 0) constrains nothing over GF(2) but has rank 1 over Q
    assert rank(sparse([[2, 0]]), p=2) == 0
    assert rank(sparse([[2, 0]])) == 1


def test_smith_normal_form_known_values():
    assert smith_normal_form(sparse([[1, 0], [0, 3]])) == [1, 3]
    assert smith_normal_form(sparse([[2, 0], [0, 3]])) == [1, 6]
    assert smith_normal_form(sparse([[2, 4], [4, 8]])) == [2]
    assert smith_normal_form(sparse([[0, 0], [0, 0]])) == []
    assert smith_normal_form(sparse([[6]])) == [6]
    # divisibility chain d1 | d2 | ...
    factors = smith_normal_form(sparse([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def test_smith_normal_form_random_unimodular_sandwich():
    # scramble a known diagonal by unimodular row/column operations; the
    # invariant factors keep the rank, the gcd, and the determinant size
    rng = random.Random(11)
    for _ in range(20):
        diag = sorted(rng.choice([1, 1, 2, 3, 4, 6]) for _ in range(3))
        d = [[diag[i] if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(12):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-3, 3)
            if rng.random() < 0.5:
                for col in range(3):
                    d[i][col] += c * d[j][col]
            else:
                for row in d:
                    row[i] += c * row[j]
        got = smith_normal_form(sparse(d))
        assert len(got) == 3
        assert got[0] == math.gcd(*diag)
        assert math.prod(got) == math.prod(diag)
        for a, b in zip(got, got[1:]):
            assert b % a == 0


# pools without +-1 leave the whole matrix to the dense core
POOLS = ([0, 0, 1, -1, 2], [0, 0, 0, 1, -1, 2, -2, 3], [0, 2, -2, 4, 6], [0, 0, 3, -6, 9, 4])


@pytest.mark.parametrize("pool", POOLS)
def test_smith_normal_form_and_rank_match_sympy(pool):
    rng = random.Random(sum(pool) + len(pool))
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), pool)
        assert smith_normal_form(sparse(a)) == sympy_factors(a)
        for p in (None, 2, 3, 5):
            assert rank(sparse(a), p) == sympy_rank(a, p)


def test_tall_matrices_give_the_factors_of_their_transpose():
    # a tall matrix is eliminated by its columns, as SNF(a^T) = SNF(a)^T
    rng = random.Random(19)
    for pool in POOLS:
        for _ in range(15):
            a = random_matrix(rng, rng.randint(6, 40), rng.randint(1, 5), pool)
            a_t = transpose(sparse(a), len(a[0]))
            assert dense(a_t, len(a)) == [list(col) for col in zip(*a)]
            assert smith_normal_form(sparse(a)) == smith_normal_form(a_t) == sympy_factors(a)
    for a in ([()], [(), ()]):  # rows of width 0: taller than wide, and no columns
        assert smith_normal_form(a) == smith_normal_form(transpose(a, 0)) == []
        assert rank(a) == rank(a, 2) == 0


@pytest.mark.parametrize("q", [dihedral(4), dihedral(5),
                               p_quandle(4, parse_cycles("(1 2 3 4)", 4)), trivial(4),
                               p_quandle(4, parse_cycles("(1 2)(3 4)", 4))])
def test_coboundaries_match_sympy(q):
    sl = cochain_slice(q, 3)
    for delta, cols in ((sl.delta_in, sl.basis_below), (sl.delta_out, sl.basis)):
        d = dense(delta, len(cols))
        assert smith_normal_form(delta) == sympy_factors(d)
        for p in (None, 2, 3, 5):
            assert rank(delta, p) == sympy_rank(d, p)
    if q == dihedral(5):
        assert [f for f in smith_normal_form(sl.delta_out) if f > 1] == [5]


# all-zero rows, a zero matrix and entries outside {0, +-1, +-2}
SHAPE_CASES = (
    [[0, 0, 0], [3, 0, -5], [0, 0, 0], [6, 9, 0]],
    [[0, 0], [0, 0], [0, 0]],
    [[0, 1, 0, -7], [0, 0, 0, 0], [1, 0, 12, 0], [0, -1, 0, 7]],
    [[4, 0, 0, 0, 0, 10]],
)


@pytest.mark.parametrize("a", SHAPE_CASES)
def test_tuple_rows_give_the_answers_of_list_rows(a):
    # a tuple of tuple rows and a list of list rows of the same pairs
    as_tuples, as_lists = tuple(sparse(a)), [list(row) for row in sparse(a)]
    assert smith_normal_form(as_tuples) == smith_normal_form(as_lists) == sympy_factors(a)
    for p in (None, 2, 3):
        assert rank(as_tuples, p) == rank(as_lists, p) == sympy_rank(a, p)
    cols = len(a[0])
    assert integer_kernel_basis(as_tuples, cols) == integer_kernel_basis(as_lists, cols)
    assert_saturated_kernel(as_tuples, cols)
    b = transpose(as_lists, cols)
    expected = (Matrix(a) * Matrix(dense(b, len(a)))).tolist()
    assert (dense(mat_mul(as_tuples, tuple(b)), len(a)) == dense(mat_mul(as_lists, b), len(a))
            == expected)


def test_integer_kernel_basis_is_saturated():
    basis = dense(integer_kernel_basis(sparse([[2, -2]]), 2), 2)
    assert len(basis) == 1
    from math import gcd
    assert abs(gcd(*basis[0])) == 1  # (1, 1), not (2, 2)

    mat = [[1, 2, 3], [2, 4, 6]]
    basis = dense(integer_kernel_basis(sparse(mat), 3), 3)
    assert len(basis) == 2
    for vec in basis:
        assert all(sum(r * v for r, v in zip(row, vec)) == 0 for row in mat)

    assert integer_kernel_basis(sparse([[1, 0], [0, 1]]), 2) == []
    assert len(integer_kernel_basis([], cols=3)) == 3
    with pytest.raises(TypeError):  # the width is always given
        integer_kernel_basis([])


def assert_saturated_kernel(a, cols):
    """The basis annihilates a, has cols - rank(a) vectors and is saturated."""
    basis = integer_kernel_basis(a, cols=cols)
    assert len(basis) == cols - rank(a)
    assert basis == sparse(dense(basis, cols))  # each row in column order, no zero kept
    for vec in dense(basis, cols):
        assert all(sum(x * v for x, v in zip(row, vec)) == 0 for row in dense(a, cols))
    assert smith_normal_form(basis) == [1] * len(basis)


@pytest.mark.parametrize("pool", POOLS)
def test_integer_kernel_basis_on_random_matrices(pool):
    rng = random.Random(3 * sum(pool) + len(pool))
    for _ in range(60):
        cols = rng.randint(1, 8)
        assert_saturated_kernel(sparse(random_matrix(rng, rng.randint(1, 8), cols, pool)), cols)


def _symmetric_stack():
    q = p_quandle(6, parse_cycles("(1 2)(3 4)(5 6)", 6))
    sl = cochain_slice(q, 2, (0, 2, 1, 3, 4, 5, 6))  # rho = (1 2), a good involution
    return sl.delta_out + sl.relations, len(sl.basis)


@pytest.mark.parametrize("case", ["R4", "R5", "P4", "sym P6"])
def test_integer_kernel_basis_on_coboundaries(case):
    if case == "sym P6":
        a, cols = _symmetric_stack()
    else:
        q = {"R4": dihedral(4), "R5": dihedral(5),
             "P4": p_quandle(4, parse_cycles("(1 2 3 4)", 4))}[case]
        sl = cochain_slice(q, 3)
        a, cols = sl.delta_out, len(sl.basis)
    assert_saturated_kernel(a, cols)


def test_in_column_span():
    a = [[1, 0], [0, 2], [0, 0]]

    def in_column_span(v, p=None):  # a rank that a new column leaves unchanged
        return rank(sparse(a), p) == rank(sparse([row + [vi] for row, vi in zip(a, v)]), p)

    assert in_column_span([3, 4, 0])
    assert not in_column_span([0, 0, 1])
    assert not in_column_span([0, 1, 0], p=2)  # second column is 0 mod 2
    assert in_column_span([1, 0, 0], p=2)


def test_transpose_round_trip():
    m = sparse([[1, 2, 3], [4, 5, 6]])
    assert dense(transpose(m, 3), 2) == [[1, 4], [2, 5], [3, 6]]
    assert transpose(transpose(m, 3), 2) == m
