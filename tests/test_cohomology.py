import random
from collections import Counter
from dataclasses import replace
from itertools import compress, product

import pytest

from helpers import (
    ORACLE_QUANDLES,
    conjugation_quandle,
    dense,
    dense_relation_rows,
    disjoint_union,
    face_loop_coboundary_rows,
    product_tuple_basis,
    quandle_classes,
    relabelled_table,
    sparse,
    symmetric_group_elements,
    two_kernel_symmetric_cohomology_z,
    whole_slice_cohomology,
)
from quandles import (
    AbelianGroupSummary,
    Cocycle2,
    Coeff,
    Quandle,
    QuandleMap,
    SymmetricQuandle,
    boundary_matrix,
    cochain_slice,
    cohomology_Q,
    conjugacy_class_representatives,
    dihedral,
    format_cycles,
    good_involutions,
    is_2cocycle,
    p_quandle,
    parse_cycles,
    symmetric_cohomology,
    theta_cocycle,
    trivial,
    tuple_basis,
    two_cocycle_basis,
)
from quandles import cohomology, linalg
from quandles.cli import load_quandle
from quandles.limits import SearchCapError

P3 = p_quandle(2, parse_cycles("(1 2)", 2))


def chi(m, x, y):
    return Cocycle2.from_pairs(m, {(x, y): 1})


def test_tuple_basis_sizes():
    assert tuple_basis(P3, 1) == [(0,), (1,), (2,)]
    assert len(tuple_basis(P3, 2)) == 6
    assert len(tuple_basis(P3, 3)) == 12
    assert len(tuple_basis(trivial(2), 3)) == 2


def test_boundary_degree_two_formula():
    # boundary of (x, y) is (x) - (x*y); in P_3 the pair (1, 0) maps to (1) - (2)
    pairs = tuple_basis(P3, 2)
    mat = dense(boundary_matrix(P3, 2), len(pairs))
    col = pairs.index((1, 0))
    assert [mat[r][col] for r in range(3)] == [0, 1, -1]
    # pairs with x*y = x have zero boundary
    col = pairs.index((0, 1))
    assert [mat[r][col] for r in range(3)] == [0, 0, 0]


def test_boundary_trivial_quandle_vanishes():
    assert not any(boundary_matrix(trivial(2), 2))
    assert not any(boundary_matrix(trivial(3), 3))


@pytest.mark.parametrize("q", [trivial(3), dihedral(3), P3,
                               p_quandle(4, parse_cycles("(1 2)(3 4)", 4))])
def test_chain_complex_law(q):
    for n in (2, 3):
        b_n = boundary_matrix(q, n)
        b_next = boundary_matrix(q, n + 1)
        assert not any(linalg.mat_mul(b_n, b_next))
        sl = cochain_slice(q, n)  # raises if the dual composition is nonzero
        # the slice's coboundary rows are the boundaries, transposed
        assert list(sl.delta_in) == linalg.transpose(b_n, len(sl.basis))
        assert list(sl.delta_out) == linalg.transpose(b_next, len(sl.basis_above))


def test_boundary_bounds():
    # one refusal below degree 2 for every quandle, with a trivial column (P3)
    # or without (R4), and no ceiling but the cochain budget
    for q, n in product((P3, dihedral(4)), (1, 0, -1)):
        for build in (boundary_matrix, lambda q, n: cohomology_Q(q, n, "Z")):
            with pytest.raises(ValueError, match=f"^degree {n} is below 2$"):
                build(q, n)
    assert not any(linalg.mat_mul(boundary_matrix(P3, 5), boundary_matrix(P3, 6)))
    assert str(cohomology_Q(dihedral(4), 5, "Z")) == "Z^2" + " (+) Z/2" * 10
    assert str(cohomology_Q(P3, 5, "Z")) == "Z^2"
    assert str(cohomology_Q(trivial(2), 5, "Z")) == "Z^2"


@pytest.mark.parametrize("n, group", [
    (2, "0"), (3, "0"), (4, "Z/3"), (5, "Z/3"), (6, "Z/3"), (7, "Z/3 (+) Z/3"),
    (8, "Z/3 (+) Z/3 (+) Z/3")])
def test_dihedral_three_in_every_degree(n, group):
    # H_n^Q(R3) = Z/3^(f_n) with f_n = f_(n-1) + f_(n-3), f_1 = f_2 = 0, f_3 = 1,
    # so H^n(R3; Z) = Z/3^(f_(n-1)) by universal coefficients: conjectured by
    # Niebrzydowski & Przytycki (JPAA 2009), proved by Nosaka (Trans. AMS 2013)
    got = cohomology_Q(dihedral(3), n, "Z")
    assert str(got) == group
    if n <= 6:
        assert [got] == whole_slice_cohomology(dihedral(3), n, ("Z",))


def test_h2_examples():
    assert str(cohomology_Q(p_quandle(3, parse_cycles("(1 2 3)", 3)), 2, "Z")) == "Z^2"
    assert cohomology_Q(p_quandle(4, parse_cycles("(1 2)(3 4)", 4)), 2, "Q").rank == 6
    got = cohomology_Q(trivial(3), 2, "Z")
    assert got.rank == 6 and got.torsion == ()
    got = cohomology_Q(dihedral(3), 2, "Z")
    assert got.rank == 0 and got.torsion == ()


def test_h2_rank_formula_over_fields():
    for n in (2, 3, 4):
        for sigma in conjugacy_class_representatives(n):
            k = len(sigma.orbit_list)
            q = p_quandle(n, sigma)
            for coeff in ("Q", "Z2", "Z3", "Z5"):
                assert cohomology_Q(q, 2, coeff).rank == k * k + k


def test_h3_values():
    # degree-3 capability; dihedral values agree with universal coefficients
    assert str(cohomology_Q(dihedral(3), 3, "Z")) == "0"
    assert cohomology_Q(dihedral(3), 3, "Z3").rank == 1
    assert cohomology_Q(dihedral(3), 3, "Z2").rank == 0
    assert str(cohomology_Q(trivial(2), 3, "Z")) == "Z^2"


def test_field_dimension_at_least_integer_rank():
    quandles = [P3, trivial(3), dihedral(3), p_quandle(3, parse_cycles("(1 2 3)", 3))]
    for q in quandles:
        rank_z = cohomology_Q(q, 2, "Z").rank
        for p in ("Z2", "Z3", "Z5"):
            assert cohomology_Q(q, 2, p).rank >= rank_z


UCT_QUANDLES = {**{name: load_quandle(name) for name in ORACLE_QUANDLES},
                **{f"order {m} #{i}": q for m in range(1, 5)
                   for i, q in enumerate(quandle_classes(m))}}


@pytest.mark.parametrize("name", UCT_QUANDLES)
def test_field_dimensions_follow_universal_coefficients(name):
    # H^n(X; Z) is the free part of H_n plus the torsion of H_(n-1), and
    # H^n(X; F_p) is Hom(H_n, F_p) + Ext(H_(n-1), F_p); so dim H^n(X; F_p) is
    # the free rank of H^n(X; Z) plus its factors divisible by p, plus those
    # of H^(n+1)(X; Z). H^(n+1) is slow from order 5 (H^5(R5): about 11 s)
    # and over the default cap for R7 at n + 1 = 4, so larger orders stop lower
    q = UCT_QUANDLES[name]
    top = 4 if q.m <= 4 else 3 if q.m == 5 else 2
    integral = [cohomology_Q(q, n, "Z") for n in range(2, top + 2)]
    for n, here, above in zip(range(2, top + 1), integral, integral[1:]):
        for p in (2, 3, 5):
            divisible = sum(d % p == 0 for d in here.torsion + above.torsion)
            assert cohomology_Q(q, n, f"Z{p}").rank == here.rank + divisible, (n, p)


def test_two_cocycle_basis_satisfies_column_relations():
    # every computed 2-cocycle of a one-column quandle is constant along the
    # sigma-action: C[0][s(q)] = C[0][q], C[s(p)][s(q)] = C[p][q], C[s(p)][r] = C[p][r]
    cases = [(2, "(1 2)"), (3, "(1 2 3)"), (3, "(1 2)"), (4, "(1 2)(3 4)")]
    for n, text in cases:
        sigma = parse_cycles(text, n)
        q = p_quandle(n, sigma)
        for cocycle in two_cocycle_basis(q):
            c = cocycle.values
            for pp in range(1, n + 1):
                for qq in range(1, n + 1):
                    assert c[0][sigma(qq)] == c[0][qq]
                    assert c[sigma(pp)][sigma(qq)] == c[pp][qq]
                    assert c[sigma(pp)][qq] == c[pp][qq]


def test_two_cocycle_basis_members_are_cocycles():
    for q in (P3, trivial(3), dihedral(3)):
        basis = two_cocycle_basis(q)
        assert all(is_2cocycle(q, phi) for phi in basis)


def n_cycle(n):
    return parse_cycles("(" + " ".join(map(str, range(1, n + 1))) + ")", n)


def test_is_2cocycle_examples():
    for n in (2, 3, 4):
        q = p_quandle(n, n_cycle(n))
        assert is_2cocycle(q, theta_cocycle(n))
    assert is_2cocycle(P3, Cocycle2.from_pairs(3, {}))  # zero cochain
    # single indicators violating the column relations are not cocycles
    assert not is_2cocycle(P3, chi(3, 0, 1))
    assert not is_2cocycle(P3, chi(3, 1, 2))
    # chi_(1,0) does satisfy both conditions (it represents an H^2 generator)
    assert is_2cocycle(P3, chi(3, 1, 0))
    # diagonal condition
    assert not is_2cocycle(P3, chi(3, 1, 1))


def test_chi12_defect_at_witness_triple():
    # condition (i) at (x0, x1, x2) = (1, 0, 2) evaluates to -1 for chi_(1,2)
    f = chi(3, 1, 2)
    x0, x1, x2 = 1, 0, 2
    defect = (f(x0, x1) + f(P3.op(x0, x1), x2)
              - f(x0, x2) - f(P3.op(x0, x2), P3.op(x1, x2)))
    assert defect == -1


def test_theta_values():
    t4 = theta_cocycle(4)
    assert t4(0, 3) == 1
    assert t4(0, 0) == 0
    assert t4(2, 0) == 0
    assert all(t4(0, y) == 1 for y in range(1, 5))
    with pytest.raises(ValueError):
        theta_cocycle(0)


def test_symmetric_cohomology_known_values():
    got = symmetric_cohomology(P3, (0, 2, 1), 2, "Z2")
    assert got.rank == 1 and str(got) == "F2^1"
    # same pipeline over other coefficients (frozen from the implementation)
    assert str(symmetric_cohomology(P3, (0, 2, 1), 2, "Z")) == "0"
    assert symmetric_cohomology(P3, (0, 2, 1), 2, "Q").rank == 0
    assert symmetric_cohomology(P3, (0, 2, 1), 2, "Z3").rank == 0
    # over Z: a free part that the relations leave, and torsion in degree 3
    assert str(symmetric_cohomology(trivial(4), (1, 0, 3, 2), 2, "Z")) == "Z^2"
    assert str(symmetric_cohomology(dihedral(4), (0, 3, 2, 1), 3, "Z")) == "Z/2"


def test_symmetric_cohomology_takes_a_symmetric_quandle():
    # a SymmetricQuandle stands for its rho, but only over its own quandle
    for q, rho, n in ((P3, (0, 2, 1), 2), (dihedral(4), (0, 3, 2, 1), 3)):
        sym = SymmetricQuandle(q, rho)
        assert symmetric_cohomology(q, sym, n, "Z") == symmetric_cohomology(q, rho, n, "Z")
    with pytest.raises(ValueError, match="^symmetric structure belongs to a different quandle$"):
        symmetric_cohomology(trivial(3), SymmetricQuandle(P3, (0, 2, 1)), 2, "Z")


def test_is_2cocycle_rejects_a_cochain_of_the_wrong_size():
    with pytest.raises(ValueError, match="^cochain size does not match the quandle$"):
        is_2cocycle(P3, Cocycle2.from_pairs(4, {}))


def test_symmetric_cohomology_rejects_bad_involution():
    with pytest.raises(ValueError):
        symmetric_cohomology(P3, (1, 0, 2), 2, "Z2")
    with pytest.raises(ValueError):
        symmetric_cohomology(p_quandle(3, parse_cycles("(1 2 3)", 3)),
                             (0, 1, 2, 3), 2, "Z2")


def _brute_force_symmetric_h2_mod2(q, rho):
    """Order of Z/(B cap Z) over GF(2), enumerating every cochain explicitly."""
    pairs = tuple_basis(q, 2)
    idx = {t: i for i, t in enumerate(pairs)}

    def value(f, x, y):
        return f[idx[(x, y)]] if (x, y) in idx else 0

    def is_cocycle(f):
        return all(
            (value(f, x, y) + value(f, q.op(x, y), z)
             + value(f, x, z) + value(f, q.op(x, z), q.op(y, z))) % 2 == 0
            for x, y, z in product(q.elements, repeat=3))

    def vanishes(f):
        for t in product(q.elements, repeat=2):
            for i in (1, 2):
                other = (tuple(q.op(v, t[i - 1]) for v in t[:i - 1])
                         + (rho[t[i - 1]],) + t[i:])
                if (value(f, *t) + value(f, *other)) % 2:
                    return False
        return True

    cocycles = {f for f in product((0, 1), repeat=len(pairs))
                if is_cocycle(f) and vanishes(f)}
    boundaries = set()
    for g in product((0, 1), repeat=q.m):
        df = tuple((g[x] + g[q.op(x, y)]) % 2 for x, y in pairs)
        boundaries.add(df)
    return len(cocycles) // len(cocycles & boundaries)


@pytest.mark.parametrize("q,rho", [
    (trivial(2), (0, 1)),
    (trivial(2), (1, 0)),
    (P3, (0, 2, 1)),
    (trivial(3), (0, 2, 1)),
])
def test_symmetric_cohomology_matches_brute_force_mod2(q, rho):
    expected_order = _brute_force_symmetric_h2_mod2(q, rho)
    got = symmetric_cohomology(q, rho, 2, "Z2")
    assert 2**got.rank == expected_order


SYMMETRIC_ORACLE_QUANDLES = {
    **{f"T{m}": trivial(m) for m in (3, 4)},
    **{f"R{m}": dihedral(m) for m in (3, 4, 5, 6)},
    **{f"P{n} {format_cycles(sigma)}": p_quandle(n, sigma)
       for n in (1, 2, 3, 4) for sigma in conjugacy_class_representatives(n)},
}


@pytest.mark.parametrize("name", SYMMETRIC_ORACLE_QUANDLES)
def test_symmetric_cohomology_matches_two_kernel_oracle(name):
    q = SYMMETRIC_ORACLE_QUANDLES[name]
    for sym in good_involutions(q):
        for n in (2, 3):
            got = symmetric_cohomology(q, sym.rho, n, "Z")
            assert (got.rank, got.torsion) == two_kernel_symmetric_cohomology_z(q, sym.rho, n)


def test_symmetric_relations_rows_respected_by_kernel():
    # the cochains over GF(2) that delta_out and every relation row kill,
    # counted one by one, number 2^(c_n - rank S)
    sl = cochain_slice(P3, 2, (0, 2, 1))
    c_n = len(sl.basis)
    stacked = dense(sl.delta_out + sl.relations, c_n)
    assert c_n == 6
    killed = sum(
        all(sum(r * v for r, v in zip(row, vec)) % 2 == 0 for row in stacked)
        for vec in product((0, 1), repeat=c_n))
    assert killed == 2 ** (c_n - linalg.rank(sl.delta_out + sl.relations, 2))


def _flipped(matrix, cols, r, c):
    """A copy of matrix, whose rows are cols cells wide, with 1 added to entry (r, c)."""
    rows = dense(matrix, cols)
    rows[r][c] += 1
    return tuple(sparse(rows))


def test_slice_with_nonzero_composite_is_rejected():
    sl = cochain_slice(P3, 2)
    i = next(i for i, row in enumerate(sl.delta_in) if any(row))
    with pytest.raises(AssertionError):
        replace(sl, delta_out=_flipped(sl.delta_out, len(sl.basis), 0, i))
    # defects in the last row and column catch a row scan that stops short
    for n in (2, 3):
        sl = cochain_slice(dihedral(3), n)
        c_n, c_below = len(sl.basis), len(sl.basis_below)
        last_in, last_out = c_n - 1, len(sl.basis_above) - 1
        assert any(sl.delta_in[last_in])  # so the corner flip adds a nonzero row
        i = next(i for i, row in enumerate(sl.delta_in) if any(row))
        k = next(k for k in range(c_n) if any(row[k] for row in dense(sl.delta_out, c_n)))
        for bad in ({"delta_out": _flipped(sl.delta_out, c_n, last_out, last_in)},
                    {"delta_out": _flipped(sl.delta_out, c_n, last_out, i)},
                    {"delta_in": _flipped(sl.delta_in, c_below, k, c_below - 1)}):
            with pytest.raises(AssertionError):
                replace(sl, **bad)


SLICE_ORACLE_QUANDLES = {
    **{f"T{m}": trivial(m) for m in (1, 2, 3, 4, 5)},
    **{f"R{m}": dihedral(m) for m in (3, 4, 5, 6, 7)},
    **{f"P{n} {format_cycles(sigma)}": p_quandle(n, sigma)
       for n in (1, 2, 3, 4) for sigma in conjugacy_class_representatives(n)},
}


@pytest.mark.parametrize("name", SLICE_ORACLE_QUANDLES)
def test_slice_matches_the_product_filter_and_face_loop(name):
    q = SLICE_ORACLE_QUANDLES[name]
    for n in range(5):
        assert tuple_basis(q, n) == product_tuple_basis(q, n)
    for rho in [None] + [sym.rho for sym in good_involutions(q)]:
        for n in (2, 3):
            sl = cochain_slice(q, n, rho)
            below, basis, above = (tuple(product_tuple_basis(q, k)) for k in (n - 1, n, n + 1))
            assert (sl.basis_below, sl.basis, sl.basis_above) == (below, basis, above)
            for delta, rows, cols in ((sl.delta_in, basis, below), (sl.delta_out, above, basis)):
                assert dense(delta, len(cols)) == list(face_loop_coboundary_rows(q, rows, cols))
            if rho is None:
                assert sl.relations is None
            else:
                # the same rows; their order is the library's own
                assert (sorted(dense(sl.relations, len(basis)))
                        == sorted(map(list, dense_relation_rows(q, rho, n, basis))))


@pytest.mark.parametrize("name", ORACLE_QUANDLES)
def test_every_block_row_is_sorted_nonzero_pairs(name):
    # each row of delta_in, delta_out and the relations of every block is a
    # tuple of (column, value) pairs: columns increasing and below the width
    # of the basis they index, and no value zero
    q = load_quandle(name)
    for rho in [None] + [sym.rho for sym in good_involutions(q)]:
        for n in (2, 3):
            for _, sl in cohomology._blocks(q, n, rho, split=True):
                assert (sl.relations is None) == (rho is None)
                for rows, cols in ((sl.delta_in, sl.basis_below), (sl.delta_out, sl.basis),
                                   (sl.relations or (), sl.basis)):
                    assert type(rows) is tuple
                    for row in rows:
                        assert type(row) is tuple and all(
                            type(pair) is tuple and len(pair) == 2 for pair in row), row
                        columns = [c for c, _ in row]
                        assert columns == sorted(set(columns)), row
                        assert all(0 <= c < len(cols) for c in columns), row
                        assert all(type(v) is int and v for _, v in row), row


def test_coeff_parsing():
    assert Coeff.parse("Z").kind == "Z"
    assert Coeff.parse("Q").kind == "Q"
    assert Coeff.parse("Z7") == Coeff("Zp", 7)
    with pytest.raises(ValueError):
        Coeff.parse("Z4")
    with pytest.raises(ValueError):
        Coeff.parse("GF2")


def test_summary_strings():
    assert str(cohomology_Q(P3, 2, "Z")) == "Z^2"
    assert str(cohomology_Q(P3, 2, "Q")) == "Q^2"
    assert str(cohomology_Q(P3, 2, "Z2")) == "F2^2"


def _orbits(q):
    """Each element's orbit of the inner group, as a frozenset: its class
    under x ~ x*y."""
    orbit = {}
    for start in q.elements:
        if start in orbit:
            continue
        seen, pending = {start}, [start]
        while pending:
            for z in q.table[pending.pop()]:
                if z not in seen:
                    seen.add(z)
                    pending.append(z)
        orbit.update(dict.fromkeys(seen, frozenset(seen)))
    return [orbit[x] for x in q.elements]


def _orbit_count(q):
    return len(set(_orbits(q)))


FREE_RANK_QUANDLES = {
    **{f"T{m}": trivial(m) for m in (1, 2, 3, 4)},
    **{f"R{m}": dihedral(m) for m in (3, 4, 5, 6)},
    "P4(1 2)": p_quandle(4, parse_cycles("(1 2)", 4)),
    "P3(1 2 3)": p_quandle(3, parse_cycles("(1 2 3)", 3)),
}


# H^5(R5) takes about 11 s, and H^5(R6) is over the default cap
@pytest.mark.parametrize("name, n", [
    (name, n) for name in FREE_RANK_QUANDLES for n in (2, 3, 4, 5)
    if n < 5 or name not in ("R5", "R6")])
def test_free_rank_is_orbit_formula(name, n):
    # rank H^n_Q(X) = o(o-1)^(n-1) for o orbits (Etingof & Grana 2003;
    # Litherland & Nelson 2003)
    q = FREE_RANK_QUANDLES[name]
    o = _orbit_count(q)
    assert cohomology_Q(q, n, "Z").rank == o * (o - 1) ** (n - 1)


# R4 + R3 has no trivial column and three orbits of sizes 2, 2 and 3
ORBIT_SPLIT_QUANDLES = {
    **{f"R{m}": dihedral(m) for m in (4, 6, 8)},
    "R4+R3": disjoint_union(dihedral(4), dihedral(3)),
}


@pytest.mark.parametrize("name", ORBIT_SPLIT_QUANDLES)
def test_coboundaries_keep_the_orbit_of_the_first_entry(name):
    # the two faces that delete x_1 cancel, and every other face acts on x_1
    # by a column, so no entry of the whole slice joins two orbits of x_1
    q = ORBIT_SPLIT_QUANDLES[name]
    orbit = _orbits(q)
    for n in (2, 3):
        sl = cochain_slice(q, n)
        for delta, rows, cols in ((sl.delta_in, sl.basis, sl.basis_below),
                                  (sl.delta_out, sl.basis_above, sl.basis)):
            for t, row in zip(rows, dense(delta, len(cols))):
                assert all(orbit[s[0]] == orbit[t[0]] for s in compress(cols, row)), t


BLOCK_ORACLE_QUANDLES = {
    **{f"T{m}": trivial(m) for m in (1, 2, 3, 4, 5)},
    **{f"R{m}": dihedral(m) for m in (3, 4, 5, 6, 8)},
    "R4+R3": ORBIT_SPLIT_QUANDLES["R4+R3"],
    **{f"P{n} {format_cycles(sigma)}": p_quandle(n, sigma)
       for n in (1, 2, 3, 4) for sigma in conjugacy_class_representatives(n)},
}
COEFFS = ("Z", "Q", "Z2", "Z3")


@pytest.mark.parametrize("name", BLOCK_ORACLE_QUANDLES)
def test_blocks_match_the_whole_slice(name):
    # plain and symmetric H^2 and H^3, summed over the blocks, against one
    # dense slice of the whole complex built by the face loop
    q = BLOCK_ORACLE_QUANDLES[name]
    for rho in [None] + [sym.rho for sym in good_involutions(q)]:
        for n in (2, 3):
            got = [cohomology_Q(q, n, coeff) if rho is None
                   else symmetric_cohomology(q, rho, n, coeff) for coeff in COEFFS]
            assert got == whole_slice_cohomology(q, n, COEFFS, rho), (rho, n)


DEGREE_FOUR_QUANDLES = {
    "T3": trivial(3),
    **{f"R{m}": dihedral(m) for m in (3, 4, 5)},
    **{f"P{n} {format_cycles(sigma)}": p_quandle(n, sigma)
       for n in (1, 2, 3, 4) for sigma in conjugacy_class_representatives(n)},
}


@pytest.mark.parametrize("name", DEGREE_FOUR_QUANDLES)
def test_degree_four_matches_the_whole_complex(name):
    q = DEGREE_FOUR_QUANDLES[name]
    got = [cohomology_Q(q, 4, coeff) for coeff in COEFFS]
    assert got == whole_slice_cohomology(q, 4, COEFFS)
    # symmetric too, where the dense relation rows of the oracle stay small:
    # order 4 or less, and R5, whose one good involution is the identity
    for rho in [sym.rho for sym in good_involutions(q)] if q.m <= 4 or name == "R5" else ():
        got = [symmetric_cohomology(q, rho, 4, coeff) for coeff in ("Z", "Z2")]
        assert got == whole_slice_cohomology(q, 4, ("Z", "Z2"), rho), rho


def test_torsion_merges_across_blocks():
    # R4 with one more element 4 that acts, and is acted on, trivially. The
    # blocks with torsion in degree 4: x_1 in either orbit of R4, with no 4
    # (two Z/2) or with 4 once (one Z/2), and x_1 = 4 (two Z/2); the whole
    # complex has all eight. x -> x+1 on R4, fixing 4, swaps R4's orbits, so
    # the blocks with x_1 in R4 are built once each, for a class of two
    q = disjoint_union(dihedral(4), trivial(1))
    coeff = Coeff("Z")
    classes = [(k, part.torsion) for k, part in ((k, cohomology._cohomology(sl, coeff))
               for k, sl in cohomology._blocks(q, 4, None, split=True)) if part.torsion]
    assert classes == [(2, (2, 2)), (2, (2,)), (1, (2, 2))]
    torsion = [t for k, t in classes for _ in range(k)]
    assert sorted(torsion) == sorted([(2, 2), (2,), (2, 2), (2,), (2, 2)])
    got = cohomology_Q(q, 4, "Z")
    assert [got] == whole_slice_cohomology(q, 4, ("Z",))
    assert str(got) == "Z^24" + " (+) Z/2" * 8
    # no block of the T, R and P quandles tried here has torsion of two primes,
    # so the gcd/lcm merge of Z/2 and Z/3 from two blocks is checked directly
    parts = iter([AbelianGroupSummary(coeff, 1, (2,)), AbelianGroupSummary(coeff, 0, (3,))])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohomology, "_cohomology",
                   lambda sl, c: next(parts, AbelianGroupSummary(coeff, 0)))
        assert str(cohomology_Q(P3, 2, "Z")) == "Z^1 (+) Z/6"


def _seeded_relabelling(q, seed):
    return Quandle(relabelled_table(q.table, random.Random(seed).sample(range(q.m), q.m)))


# every class of order 3-5 that is not trivial, with a seeded relabelling;
# P(n, sigma) with two cycles of one length, fixed points included; and
# quandles with two Inn-orbits that an automorphism swaps
CLASS_QUANDLES = {
    **{f"order {m} #{i}{' relabelled' * r}": (_seeded_relabelling(q, 100 * m + i) if r else q,
                                              (2, 3) if r and m == 5 else (2, 3, 4))
       for m in range(3, 6) for i, q in enumerate(quandle_classes(m)) for r in (0, 1)
       if q != trivial(m)},
    **{f"P{n} {format_cycles(sigma)}": (p_quandle(n, sigma), (2, 3, 4) if n < 6 else (2, 3))
       for n in range(2, 7) for sigma in conjugacy_class_representatives(n)
       if sigma.cycle_type[0] > 1 and max(Counter(sigma.cycle_type).values()) > 1},
    **{f"R{m}": (dihedral(m), degrees)
       for m, degrees in {4: (2, 3, 4), 6: (2, 3), 8: (2, 3), 10: (2,)}.items()},
    "R3+R3": (disjoint_union(dihedral(3), dihedral(3)), (2, 3, 4)),
    "R4+R4": (disjoint_union(dihedral(4), dihedral(4)), (2, 3)),
}


def _listed(q, n):
    """The (n-1)-, n- and (n+1)-tuples that `_blocks` lists: the classes' hom budget."""
    return sum(q.m * (q.m - 1) ** (k - 1) for k in (n - 1, n, n + 1))


def _block_key(q, t):
    """The word of orbits of t's first entry and of its inert entries."""
    least, inert = q._orbits[0], cohomology._columns(q)[1]
    return (least[t[0]],) + tuple(least[y] for y in t[1:] if inert[y])


@pytest.mark.parametrize("name", CLASS_QUANDLES)
def test_every_block_of_a_class_has_its_representatives_group(name, monkeypatch):
    # each block is built alone, with the automorphism search made to find
    # nothing, and its group is compared with its class representative's
    q, degrees = CLASS_QUANDLES[name]
    for n in degrees:
        built = [(k, _block_key(q, sl.basis[0]), sl)
                 for k, sl in cohomology._blocks(q, n, None, split=True)]
        with monkeypatch.context() as mp:
            mp.setattr(cohomology, "_search", lambda *args: iter(()))
            alone = {_block_key(q, sl.basis[0]): (k, sl)
                     for k, sl in cohomology._blocks(q, n, None, split=True)}
        assert {k for k, _ in alone.values()} == {1}
        rep = cohomology._classes(q, alone, q._orbits[0], cohomology._columns(q),
                                  _listed(q, n))
        size = Counter(rep.values())
        assert {key: k for k, key, _ in built} == size, n
        assert all(sl.basis == alone[key][1].basis for _, key, sl in built)
        joined = [key for key in alone if size[rep[key]] > 1]
        assert joined or name.startswith("order"), n  # each of the others has a swap
        for coeff in map(Coeff.parse, COEFFS):
            group = {key: cohomology._cohomology(alone[key][1], coeff) for key in joined}
            assert all(group[key] == group[rep[key]] for key in joined), (n, coeff)


def test_classes_refuse_a_map_that_is_not_an_automorphism(monkeypatch):
    # R6's orbits are the evens and the odds: x -> x xor 1 swaps them but is
    # not a hom, and the constant map to 1 is a hom that is not a bijection
    q = dihedral(6)
    swap, constant = (1, 0, 3, 2, 5, 4), (1,) * 6
    assert not QuandleMap(q, q, swap).verify() and QuandleMap(q, q, constant).verify()
    for f in (swap, constant):
        with monkeypatch.context() as mp:
            mp.setattr(cohomology, "_search", lambda *args: iter([f]))
            with pytest.raises(AssertionError, match="not an automorphism"):
                cohomology_Q(q, 2, "Z")
    # the search finds x -> x+1 or another true automorphism: one block of two
    assert [k for k, _ in cohomology._blocks(q, 2, None, split=True)] == [2]


def _two_unjoined_orbits(head):
    """head beside p, q, c, d, e, f with S_p = (c d), S_q = (c d)(e f) and every
    other column the identity: {c, d} and {e, f} are inert orbits of one size
    that no automorphism joins, as p and q, of two cycle types, are fixed."""
    swaps = {0: {2: 3, 3: 2}, 1: {2: 3, 3: 2, 4: 5, 5: 4}}
    gadget = Quandle([[swaps.get(y, {}).get(x, x) for y in range(6)] for x in range(6)])
    return disjoint_union(head, gadget)


def test_classes_answer_within_the_cochain_charge(monkeypatch):
    # nine trivial points come first: a search that branched on them before
    # p and q would try 9! maps. Every answer is the one each block alone
    # gives, at a cap of the largest cochain charge: the 15 + 210 + 2,940
    # tuples listed in degree 2 and the 2,340 + 44,310 + ... in degree 3
    q = _two_unjoined_orbits(trivial(9))
    with monkeypatch.context() as mp:
        mp.setattr(cohomology, "_search", lambda *args: iter(()))
        alone = {n: [cohomology_Q(q, n, c) for c in COEFFS] for n in (2, 3)}
    assert [str(g) for g in alone[2]] == ["Z^156", "Q^156", "F2^156", "F3^156"]
    for n, cap in ((2, _listed(q, 2)), (3, _listed(q, 3))):
        monkeypatch.setenv("QUANDLE_SEARCH_CAP", str(cap))
        assert [cohomology_Q(q, n, c) for c in COEFFS] == alone[n], n
        monkeypatch.setenv("QUANDLE_SEARCH_CAP", str(cap - 1))
        with pytest.raises(SearchCapError, match=f"^cochain search exceeded {cap - 1} nodes$"):
            cohomology_Q(q, n, "Z")


def test_classes_stop_joining_past_their_budget(monkeypatch):
    # three R3s come first: the search that fails to join {c, d} with
    # {e, f} tries every map of them before it reaches p, and passes the
    # 3,165 tuples listed in degree 2. The R3s are joined before it; past
    # it nothing more is joined, and every answer is unchanged
    q = _two_unjoined_orbits(disjoint_union(disjoint_union(dihedral(3), dihedral(3)), dihedral(3)))
    budgets, search = [], cohomology._search
    with monkeypatch.context() as mp:
        mp.setattr(cohomology, "_search", lambda *args: iter(()))
        alone = [cohomology_Q(q, 2, c) for c in COEFFS]
    monkeypatch.setattr(cohomology, "_search", lambda *args: budgets.append(args[-1]) or search(*args))
    assert [cohomology_Q(q, 2, c) for c in COEFFS] == alone
    assert {(b.nodes, b.cap) for b in budgets} == {(_listed(q, 2) + 1, _listed(q, 2))}
    # the blocks of first entries 0, 3 and 6 (the R3s), with no inert entry,
    # with one in {c, d} = {11, 12} or one in {e, f} = {13, 14}: three classes
    classes = [(k, _block_key(q, sl.basis[0])) for k, sl in cohomology._blocks(q, 2, None, split=True)]
    assert [key for k, key in classes if k > 1] == [(0,), (0, 11), (0, 13)]
    assert {k for k, _ in classes} == {1, 3} and len(classes) == 15


FACE_QUANDLES = {**UCT_QUANDLES, **{f"order 5 #{i}": q for i, q in enumerate(quandle_classes(5))}}


@pytest.mark.parametrize("name", FACE_QUANDLES)
def test_only_a_trivial_quandle_has_a_slice_without_faces(name):
    # split, every block that holds an n-tuple also holds an (n-1)-, an
    # (n+1)- or a relation tuple, except in a trivial quandle with no rho:
    # that is one slice of all the n-tuples, built without listing blocks
    q = FACE_QUANDLES[name]
    is_trivial = all(set(row) == {x} for x, row in enumerate(q.table))
    for rho in [None] + [sym.rho for sym in good_involutions(q)][:3]:
        for n in (2, 3, 4) if q.m <= 6 else (2, 3):
            slices = [sl for _, sl in cohomology._blocks(q, n, rho, split=True)]
            if is_trivial and rho is None:
                assert [sl.basis for sl in slices] == [tuple(tuple_basis(q, n))], n
                continue
            for sl in slices:
                assert not sl.basis or sl.basis_below or sl.basis_above or sl.relations, (
                    rho, n, sl.basis)


@pytest.mark.parametrize("m", range(1, 7))
def test_trivial_quandles_are_free_on_their_n_tuples(m):
    # every face of T_m cancels, so H^n is free on the c_n = m(m-1)^(n-1)
    # non-degenerate n-tuples over every coefficient ring; all of degrees
    # 2-6 are under the default cap
    q = trivial(m)
    for n in range(2, 7):
        c = m * (m - 1) ** (n - 1)
        got = [cohomology_Q(q, n, coeff) for coeff in COEFFS]
        assert got == [AbelianGroupSummary(Coeff.parse(coeff), c) for coeff in COEFFS], n
        if c * c * (m - 1) <= 2 * 10**5:  # the oracle's dense delta_out stays small
            assert got == whole_slice_cohomology(q, n, COEFFS), n


def test_the_empty_quandle_has_zero_cohomology():
    # no element, so no n-tuple: every cochain group is 0, over every ring and
    # with or without rho, and the orbit-weighted block charge has no m^2 to divide by
    q = Quandle(())
    for n in (2, 3, 4):
        for rho in (None, ()):
            got = [cohomology_Q(q, n, coeff) if rho is None
                   else symmetric_cohomology(q, rho, n, coeff) for coeff in COEFFS]
            assert list(map(str, got)) == ["0", "Q^0", "F2^0", "F3^0"], (n, rho)
    sl = cochain_slice(q, 2)
    assert (sl.basis_below, sl.basis, sl.basis_above, sl.delta_in, sl.delta_out) == ((),) * 5
    assert two_cocycle_basis(q) == []


@pytest.mark.parametrize("m", range(2, 7))
def test_symmetric_cohomology_of_trivial_quandles(m):
    # with rho, a trivial quandle still goes through the blocks. rho swaps 0
    # and 1 and fixes the rest; the values are pinned from the implementation
    # (over F2 they fit (m-1)(m-2)^(n-1)), and match the whole slice where small
    q, rho = trivial(m), (1, 0, *range(2, m))
    for n in (2, 3, 4):
        got = [symmetric_cohomology(q, rho, n, coeff) for coeff in COEFFS]
        assert list(map(str, got)) == ["0", "Q^0", f"F2^{(m - 1) * (m - 2) ** (n - 1)}",
                                       "F3^0"], n
        if m ** (2 * n) <= 10**4:
            assert got == whole_slice_cohomology(q, n, COEFFS, rho), n


@pytest.mark.parametrize("q, n", [
    (dihedral(3), 7), (dihedral(4), 5), (trivial(3), 6), (p_quandle(3, parse_cycles("(1 2)", 3)), 5),
], ids=["R3", "R4", "T3", "P3 (1 2)"])
def test_symmetric_cohomology_above_degree_three_matches_the_whole_slice(q, n):
    # the library makes its relation rows from the basis n-tuples alone; the
    # oracle makes them from every n-tuple, degenerate ones included (the
    # identity is R3's one good involution)
    for rho in [sym.rho for sym in good_involutions(q)]:
        got = symmetric_cohomology(q, rho, n, "Z")
        assert [got] == whole_slice_cohomology(q, n, ("Z",), rho), rho


S4 = symmetric_group_elements(4)


@pytest.mark.parametrize("q, rho, group", [
    # H^4(R_p; Z) = Z_p for p = 3, 5, as H_3^Q(R_p) = Z_p (Niebrzydowski &
    # Przytycki, JPAA 2009) under universal coefficients, with no free part
    (dihedral(3), None, "Z/3"),
    (dihedral(5), None, "Z/5"),
    # each order-6 value equalled whole_slice_cohomology, which would double
    # the time of its case, so only the values are pinned here
    (dihedral(6), None, "Z^2 (+) Z/3 (+) Z/3"),
    (dihedral(6), (3, 4, 5, 0, 1, 2), "Z/3"),  # rho swaps the two orbits
    (conjugation_quandle([p for p in S4 if sum(x != i for i, x in enumerate(p)) == 2]),
     None, "Z/6"),
    (conjugation_quandle([p for p in S4 if all(p[p[i]] != i for i in range(4))]),
     None, "Z/24"),
], ids=["R3", "R5", "R6", "R6-rho", "S4-transpositions", "S4-4-cycles"])
def test_degree_four_without_a_trivial_column(q, rho, group):
    got = cohomology_Q(q, 4, "Z") if rho is None else symmetric_cohomology(q, rho, 4, "Z")
    assert str(got) == group


@pytest.mark.parametrize("sigma, group", [("(1 2)(3 4)(5 6)", "Z^108"), ("(1 2 3)", "Z^750")])
def test_degree_four_of_one_column_quandles(sigma, group):
    # o(o-1)^3 with o = 4 and o = 6 orbits; their whole slices are far over the cap
    n = 6 if group == "Z^108" else 7
    assert str(cohomology_Q(p_quandle(n, parse_cycles(sigma, n)), 4, "Z")) == group
