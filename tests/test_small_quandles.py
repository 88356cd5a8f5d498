"""Every quandle of order at most 5, as an oracle for `aut` and `is_isomorphic`
on quandles that are not trivial, dihedral or one-column."""

import json
import random
from itertools import combinations, permutations, product

import pytest

from helpers import (
    brute_force_automorphisms,
    cell_law_defect,
    cell_scan_validate,
    composition_table,
    conjugation_quandle,
    cycle_text,
    inner_images,
    labelled_quandles,
    quandle_classes,
    relabelled_table,
)
from quandles import (
    AxiomError,
    Quandle,
    dihedral,
    good_involutions,
    inner_group,
    invariants,
    is_isomorphic,
)
from quandles.cli import main

ORDERS = range(1, 6)
# the conjugation quandle of the six transpositions of S4
S4_TRANSPOSITIONS = conjugation_quandle(
    [p for p in permutations(range(4)) if sum(x != i for i, x in enumerate(p)) == 2])


@pytest.fixture(scope="module")
def classes():
    """Each class of each order, with one seeded relabelling of it."""
    rng = random.Random(20261019)
    return {m: [(q, Quandle(relabelled_table(q.table, rng.sample(range(m), m))))
                for q in quandle_classes(m)] for m in ORDERS}


def test_counts_of_labelled_tables_and_classes(classes):
    # Ho & Nelson, "Matrices and finite quandles", Homology Homotopy Appl. 2005
    assert [len(labelled_quandles(m)) for m in ORDERS] == [1, 1, 5, 36, 404]
    assert [len(classes[m]) for m in ORDERS] == [1, 1, 3, 7, 22]


def test_aut_lists_the_brute_force_automorphisms(capsys, tmp_path, classes):
    for m in ORDERS:
        for i, pair in enumerate(classes[m]):
            for j, q in enumerate(pair):
                path = tmp_path / f"q{m}_{i}_{j}.json"
                path.write_text(q.to_json())
                auts = brute_force_automorphisms(q)
                lines = [f"|Aut| = {len(auts)}", *map(cycle_text, auts)]
                payload = {"order": len(auts), "maps": [list(f) for f in auts]}
                for extra, expected in (((), "\n".join(lines)),
                                        (("--json",), json.dumps(payload, sort_keys=True))):
                    assert main(["aut", str(path), *extra]) == 0
                    assert capsys.readouterr() == (expected + "\n", ""), (q.table, extra)


def test_is_isomorphic_tells_the_classes_apart(classes):
    for m in ORDERS:
        for q, relabelled in classes[m]:
            f = is_isomorphic(q, relabelled)
            assert f is not None and f.verify(), q.table
            assert len(set(f.image)) == f.source.m == f.target.m, q.table
            assert all(is_isomorphic(q, other) is None for other, _ in classes[m] if other != q)


def test_inner_group_and_orbits_come_from_the_generators_columns(classes):
    # the generators' distinct columns generate Inn, so closing them gives the
    # group and the orbits that closing every column does; S4's transpositions
    # are generated by three of their six columns
    zoo = [q for m in ORDERS for pair in classes[m] for q in pair] + [S4_TRANSPOSITIONS]
    for q in zoo:
        inn = inner_images(q)
        assert inner_group(q).table == composition_table(inn).table, q.table
        least, moves = q._orbits
        for x in q.elements:
            orbit = {g[x] for g in inn}
            assert least[x] == min(orbit), q.table
            # one inner map per other point of the orbit, taking its least point there
            others = sorted(orbit - {x}) if least[x] == x else []
            assert sorted(g[x] for g in moves[x]) == others, q.table
            assert set(moves[x]) <= set(inn), q.table


def _axiom_error(check, table):
    try:
        check(table)
    except AxiomError as exc:
        return exc.axiom, exc.witness, str(exc)
    return None


def _with(table, cells):
    """table with each (x, y, v) of cells written in."""
    rows = [list(row) for row in table]
    for x, y, v in cells:
        rows[x][y] = v
    return tuple(map(tuple, rows))


def test_column_check_raises_the_cell_scan_error_on_every_one_cell_mutation(classes):
    # every labelled table of order <= 4 and every class of order 5, each with
    # one cell set to each value in 0..m (m is out of range). A changed cell
    # breaks its column's bijection, so swapping two off-diagonal cells of a
    # column is what reaches self-distributivity
    tables = [q.table for m in range(5) for q in labelled_quandles(m)]
    tables += [q.table for q, _ in classes[5]]
    seen = set()
    for t in tables:
        m = len(t)
        for x, y in product(range(m), repeat=2):
            seen.update(_with(t, [(x, y, v)]) for v in range(m + 1))
            seen.update(_with(t, [(x, y, t[w][y]), (w, y, t[x][y])])
                        for w in range(x + 1, m) if y not in (x, w))
    found = [_axiom_error(Quandle, t) for t in seen]
    assert found == [_axiom_error(cell_scan_validate, t) for t in seen]
    axioms = {f[0] for f in found if f}
    assert axioms == {"range", "idempotence", "column-bijection", "self-distributivity"}
    assert len(seen) > 4000 and None in found


def test_axiom_check_raises_the_cell_scan_error_on_every_two_cell_column_swap():
    # R7, R9 and R11 are generated by 0 and 1, the S4 transpositions by three of
    # the six, so most swapped columns are not a generator's: composing the
    # generators' columns finds the failure, and the scan of every column then
    # gives the witness that the cell scan finds
    cases = [dihedral(7), dihedral(9), dihedral(11), S4_TRANSPOSITIONS]
    assert [q._gens for q in cases] == [[0, 1], [0, 1], [0, 1], [0, 1, 3]]
    for q in cases:
        t = q.table
        swapped = [_with(t, [(x, y, t[w][y]), (w, y, t[x][y])])
                   for y in q.elements for x, w in combinations(q.elements, 2) if y not in (x, w)]
        found = [_axiom_error(Quandle, s) for s in swapped]
        assert found == [_axiom_error(cell_scan_validate, s) for s in swapped], q.table
        assert {f[0] for f in found} == {"self-distributivity"}
        assert len({f[1] for f in found}) > q.m  # many distinct witnesses, not a few


def _involutions(m: int) -> list:
    """Every involution of 0..m-1 as an image tuple, in lex order."""
    def build(image, rest):  # rest: the unpaired points; the least is paired with each
        if not rest:
            yield tuple(image)
        for y in rest:
            image[rest[0]], image[y] = y, rest[0]
            yield from build(image, [z for z in rest[1:] if z != y])
    return sorted(build([0] * m, list(range(m))))


def test_good_involution_laws_on_the_generators_match_the_cell_scan(classes):
    # rho commuting with the generators' columns commutes with Inn, which they
    # generate; the defect check and the walk's keep-check both rest on that.
    # Every permutation of the order <= 5 classes and their relabellings, and
    # every involution of R7-R11 and of the S4 transpositions, against the cells
    zoo = [q for m in ORDERS for pair in classes[m] for q in pair]
    wider = [dihedral(m) for m in range(7, 12)] + [S4_TRANSPOSITIONS]
    for q in zoo + wider:
        perms = list(permutations(q.elements)) if q in zoo else _involutions(q.m)
        assert [invariants._good_involution_defect(q, rho) for rho in perms] == [
            cell_law_defect(q, rho) for rho in perms], q.table
        good = [rho for rho in _involutions(q.m) if cell_law_defect(q, rho) is None]
        assert list(invariants._good_involutions(q)) == good, q.table
        assert [s.rho for s in good_involutions(q)] == good, q.table
