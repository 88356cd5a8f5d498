"""Every quandle of order at most 5, as an oracle for `aut` and `is_isomorphic`
on quandles that are not trivial, dihedral or one-column."""

import json
import random
from itertools import product

import pytest

from helpers import (
    brute_force_automorphisms,
    cell_scan_validate,
    cycle_text,
    labelled_quandles,
    quandle_classes,
    relabelled_table,
)
from quandles import AxiomError, Quandle, is_isomorphic
from quandles.cli import main

ORDERS = range(1, 6)


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
