"""Every quandle of order at most 5, as an oracle for `aut` and `is_isomorphic`
on quandles that are not trivial, dihedral or one-column."""

import json
import random

import pytest

from helpers import (
    brute_force_automorphisms,
    cycle_text,
    labelled_quandles,
    quandle_classes,
    relabelled_table,
)
from quandles import Quandle, is_isomorphic
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
            assert f is not None and f.is_bijective() and f.verify(), q.table
            assert all(is_isomorphic(q, other) is None for other, _ in classes[m] if other != q)
