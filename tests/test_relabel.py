"""Cohomology, symmetric cohomology and the quandle polynomial are invariants:
renaming the elements of a quandle must not change them."""

from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import (
    cohomology_Q,
    conjugacy_class_representatives,
    dihedral,
    good_involutions,
    p_quandle,
    quandle_polynomial,
    relabel_quandle,
    symmetric_cohomology,
    trivial,
)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

# every constructor quandle of order at most 5
SMALL = ([trivial(m) for m in range(1, 6)] + [dihedral(m) for m in range(3, 6)]
         + [p_quandle(n, sigma) for n in range(1, 5)
            for sigma in conjugacy_class_representatives(n)])
SYMMETRIC = [(q, sym.rho) for q in SMALL for sym in good_involutions(q)]


@PROPERTY
@given(st.sampled_from(SMALL), st.data())
def test_cohomology_and_polynomial_survive_relabelling(q, data):
    r = relabel_quandle(q, data.draw(st.permutations(range(q.m))))
    assert quandle_polynomial(r) == quandle_polynomial(q)
    for n in (2, 3):
        for coeff in ("Z", "Q", "Z3"):
            assert str(cohomology_Q(r, n, coeff)) == str(cohomology_Q(q, n, coeff))


@PROPERTY
@given(st.sampled_from(SYMMETRIC), st.data())
def test_symmetric_cohomology_survives_relabelling(case, data):
    q, rho = case
    order = data.draw(st.permutations(range(q.m)))
    pos = {old: new for new, old in enumerate(order)}
    relabelled_rho = [pos[rho[old]] for old in order]
    r = relabel_quandle(q, order)
    for n in (2, 3):
        assert (str(symmetric_cohomology(r, relabelled_rho, n, "Z"))
                == str(symmetric_cohomology(q, rho, n, "Z")))
