"""Finite quandles, their algebraic invariants, and quandle-valued link invariants."""

import types as _types

from .cohomology import (
    AbelianGroupSummary,
    CochainComplexSlice,
    Cocycle2,
    Coeff,
    boundary_matrix,
    cochain_slice,
    cohomology_Q,
    is_2cocycle,
    symmetric_cohomology,
    theta_cocycle,
    tuple_basis,
    two_cocycle_basis,
)
from .invariants import (
    SymmetricQuandle,
    TwoVarPolynomial,
    good_involutions,
    p_polynomial_formula,
    quandle_polynomial,
)
from .limits import SearchCapError
from .links import (
    Coloring,
    Crossing,
    DiagramError,
    LinkDiagram,
    LinkingGraph,
    colorings,
    linking_graph,
    linking_number,
    parse_diagram,
    synthesize_link,
)
from .morphisms import (
    FiniteGroupTable,
    QuandleMap,
    automorphism_group,
    endomorphisms,
    homs,
    hom_quandle,
    inner_group,
    is_isomorphic,
    relabel_quandle,
)
from .permutations import (
    Permutation,
    all_permutations,
    centralizer,
    compose,
    conjugacy_class_representatives,
    conjugator,
    format_cycles,
    inverse,
    is_conjugate,
    orbits,
    order,
    parse_cycles,
)
from .quandle import AxiomError, Quandle, dihedral, p_quandle, trivial
from .quiver import (
    GroupRingElement,
    Quiver,
    cocycle_invariant,
    quiver,
    quiver_dot,
    quiver_isomorphic,
    theta_weight,
)

# the names imported above; the imports also bind each submodule, which is left out
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _types.ModuleType)]
__version__ = "0.1.0"
