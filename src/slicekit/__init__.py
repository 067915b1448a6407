"""slicekit: exact analysis of slices of base-n self-similar sets.

Given digit sets A_i inside {0..n-1} and nonzero integer coefficients m_i,
the package studies how many ways a real x can be written as
sum_i m_i y_i with each y_i in the self-similar set built from A_i, and the
Hausdorff dimension / measure of the sets of x with a prescribed number of
representations.  All geometry is exact rational arithmetic; spectral radii
and dimension values are certified enclosures.

``import slicekit`` loads the layers that compute the answers.  The
brute-force oracle, the test suite's independent cross-check, loads on
first use: ``slicekit.oracle`` is imported the first time one of its names
is read from the package.
"""

__version__ = "0.1.0"

from .analysis import (
    RSearchResult,
    U1Report,
    UrReport,
    WitnessExpansion,
    dim_u1,
    dim_ur,
    enumerate_achievable_r,
    measure_ur,
    witness_ur,
)
from .counting import (
    CardResult,
    NadicExpansion,
    cube_count_vector,
    exact_card,
    expansion_value,
    lyapunov_estimate,
    nadic_expansion,
)
from .graphs import (
    CongruentGraph,
    FullGraph,
    SccDecomposition,
    XiGraph,
    build_congruent_graph,
    build_full_graph,
    build_xi_graph,
    psi_step,
    scc,
)
from .instance import ProblemInstance, parse_instance, serialize
from .lattice import (
    IntegerInterval,
    SmallCube,
    TypeAssignment,
    covering_condition,
    enumerate_integer_intervals,
    strong_separation,
    type_assignment,
    xi_set,
)
from .spectral import (
    CountMatrix,
    RadiusResult,
    char_poly,
    compare_radii,
    irreducible,
    spectral_radius,
    transition_matrices,
)

__all__ = [
    "ProblemInstance",
    "parse_instance",
    "serialize",
    "IntegerInterval",
    "SmallCube",
    "TypeAssignment",
    "enumerate_integer_intervals",
    "covering_condition",
    "strong_separation",
    "type_assignment",
    "xi_set",
    "FullGraph",
    "XiGraph",
    "CongruentGraph",
    "SccDecomposition",
    "build_full_graph",
    "build_xi_graph",
    "build_congruent_graph",
    "scc",
    "psi_step",
    "CountMatrix",
    "RadiusResult",
    "transition_matrices",
    "spectral_radius",
    "irreducible",
    "compare_radii",
    "char_poly",
    "NadicExpansion",
    "CardResult",
    "nadic_expansion",
    "cube_count_vector",
    "exact_card",
    "expansion_value",
    "lyapunov_estimate",
    "U1Report",
    "RSearchResult",
    "UrReport",
    "WitnessExpansion",
    "dim_u1",
    "enumerate_achievable_r",
    "dim_ur",
    "measure_ur",
    "witness_ur",
    "CubeChain",
    "brute_force_cube_count",
    "brute_force_solutions",
]

_ORACLE_NAMES = frozenset(("CubeChain", "brute_force_cube_count", "brute_force_solutions"))


def __getattr__(name):
    # Read from the oracle module on every access and never bound here, so
    # a wrapper installed on slicekit.oracle's attribute is what a caller
    # gets, and putting the original back there leaves no copy behind.
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
