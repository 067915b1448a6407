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
from .counting import CardResult, exact_card, expansion_value, lyapunov_estimate
from .graphs import (
    CongruentGraph,
    SccDecomposition,
    build_congruent_graph,
    scc,
)
from .instance import ProblemInstance, parse_instance
from .lattice import (
    IntegerInterval,
    covering_condition,
    enumerate_integer_intervals,
    strong_separation,
)
from .spectral import (
    CountMatrix,
    RadiusResult,
    char_poly,
    compare_radii,
    spectral_radius,
    transition_matrices,
)

__all__ = [
    "ProblemInstance",
    "parse_instance",
    "IntegerInterval",
    "enumerate_integer_intervals",
    "covering_condition",
    "strong_separation",
    "CongruentGraph",
    "SccDecomposition",
    "build_congruent_graph",
    "scc",
    "CountMatrix",
    "RadiusResult",
    "transition_matrices",
    "spectral_radius",
    "compare_radii",
    "char_poly",
    "CardResult",
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
