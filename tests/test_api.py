"""The package's public names: ``slicekit.__all__`` is what the commands
and the report run, and the definitions only the tests read live in
``tests/helpers.py``."""

import importlib

import slicekit

PUBLIC = [
    "CardResult",
    "CongruentGraph",
    "CountMatrix",
    "CubeChain",
    "ProblemInstance",
    "RSearchResult",
    "RadiusResult",
    "SccDecomposition",
    "U1Report",
    "UrReport",
    "WitnessExpansion",
    "brute_force_cube_count",
    "brute_force_solutions",
    "build_congruent_graph",
    "compare_radii",
    "covering_condition",
    "dim_u1",
    "dim_ur",
    "enumerate_achievable_r",
    "exact_card",
    "expansion_value",
    "lyapunov_estimate",
    "parse_instance",
    "scc",
    "spectral_radius",
    "strong_separation",
    "transition_matrices",
    "witness_ur",
]

ORACLE = ["CubeChain", "brute_force_cube_count", "brute_force_solutions"]

# Names the package no longer defines, by the module that held each.
REMOVED = {
    "instance": ["serialize"],
    "lattice": [
        "IntegerInterval", "SmallCube", "TypeAssignment", "enumerate_integer_intervals",
        "make_interval", "type_assignment", "unique_type", "xi_set",
    ],
    "graphs": [
        "FullGraph", "XiGraph", "build_full_graph", "build_xi_graph", "psi_step",
        "subset_successor",
    ],
    "spectral": ["_berkowitz", "_perron_window", "char_poly", "irreducible"],
    "counting": ["NadicExpansion", "cube_count_vector", "nadic_expansion"],
    "analysis": ["_dim_ur", "measure_ur"],
    "report": ["data_section"],
    "errors": ["BoundaryPoint", "NotInterior", "NotInXi"],
}


def test_public_names():
    """``__all__`` is exactly the listed names; each resolves, the
    oracle's through the package's module ``__getattr__`` and never bound
    on the package; no removed name resolves, on the package or on the
    module that held it."""
    assert sorted(slicekit.__all__) == PUBLIC
    for name in PUBLIC:
        value = getattr(slicekit, name)
        if name in ORACLE:
            assert name not in vars(slicekit)
            assert value.__module__ == "slicekit.oracle"
        else:
            assert vars(slicekit)[name] is value
    for module, names in REMOVED.items():
        held = importlib.import_module(f"slicekit.{module}")
        for name in names:
            assert not hasattr(slicekit, name), name
            assert not hasattr(held, name), f"{module}.{name}"
