"""The per-layer metrics a traced run reports, computed from tracer dumps.

Counts are per op of the workload (one ``build_report``, one
``exact_card`` query or one CLI process), so runs of different lengths
compare.  Self times are shares of the traced ops' total wall time:
the most a faster layer can save (self time is the span minus its wrapped
children).  A layer the workload never enters reads 0.
"""

from __future__ import annotations

CALLS = (
    "graphs.build_congruent_graph",
    "graphs.scc",
    "analysis.dim_u1",
    "spectral.spectral_radius",
    "spectral.radii_equal",
    "lattice.xi_types",
    "spectral.transition_matrices",
    "counting.advance_state",
    "lattice.covering_condition",
    "lattice.strong_separation",
)
SELF_SHARE = (
    "graphs.congruent_vertices",
    "graphs.scc",
    "spectral.spectral_radius",
    "spectral.radii_equal",
    "lattice.xi_types",
    "analysis.enumerate_achievable_r",
    "analysis.dim_ur",
    "analysis.witness_ur",
    "report.build_report",
    "counting.advance_state",
    "counting.exact_card",
    "counting.lyapunov_estimate",
    "instance.parse_instance",
)
# The oracle runs only in the output check, outside the timed phase.
CHECK_LAYER = "oracle.brute_force_cube_count"

# Call counts printed per op of a traced run.
PER_OP_KEYS = (
    "analysis.dim_u1",
    "graphs.build_congruent_graph",
    "spectral.spectral_radius",
)


def _subset_graph(counters, graph) -> None:
    counters["subset_vertices"] = counters.get("subset_vertices", 0) + len(graph.vertices)


def _radii_equal(counters, result) -> None:
    counters["radii_exact"] = counters.get("radii_exact", 0) + (result[1] == "exact")


def _search(counters, search) -> None:
    counters["reachable_vectors"] = counters.get("reachable_vectors", 0) + len(search.vectors)


def _slice_state(counters, state) -> None:
    size = state.cardinality
    counters["peak_offsets"] = max(counters.get("peak_offsets", 0), size)
    counters["offsets"] = counters.get("offsets", 0) + size
    counters["support"] = counters.get("support", 0) + len(state.support())


OBSERVERS = {
    "graphs.build_congruent_graph": _subset_graph,
    "spectral.radii_equal": _radii_equal,
    "analysis.enumerate_achievable_r": _search,
    "counting.advance_state": _slice_state,
}

UNITS = {
    **{f"{key}.calls_per_op": "count" for key in CALLS},
    **{f"{key}.self_share": "ratio" for key in SELF_SHARE},
    "graphs.subset_vertices_per_op": "count",
    "spectral.radii_equal.exact_share": "ratio",
    "analysis.reachable_vectors_per_op": "count",
    "counting.peak_offsets": "count",
    "counting.offsets_per_support": "ratio",
    f"{CHECK_LAYER}.calls_per_op": "count",
    f"{CHECK_LAYER}.self_share": "ratio",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def per_layer_metrics(
    timed: dict, check: dict, n_ops: int, elapsed: float, overhead: float, startup
) -> dict:
    """``timed`` and ``check`` are tracer dumps of the timed phase (with
    input preparation) and of the output check, ``elapsed`` the traced
    ops' total wall time; ``startup`` is the pair (interpreter ms,
    import ms)."""
    stats, counters = timed["stats"], timed["counters"]

    def calls(key: str, source=stats) -> float:
        return source.get(key, (0, 0.0, 0.0))[0] / n_ops

    def self_share(key: str, source=stats) -> float:
        return source.get(key, (0, 0.0, 0.0))[2] / elapsed

    radii_calls = stats.get("spectral.radii_equal", (0, 0.0, 0.0))[0]
    support = counters.get("support", 0)
    out = {f"{key}.calls_per_op": calls(key) for key in CALLS}
    out.update({f"{key}.self_share": self_share(key) for key in SELF_SHARE})
    out.update(
        {
            "graphs.subset_vertices_per_op": counters.get("subset_vertices", 0) / n_ops,
            "spectral.radii_equal.exact_share": (
                counters.get("radii_exact", 0) / radii_calls if radii_calls else 0.0
            ),
            "analysis.reachable_vectors_per_op": counters.get("reachable_vectors", 0) / n_ops,
            "counting.peak_offsets": counters.get("peak_offsets", 0),
            "counting.offsets_per_support": (
                counters.get("offsets", 0) / support if support else 0.0
            ),
            f"{CHECK_LAYER}.calls_per_op": calls(CHECK_LAYER) + calls(CHECK_LAYER, check["stats"]),
            f"{CHECK_LAYER}.self_share": self_share(CHECK_LAYER)
            + self_share(CHECK_LAYER, check["stats"]),
            "cli.interpreter_ms": startup[0],
            "cli.import_ms": startup[1],
            "trace.overhead_frac": overhead,
        }
    )
    return out
