"""The numpy stepping behind ``counting.lyapunov_estimate``.

``counting`` checks the arguments, the covering condition and the float
cap, then imports this module, the one place that imports numpy: a
refused call and every other command never compile it or load numpy.
"""

from __future__ import annotations

from math import log

import numpy as np

from .instance import ProblemInstance


def _estimate(
    inst: ProblemInstance, samples: int, depth: int, seed: int, block_size: int
) -> tuple[float, float]:
    """(estimate, stderr) of ``counting.lyapunov_estimate``, whose checks
    the arguments have passed; samples are seeded in blocks of
    ``block_size`` from (seed, block start)."""
    # bound here, not at import: a module loaded on first use binds no
    # other layer's public function at its own import
    from .lattice import children, open_children

    span = inst.span
    # the digit matrices (``spectral.transition_matrices``), with no int copy
    lo, hi = inst.proj_min, inst.proj_max
    mats = np.zeros((inst.n, span, span), dtype=np.float64)
    for j in range(inst.n):
        for u in range(lo, hi):
            for v, count in open_children(inst, children(inst, j, u)):
                mats[j, u - lo, v - lo] = count
    per_sample = np.empty(samples, dtype=np.float64)
    for block_start in range(0, samples, block_size):
        block = min(block_size, samples - block_start)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(block_start,))
        )
        starts = rng.integers(0, span, size=block)
        digits = rng.integers(0, inst.n, size=(block, depth))
        vecs = np.zeros((block, span), dtype=np.float64)
        vecs[np.arange(block), starts] = 1.0
        acc = np.zeros(block, dtype=np.float64)
        # each step's matrices, written in place so one block's set is live
        step = np.empty((block, span, span), dtype=np.float64)
        for k in range(depth):
            # "clip" leaves ``out`` unbuffered; every digit is below n
            np.take(mats, digits[:, k], axis=0, out=step, mode="clip")
            vecs = np.einsum("bu,buv->bv", vecs, step)
            norms = vecs.sum(axis=1)
            acc += np.log(norms)
            vecs /= norms[:, None]
        per_sample[block_start : block_start + block] = acc / (depth * log(inst.n))
    estimate = float(per_sample.mean())
    if samples > 1:
        stderr = float(per_sample.std(ddof=1) / samples**0.5)
    else:
        stderr = 0.0
    return estimate, stderr
