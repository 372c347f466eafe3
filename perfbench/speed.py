"""The machine's speed at a moment, read off a fixed reference computation.

The benchmark gets a few cores of a shared host.  As the other tenants'
load comes and goes, over seconds to minutes, the same seed run takes from
0.6x to 1.5x its usual wall time, in CPU time as much as in wall time.  A
fixed computation timed right before and after each measured call slows
down with it, so the benchmark reports each call's time scaled by the
reference's time next to it: in *nominal seconds*, the wall seconds the
call would take on a machine where ``reference_s()`` returns
``NOMINAL_REF_S``.  The reference lives here, outside the program, so no
change to the program moves it.

This module imports numpy only when first called, after ``run.py`` has
pinned the BLAS thread count.
"""

from __future__ import annotations

import functools
import time

# The reference's wall time on an idle core of a 2-core x86-64 machine
# (Python 3.11, numpy 2.4); it sets the scale, not the comparison.
NOMINAL_REF_S = 0.03


@functools.cache
def _data():
    import numpy as np

    rng = np.random.default_rng(0)
    return np, rng.standard_normal((40, 3)), rng.standard_normal(40), np.eye(40)


def reference_s() -> float:
    """Wall time of a fixed mix of the work manibo does: Gaussian-process
    likelihoods on small matrices (kernel, Cholesky, solves, a 3x3 eigh)
    and interpreter-bound arithmetic."""
    np, points, values, eye = _data()
    tick = time.perf_counter()
    for step in range(250):
        scale = 0.5 + 0.004 * step
        sq_dist = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
        gram = np.exp(-0.5 * sq_dist / scale**2) + 1e-6 * eye
        chol = np.linalg.cholesky(gram)
        alpha = np.linalg.solve(chol, values)
        float(alpha @ alpha) + float(np.log(np.diag(chol)).sum())
        np.linalg.eigh(gram[:3, :3])
    total = 0
    for i in range(100_000):
        total += (i * 7) % 13
    return time.perf_counter() - tick


def nominal(wall_s: float, ref_s: float) -> float:
    """Wall seconds measured where the reference took ``ref_s``, in nominal
    seconds."""
    return wall_s * NOMINAL_REF_S / ref_s
