"""Comparison optimizers: Riemannian gradient descent and Nelder-Mead.

Gradient descent serves objectives with analytic ambient gradients
(``Objective.grad``); the gradient is projected to the tangent space and the
step retracted onto the manifold, with backtracking so accepted steps always
decrease the value.  Nelder-Mead runs in flat embedding coordinates and
retracts every candidate vertex onto the manifold before the objective sees
it, so a manifold-valued objective never receives an off-manifold argument.

Both evaluate through a ``RunTrace``, as the Bayesian loop does, so all
three fail alike (``RunTrace.evaluate``).  Gradient descent records
accepted iterates; Nelder-Mead records every evaluation, which makes
evaluation-count comparisons direct.
"""

from __future__ import annotations

import numpy as np

from .bo import Objective, RunTrace
from .manifolds import (
    InvalidInputError,
    ManifoldError,
    ManifoldPoint,
    embed,
    flatten_ambient,
    project_to_tangent,
    retract_embedded,
    unembed,
    unflatten_ambient,
)

# Nelder-Mead move coefficients (reflection, expansion, contraction, shrink).
NM_REFLECT = 1.0
NM_EXPAND = 2.0
NM_CONTRACT = 0.5
NM_SHRINK = 0.5
NM_INIT_SPREAD = 0.1
# Nelder-Mead stops once the simplex diameter falls below this.
NM_TOL = 1e-8

# Gradient descent: the first trial step of every iteration, and its halvings.
GD_STEP = 0.5
GD_MAX_BACKTRACKS = 30
# Gradient descent stops once the projected gradient norm falls below this.
GD_TOL = 1e-8


def riemannian_gd(obj: Objective, x0: ManifoldPoint, max_iters: int = 100) -> RunTrace:
    """Projected gradient descent with backtracking; raises
    ``InvalidInputError`` unless the objective has a gradient (``grad``).

    Each iteration projects the ambient gradient onto the tangent space
    (``project_to_tangent`` validates it) and steps the embedded iterate
    against it by a one-row ``retract_embedded``, halving the step of
    ``GD_STEP`` until the value strictly decreases.  A step with no nearest
    image point is a NaN row, which ``unembed`` rejects with
    ``InvalidInputError``; on the sphere none fails (|e - lam tangent| >= 1).
    Stops when the projected gradient norm falls below ``GD_TOL``, no
    halving produces a decrease, or ``max_iters`` is reached.  After the
    first evaluation an exception from the gradient or a rejected step
    aborts the run, as a failed evaluation does (``RunTrace.evaluate``),
    with a reason naming its stage; on the first evaluation a failure raises.
    """
    if obj.grad is None:
        raise InvalidInputError("gradient descent needs an objective with a gradient")
    trace = RunTrace(obj)
    x, f = x0, trace.evaluate(x0, "at iteration 0")
    trace.record(0, x, f)
    for t in range(1, max_iters + 1):
        stage = "gradient raised"  # what an exception means, for the abort
        try:
            tangent = project_to_tangent(x, obj.grad(x))
            if np.linalg.norm(tangent) < GD_TOL:
                break
            e = embed(x)
            lam = GD_STEP
            for _ in range(GD_MAX_BACKTRACKS + 1):
                stage = "step rejected"
                stepped = retract_embedded(x.kind, e[None], -tangent[None], lam)
                candidate = unembed(x.kind, stepped[0])
                f_cand = trace.evaluate(candidate, f"at iteration {t}")
                if f_cand is None or f_cand < f:
                    break
                lam *= 0.5
            else:
                break
        except Exception as exc:  # any failure here keeps the trace
            trace.abort(f"{stage} at iteration {t}", exc)
            break
        if f_cand is None:
            break
        x, f = candidate, f_cand
        trace.record(t, x, f)
    return trace


def nelder_mead(obj: Objective, x0: ManifoldPoint, max_evals: int = 500) -> RunTrace:
    """Simplex search in flat embedding coordinates with retracted evaluation.

    The initial simplex is the embedding of x0 plus an ``NM_INIT_SPREAD``
    perturbation along each flat axis.  A candidate whose retraction is
    degenerate is not evaluated: it counts as +inf at x0 and spends one
    evaluation of the budget.  Ties at the worst vertex accept the
    reflection, so a flat objective keeps reflecting until the budget is
    exhausted.  Stops when the simplex diameter drops below ``NM_TOL`` or
    the budget runs out; a budget below 1 raises ``InvalidInputError``.  A
    failed evaluation (``RunTrace.evaluate``) aborts the run, or raises on
    the first evaluation.
    """
    if max_evals < 1:
        raise InvalidInputError(f"max_evals must be >= 1, got {max_evals}")
    kind = obj.kind
    dim = kind.ambient_dim
    trace = RunTrace(obj)

    def evaluate(w: np.ndarray) -> float:
        """The value at a flat vertex, recorded; +inf without a record once
        the run has aborted or spent its budget."""
        if trace.aborted or trace.n_evals >= max_evals:
            return np.inf
        try:
            point = unembed(kind, unflatten_ambient(kind, w))
        except ManifoldError:  # a failed retraction
            point, value = x0, np.inf
            trace.n_evals += 1
        else:
            value = trace.evaluate(point, f"at evaluation {trace.n_evals + 1}")
            if value is None:
                return np.inf
        trace.record(trace.n_evals, point, value)
        return value

    w0 = flatten_ambient(kind, embed(x0))
    simplex = [w0]
    for axis in range(dim):
        vertex = w0.copy()
        vertex[axis] += NM_INIT_SPREAD
        simplex.append(vertex)
    simplex = np.stack(simplex)
    values = np.array([evaluate(v) for v in simplex])

    def diameter() -> float:
        diffs = simplex[:, None, :] - simplex[None, :, :]
        return float(np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs)).max())

    while trace.n_evals < max_evals and not trace.aborted and diameter() >= NM_TOL:
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        worst = simplex[-1]
        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + NM_REFLECT * (centroid - worst)
        f_reflected = evaluate(reflected)
        if f_reflected < values[0]:
            expanded = centroid + NM_EXPAND * (centroid - worst)
            f_expanded = evaluate(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected <= values[-1]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            contracted = centroid + NM_CONTRACT * (worst - centroid)
            f_contracted = evaluate(contracted)
            if f_contracted <= min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, len(simplex)):
                    simplex[i] = simplex[0] + NM_SHRINK * (simplex[i] - simplex[0])
                    values[i] = evaluate(simplex[i])
    return trace
