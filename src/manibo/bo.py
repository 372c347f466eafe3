"""Outer Bayesian-optimization loop over a manifold objective.

One run: draw an initial design, fit the surrogate, then alternate between
maximizing the acquisition, evaluating the objective at the proposal, and
refitting.  The incumbent is the best observed value.  Failures mid-run
(a non-finite objective value, or an exception from the proposal, the
objective or the refit) abort the run but keep the trace collected so far,
since traces are the primary artifact.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .acquisition import AcquisitionState, AscentConfig, maximize
from .egp import (
    FittingFailedError,
    GpDataset,
    GpModel,
    KernelParams,
    default_bounds,
    fit_hyperparams,
    linear_trend,
    median_heuristic_params,
)
from .manifolds import (
    InvalidInputError,
    ManifoldKind,
    ManifoldPoint,
    exp_map,
    extrinsic_distance,
    project_to_tangent,
    random_point,
)

logger = logging.getLogger(__name__)

# Proposals closer than this to an existing datum are perturbed before
# evaluation to keep the Gram matrix factorizable.
DEDUP_TOL = 1e-8
# Every this-many iterations the loop proposes the minimizer of the
# posterior mean instead of the PI maximizer: PI alone takes steps near the
# incumbent that shrink with the surrogate's noise floor, while the mean's
# minimizer moves straight to where the surrogate puts the optimum.
EXPLOIT_EVERY = 2


@dataclass(frozen=True)
class Objective:
    """Black-box objective on one manifold kind.

    ``fn`` must be deterministic and finite on valid points; no gradient is
    ever requested.  The optional oracle optimum feeds error columns in run
    traces.
    """

    kind: ManifoldKind
    fn: Callable[[ManifoldPoint], float]
    oracle_point: Optional[ManifoldPoint] = None
    oracle_value: Optional[float] = None
    name: str = ""


@dataclass(frozen=True)
class BoConfig:
    """Run settings: design size, iteration budget, refit cadence, kernel.

    ``kernel=None`` selects median-heuristic defaults from the initial
    design.  The hyperparameters are fitted on the initial design and after
    every ``refit_every``-th iteration but the last, whose fit no proposal
    would use; ``refit_every=0`` disables hyperparameter fitting entirely.
    ``init_points`` overrides the random initial design (the design size is
    then their count).  Per-iteration acquisition seeds are derived from
    ``seed``; an explicit ``ascent.seed`` is overridden inside a run.
    """

    n_init: int = 5
    n_iters: int = 25
    refit_every: int = 5
    kernel: Optional[KernelParams] = None
    ascent: Optional[AscentConfig] = None
    seed: int = 0
    init_points: Optional[tuple[ManifoldPoint, ...]] = None

    def __post_init__(self):
        if self.n_init < 1:
            raise InvalidInputError(f"n_init must be >= 1, got {self.n_init}")
        if self.n_iters < 0:
            raise InvalidInputError(f"n_iters must be >= 0, got {self.n_iters}")
        if self.refit_every < 0:
            raise InvalidInputError(f"refit_every must be >= 0, got {self.refit_every}")


@dataclass(frozen=True, eq=False)
class TraceRecord:
    """State after one evaluation batch: the point just evaluated, its value,
    the incumbent, distance to the oracle when known, wall time, and the
    cumulative number of objective evaluations."""

    iteration: int
    point: ManifoldPoint
    value: float
    best_value: float
    best_point: ManifoldPoint
    err_to_oracle: Optional[float]
    wall_ms: float
    n_evals: int


@dataclass
class RunTrace:
    records: list[TraceRecord] = field(default_factory=list)
    aborted: bool = False
    abort_reason: Optional[str] = None

    def best_values(self) -> np.ndarray:
        return np.array([rec.best_value for rec in self.records])

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


def local_spacing(dataset: GpDataset, x: ManifoldPoint) -> Optional[float]:
    """Half the distance from x to its nearest datum farther than
    ``DEDUP_TOL``: the data spacing around x, floored at ``2 * DEDUP_TOL``
    so that a step of that size clears a duplicate.  None when every datum
    lies within ``DEDUP_TOL`` of x."""
    dists = [extrinsic_distance(x, pt) for pt in dataset.points]
    separated = [d for d in dists if d >= DEDUP_TOL]
    return max(0.5 * min(separated), 2.0 * DEDUP_TOL) if separated else None


def proposal_dedup(
    dataset: GpDataset,
    x_next: ManifoldPoint,
    rng: np.random.Generator,
    step_scale: float,
) -> ManifoldPoint:
    """Replace a proposal that coincides with an existing datum by a random
    tangent perturbation of size ``step_scale``, so the next Gram matrix
    stays factorizable.  Where the data crowd the proposal so that no draw
    at that size separates it, the size doubles after every 10 draws."""

    def min_dist(candidate: ManifoldPoint) -> float:
        return min(extrinsic_distance(candidate, pt) for pt in dataset.points)

    if min_dist(x_next) >= DEDUP_TOL:
        return x_next
    candidate = x_next
    step = step_scale
    for attempt in range(50):
        if attempt and attempt % 10 == 0:
            step *= 2.0
        direction = rng.standard_normal(x_next.kind.ambient_shape)
        tangent = project_to_tangent(x_next, direction)
        if tangent.norm < 1e-12:
            continue
        candidate = exp_map(x_next, tangent.scaled(step / tangent.norm), 1.0)
        if min_dist(candidate) >= DEDUP_TOL:
            logger.debug("perturbed duplicate proposal by %.3g", step)
            return candidate
    logger.warning("could not separate duplicate proposal after 50 perturbations")
    return candidate


def _oracle_distance(obj: Objective, x: ManifoldPoint) -> Optional[float]:
    if obj.oracle_point is None:
        return None
    return extrinsic_distance(x, obj.oracle_point)


def run(obj: Objective, cfg: BoConfig) -> tuple[ManifoldPoint, float, RunTrace]:
    """Run the optimization loop; returns (best point, best value, trace).

    Deterministic given ``cfg.seed``.  Record 0 is the state after the
    initial design; records 1..n_iters follow the proposals.  After the
    initial design, a non-finite objective value or any exception from the
    proposal phase (surrogate build, acquisition maximization, dedup), the
    objective, the trend update or the hyperparameter refit aborts the run
    with the trace collected so far (``trace.aborted`` set,
    ``trace.abort_reason`` saying why) rather than discarding it.
    """
    trace = RunTrace()
    seed_seq = np.random.SeedSequence(cfg.seed)
    init_seq, loop_seq = seed_seq.spawn(2)
    start = time.perf_counter()

    if cfg.init_points is not None:
        init_points = list(cfg.init_points)
        for pt in init_points:
            if pt.kind != obj.kind:
                raise InvalidInputError("init_points kind does not match objective")
    else:
        init_rng = np.random.default_rng(init_seq)
        init_points = [random_point(obj.kind, init_rng) for _ in range(cfg.n_init)]

    points: list[ManifoldPoint] = []
    values: list[float] = []
    for pt in init_points:
        y = float(obj.fn(pt))
        if not math.isfinite(y):
            if not values:
                raise InvalidInputError(
                    f"objective returned non-finite value {y!r} on the first evaluation"
                )
            trace.aborted = True
            trace.abort_reason = f"objective returned non-finite value {y!r} during init"
            break
        points.append(pt)
        values.append(y)

    best_idx = int(np.argmin(values))
    best_point, best_value = points[best_idx], values[best_idx]
    dataset = GpDataset.from_points(points, values)
    trace.records.append(
        TraceRecord(
            iteration=0,
            point=best_point,
            value=best_value,
            best_value=best_value,
            best_point=best_point,
            err_to_oracle=_oracle_distance(obj, best_point),
            wall_ms=(time.perf_counter() - start) * 1e3,
            n_evals=len(points),
        )
    )
    if trace.aborted:
        return best_point, best_value, trace

    def refit(current: KernelParams) -> KernelParams:
        try:
            return fit_hyperparams(
                dataset,
                current,
                default_bounds(dataset, trend),
                seed=cfg.seed,
                trend=trend,
            )
        except FittingFailedError:
            logger.warning("hyperparameter fitting failed; keeping current values")
            return current

    def abort(what: str, s: int, exc: Exception) -> None:
        logger.warning("%s at iteration %d", what, s, exc_info=True)
        trace.aborted = True
        trace.abort_reason = f"{what} at iteration {s}: {type(exc).__name__}: {exc}"

    try:
        # The surrogate's prior mean is the least-squares affine function of
        # the embedded coordinates (once the data determine it), refreshed
        # with the data, and the kernel models the residual.  With a zero
        # mean the kernel carries the whole trend, so its amplitude, and the
        # noise floor relative to it, grow with the spread of all values
        # seen; that floor then hides the small value differences near the
        # optimum.
        trend = linear_trend(dataset)
        params = cfg.kernel
        if params is None:
            params = median_heuristic_params(dataset, trend)
        if cfg.refit_every > 0 and len(dataset) >= 2:
            params = refit(params)
    except Exception as exc:  # any failure here keeps the trace
        abort("surrogate update failed", 0, exc)
        return best_point, best_value, trace

    ascent_base = cfg.ascent if cfg.ascent is not None else AscentConfig()
    loop_rng = np.random.default_rng(loop_seq)
    # Proposals stay within the initial design's diameter of the incumbent:
    # on an unbounded chart (Spd) a linear prior mean keeps falling away from
    # the data, and far evaluations would only inflate the value spread.
    trust_radius = math.sqrt(float(np.max(dataset.sq_dists))) or math.inf

    for s in range(1, cfg.n_iters + 1):
        tick = time.perf_counter()
        try:
            model = GpModel.build(params, dataset, trend)
            state = AcquisitionState.for_model(
                model,
                best_value,
                trust_radius=trust_radius,
                exploit=s % EXPLOIT_EVERY == 0,
            )
            ascent_cfg = replace(ascent_base, seed=int(loop_rng.integers(2**31)))
            x_next = maximize(state, ascent_cfg)
            spacing = local_spacing(dataset, x_next)
            x_next = proposal_dedup(
                dataset,
                x_next,
                loop_rng,
                spacing if spacing is not None else 0.1 * params.lengthscale,
            )
        except Exception as exc:  # any failure here keeps the trace
            abort("proposal failed", s, exc)
            break
        try:
            y = float(obj.fn(x_next))
        except Exception as exc:  # a user objective may raise anything
            abort("objective raised", s, exc)
            break
        if not math.isfinite(y):
            trace.aborted = True
            trace.abort_reason = (
                f"objective returned non-finite value {y!r} at iteration {s}"
            )
            break
        if y < best_value:
            best_point, best_value = x_next, y
        dataset = dataset.append(x_next, y)
        failure = None
        # After the last iteration no surrogate is built, so neither the
        # trend nor the hyperparameters are updated.
        if s < cfg.n_iters:
            try:
                trend = linear_trend(dataset)
                if cfg.refit_every > 0 and s % cfg.refit_every == 0:
                    params = refit(params)
            except Exception as exc:  # any failure here keeps the trace
                failure = exc
        trace.records.append(
            TraceRecord(
                iteration=s,
                point=x_next,
                value=y,
                best_value=best_value,
                best_point=best_point,
                err_to_oracle=_oracle_distance(obj, best_point),
                wall_ms=(time.perf_counter() - tick) * 1e3,
                n_evals=len(dataset),
            )
        )
        if failure is not None:
            abort("surrogate update failed", s, failure)
            break
    return best_point, best_value, trace
