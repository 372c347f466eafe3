"""Outer Bayesian-optimization loop over a manifold objective.

One run: draw an initial design, fit the surrogate, then alternate between
maximizing the acquisition, evaluating the objective at the proposal, and
refitting.  The run's trace (``RunTrace``) evaluates the objective, as
the baselines' traces do, and keeps the incumbent, the best observed
value, and the abort.  Failures after the first evaluation (a non-finite objective
value, or an exception from the objective, the proposal or a surrogate
update) abort the run but keep the trace collected so far, since traces
are the primary artifact.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .acquisition import DEDUP_TOL, AcquisitionState, maximize
from .egp import (
    FittingFailedError,
    GpDataset,
    GpModel,
    KernelParams,
    fit_hyperparams,
    median_heuristic_params,
)
from .manifolds import (
    InvalidInputError,
    ManifoldKind,
    ManifoldPoint,
    embed,
    extrinsic_distance,
    random_point,
    retract_embedded,
    tangent_project_embedded,
    unembed,
)

logger = logging.getLogger(__name__)

# Every this-many iterations the loop proposes the minimizer of the
# posterior mean instead of the PI maximizer: PI alone takes steps near the
# incumbent that shrink with the surrogate's resolution, while the mean's
# minimizer moves straight to where the surrogate puts the optimum.
EXPLOIT_EVERY = 2
# Newton starts of the lengthscale fit on the initial design, and of every
# refit.  A refit adds ``refit_every`` points to data the current
# lengthscale already fits, so it usually lies in the new optimum's basin;
# the risk of a poor local optimum sits with the data-poor first fit
# (Rasmussen & Williams 2006, Section 5.4).  A refit therefore starts from
# the current lengthscale and the first of the initial fit's uniform draws.
FIT_RESTARTS = 5
REFIT_RESTARTS = 2


@dataclass(frozen=True)
class Objective:
    """Black-box objective on one manifold kind.

    ``fn`` must be deterministic and finite on valid points.  The optional
    oracle optimum feeds error columns in run traces.  The optional
    ``grad(x)`` returns the Euclidean gradient of the embedded objective at
    the embedding of x, in the manifold's ambient shape; it must match
    finite differences of the composed objective.  Only the
    gradient-descent baseline asks for it.
    """

    kind: ManifoldKind
    fn: Callable[[ManifoldPoint], float]
    oracle_point: Optional[ManifoldPoint] = None
    oracle_value: Optional[float] = None
    grad: Optional[Callable[[ManifoldPoint], np.ndarray]] = None


@dataclass(frozen=True)
class BoConfig:
    """Run settings: design size, iteration budget, refit cadence, kernel.

    ``kernel=None`` selects median-heuristic defaults from the initial
    design.  The hyperparameters are fitted on the initial design and after
    every ``refit_every``-th iteration but the last, whose fit no proposal
    would use; ``refit_every=0`` disables hyperparameter fitting entirely.
    A fit sets the lengthscale, the amplitude that maximizes the likelihood
    at it, and no noise (``fit_hyperparams``).  The first fit runs
    ``FIT_RESTARTS`` Newton starts.  A refit runs ``REFIT_RESTARTS``,
    warm-started from the current lengthscale plus one uniform draw: a few
    more points seldom move the optimum out of the current lengthscale's
    basin.
    ``init_points`` overrides the random initial design (the design size is
    then their count).  Each iteration's ``maximize`` gets a seed derived
    from ``seed``; the ascent's settings are constants.  The surrogate's
    prior mean is derived from the data (``GpDataset.trend``).  The run's
    incumbent and its abort are kept by its ``RunTrace``, not here.
    """

    n_init: int = 5
    n_iters: int = 25
    refit_every: int = 5
    kernel: Optional[KernelParams] = None
    seed: int = 0
    init_points: Optional[tuple[ManifoldPoint, ...]] = None

    def __post_init__(self):
        if self.n_init < 1:
            raise InvalidInputError(f"n_init must be >= 1, got {self.n_init}")
        if self.n_iters < 0:
            raise InvalidInputError(f"n_iters must be >= 0, got {self.n_iters}")
        if self.refit_every < 0:
            raise InvalidInputError(f"refit_every must be >= 0, got {self.refit_every}")
        if self.init_points is not None and len(self.init_points) == 0:
            raise InvalidInputError("init_points must hold at least one point")


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
    """The records of one optimizer run on ``objective``, its incumbent (the
    first record's point, replaced by each later record's point whose value
    is strictly below the incumbent's value), its abort (``abort``) and its
    count of objective evaluations (``n_evals``, kept by ``evaluate``)."""

    objective: Objective
    records: list[TraceRecord] = field(default_factory=list)
    aborted: bool = False
    abort_reason: Optional[str] = None
    n_evals: int = field(default=0, init=False)
    _since: float = field(default_factory=time.perf_counter, init=False, repr=False)

    def abort(self, reason: str, exc: Optional[Exception] = None) -> None:
        """Mark the run aborted for ``reason``, to which ``exc`` appends
        ``: Type: message``, and log it as a warning."""
        if exc is not None:
            reason = f"{reason}: {type(exc).__name__}: {exc}"
        logger.warning("%s", reason, exc_info=exc)
        self.aborted = True
        self.abort_reason = reason

    def evaluate(self, x: ManifoldPoint, where: str) -> Optional[float]:
        """The objective's value at x, counted in ``n_evals``; None when the
        objective raised or returned a non-finite value, which aborts the
        run for a reason that ends in ``where`` (say ``at iteration 3``).
        On the first evaluation such a failure raises instead."""
        try:
            y = float(self.objective.fn(x))
        except Exception as exc:  # a user objective may raise anything
            if not self.n_evals:
                raise
            self.abort(f"objective raised {where}", exc)
            return None
        if not math.isfinite(y):
            if not self.n_evals:
                raise InvalidInputError(
                    f"objective returned non-finite value {y!r} on the first evaluation"
                )
            self.abort(f"objective returned non-finite value {y!r} {where}")
            return None
        self.n_evals += 1
        return y

    def record(self, iteration: int, point: ManifoldPoint, value: float) -> None:
        """Append the state after an evaluation batch: the incumbent, its
        distance to the objective's oracle point when it has one, ``n_evals``
        and the wall time since the previous record (or since creation)."""
        best_point, best_value = point, value
        if self.records and not value < self.final.best_value:
            best_point, best_value = self.final.best_point, self.final.best_value
        err = None
        if self.objective.oracle_point is not None:
            err = extrinsic_distance(best_point, self.objective.oracle_point)
        since, self._since = self._since, time.perf_counter()
        self.records.append(
            TraceRecord(
                iteration=iteration,
                point=point,
                value=value,
                best_value=best_value,
                best_point=best_point,
                err_to_oracle=err,
                wall_ms=(self._since - since) * 1e3,
                n_evals=self.n_evals,
            )
        )

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


def proposal_dedup(
    dataset: GpDataset,
    x_next: ManifoldPoint,
    rng: np.random.Generator,
    lengthscale: float,
) -> ManifoldPoint:
    """Replace a proposal within ``DEDUP_TOL`` of an existing datum by a
    random tangent perturbation, so the next Gram matrix stays
    factorizable.

    The perturbation's size is the data spacing around the proposal: half
    the distance to its nearest datum farther than ``DEDUP_TOL``, floored at
    ``2 * DEDUP_TOL`` so that it clears a duplicate; 0.1 ``lengthscale``
    when every datum is a duplicate.  Where the data crowd the proposal so
    that no draw at that size separates it, the size doubles after every 10
    draws.  Each draw steps the proposal's embedded row along a random
    tangent (``tangent_project_embedded``, then a one-row
    ``retract_embedded``) and measures flat distances to the dataset's
    rows; only the returned row is unembedded.  A draw whose tangent is
    degenerate, or whose step the retraction returns as NaN, fails, and
    counts toward the 50 draws and the doubling like any draw that stays
    too close."""
    kind = x_next.kind
    if kind != dataset.kind:
        raise InvalidInputError(f"kind mismatch: {kind} vs {dataset.kind}")
    e = embed(x_next)

    def distances(row: np.ndarray) -> np.ndarray:  # the flat norm is the Frobenius norm
        return np.linalg.norm(dataset.embedded - kind.flatten_rows(row), axis=1)

    dists = distances(e)
    if float(dists.min()) >= DEDUP_TOL:
        return x_next
    separated = dists[dists >= DEDUP_TOL]
    if separated.size:
        step = max(0.5 * float(separated.min()), 2.0 * DEDUP_TOL)
    else:
        step = 0.1 * lengthscale
    row = None  # the last draw that could be taken
    for attempt in range(50):
        if attempt and attempt % 10 == 0:
            step *= 2.0
        direction = rng.standard_normal(kind.ambient_shape)
        tangent = tangent_project_embedded(kind, e, direction)
        norm = float(np.linalg.norm(tangent))
        if norm < 1e-12:
            continue
        stepped = retract_embedded(kind, e[None], ((step / norm) * tangent)[None], 1.0)
        if np.isnan(stepped.flat[0]):
            continue
        row = stepped[0]
        if float(distances(row).min()) >= DEDUP_TOL:
            logger.debug("perturbed duplicate proposal by %.3g", step)
            return unembed(kind, row)
    logger.warning("could not separate duplicate proposal after 50 perturbations")
    return x_next if row is None else unembed(kind, row)


def _surrogate_update(
    trace: RunTrace, dataset: GpDataset, params: Optional[KernelParams], cfg: BoConfig, s: int
) -> Optional[KernelParams]:
    """``params``, or median-heuristic defaults when it is None, fitted when
    s is 0 or a multiple of ``refit_every``.  A failed fit keeps them; any
    other exception aborts ``trace``."""
    try:
        if params is None:
            params = median_heuristic_params(dataset)
        if cfg.refit_every > 0 and s % cfg.refit_every == 0 and len(dataset) >= 2:
            n_starts = REFIT_RESTARTS if s else FIT_RESTARTS
            params = fit_hyperparams(dataset, params, n_starts, seed=cfg.seed)
    except FittingFailedError:
        logger.warning("hyperparameter fitting failed; keeping current values")
    except Exception as exc:  # any failure here keeps the trace
        trace.abort(f"surrogate update failed at iteration {s}", exc)
    return params


def run(obj: Objective, cfg: BoConfig) -> RunTrace:
    """Run the optimization loop; returns its trace, which keeps the
    incumbent (``trace.final``) and the abort.

    Deterministic given ``cfg.seed``.  Record 0 is the state after the
    initial design (or the part of it evaluated before a failure) and its
    first fit; records 1..n_iters follow the proposals.  After the first
    evaluation, a non-finite objective value or any exception from the
    objective (``RunTrace.evaluate``), the proposal phase (surrogate build,
    acquisition maximization, dedup) or a surrogate update aborts the run
    (``RunTrace.abort``), which keeps the trace collected so far.  A
    failure on the first evaluation raises.
    """
    trace = RunTrace(obj)
    seed_seq = np.random.SeedSequence(cfg.seed)
    init_seq, loop_seq = seed_seq.spawn(2)

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
        y = trace.evaluate(pt, "during init")
        if y is None:
            break
        points.append(pt)
        values.append(y)

    best_idx = int(np.argmin(values))
    dataset = GpDataset.from_points(points, values)
    params = cfg.kernel
    if not trace.aborted:
        params = _surrogate_update(trace, dataset, params, cfg, 0)
    trace.record(0, points[best_idx], values[best_idx])

    loop_rng = np.random.default_rng(loop_seq)
    # Proposals stay within the initial design's diameter of the incumbent:
    # on an unbounded chart (Spd) a linear prior mean keeps falling away from
    # the data, and far evaluations would only inflate the value spread.
    trust_radius = math.sqrt(float(np.max(dataset.sq_dists))) or math.inf

    for s in range(1, cfg.n_iters + 1):
        if trace.aborted:
            break
        try:
            state = AcquisitionState(
                GpModel.build(params, dataset),
                trace.final.best_value,
                trust_radius,
                exploit=s % EXPLOIT_EVERY == 0,
            )
            x_next = maximize(state, int(loop_rng.integers(2**31)))
            x_next = proposal_dedup(dataset, x_next, loop_rng, params.lengthscale)
        except Exception as exc:  # any failure here keeps the trace
            trace.abort(f"proposal failed at iteration {s}", exc)
            break
        y = trace.evaluate(x_next, f"at iteration {s}")
        if y is None:
            break
        dataset = dataset.append(x_next, y)
        if s < cfg.n_iters:  # no proposal would use the last iteration's fit
            params = _surrogate_update(trace, dataset, params, cfg, s)
        trace.record(s, x_next, y)
    return trace
