"""Probability-of-improvement acquisition and its ascent over the manifold.

The acquisition value at x is the posterior probability that the objective
beats the incumbent: Phi((f_best - mean) / sigma).  It is maximized by
projected gradient ascent in the embedding space: the analytic ambient
gradient is projected onto the tangent space of the embedded manifold and
a step is taken with the manifold's exponential map / retraction, so every
iterate stays on the manifold.  Multistart makes the search global.

The ascent climbs log Phi, which has the same maximizer.  PI rounds to
exactly 1.0 once the standardized improvement passes about 8.3, so an
ascent that compares PI values cannot rank points beyond it; log Phi keeps
ranking them, with a usable gradient, up to about 38 (Ament et al.,
NeurIPS 2023).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import erfcx, log_ndtr

from .egp import GpModel, PosteriorRows, posterior_rows
from .manifolds import (
    AmbiguousSubspaceError,
    InvalidInputError,
    ManifoldError,
    ManifoldPoint,
    ambient_norms,
    embed,
    flatten_ambient,
    flatten_rows,
    random_point,
    retract_embedded,
    tangent_project_embedded,
    unembed,
    unflatten_ambient,
    unflatten_rows,
    within_chart,
)

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# A log-PI ascent stops once a step gains less than this fraction of the
# distance of log PI from 0 (certain improvement).  Where PI nears 1 the
# acquisition flattens and the ascent would only crawl toward certainty;
# ranking the starts needs no more than this relative precision.
LOG_PI_RTOL = 3e-3


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / SQRT2))


def normal_pdf(z: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * z * z)


def inverse_mills_ratio(z):
    """phi(z) / Phi(z), the derivative of log Phi at z (elementwise).

    Written as sqrt(2/pi) / erfcx(-z/sqrt(2)), which follows the Mills-ratio
    asymptote -z for z << 0 without forming exp(-z^2/2) / Phi(z) (both
    underflow there) and goes smoothly to 0 for z >> 0.
    """
    return SQRT_2_OVER_PI / erfcx(-np.asarray(z, dtype=float) / SQRT2)


@dataclass(frozen=True)
class AcquisitionState:
    """Frozen view of one acquisition round: surrogate, incumbent value, and
    the floor applied to the posterior deviation before dividing.

    ``trust_radius`` keeps the ascent within that embedded distance of the
    incumbent (``trust_center``).  ``exploit`` makes the round climb the
    negated posterior mean instead of PI, proposing the surrogate's
    minimizer.
    """

    model: GpModel
    best_value: float
    sigma_floor: float
    trust_radius: float = math.inf
    exploit: bool = False

    def __post_init__(self):
        if not math.isfinite(self.best_value):
            raise InvalidInputError(f"best_value must be finite, got {self.best_value}")
        if not self.sigma_floor > 0.0:
            raise InvalidInputError(f"sigma_floor must be positive, got {self.sigma_floor}")

    @classmethod
    def for_model(
        cls,
        model: GpModel,
        best_value: float,
        trust_radius: float = math.inf,
        exploit: bool = False,
    ) -> "AcquisitionState":
        return cls(
            model=model,
            best_value=best_value,
            sigma_floor=1e-12 * math.sqrt(model.params.amplitude),
            trust_radius=trust_radius,
            exploit=exploit,
        )

    @functools.cached_property
    def trust_center(self) -> np.ndarray:
        """Flat embedding of the incumbent, the best observed point."""
        data = self.model.data
        return data.embedded[int(np.argmin(data.values))]


@dataclass(frozen=True)
class AscentConfig:
    """Projected gradient ascent settings.

    ``step=None`` resolves to 0.1 x the model lengthscale at call time, so
    the ascent scale tracks the fitted kernel.
    """

    step: Optional[float] = None
    max_steps: int = 200
    grad_tol: float = 1e-8
    n_starts: int = 10
    seed: int = 0
    max_backtracks: int = 20

    def __post_init__(self):
        if self.step is not None and not self.step > 0.0:
            raise InvalidInputError(f"step must be positive, got {self.step}")
        if self.max_steps < 1 or self.n_starts < 1 or self.max_backtracks < 0:
            raise InvalidInputError("max_steps and n_starts must be positive")
        if not self.grad_tol > 0.0:
            raise InvalidInputError(f"grad_tol must be positive, got {self.grad_tol}")


def _improvement(
    state: AcquisitionState, post: PosteriorRows
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: r = (f_best - mean) / sigma (PI is Phi(r)), sigma, and
    whether sigma is above its floor (so that it varies with w)."""
    sigma_raw = np.sqrt(post.var)
    sigma = np.maximum(sigma_raw, state.sigma_floor)
    return (state.best_value - post.mean) / sigma, sigma, sigma_raw > state.sigma_floor


def _improvement_gradient(
    state: AcquisitionState, post: PosteriorRows
) -> tuple[np.ndarray, np.ndarray]:
    """r and its gradient in flat coordinates, per row."""
    r, sigma, free = _improvement(state, post)
    dmean, dvar = post.gradients()
    sigma_col = sigma[:, None]
    # Where the floor is active, sigma is locally constant.
    dsigma = np.where(free[:, None], dvar / (2.0 * sigma_col), 0.0)
    return r, -dmean / sigma_col - (r / sigma)[:, None] * dsigma


def _ascent_value(state: AcquisitionState, post: PosteriorRows) -> np.ndarray:
    """What the ascent climbs, per row: log PI, or the negated posterior
    mean when the round exploits."""
    if state.exploit:
        return -post.mean
    return log_ndtr(_improvement(state, post)[0])


def _ascent_gradient(state: AcquisitionState, post: PosteriorRows) -> np.ndarray:
    if state.exploit:
        return -post.gradients()[0]
    r, dr = _improvement_gradient(state, post)
    return inverse_mills_ratio(r)[:, None] * dr


def _at(state: AcquisitionState, w: np.ndarray) -> PosteriorRows:
    """The posterior at one flat point, as a 1-row stack."""
    return posterior_rows(state.model, np.asarray(w, dtype=float)[None])


def _pi_flat(state: AcquisitionState, w: np.ndarray) -> float:
    return normal_cdf(float(_improvement(state, _at(state, w))[0][0]))


def _pi_gradient_flat(state: AcquisitionState, w: np.ndarray) -> np.ndarray:
    """Analytic gradient of the acquisition in flat ambient coordinates."""
    r, dr = _improvement_gradient(state, _at(state, w))
    density = normal_pdf(float(r[0]))
    if density == 0.0:
        return np.zeros_like(dr[0])
    return density * dr[0]


def pi_value(state: AcquisitionState, x: ManifoldPoint) -> float:
    """Probability that the objective at x improves on the incumbent."""
    return _pi_flat(state, flatten_ambient(x.kind, embed(x)))


def pi_gradient_ambient(state: AcquisitionState, x: ManifoldPoint) -> np.ndarray:
    """Ambient gradient of the acquisition at the embedding of x.

    Matches central finite differences of the acquisition in flat ambient
    coordinates; project onto the tangent space before stepping.
    """
    w = flatten_ambient(x.kind, embed(x))
    return unflatten_ambient(x.kind, _pi_gradient_flat(state, w))


def _within_trust(state: AcquisitionState, w: np.ndarray) -> np.ndarray:
    """Per row of flat points w, whether it lies within the trust radius."""
    if math.isinf(state.trust_radius):
        return np.ones(len(w), dtype=bool)
    diff = w - state.trust_center
    return np.einsum("sd,sd->s", diff, diff) <= state.trust_radius**2


def _tangents(state: AcquisitionState, e: np.ndarray, post: PosteriorRows) -> np.ndarray:
    """The ascent direction at each row of the embedded points e: the
    gradient of what the ascent climbs, from the posterior there, projected
    onto the tangent space."""
    kind = state.model.data.kind
    grad = unflatten_rows(kind, _ascent_gradient(state, post))
    return tangent_project_embedded(kind, e, grad)


def _resolve_step(state: AcquisitionState, config: AscentConfig) -> float:
    if config.step is not None:
        return config.step
    return 0.1 * state.model.params.lengthscale


def ascend(
    state: AcquisitionState, config: AscentConfig, starts: Sequence[ManifoldPoint]
) -> list[Optional[tuple[ManifoldPoint, float]]]:
    """Projected gradient ascent of the acquisition from every start at
    once; returns, per start, the last iterate and its PI, or None for a
    start whose retraction failed.

    The ascent climbs log PI (same maximizer, no saturation at PI = 1), or
    the negated posterior mean when ``state.exploit`` is set.  All starts
    ascend together as one stack of embedded points: every iterate stays
    exactly on the embedded image via the geodesic / retraction, and the
    posterior terms computed for an accepted trial point feed its gradient.
    Each row keeps its own step length and stops on its own; a stopped row
    does no further work.  A trial step that would decrease the acquisition
    is halved; after an accepted step the next trial is 1.5 times as long,
    so the step length adapts to the scale of the acquisition.  Trial steps
    that leave the manifold's chart (``within_chart``) or the trust radius
    count as not improving, so every iterate can be unembedded.  A row stops
    when its projected gradient is below ``grad_tol``, no halving helps, a
    step no longer raises the acquisition, a log-PI step gains less than
    ``LOG_PI_RTOL`` of the distance of log PI from 0, or ``max_steps`` is
    reached; every accepted step raises the acquisition, so a result never
    scores below its start.  Every row is computed on its own, so its result
    does not depend on the other starts.  Raises the last failure when every
    start fails.
    """
    kind = state.model.data.kind
    for x0 in starts:
        if x0.kind != kind:
            raise InvalidInputError(f"start kind {x0.kind} does not match model")
    e = np.stack([embed(x0) for x0 in starts])
    post = posterior_rows(state.model, flatten_rows(kind, e))
    acq = _ascent_value(state, post)
    tangent = _tangents(state, e, post)
    step = np.full(len(starts), _resolve_step(state, config))
    n_steps = np.ones(len(starts), dtype=int)  # gradients taken
    rejected = np.zeros(len(starts), dtype=int)  # trials of the current step
    active = ambient_norms(kind, tangent) >= config.grad_tol
    errors: dict[int, ManifoldError] = {}
    # Each round, every active row tries one step; a row never waits for
    # another's backtracking.
    while True:
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        e_cand = retract_embedded(kind, e[rows], tangent[rows], step[rows])
        w_cand = flatten_rows(kind, e_cand)
        failed = np.isnan(w_cand[:, 0])
        for row in rows[failed]:
            errors[int(row)] = AmbiguousSubspaceError(
                f"retraction from start {row} has no unique dominant subspace"
            )
        trial = np.flatnonzero(
            ~failed & within_chart(kind, e_cand) & _within_trust(state, w_cand)
        )
        post_cand = posterior_rows(state.model, w_cand[trial])
        acq_cand = _ascent_value(state, post_cand)
        accepted = acq_cand >= acq[rows[trial]]
        # An accepted step that does not raise the acquisition ends the row
        # where it is; one that raises it moves the row.
        moved = np.flatnonzero(accepted & (acq_cand != acq[rows[trial]]))
        new = rows[trial[moved]]
        gain = acq_cand[moved] - acq[new]
        e[new], acq[new] = e_cand[trial[moved]], acq_cand[moved]
        step[new] *= 1.5
        going = n_steps[new] < config.max_steps
        if not state.exploit:
            going &= ~(gain <= LOG_PI_RTOL * -acq[new])
        go = new[going]
        if go.size:
            tangent[go] = _tangents(state, e[go], post_cand.take(moved[going]))
            n_steps[go] += 1
            rejected[go] = 0
        retry = ~failed
        retry[trial[accepted]] = False
        retry = rows[retry]
        step[retry] *= 0.5
        rejected[retry] += 1
        active[rows] = False
        active[go] = ambient_norms(kind, tangent[go]) >= config.grad_tol
        active[retry] = rejected[retry] <= config.max_backtracks
    final = posterior_rows(state.model, flatten_rows(kind, e))
    pi = [normal_cdf(float(r)) for r in _improvement(state, final)[0]]
    results: list[Optional[tuple[ManifoldPoint, float]]] = []
    for row in range(len(starts)):
        point = None
        if row not in errors:
            try:
                point = unembed(kind, e[row])
            except ManifoldError as exc:
                errors[row] = exc
        results.append(None if point is None else (point, pi[row]))
    if len(errors) == len(starts):
        raise errors[len(starts) - 1]
    return results


def _into_trust(state: AcquisitionState, x: ManifoldPoint) -> ManifoldPoint:
    """A random start moved, in embedded coordinates, toward the incumbent
    until it lies within the trust radius, then back onto the manifold."""
    kind = x.kind
    w = flatten_ambient(kind, embed(x))
    if _within_trust(state, w[None])[0]:
        return x
    diff = w - state.trust_center
    pulled = state.trust_center + diff * (state.trust_radius / np.linalg.norm(diff))
    return unembed(kind, unflatten_ambient(kind, pulled))


def maximize(state: AcquisitionState, config: AscentConfig) -> ManifoldPoint:
    """Best acquisition point across multistart ascents.

    Starts from the best observed point plus ``n_starts - 1`` random points,
    each pulled within the trust radius, and ascends them all in one
    ``ascend`` call; deterministic given the config seed.  Starts are
    compared on what the ascent climbs (log PI, so candidates whose PI
    rounds to 1.0 still rank), at the returned points; ties keep the
    earliest start.  Random-start candidates outside the trust radius (a
    pulled-in start can land just outside it on a curved manifold) and
    start-level manifold failures are skipped, unless every start fails.

    Each start ascends on its own bits: the batch size changes no row's
    result, so the proposal is the one that ascending the starts one by one
    would give.  Proposals are bit-reproducible on one platform (one
    numpy/BLAS build), not across builds.
    """
    data = state.model.data
    incumbent = data.points[int(np.argmin(data.values))]
    rng = np.random.default_rng(config.seed)
    starts = [incumbent]
    for _ in range(config.n_starts - 1):
        try:
            starts.append(_into_trust(state, random_point(data.kind, rng)))
        except ManifoldError:
            continue
    results = ascend(state, config, starts)
    rows = [row for row, result in enumerate(results) if result is not None]
    w = flatten_rows(data.kind, np.stack([embed(results[row][0]) for row in rows]))
    eligible = np.flatnonzero(_within_trust(state, w) | (np.asarray(rows) == 0))
    if eligible.size == 0:
        raise ManifoldError("every acquisition start failed or left the trust radius")
    acq = _ascent_value(state, posterior_rows(state.model, w[eligible]))
    return results[rows[eligible[int(np.argmax(acq))]]][0]
