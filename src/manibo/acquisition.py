"""Probability-of-improvement acquisition and its ascent over the manifold.

The acquisition value at x is the posterior probability that the objective
beats the incumbent: Phi((f_best - mean) / sigma).  It is maximized by
projected gradient ascent in the embedding space: the analytic ambient
gradient is projected onto the tangent space of the embedded manifold and
a step is taken with the manifold's retraction (``retract_embedded``), so
every iterate stays on the manifold.  Multistart makes the search global: the
starts are drawn as embedded rows, climb there, are ranked on the values
their ascent reached, and only the winner is mapped back to a manifold
point.

The ascent climbs log Phi, which has the same maximizer.  PI rounds to
exactly 1.0 once the standardized improvement passes about 8.3, so an
ascent that compares PI values cannot rank points beyond it; log Phi keeps
ranking them, with a usable gradient, up to about 38 (Ament et al.,
NeurIPS 2023).  An exploit round climbs the negated posterior mean instead.
Either way a row stops once a step gains only a small fraction of what is
left to gain: -log PI, or the improvement the row predicts over the
incumbent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

from .egp import GpModel, PosteriorRows, point_posterior_rows, posterior_rows
from .manifolds import (
    InvalidInputError,
    ManifoldPoint,
    ambient_norms,
    embed,
    retract_embedded,
    tangent_project_embedded,
    unembed,
    unflatten_ambient,
)

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# An ascent row stops once an accepted step gains no more than this fraction
# of what is left to gain: the distance of log PI from 0 (certain
# improvement), or, climbing -mean, the improvement the row predicts over
# the incumbent.  Past that the row only crawls toward certainty or polishes
# a minimizer of the mean, and ranking the starts needs no more than this
# relative precision.
ASCENT_RTOL = 3e-3
# The ascent's first trial step, in lengthscales per unit of the tangent: a
# row moves ASCENT_STEP * lengthscale * |tangent|, far where |tangent| is
# large (at the incumbent, where sigma sits at its floor).
ASCENT_STEP = 0.1
# Halvings of a row's trial step before its ascent stops.
MAX_BACKTRACKS = 20
# Trial steps a row tries in its first round after an accepted step: its
# step and its next halvings, scored in one stack; it takes the first that
# is not rejected.  A round after k halvings tries ASCENT_LOOKAHEAD + k, so
# each round that rejects all of its trials doubles the next round's.
ASCENT_LOOKAHEAD = 4
# Gradients a row takes before its ascent stops.
ASCENT_MAX_STEPS = 200
# A row whose projected gradient is shorter than this is stationary.
ASCENT_GRAD_TOL = 1e-8
# Points closer than this embedded distance are one point to the loop: a
# proposal this close to a datum is perturbed before evaluation (so that the
# Gram matrix stays factorizable), and an ascent row stops once its next
# trial would move it less than this.
DEDUP_TOL = 1e-8
# Starts per maximization: the incumbent and this many less one random
# draws; a draw outside the trust radius returns at -inf, unranked.
ASCENT_STARTS = 10


def inverse_mills_ratio(z):
    """phi(z) / Phi(z), the derivative of log Phi at z (elementwise).

    Written as sqrt(2/pi) / erfcx(-z/sqrt(2)), which follows the Mills-ratio
    asymptote -z for z << 0 without forming exp(-z^2/2) / Phi(z) (both
    underflow there) and goes smoothly to 0 for z >> 0.
    """
    return SQRT_2_OVER_PI / erfcx(-np.asarray(z, dtype=float) / SQRT2)


@dataclass(frozen=True)
class AcquisitionState:
    """Frozen view of one acquisition round: surrogate and incumbent value.

    ``trust_radius`` keeps the ascent's starts and trials within that
    embedded distance of the incumbent's datum; it must be positive
    (``math.inf`` for no trust region).  ``exploit`` makes the round climb
    the negated posterior mean instead of PI, proposing the surrogate's
    minimizer.
    """

    model: GpModel
    best_value: float
    trust_radius: float = math.inf
    exploit: bool = False

    def __post_init__(self):
        if not math.isfinite(self.best_value):
            raise InvalidInputError(f"best_value must be finite, got {self.best_value}")
        if not self.trust_radius > 0.0:
            raise InvalidInputError(f"trust_radius must be positive, got {self.trust_radius}")

    @functools.cached_property
    def sigma_floor(self) -> float:
        """The floor applied to the posterior deviation before dividing by
        it: 1e-12 of the prior deviation."""
        return 1e-12 * math.sqrt(self.model.params.amplitude)

    @functools.cached_property
    def incumbent(self) -> int:
        """Data index of the best observed point (the first of ties)."""
        return int(np.argmin(self.model.data.values))


def _improvement(
    state: AcquisitionState, post: PosteriorRows
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: r = (f_best - mean) / sigma (PI is Phi(r)), sigma, and
    whether sigma is above its floor (so that it varies with w)."""
    sigma_raw = np.sqrt(post.var)
    sigma = np.maximum(sigma_raw, state.sigma_floor)
    return (state.best_value - post.mean) / sigma, sigma, sigma_raw > state.sigma_floor


def _improvement_gradient(
    post: PosteriorRows, r: np.ndarray, sigma: np.ndarray, free: np.ndarray
) -> np.ndarray:
    """The gradient of r in flat coordinates, per row, from the posterior
    and the terms ``_improvement`` computed from it."""
    dmean, dvar = post.gradients()
    sigma_col = sigma[:, None]
    # Where the floor is active, sigma is locally constant.
    dsigma = np.where(free[:, None], dvar / (2.0 * sigma_col), 0.0)
    return -dmean / sigma_col - (r / sigma)[:, None] * dsigma


def _ascent_value(
    state: AcquisitionState, post: PosteriorRows
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """What the ascent climbs, per row: log PI, or the negated posterior
    mean when the round exploits; with the terms of ``_improvement`` that
    its gradient reuses (none when the round exploits)."""
    if state.exploit:
        return -post.mean, ()
    terms = _improvement(state, post)
    return log_ndtr(terms[0]), terms


def _ascent_gradient(
    state: AcquisitionState, post: PosteriorRows, terms: tuple[np.ndarray, ...]
) -> np.ndarray:
    """The gradient of ``_ascent_value`` per row, from the posterior and the
    terms its value pass returned."""
    if state.exploit:
        return -post.gradients(variance=False)[0]
    return inverse_mills_ratio(terms[0])[:, None] * _improvement_gradient(post, *terms)


def pi_value(state: AcquisitionState, x: ManifoldPoint) -> float:
    """Probability that the objective at x improves on the incumbent; raises
    ``InvalidInputError`` unless x is of the surrogate's manifold kind."""
    r, _, _ = _improvement(state, point_posterior_rows(state.model, x))
    return float(ndtr(r[0]))


def pi_gradient_ambient(state: AcquisitionState, x: ManifoldPoint) -> np.ndarray:
    """Ambient gradient of the acquisition at the embedding of x, phi(r)
    times the gradient of r.

    Matches central finite differences of the acquisition in flat ambient
    coordinates; project onto the tangent space before stepping.  Raises
    ``InvalidInputError`` unless x is of the surrogate's manifold kind.
    """
    post = point_posterior_rows(state.model, x)
    r, sigma, free = _improvement(state, post)
    dr = _improvement_gradient(post, r, sigma, free)
    density = INV_SQRT_2PI * math.exp(-0.5 * float(r[0]) ** 2)
    return unflatten_ambient(x.kind, density * dr[0])


def _inside_radius(state: AcquisitionState, post: PosteriorRows) -> np.ndarray:
    """Per row of a posterior pass, the ascent's one trust test: its squared
    distance to the incumbent's datum is within the radius squared (never
    for a NaN row, not even at an infinite radius)."""
    return post.sq_dists[:, state.incumbent] <= state.trust_radius**2


def _tangents(
    state: AcquisitionState, e: np.ndarray, post: PosteriorRows, terms: tuple[np.ndarray, ...]
) -> np.ndarray:
    """The ascent direction at each row of the embedded points e: the
    gradient of what the ascent climbs, from the posterior there and the
    terms of its value pass, projected onto the tangent space."""
    kind = state.model.data.kind
    grad = kind.unflatten_rows(_ascent_gradient(state, post, terms))
    return tangent_project_embedded(kind, e, grad)


def ascend(state: AcquisitionState, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent of the acquisition from every start at
    once.  ``e`` stacks the embedded starts along a leading axis; returns
    the last accepted iterate of every start, stacked the same way, and the
    value the ascent reached there.  ``e`` itself is not modified.  Every
    start and trial must pass one test, ``_inside_radius``: finite and
    within the trust radius.  A start that fails it never climbs and
    returns unmoved at -inf, so every row returned lies within the radius
    or has the value -inf.

    The ascent climbs log PI (same maximizer, no saturation at PI = 1), or
    the negated posterior mean when ``state.exploit`` is set, which forms
    only the mean and its gradient, no variance term.  All starts
    ascend together as one stack of embedded points: every iterate stays
    exactly on the embedded image via the retraction, and the
    posterior terms and the improvement r, sigma computed for an accepted
    trial point feed its gradient.
    Each row keeps its own step length and stops on its own; a stopped row
    does no further work.  A trial step that would decrease the acquisition
    is halved; after an accepted step the next trial is 1.5 times as long,
    so the step length adapts to the scale of the acquisition.  Every trial
    is scored in one pass; one that fails the test (NaN: no unique nearest
    image point, or outside the chart) is rejected like one that does not
    improve, so every iterate can be unembedded.  The first trial moves a
    row ``ASCENT_STEP`` * lengthscale * |tangent|.  A row stops when its
    projected gradient is below ``ASCENT_GRAD_TOL``, its next trial would
    move it less than ``DEDUP_TOL`` (the displacement step * |tangent|; the
    loop treats points that close as one, and perturbs a proposal that
    close to a datum, with the same constant), ``MAX_BACKTRACKS`` halvings
    do not help, a step no longer raises the acquisition, an accepted step
    gains no more than ``ASCENT_RTOL`` of what is left to gain (-log PI,
    or, in an exploit round, the improvement |f_best - mean| the row
    predicts over the incumbent), or ``ASCENT_MAX_STEPS`` gradients have
    been taken; every accepted step raises the acquisition, so a result
    never scores below its start.

    The ascent runs in rounds.  Each round, every climbing row tries its
    trial step and its next halvings together, in one stacked retraction
    and one stacked posterior: ``ASCENT_LOOKAHEAD`` trials in its first
    round after an accepted step, twice as many after each round that
    rejects them all (an exponential search, Bentley & Yao 1976), no more
    than its halvings left and only those that move it at least
    ``DEDUP_TOL``.  The rows that move on take their next gradients in one
    stacked pass.  The row takes the first trial that is not rejected and
    discards the trials after it; when every trial is rejected, its step is
    halved once per trial.  So a round after k halvings tries
    ``ASCENT_LOOKAHEAD`` + k (4, 8 and 16 after 0, 4 and 12): a round cut
    short by the cap or the floor ends its row.  A row rejected at every
    trial makes at most 3 rounds (4 + 8 + 9 trials), not 21, and every row
    reaches the iterates that trying one trial per round would, whatever
    the lookahead.
    Every row is computed on its own, so its result does not depend on the
    other starts.  Raises ``InvalidInputError`` unless ``e`` is a non-empty
    stack of the kind's ambient shape.
    """
    kind = state.model.data.kind
    e = np.array(e, dtype=float, order="C")
    if e.shape[1:] != kind.ambient_shape or len(e) == 0:
        raise InvalidInputError(
            f"starts have shape {e.shape}, expected (n >= 1,) + {kind.ambient_shape}"
        )
    post = posterior_rows(state.model, kind.flatten_rows(e))
    values, terms = _ascent_value(state, post)
    tangent = _tangents(state, e, post, terms)
    # The per-row bookkeeping is plain Python on scalars, which round as
    # numpy's float64 does and cost far less on these few rows.
    inside = _inside_radius(state, post).tolist()
    acq = [value if ok else -math.inf for value, ok in zip(values.tolist(), inside)]
    speed = ambient_norms(kind, tangent).tolist()  # |tangent| per row
    step = [ASCENT_STEP * state.model.params.lengthscale] * len(e)
    n_steps = [1] * len(e)  # gradients taken
    rejected = [0] * len(e)  # trials of the current step
    climbing = [i for i in range(len(e)) if inside[i] and speed[i] >= ASCENT_GRAD_TOL]
    halving = [0.5**j for j in range(MAX_BACKTRACKS + 2)]  # exact scalings
    while climbing:
        # Trial j of a row halves its step j times: the step that j
        # rejections would leave.  A row tries only the trials that move it
        # at least DEDUP_TOL (the displacement step * |tangent| * 0.5**j),
        # and stops when it has none.
        src, trial_step = [], []  # per trial: its row and its step
        tried = []  # per trying row: (row, its first trial, its trial count)
        for i in climbing:
            reach = step[i] * speed[i]
            limit = min(ASCENT_LOOKAHEAD + rejected[i], MAX_BACKTRACKS + 1 - rejected[i])
            first = len(src)
            j = 0
            while j < limit and reach * halving[j] >= DEDUP_TOL:
                src.append(i)
                trial_step.append(step[i] * halving[j])
                j += 1
            if j:
                tried.append((i, first, j))
        if not tried:
            break
        # Every gather and scatter of the round's rows takes one intp array:
        # a list index is converted again at every use.
        src = np.array(src, dtype=np.intp)
        e_cand = retract_embedded(
            kind, e.take(src, axis=0), tangent.take(src, axis=0), np.array(trial_step)
        )
        post_cand = posterior_rows(state.model, kind.flatten_rows(e_cand))
        acq_cand, terms_cand = _ascent_value(state, post_cand)
        value = acq_cand.tolist()
        inside = _inside_radius(state, post_cand).tolist()
        # A row's first trial inside the radius that does not lower the
        # acquisition decides it: the trial that trying one trial per round
        # would reach; later trials are discarded.  A deciding trial that
        # raises the acquisition moves the row, one that does not ends it
        # there; a row with no deciding trial halves its step once per trial.
        moved, go, pick, retry = [], [], [], []
        for i, first, n_trials in tried:
            for t in range(first, first + n_trials):
                if inside[t] and value[t] >= acq[i]:
                    break
            else:
                step[i] *= halving[n_trials]
                rejected[i] += n_trials
                if rejected[i] <= MAX_BACKTRACKS:
                    retry.append(i)
                continue
            if not value[t] > acq[i]:
                continue
            gain = value[t] - acq[i]
            moved.append(t)
            acq[i], step[i] = value[t], trial_step[t] * 1.5
            remaining = abs(state.best_value + value[t]) if state.exploit else -value[t]
            if n_steps[i] < ASCENT_MAX_STEPS and not gain <= ASCENT_RTOL * remaining:
                go.append(i)
                pick.append(t)
        if moved:
            moved = np.array(moved, dtype=np.intp)
            e[src.take(moved)] = e_cand.take(moved, axis=0)
        if go:
            rows, pick = np.array(go, dtype=np.intp), np.array(pick, dtype=np.intp)
            # The trial's posterior and value terms feed its gradient.
            fresh = _tangents(
                state,
                e.take(rows, axis=0),
                post_cand.take(pick),
                tuple(term.take(pick, axis=0) for term in terms_cand),
            )
            tangent[rows] = fresh
            for i, s in zip(go, ambient_norms(kind, fresh).tolist()):
                n_steps[i] += 1
                rejected[i] = 0
                speed[i] = s
                if s >= ASCENT_GRAD_TOL:
                    retry.append(i)
        climbing = sorted(retry)
    return e, np.array(acq)


def maximize(state: AcquisitionState, seed: int) -> ManifoldPoint:
    """Best acquisition point across multistart ascents.

    Ascends the best observed point and ``ASCENT_STARTS - 1`` random
    embedded draws from ``seed``, drawn as one stack, together in one
    ``ascend`` call; deterministic given the seed.  Starts are ranked on the
    values their ascent reached (log PI, so candidates whose PI rounds to
    1.0 still rank), at their embedded last iterates; ties keep the
    earliest start.  A draw that fails ``ascend``'s trust test (outside the
    radius, or NaN: an Spd draw past the chart) returns at -inf and never
    wins; row 0, the incumbent's, lies at distance 0 and always passes.
    Only the winner is unembedded.

    Each start ascends on its own bits: the batch size changes no row's
    result, so the proposal is the one that ascending the starts one by one
    would give.  Proposals are bit-reproducible on one platform (one
    numpy/BLAS build), not across builds.
    """
    kind = state.model.data.kind
    incumbent = embed(state.model.data.points[state.incumbent])
    draws = kind.random_embedded(np.random.default_rng(seed), ASCENT_STARTS - 1)
    e, acq = ascend(state, np.concatenate([incumbent[None], draws]))
    return unembed(kind, e[int(np.argmax(acq))])
