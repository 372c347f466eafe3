"""Gaussian process surrogate over embedded manifold coordinates.

The covariance between two manifold points is a squared-exponential kernel
evaluated on their ambient embeddings, which restricts to a valid positive
semi-definite kernel on the manifold.  The posterior uses the standard
equations around the dataset's prior mean (zero, or the least-squares
affine function of the embedded coordinates once the data determine it),
backed by a Cholesky factor of the noise-regularized Gram matrix, with an
escalating jitter fallback for the near-singular matrices that duplicate
proposals produce.  The fitted hyperparameters maximize the log marginal
likelihood, with the amplitude profiled out, by damped Newton ascent in the
log lengthscale; the objectives are deterministic, so a fitted model has no
noise and the jitter is its only diagonal term.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .manifolds import (
    InvalidInputError,
    ManifoldKind,
    ManifoldPoint,
    embed,
    flatten_ambient,
)

logger = logging.getLogger(__name__)

# Jitter escalation: start small, multiply by 10 until the Cholesky succeeds.
JITTER_INITIAL = 1e-10
JITTER_MAX = 1e-4
# Data per coefficient before the dataset fits its affine prior mean.
TREND_POINTS_PER_COEFFICIENT = 3
# Hyperparameter fitting: each start's Newton step budget, halvings per
# step, and stopping Newton decrement.  The caller sets the start count.
FIT_MAX_STEPS = 30
FIT_BACKTRACKS = 10
FIT_TOL = 1e-6


class IllConditionedModelError(RuntimeError):
    """Gram matrix could not be factorized even at maximum jitter."""


class FittingFailedError(RuntimeError):
    """No hyperparameter candidate produced a factorizable model."""


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel hyperparameters.

    lengthscale: distance scale in the embedding space.
    amplitude:   prior variance of the objective (kernel value at distance 0).
    noise:       observation noise variance added to the Gram diagonal; 0
                 once fitted (``fit_hyperparams``).
    """

    lengthscale: float
    amplitude: float
    noise: float

    def __post_init__(self):
        if not (self.lengthscale > 0.0 and math.isfinite(self.lengthscale)):
            raise InvalidInputError(f"lengthscale must be positive, got {self.lengthscale}")
        if not (self.amplitude > 0.0 and math.isfinite(self.amplitude)):
            raise InvalidInputError(f"amplitude must be positive, got {self.amplitude}")
        if not (self.noise >= 0.0 and math.isfinite(self.noise)):
            raise InvalidInputError(f"noise must be nonnegative, got {self.noise}")


@dataclass(frozen=True, eq=False)
class GpDataset:
    """Evaluated points with their cached flat embedding coordinates, and
    the prior mean and residuals derived from them.

    Immutable; ``append`` returns a new dataset.  All points must share one
    manifold kind and all values must be finite.
    """

    points: tuple[ManifoldPoint, ...]
    embedded: np.ndarray  # (n, D) flat embedding coordinates
    values: np.ndarray  # (n,)

    @classmethod
    def from_points(
        cls, points: Sequence[ManifoldPoint], values: Iterable[float]
    ) -> "GpDataset":
        points = tuple(points)
        values_arr = np.asarray(list(values), dtype=float)
        if len(points) == 0:
            raise InvalidInputError("dataset requires at least one point")
        if values_arr.shape != (len(points),):
            raise InvalidInputError(
                f"{len(points)} points but {values_arr.shape} values"
            )
        if not np.all(np.isfinite(values_arr)):
            raise InvalidInputError("dataset values contain non-finite entries")
        kind = points[0].kind
        for pt in points[1:]:
            if pt.kind != kind:
                raise InvalidInputError(f"mixed manifold kinds: {kind} vs {pt.kind}")
        emb = np.stack([flatten_ambient(kind, embed(pt)) for pt in points])
        return cls(points=points, embedded=emb, values=values_arr)

    def append(self, point: ManifoldPoint, value: float) -> "GpDataset":
        if point.kind != self.kind:
            raise InvalidInputError(f"kind mismatch: {self.kind} vs {point.kind}")
        if not math.isfinite(value):
            raise InvalidInputError(f"non-finite value {value!r}")
        row = flatten_ambient(point.kind, embed(point))[None, :]
        return GpDataset(
            points=self.points + (point,),
            embedded=np.concatenate([self.embedded, row]),
            values=np.append(self.values, value),
        )

    @property
    def kind(self) -> ManifoldKind:
        return self.points[0].kind

    @functools.cached_property
    def sq_dists(self) -> np.ndarray:
        """Squared embedded distances between all pairs of points; computed
        once and shared by every Gram matrix built on this dataset.

        Formed from coordinate differences: the expansion |a|^2 + |b|^2 -
        2 a.b loses absolute precision eps |a|^2, which swamps the distances
        between the closely spaced points of a converged run."""
        diffs = self.embedded[:, None, :] - self.embedded[None, :, :]
        return np.einsum("ijk,ijk->ij", diffs, diffs)

    @functools.cached_property
    def trend(self) -> np.ndarray:
        """The prior mean: least-squares coefficients (c0, c) of the affine
        function c0 + c.w of the flat embedded coordinates w that best fits
        the values; the kernel models the residual.  With a zero mean the
        kernel carries the whole trend, so its amplitude, and any jitter,
        which scales with it, grow with the spread of all values seen, and
        hide the small value differences near the optimum.

        All zeros (the zero mean) until there are
        ``TREND_POINTS_PER_COEFFICIENT`` data per coefficient: a fit of D + 1
        coefficients to barely more points nearly interpolates them, and its
        slope then sends the search far from the data."""
        design = np.hstack([np.ones((len(self), 1)), self.embedded])
        if len(self) < TREND_POINTS_PER_COEFFICIENT * design.shape[1]:
            return np.zeros(design.shape[1])
        return np.linalg.lstsq(design, self.values, rcond=None)[0]

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        """The values minus the prior mean at their points."""
        return self.values - (self.trend[0] + self.embedded @ self.trend[1:])

    def __len__(self) -> int:
        return len(self.points)


def gram_matrix(params: KernelParams, data: GpDataset) -> np.ndarray:
    """Kernel matrix of the dataset plus noise on the diagonal, from the
    dataset's cached squared distances; symmetric bit for bit."""
    k = params.amplitude * np.exp(-data.sq_dists / (2.0 * params.lengthscale**2))
    return 0.5 * (k + k.T) + params.noise * np.eye(len(data))


def _cholesky_with_jitter(gram: np.ndarray, amplitude: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, escalating diagonal jitter on failure: each
    decade from ``JITTER_INITIAL`` up to ``JITTER_MAX``, times the amplitude,
    both ends included (none when ``JITTER_MAX`` is below the start).  The
    levels are counted, not accumulated, so round-off cannot drop the last."""
    try:
        return np.linalg.cholesky(gram), 0.0
    except np.linalg.LinAlgError:
        pass
    levels = round(math.log10(JITTER_MAX / JITTER_INITIAL)) + 1 if JITTER_MAX > 0.0 else 0
    eye = np.eye(gram.shape[0])
    for level in reversed(range(levels)):
        jitter = JITTER_MAX * amplitude / 10.0**level
        try:
            chol = np.linalg.cholesky(gram + jitter * eye)
            logger.debug("Gram factorization needed jitter %.3g", jitter)
            return chol, jitter
        except np.linalg.LinAlgError:
            pass
    raise IllConditionedModelError(
        f"Cholesky failed up to jitter {JITTER_MAX * amplitude:g}"
    )


def _solve_chol(chol: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """L^{-1} b, or L^{-T} b with ``transpose``, for a C-ordered lower
    Cholesky factor L and a vector or matrix b.

    LAPACK's ``dtrtrs`` called exactly as ``scipy.linalg.solve_triangular``
    calls it (on the F-ordered upper factor L.T), so the bits are the same,
    without that function's argument validation, most of its cost on these
    small systems.  Raises LinAlgError on a zero diagonal, as it does."""
    x, info = dtrtrs(chol.T, b, lower=0, trans=0 if transpose else 1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


@dataclass(frozen=True, eq=False)
class GpModel:
    """Immutable fitted surrogate: hyperparameters, data, and solver state.

    The prior mean is the data's: the affine function ``data.trend`` =
    (c0, c) of the flat embedded coordinates, c0 + c.w, all zeros while the
    data are too few to fit it.  A linear mean in the ambient coordinates is
    the explicit-basis GP of Rasmussen & Williams (2006), Section 2.7, with
    the coefficients fixed at their least-squares values; the kernel then
    models the residual.

    ``chol_inv`` caches the inverse of the Cholesky factor L, so that the
    acquisition's inner loop forms v = L^{-1} k with one matrix-vector
    product per query instead of a triangular solve.  The posterior variance
    is then amplitude - v.v (Rasmussen & Williams 2006, Algorithm 2.1),
    which keeps its precision when the Gram matrix is ill-conditioned; the
    form k.(K^{-1} k) through an explicit Gram inverse does not.  It is
    computed on first use, as is ``alpha``: the log marginal likelihood
    needs neither, and a surrogate whose posterior is read only for its mean
    (an exploit round) never forms ``chol_inv``.
    """

    params: KernelParams
    data: GpDataset
    chol: np.ndarray  # lower triangular
    whitened: np.ndarray  # L^{-1} (y - prior mean)
    jitter: float

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        """(K + noise I)^{-1} (y - prior mean)."""
        return _solve_chol(self.chol, self.whitened, transpose=True)

    @functools.cached_property
    def chol_inv(self) -> np.ndarray:
        """L^{-1}, lower triangular."""
        return _solve_chol(self.chol, np.eye(self.chol.shape[0]))

    @classmethod
    def build(cls, params: KernelParams, data: GpDataset) -> "GpModel":
        chol, jitter = _cholesky_with_jitter(gram_matrix(params, data), params.amplitude)
        whitened = _solve_chol(chol, data.residuals)
        return cls(params=params, data=data, chol=chol, whitened=whitened, jitter=jitter)


@dataclass(frozen=True, eq=False)
class PosteriorRows:
    """Posterior mean at a stack of flat embedding coordinates w (S, D),
    with the terms it was formed from: the differences x_i - w to the data
    (its gradient reuses them), their squared norms and the cross-kernel k.

    The variance's terms are formed on demand, when a caller first reads
    them: v = L^{-1} k, the variance ``var`` and beta = L^{-T} v.  A caller
    that reads only the mean and its gradient (an exploit round) pays for
    none of them, and never reads ``GpModel.chol_inv``.

    Defined for any ambient location, on or off the embedded manifold; the
    finite-difference checks rely on off-manifold evaluations.  Every row is
    computed on its own (``np.einsum`` and stacked ``np.matmul``, one BLAS
    call per row, never one matrix-matrix product across rows), so a row's
    bits do not depend on how many rows are stacked.
    """

    model: GpModel
    diff: np.ndarray  # (S, n, D)
    sq_dists: np.ndarray  # (S, n)
    k: np.ndarray  # (S, n)
    mean: np.ndarray  # (S,)

    @functools.cached_property
    def v(self) -> np.ndarray:
        """L^{-1} k, (S, n)."""
        return np.matmul(self.model.chol_inv, self.k[:, :, None])[..., 0]

    @functools.cached_property
    def var(self) -> np.ndarray:
        """The posterior variance amplitude - v.v, (S,), clamped at 0."""
        var = self.model.params.amplitude - np.einsum("si,si->s", self.v, self.v)
        if (var < 0.0).any():
            # Round-off near (near-)duplicate data; routine once the search
            # concentrates, so logged quietly rather than warned per query.
            logger.debug("posterior variance %.3g clamped to 0", var.min())
            var = np.maximum(var, 0.0)
        return var

    @functools.cached_property
    def beta(self) -> np.ndarray:
        """L^{-T} v = K^{-1} k, (S, n)."""
        return np.matmul(self.model.chol_inv.T, self.v[:, :, None])[..., 0]

    def take(self, rows) -> "PosteriorRows":
        """The posterior at a subset of the rows (a list or an intp array of
        row indices), with the terms already formed."""
        taken = PosteriorRows(
            self.model,
            self.diff.take(rows, axis=0),
            self.sq_dists.take(rows, axis=0),
            self.k.take(rows, axis=0),
            self.mean.take(rows, axis=0),
        )
        for name in ("v", "var", "beta"):
            if name in self.__dict__:
                taken.__dict__[name] = self.__dict__[name].take(rows, axis=0)
        return taken

    def gradients(self, variance: bool = True) -> tuple[np.ndarray, ...]:
        """Gradients at each row, (S, D) each: of the posterior mean, then,
        unless ``variance`` is False, of the variance.

        The gradient of k_i is k_i (x_i - w) / l^2, so both are weighted
        sums of the differences: with weights alpha_i k_i for the mean and
        -2 beta_i k_i for the variance, where beta = K^{-1} k keeps the
        variance's precision next to the data.
        """
        model = self.model
        # The weights go into one preallocated (S, 1 or 2, n) stack, so that
        # one stacked product forms the sums.
        weights = np.empty((len(self.k), 1 + variance, self.k.shape[1]))
        np.multiply(self.k, model.alpha, out=weights[:, 0])
        if variance:
            np.multiply(self.k, self.beta, out=weights[:, 1])
        sums = np.matmul(weights, self.diff) / model.params.lengthscale**2
        dmean = model.data.trend[1:] + sums[:, 0]
        return (dmean, -2.0 * sums[:, 1]) if variance else (dmean,)


def posterior_rows(model: GpModel, w: np.ndarray) -> PosteriorRows:
    """Posterior at each row of the flat embedding coordinates w (S, D)."""
    params = model.params
    # C order: einsum sums in memory order, so the layout decides a row's bits.
    w = np.ascontiguousarray(w, dtype=float)
    diff = np.subtract(model.data.embedded, w[:, None, :], order="C")
    sq = np.einsum("snd,snd->sn", diff, diff)
    k = params.amplitude * np.exp(-sq / (2.0 * params.lengthscale**2))
    trend = model.data.trend
    mean = (
        trend[0]
        + np.einsum("sd,d->s", w, trend[1:])
        + np.einsum("sn,n->s", k, model.alpha)
    )
    return PosteriorRows(model, diff, sq, k, mean)


def point_posterior_rows(model: GpModel, x: ManifoldPoint) -> PosteriorRows:
    """The posterior at a manifold point, as a 1-row stack; raises
    ``InvalidInputError`` unless x is of the model's manifold kind."""
    if x.kind != model.data.kind:
        raise InvalidInputError(f"kind mismatch: {model.data.kind} vs {x.kind}")
    return posterior_rows(model, flatten_ambient(x.kind, embed(x))[None])


def posterior(model: GpModel, x: ManifoldPoint) -> tuple[float, float]:
    """Posterior mean and variance of the objective at a manifold point."""
    post = point_posterior_rows(model, x)
    return float(post.mean[0]), float(post.var[0])


def log_marginal_likelihood(model: GpModel) -> float:
    """Gaussian log evidence of the model's data around its prior mean."""
    n = len(model.data)
    data_fit = -0.5 * float(model.whitened @ model.whitened)
    log_det = float(np.log(model.chol.diagonal()).sum())
    return data_fit - log_det - 0.5 * n * math.log(2.0 * math.pi)


def median_heuristic_params(data: GpDataset) -> KernelParams:
    """Scale-free defaults: lengthscale from the median pairwise embedded
    distance, amplitude from the variance of the values about the prior mean
    (floored), small noise."""
    n = len(data)
    if n >= 2:
        med = float(np.median(np.sqrt(data.sq_dists[np.triu_indices(n, k=1)])))
    else:
        med = 0.0
    lengthscale = med if med > 1e-12 else 1.0
    amplitude = max(float(np.var(data.residuals)), 1e-6)
    return KernelParams(lengthscale=lengthscale, amplitude=amplitude, noise=1e-6 * amplitude)


def _lengthscale_bounds(data: GpDataset) -> tuple[float, float]:
    """1e-2 and 1e1 times the median-heuristic lengthscale.  The ceiling
    stays within an order of magnitude of the data spread so acquisition
    steps (which scale with the lengthscale) cannot run far outside the
    sampled region."""
    base = median_heuristic_params(data).lengthscale
    return 1e-2 * base, 1e1 * base


def _profiled(data: GpDataset, log_l: float) -> Optional[tuple[GpModel, float]]:
    """The noise-free, unit-amplitude model at lengthscale exp(log_l), and
    the log marginal likelihood at the amplitude that maximizes it,
    a* = |whitened|^2 / n: an amplitude a scales the Gram matrix and its
    jitter by a, so the unit model's likelihood gains n/2 (a* - 1 - log a*).
    None where the Gram matrix cannot be factorized or a* is 0."""
    try:
        model = GpModel.build(KernelParams(math.exp(log_l), 1.0, 0.0), data)
    except IllConditionedModelError:
        return None
    n = len(data)
    amplitude = float(model.whitened @ model.whitened) / n
    if not amplitude > 0.0:
        return None
    gain = 0.5 * n * (amplitude - 1.0 - math.log(amplitude))
    return model, log_marginal_likelihood(model) + gain


def _profiled_derivatives(model: GpModel) -> tuple[float, float]:
    """The first and second derivatives of the profiled log marginal
    likelihood in theta = log lengthscale, at the unit-amplitude model.

    That likelihood is -n/2 log q - log det(C) / 2 plus a constant, with C
    the unit kernel matrix, r the residuals and q = r' C^{-1} r (Jones,
    Schonlau & Welch 1998).  With R = D / l^2, C' = C R and C'' = C' (R - 2)
    elementwise, and alpha = C^{-1} r:

        g = n alpha' C' alpha / 2q - tr(C^{-1} C') / 2
        h = n (alpha' C'' alpha - 2 alpha' C' C^{-1} C' alpha) / 2q
            + n (alpha' C' alpha)^2 / 2q^2
            - tr(C^{-1} C'') / 2 + tr(C^{-1} C' C^{-1} C') / 2

    Any jitter the factorization needed is held fixed."""
    n = len(model.data)
    ratio = model.data.sq_dists / model.params.lengthscale**2
    dk = np.exp(-0.5 * ratio) * ratio
    d2k = dk * (ratio - 2.0)
    k_inv = model.chol_inv.T @ model.chol_inv
    k_inv_dk = k_inv @ dk
    alpha, dk_alpha = model.alpha, dk @ model.alpha
    q = float(model.whitened @ model.whitened)
    fit = float(alpha @ dk_alpha)
    grad = 0.5 * n * fit / q - 0.5 * float(np.trace(k_inv_dk))
    # C^{-1} and C'' are symmetric, so tr(C^{-1} C'') sums their product.
    curv = 0.5 * (
        n * (float(alpha @ d2k @ alpha) - 2.0 * float(dk_alpha @ k_inv @ dk_alpha)) / q
        + n * fit**2 / q**2 - float(np.sum(k_inv * d2k)) + float(np.sum(k_inv_dk * k_inv_dk.T))
    )
    return grad, curv


def fit_hyperparams(
    data: GpDataset, init: KernelParams, n_starts: int, seed: int = 0
) -> KernelParams:
    """Maximize the log marginal likelihood around the data's prior mean
    over the lengthscale l alone: ``KernelParams(l, a*, 0.0)``.  The
    amplitude a* is profiled out (``_profiled``), and the objectives are
    deterministic, so there is no noise: the factorization's jitter is the
    only diagonal term.

    Damped Newton ascent on theta = log l inside the interval the data set
    (``_lengthscale_bounds``), from ``n_starts`` starts: ``init.lengthscale``
    clipped to the interval, then the first ``n_starts - 1`` uniform draws
    from it of ``default_rng(seed)``.  A fit with fewer starts thus tries a
    prefix of a longer fit's starts.  ``bo.run`` fits the initial design
    from ``FIT_RESTARTS`` starts and warm-starts each refit from the current
    values and one draw (``REFIT_RESTARTS``): a refit adds a few points to
    data the current values already fit, so they usually lie in the new
    optimum's basin.

    Each step d is g / |h| (``_profiled_derivatives``), clipped to the
    interval: Newton where h < 0, and still an ascent where it is not.  It
    halves d, up to ``FIT_BACKTRACKS`` times, until the likelihood rises.
    A start stops when the Newton decrement g d / 2 falls below
    ``FIT_TOL``, when no halving helps, or after ``FIT_MAX_STEPS`` steps.
    A start or trial that ``_profiled`` cannot score is skipped.
    Deterministic given the seed.  Raises FittingFailedError when no start
    can be scored.
    """
    if len(data) < 2:
        raise InvalidInputError("hyperparameter fitting requires at least 2 points")
    if n_starts < 1:
        raise InvalidInputError(f"n_starts must be >= 1, got {n_starts}")
    lo, hi = _lengthscale_bounds(data)
    log_lo, log_hi = math.log(lo), math.log(hi)
    rng = np.random.default_rng(seed)
    starts = [math.log(init.lengthscale)]
    starts += [float(rng.uniform(log_lo, log_hi)) for _ in range(n_starts - 1)]
    best = None
    for log_l in starts:
        log_l = min(max(log_l, log_lo), log_hi)
        scored = _profiled(data, log_l)
        if scored is None:
            continue
        model, value = scored
        for _ in range(FIT_MAX_STEPS):
            grad, curv = _profiled_derivatives(model)
            # No step where the likelihood is flat, as it is once every
            # off-diagonal kernel value underflows.
            step = min(max(log_l + grad / abs(curv), log_lo), log_hi) - log_l if curv else 0.0
            if 0.5 * grad * step <= FIT_TOL:
                break
            # A trial is scored by its likelihood alone; only the accepted
            # one pays for derivatives, at the next step.
            for _ in range(FIT_BACKTRACKS + 1):
                scored = _profiled(data, log_l + step)
                if scored is not None and scored[1] > value:
                    break
                step *= 0.5
            else:
                break
            log_l += step
            model, value = scored
        if best is None or value > best[2]:
            best = (log_l, model, value)
    if best is None:
        raise FittingFailedError("no hyperparameter start could be scored")
    log_l, model, _ = best
    amplitude = float(model.whitened @ model.whitened) / len(data)
    # The log/exp roundtrip can land an ulp outside the interval; clip it back.
    return KernelParams(min(max(math.exp(log_l), lo), hi), amplitude, 0.0)
