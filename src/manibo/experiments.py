"""Benchmark problems: sphere averaging, subspace matrix approximation, and
kernel regression with SPD responses.

Each construction yields a black-box ``Objective`` together with an
independent ground-truth oracle:

* Mean-on-sphere: the average squared embedded distance to a point cloud.
  Its minimizer is the projection of the embedded average back onto the
  manifold, in closed form.
* Subspace approximation: the Frobenius error of reconstructing a fixed
  full-rank matrix from a p-dimensional subspace; the optimum is the span
  of the top left singular vectors.
* SPD kernel regression: a locally-weighted sum of squared log-Euclidean
  distances; its minimizer is the weighted log-Euclidean mean, also in
  closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baselines import GradObjective
from .bo import Objective
from .manifolds import (
    InvalidInputError,
    ManifoldError,
    ManifoldPoint,
    Grassmann,
    Spd,
    Sphere,
    embed,
    flatten_ambient,
    project_to_image,
    unembed,
    unflatten_ambient,
)


class EmptyNeighborhoodError(ValueError):
    """Every regression weight underflowed: the query is too far from the data."""


# ---------------------------------------------------------------------------
# Mean estimation on a sphere


@dataclass(frozen=True)
class FrechetProblem:
    """Point cloud whose mean-squared embedded distance is minimized."""

    data: tuple[ManifoldPoint, ...]

    def __post_init__(self):
        if not self.data:
            raise InvalidInputError("mean estimation requires at least one data point")
        kind = self.data[0].kind
        for pt in self.data[1:]:
            if pt.kind != kind:
                raise InvalidInputError("data points are on different manifolds")

    @property
    def kind(self):
        return self.data[0].kind


def latitude_circle_problem(n_points: int = 8, z: float = -0.5) -> FrechetProblem:
    """Equispaced points on the latitude circle of S^2 at height z."""
    if not -1.0 < z < 1.0:
        raise InvalidInputError(f"latitude height must be in (-1, 1), got {z}")
    radius = math.sqrt(1.0 - z * z)
    kind = Sphere(2)
    points = []
    for i in range(n_points):
        theta = 2.0 * math.pi * i / n_points
        points.append(
            ManifoldPoint(kind, [radius * math.cos(theta), radius * math.sin(theta), z])
        )
    return FrechetProblem(data=tuple(points))


def _problem_embeddings(problem: FrechetProblem) -> np.ndarray:
    kind = problem.kind
    return np.stack([flatten_ambient(kind, embed(pt)) for pt in problem.data])


def extrinsic_mean_oracle(problem: FrechetProblem) -> ManifoldPoint:
    """Closed-form minimizer: project the embedded average onto the manifold.

    Raises DegenerateProjectionError when the average has no nearest point
    (e.g. balanced antipodal data on a sphere averaging to the origin).
    """
    kind = problem.kind
    mean_flat = _problem_embeddings(problem).mean(axis=0)
    return unembed(kind, project_to_image(kind, unflatten_ambient(kind, mean_flat)))


def frechet_objective(problem: FrechetProblem) -> Objective:
    """Average squared embedded distance to the data points.

    The closed-form minimizer is attached as the oracle when it exists.
    """
    kind = problem.kind
    emb = _problem_embeddings(problem)

    def fn(x: ManifoldPoint) -> float:
        w = flatten_ambient(kind, embed(x))
        diff = emb - w
        return float(np.mean(np.einsum("ij,ij->i", diff, diff)))

    oracle_point: Optional[ManifoldPoint] = None
    oracle_value: Optional[float] = None
    try:
        oracle_point = extrinsic_mean_oracle(problem)
        oracle_value = fn(oracle_point)
    except ManifoldError:
        pass
    return Objective(
        kind=kind,
        fn=fn,
        oracle_point=oracle_point,
        oracle_value=oracle_value,
        name="frechet-mean",
    )


def frechet_grad_objective(problem: FrechetProblem) -> GradObjective:
    """Mean-distance objective with its analytic ambient gradient 2(x - mean)."""
    base = frechet_objective(problem)
    kind = problem.kind
    mean_flat = _problem_embeddings(problem).mean(axis=0)

    def grad(x: ManifoldPoint) -> np.ndarray:
        w = flatten_ambient(kind, embed(x))
        return unflatten_ambient(kind, 2.0 * (w - mean_flat))

    return GradObjective(base=base, grad=grad)


# ---------------------------------------------------------------------------
# Matrix approximation on a subspace manifold


@dataclass(frozen=True, eq=False)
class GrassmannApproxProblem:
    """Approximate a full-rank n x m matrix from a p-dimensional subspace."""

    matrix: np.ndarray
    p: int

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise InvalidInputError("matrix must be 2-dimensional")
        n, m = matrix.shape
        if n > m:
            raise InvalidInputError(f"matrix must have n <= m, got {n}x{m}")
        if not 1 <= self.p < m:
            raise InvalidInputError(f"target dimension p={self.p} must satisfy 1 <= p < m")
        if self.p >= n:
            raise InvalidInputError(f"target dimension p={self.p} must be below n={n}")
        singular = np.linalg.svd(matrix, compute_uv=False)
        if singular[-1] <= 1e-10 * singular[0]:
            raise InvalidInputError("matrix is rank deficient")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def kind(self) -> Grassmann:
        return Grassmann(self.p, self.matrix.shape[0])


def random_approx_problem(
    n: int = 3, m: int = 6, p: int = 2, seed: int = 0
) -> GrassmannApproxProblem:
    """Seeded Gaussian target matrix (full rank with probability one)."""
    rng = np.random.default_rng(seed)
    return GrassmannApproxProblem(matrix=rng.standard_normal((n, m)), p=p)


def approx_weights(frame: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Least-squares coefficients W solving frame @ W ~ matrix, column-wise."""
    return np.linalg.solve(frame.T @ frame, frame.T @ matrix)


def grassmann_objective(problem: GrassmannApproxProblem) -> Objective:
    """Frobenius reconstruction error from a subspace; frame-invariant."""
    matrix = problem.matrix
    oracle_point, oracle_value = svd_oracle(problem)

    def fn(x: ManifoldPoint) -> float:
        weights = approx_weights(x.coords, matrix)
        return float(np.linalg.norm(x.coords @ weights - matrix))

    return Objective(
        kind=problem.kind,
        fn=fn,
        oracle_point=oracle_point,
        oracle_value=oracle_value,
        name="subspace-approx",
    )


def svd_oracle(problem: GrassmannApproxProblem) -> tuple[ManifoldPoint, float]:
    """Optimal subspace and its error from the singular value decomposition.

    The best frame spans the top-p left singular vectors; the error is the
    root-sum-square of the discarded singular values.  A tie between the
    p-th and (p+1)-th singular value makes the optimum non-unique, which is
    reported as a warning.
    """
    u, s, _ = np.linalg.svd(problem.matrix)
    p = problem.p
    if s[p - 1] - s[p] < 1e-10:
        warnings.warn(
            f"singular values {p} and {p + 1} are tied; optimal subspace is not unique",
            RuntimeWarning,
            stacklevel=2,
        )
    point = ManifoldPoint(problem.kind, u[:, :p])
    return point, float(np.sqrt(np.sum(s[p:] ** 2)))


# ---------------------------------------------------------------------------
# Kernel regression with SPD responses

# Fixed symmetric generators of the synthetic response curve in log
# coordinates: response(z) = expm(CURVE_BASE + z * CURVE_DIRECTION + noise).
CURVE_BASE = np.array(
    [
        [0.20, 0.05, 0.00],
        [0.05, -0.10, 0.05],
        [0.00, 0.05, 0.30],
    ]
)
CURVE_DIRECTION = np.array(
    [
        [0.50, 0.20, 0.00],
        [0.20, 0.00, -0.30],
        [0.00, -0.30, 0.40],
    ]
)

WEIGHT_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class SpdRegressionProblem:
    """Scalar covariates with SPD responses, a bandwidth, and one query."""

    covariates: np.ndarray
    responses: tuple[ManifoldPoint, ...]
    bandwidth: float
    query: float

    def __post_init__(self):
        covariates = np.array(self.covariates, dtype=float)
        if covariates.ndim != 1 or covariates.size != len(self.responses):
            raise InvalidInputError("covariates and responses must have equal length")
        if not self.bandwidth > 0.0:
            raise InvalidInputError(f"bandwidth must be positive, got {self.bandwidth}")
        for pt in self.responses:
            if not isinstance(pt.kind, Spd):
                raise InvalidInputError("responses must be Spd points")
        covariates.setflags(write=False)
        object.__setattr__(self, "covariates", covariates)

    @property
    def kind(self) -> Spd:
        return self.responses[0].kind


def generate_spd_regression_data(
    n: int = 75,
    noise: float = 0.05,
    seed: int = 0,
    bandwidth: float = 0.1,
    query: float = 0.5,
) -> SpdRegressionProblem:
    """Synthetic regression data along a smooth curve of 3x3 SPD matrices.

    Covariates are n equispaced locations in [0, 1]; each response is the
    matrix exponential of the curve value plus a seeded symmetric Gaussian
    perturbation of scale ``noise``.
    """
    rng = np.random.default_rng(seed)
    covariates = np.linspace(0.0, 1.0, n)
    kind = Spd(3)
    responses = []
    for z in covariates:
        perturbation = noise * project_to_image(kind, rng.standard_normal((3, 3)))
        responses.append(unembed(kind, CURVE_BASE + z * CURVE_DIRECTION + perturbation))
    return SpdRegressionProblem(
        covariates=covariates,
        responses=tuple(responses),
        bandwidth=bandwidth,
        query=query,
    )


def regression_weights(problem: SpdRegressionProblem) -> np.ndarray:
    """Gaussian kernel weights (1/h) K_h(query, z_i) at the problem's query."""
    h = problem.bandwidth
    w = np.exp(-((problem.query - problem.covariates) ** 2) / (2.0 * h * h)) / h
    if np.all(w < WEIGHT_FLOOR):
        raise EmptyNeighborhoodError(
            f"query {problem.query} is too far from every covariate"
        )
    return w


def response_design(
    problem: SpdRegressionProblem, k: int, seed: int
) -> tuple[ManifoldPoint, ...]:
    """Seeded size-k subset of the responses, used as the optimizer's initial
    design: the regression estimate is a weighted mean of the responses, so
    their log-convex hull brackets the minimizer, unlike points drawn
    uniformly from the whole (unbounded) SPD cone."""
    if not 1 <= k <= len(problem.responses):
        raise InvalidInputError(
            f"design size {k} must be within 1..{len(problem.responses)}"
        )
    rng = np.random.default_rng(seed)
    indices = rng.choice(len(problem.responses), size=k, replace=False)
    return tuple(problem.responses[i] for i in indices)


def weighted_mean_oracle(problem: SpdRegressionProblem) -> ManifoldPoint:
    """Closed-form minimizer: the weighted log-Euclidean mean of the responses."""
    w = regression_weights(problem)
    logs = np.stack([embed(pt) for pt in problem.responses])
    mean_log = np.einsum("i,ijk->jk", w, logs) / w.sum()
    return unembed(problem.kind, mean_log)


def spd_regression_objective(problem: SpdRegressionProblem) -> Objective:
    """Locally-weighted sum of squared log-Euclidean distances to the responses."""
    w = regression_weights(problem)
    logs = np.stack([embed(pt) for pt in problem.responses])
    oracle_point = weighted_mean_oracle(problem)

    def fn(y: ManifoldPoint) -> float:
        diff = logs - embed(y)
        return float(w @ np.einsum("ijk,ijk->i", diff, diff))

    return Objective(
        kind=problem.kind,
        fn=fn,
        oracle_point=oracle_point,
        oracle_value=fn(oracle_point),
        name="spd-regression",
    )
