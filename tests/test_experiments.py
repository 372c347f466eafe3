import math

import numpy as np
import pytest

from manibo import (
    DegenerateProjectionError,
    EmptyNeighborhoodError,
    FrechetProblem,
    GrassmannApproxProblem,
    InvalidInputError,
    ManifoldPoint,
    Spd,
    SpdRegressionProblem,
    Sphere,
    embed,
    extrinsic_mean_oracle,
    frechet_objective,
    generate_spd_regression_data,
    grassmann_objective,
    latitude_circle_problem,
    random_approx_problem,
    random_point,
    regression_weights,
    spd_regression_objective,
    svd_oracle,
    unembed,
    weighted_mean_oracle,
)
from manibo.experiments import approx_weights


class TestFrechetProblem:
    def test_latitude_circle_oracle_is_south_pole(self):
        problem = latitude_circle_problem(8, -0.5)
        oracle = extrinsic_mean_oracle(problem)
        np.testing.assert_allclose(oracle.coords, [0.0, 0.0, -1.0], atol=1e-12)

    def test_single_point_is_its_own_mean(self, rng):
        x = random_point(Sphere(2), rng)
        problem = FrechetProblem(data=(x,))
        oracle = extrinsic_mean_oracle(problem)
        np.testing.assert_allclose(oracle.coords, x.coords, atol=1e-12)
        assert frechet_objective(problem).fn(x) == pytest.approx(0.0, abs=1e-14)

    def test_antipodal_pair_degenerates(self):
        north = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        south = ManifoldPoint(Sphere(2), [0.0, 0.0, -1.0])
        problem = FrechetProblem(data=(north, south))
        with pytest.raises(DegenerateProjectionError):
            extrinsic_mean_oracle(problem)
        # The objective itself stays usable, just without an oracle.
        obj = frechet_objective(problem)
        assert obj.oracle_point is None

    def test_oracle_is_global_minimum_spot_check(self, rng):
        problem = latitude_circle_problem(8, -0.5)
        obj = frechet_objective(problem)
        at_oracle = obj.fn(obj.oracle_point)
        for point in problem.data:
            assert at_oracle <= obj.fn(point) + 1e-10
        for _ in range(1000):
            assert at_oracle <= obj.fn(random_point(Sphere(2), rng)) + 1e-10

    def test_latitude_parameter(self):
        problem = latitude_circle_problem(6, -0.8)
        oracle = extrinsic_mean_oracle(problem)
        np.testing.assert_allclose(oracle.coords, [0.0, 0.0, -1.0], atol=1e-12)
        with pytest.raises(InvalidInputError):
            latitude_circle_problem(6, -1.0)


class TestGrassmannApprox:
    def test_eckart_young_at_svd_frame(self, rng):
        # Oracle: the optimal error is the root-sum-square of the trailing
        # singular values (checked against the objective at the SVD frame).
        for seed in range(5):
            problem = random_approx_problem(3, 6, 2, seed=seed)
            obj = grassmann_objective(problem)
            point, value = svd_oracle(problem)
            singulars = np.linalg.svd(problem.matrix, compute_uv=False)
            expected = math.sqrt(float(np.sum(singulars[2:] ** 2)))
            assert value == pytest.approx(expected, abs=1e-12)
            assert obj.fn(point) == pytest.approx(expected, abs=1e-10)

    def test_diagonal_case(self):
        matrix = np.zeros((3, 6))
        matrix[0, 0], matrix[1, 1], matrix[2, 2] = 3.0, 2.0, 1.0
        problem = GrassmannApproxProblem(matrix=matrix, p=2)
        _, value = svd_oracle(problem)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_frame_invariance(self, rng):
        problem = random_approx_problem(3, 6, 2, seed=3)
        obj = grassmann_objective(problem)
        x = random_point(problem.kind, rng)
        theta = 0.4
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        rotated = ManifoldPoint(problem.kind, x.coords @ rot)
        assert obj.fn(rotated) == pytest.approx(obj.fn(x), abs=1e-12)

    def test_oracle_lower_bounds_random_frames(self, rng):
        problem = random_approx_problem(3, 6, 2, seed=4)
        obj = grassmann_objective(problem)
        _, value = svd_oracle(problem)
        for _ in range(100):
            assert value <= obj.fn(random_point(problem.kind, rng)) + 1e-10

    def test_frobenius_identity(self, rng):
        # Second oracle: error^2 = ||F||_F^2 - ||X^T F||_F^2 on orthonormal
        # frames.
        problem = random_approx_problem(3, 6, 2, seed=5)
        obj = grassmann_objective(problem)
        total = float(np.sum(problem.matrix**2))
        for _ in range(100):
            x = random_point(problem.kind, rng)
            projected = float(np.sum((x.coords.T @ problem.matrix) ** 2))
            assert obj.fn(x) ** 2 == pytest.approx(total - projected, abs=1e-10)

    def test_weights_match_least_squares(self, rng):
        problem = random_approx_problem(3, 6, 2, seed=6)
        x = random_point(problem.kind, rng)
        weights = approx_weights(x.coords, problem.matrix)
        lsq = np.linalg.lstsq(x.coords, problem.matrix, rcond=None)[0]
        np.testing.assert_allclose(weights, lsq, atol=1e-10)

    def test_tied_singular_values_warn(self):
        matrix = np.zeros((3, 6))
        matrix[0, 0], matrix[1, 1], matrix[2, 2] = 3.0, 1.0, 1.0
        problem = GrassmannApproxProblem(matrix=matrix, p=2)
        with pytest.warns(RuntimeWarning):
            svd_oracle(problem)

    def test_rank_deficient_rejected(self):
        matrix = np.zeros((3, 6))
        matrix[0, 0], matrix[1, 1] = 1.0, 1.0
        with pytest.raises(InvalidInputError):
            GrassmannApproxProblem(matrix=matrix, p=2)


class TestSpdRegression:
    def test_identical_responses_minimize_at_zero(self, rng):
        y = random_point(Spd(3), rng)
        problem = SpdRegressionProblem(
            covariates=np.linspace(0.0, 1.0, 5),
            responses=(y,) * 5,
            bandwidth=0.2,
            query=0.4,
        )
        obj = spd_regression_objective(problem)
        assert obj.fn(y) == pytest.approx(0.0, abs=1e-18)
        for _ in range(50):
            assert obj.fn(random_point(Spd(3), rng)) >= -1e-18

    def test_two_point_midpoint(self, rng):
        y1, y2 = random_point(Spd(3), rng), random_point(Spd(3), rng)
        problem = SpdRegressionProblem(
            covariates=np.array([0.4, 0.6]),
            responses=(y1, y2),
            bandwidth=0.3,
            query=0.5,
        )
        oracle = weighted_mean_oracle(problem)
        midpoint = unembed(Spd(3), 0.5 * (embed(y1) + embed(y2))).coords
        np.testing.assert_allclose(oracle.coords, midpoint, atol=1e-10)

    def test_oracle_minimizes_objective(self, rng):
        problem = generate_spd_regression_data(n=30, noise=0.1, seed=5, query=0.37)
        obj = spd_regression_objective(problem)
        at_oracle = obj.fn(weighted_mean_oracle(problem))
        for _ in range(200):
            assert at_oracle <= obj.fn(random_point(Spd(3), rng)) + 1e-9

    def test_permutation_invariance(self, rng):
        problem = generate_spd_regression_data(n=12, noise=0.05, seed=2)
        obj = spd_regression_objective(problem)
        perm = np.random.default_rng(1).permutation(12)
        shuffled = SpdRegressionProblem(
            covariates=problem.covariates[perm],
            responses=tuple(problem.responses[i] for i in perm),
            bandwidth=problem.bandwidth,
            query=problem.query,
        )
        shuffled_obj = spd_regression_objective(shuffled)
        for _ in range(10):
            y = random_point(Spd(3), rng)
            assert obj.fn(y) == pytest.approx(shuffled_obj.fn(y), rel=1e-12)

    def test_empty_neighborhood(self):
        problem = generate_spd_regression_data(n=10, noise=0.05, seed=0, query=1e6)
        with pytest.raises(EmptyNeighborhoodError):
            regression_weights(problem)

    def test_generator_deterministic(self):
        a = generate_spd_regression_data(n=20, noise=0.05, seed=9)
        b = generate_spd_regression_data(n=20, noise=0.05, seed=9)
        for pa, pb in zip(a.responses, b.responses):
            np.testing.assert_array_equal(pa.coords, pb.coords)

    def test_generator_shape(self):
        problem = generate_spd_regression_data(n=75, noise=0.05, seed=1)
        assert len(problem.responses) == 75
        assert problem.covariates.shape == (75,)
        assert problem.covariates[0] == 0.0 and problem.covariates[-1] == 1.0

    def test_objective_attaches_oracle(self):
        problem = generate_spd_regression_data(n=15, noise=0.05, seed=3)
        obj = spd_regression_objective(problem)
        assert obj.oracle_point is not None
        assert obj.oracle_value == pytest.approx(obj.fn(obj.oracle_point))
