import numpy as np
import pytest

from manibo import (
    BoConfig,
    DomainError,
    GpDataset,
    InvalidInputError,
    ManifoldPoint,
    Objective,
    Sphere,
    extrinsic_distance,
    frechet_objective,
    latitude_circle_problem,
    proposal_dedup,
    random_point,
    run,
)
from manibo import bo
from manibo.bo import DEDUP_TOL, local_spacing

KIND = Sphere(2)


def _counting(fn):
    calls = []

    def wrapped(x):
        value = fn(x)
        calls.append((x, value))
        return value

    return wrapped, calls


class TestRun:
    def test_zero_iterations_returns_best_initial(self):
        obj = frechet_objective(latitude_circle_problem())
        counted, calls = _counting(obj.fn)
        counted_obj = Objective(kind=KIND, fn=counted)
        best, value, trace = run(counted_obj, BoConfig(n_init=7, n_iters=0, seed=4))
        assert len(calls) == 7
        assert value == min(v for _, v in calls)
        assert len(trace.records) == 1
        assert trace.records[0].iteration == 0

    def test_constant_objective(self):
        obj = Objective(kind=KIND, fn=lambda x: 3.25)
        best, value, trace = run(obj, BoConfig(n_init=3, n_iters=5, seed=0))
        assert value == 3.25
        assert all(rec.best_value == 3.25 for rec in trace.records)

    def test_sphere_mean_recovery(self):
        # End-to-end: the optimizer localizes the closed-form minimizer.
        obj = frechet_objective(latitude_circle_problem(8, -0.5))
        best, value, trace = run(obj, BoConfig(n_init=5, n_iters=25, seed=0))
        assert extrinsic_distance(best, obj.oracle_point) <= 1e-2

    def test_incumbent_is_running_minimum(self):
        obj = frechet_objective(latitude_circle_problem())
        counted, calls = _counting(obj.fn)
        counted_obj = Objective(kind=KIND, fn=counted)
        _, value, trace = run(counted_obj, BoConfig(n_init=4, n_iters=8, seed=2))
        values = [v for _, v in calls]
        assert value == min(values)
        best_so_far = np.minimum.accumulate(
            [min(values[:4])] + values[4:]
        )
        np.testing.assert_array_equal(trace.best_values(), best_so_far)

    def test_dataset_size_is_init_plus_iters(self):
        obj = frechet_objective(latitude_circle_problem())
        counted, calls = _counting(obj.fn)
        counted_obj = Objective(kind=KIND, fn=counted)
        _, _, trace = run(counted_obj, BoConfig(n_init=4, n_iters=6, seed=1))
        assert len(calls) == 10
        assert trace.final.n_evals == 10

    def test_bit_reproducible(self):
        obj = frechet_objective(latitude_circle_problem())
        cfg = BoConfig(n_init=4, n_iters=6, seed=11)
        best_a, value_a, trace_a = run(obj, cfg)
        best_b, value_b, trace_b = run(obj, cfg)
        assert value_a == value_b
        np.testing.assert_array_equal(best_a.coords, best_b.coords)
        for rec_a, rec_b in zip(trace_a.records, trace_b.records):
            assert rec_a.value == rec_b.value
            assert rec_a.best_value == rec_b.best_value
            np.testing.assert_array_equal(rec_a.point.coords, rec_b.point.coords)

    def test_proposals_on_manifold(self):
        obj = frechet_objective(latitude_circle_problem())
        _, _, trace = run(obj, BoConfig(n_init=3, n_iters=6, seed=5))
        for rec in trace.records:
            assert abs(np.linalg.norm(rec.point.coords) - 1.0) < 1e-10

    def test_oracle_errors_recorded(self):
        obj = frechet_objective(latitude_circle_problem())
        _, _, trace = run(obj, BoConfig(n_init=3, n_iters=3, seed=6))
        assert all(rec.err_to_oracle is not None for rec in trace.records)
        no_oracle = Objective(kind=KIND, fn=obj.fn)
        _, _, trace = run(no_oracle, BoConfig(n_init=3, n_iters=3, seed=6))
        assert all(rec.err_to_oracle is None for rec in trace.records)

    def test_init_points_override(self):
        problem = latitude_circle_problem()
        obj = frechet_objective(problem)
        init = problem.data[:4]
        _, _, trace = run(obj, BoConfig(n_init=4, n_iters=2, seed=0, init_points=init))
        assert trace.records[0].n_evals == 4
        first_best = min(obj.fn(p) for p in init)
        assert trace.records[0].best_value == first_best


class TestAbort:
    def test_nonfinite_mid_run_aborts_with_trace(self):
        calls = {"n": 0}
        base = frechet_objective(latitude_circle_problem()).fn

        def flaky(x):
            calls["n"] += 1
            return np.nan if calls["n"] == 6 else base(x)

        obj = Objective(kind=KIND, fn=flaky)
        best, value, trace = run(obj, BoConfig(n_init=4, n_iters=10, seed=3))
        assert trace.aborted
        assert "non-finite" in trace.abort_reason
        assert np.isfinite(value)
        assert len(trace.records) >= 1

    def test_manifold_error_mid_run_aborts_with_trace(self):
        calls = {"n": 0}
        base = frechet_objective(latitude_circle_problem()).fn

        def fragile(x):
            calls["n"] += 1
            if calls["n"] == 7:
                raise DomainError("objective left its domain")
            return base(x)

        obj = Objective(kind=KIND, fn=fragile)
        best, value, trace = run(obj, BoConfig(n_init=4, n_iters=10, seed=3))
        assert trace.aborted
        assert "DomainError" in trace.abort_reason
        assert "iteration 3" in trace.abort_reason
        assert len(trace.records) == 3
        assert np.isfinite(value)

    def test_objective_exception_mid_run_aborts_with_trace(self):
        calls = {"n": 0}
        base = frechet_objective(latitude_circle_problem()).fn
        n_init = 4

        def broken(x):
            calls["n"] += 1
            if calls["n"] == n_init + 3:
                raise RuntimeError("simulator crashed")
            return base(x)

        obj = Objective(kind=KIND, fn=broken)
        best, value, trace = run(obj, BoConfig(n_init=n_init, n_iters=10, seed=3))
        assert trace.aborted
        assert "iteration 3" in trace.abort_reason
        assert "RuntimeError: simulator crashed" in trace.abort_reason
        assert [r.iteration for r in trace.records] == [0, 1, 2]
        assert np.isfinite(value)

    def test_proposal_exception_mid_run_aborts_with_trace(self, monkeypatch):
        # Not a ManifoldError: any exception from the proposal phase keeps
        # the trace.
        calls = {"n": 0}
        maximize = bo.maximize

        def failing_third(state, config):
            calls["n"] += 1
            if calls["n"] == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return maximize(state, config)

        monkeypatch.setattr(bo, "maximize", failing_third)
        obj = frechet_objective(latitude_circle_problem())
        _, value, trace = run(obj, BoConfig(n_init=4, n_iters=10, seed=3))
        assert trace.aborted
        assert trace.abort_reason == (
            "proposal failed at iteration 3: LinAlgError: Eigenvalues did not converge"
        )
        assert [r.iteration for r in trace.records] == [0, 1, 2]
        assert trace.final.n_evals == 6
        assert np.isfinite(value)

    def test_failed_refit_aborts_with_trace(self):
        # An overflowing value is finite, but its variance is not: the refit
        # after it cannot size the kernel amplitude.
        calls = {"n": 0}
        base = frechet_objective(latitude_circle_problem()).fn

        def overflowing(x):
            calls["n"] += 1
            return 1e200 if calls["n"] == 8 else base(x)

        obj = Objective(kind=KIND, fn=overflowing)
        with np.errstate(over="ignore"):
            best, value, trace = run(
                obj, BoConfig(n_init=5, n_iters=8, refit_every=1, seed=0)
            )
        assert trace.aborted
        assert "iteration 3" in trace.abort_reason
        assert "InvalidInputError" in trace.abort_reason
        assert [r.iteration for r in trace.records] == [0, 1, 2, 3]
        assert trace.final.value == 1e200
        assert trace.final.n_evals == 8
        assert np.isfinite(value)

    def test_failed_initial_fit_aborts_with_trace(self):
        calls = {"n": 0}

        def overflowing(x):
            calls["n"] += 1
            return 1e200 if calls["n"] == 2 else 0.0

        obj = Objective(kind=KIND, fn=overflowing)
        with np.errstate(over="ignore"):
            _, value, trace = run(obj, BoConfig(n_init=3, n_iters=4, seed=0))
        assert trace.aborted
        assert "iteration 0" in trace.abort_reason
        assert [r.iteration for r in trace.records] == [0]
        assert value == 0.0

    def test_nonfinite_first_evaluation_raises(self):
        obj = Objective(kind=KIND, fn=lambda x: np.inf)
        with pytest.raises(InvalidInputError):
            run(obj, BoConfig(n_init=3, n_iters=2, seed=0))


class TestProposalDedup:
    def test_far_proposal_unchanged(self, rng):
        points = [random_point(KIND, rng) for _ in range(4)]
        data = GpDataset.from_points(points, np.zeros(4))
        fresh = random_point(KIND, np.random.default_rng(999))
        result = proposal_dedup(data, fresh, np.random.default_rng(0), 0.1)
        assert result is fresh

    def test_duplicate_gets_separated(self, rng):
        points = [random_point(KIND, rng) for _ in range(4)]
        data = GpDataset.from_points(points, np.zeros(4))
        result = proposal_dedup(data, points[0], np.random.default_rng(0), 0.1)
        for point in points:
            assert extrinsic_distance(result, point) >= 1e-8

    def test_perturbed_output_on_manifold(self, rng):
        points = [random_point(KIND, rng) for _ in range(2)]
        data = GpDataset.from_points(points, np.zeros(2))
        result = proposal_dedup(data, points[1], np.random.default_rng(1), 0.05)
        assert abs(np.linalg.norm(result.coords) - 1.0) < 1e-10


class TestLocalSpacing:
    def test_duplicate_of_incumbent_moves_within_spacing(self, rng):
        obj = frechet_objective(latitude_circle_problem())
        points = [random_point(KIND, rng) for _ in range(6)]
        data = GpDataset.from_points(points, [obj.fn(p) for p in points])
        incumbent = points[int(np.argmin(data.values))]
        spacing = local_spacing(data, incumbent)
        others = [extrinsic_distance(incumbent, p) for p in points if p is not incumbent]
        assert spacing == 0.5 * min(others)
        for seed in range(5):
            moved = proposal_dedup(data, incumbent, np.random.default_rng(seed), spacing)
            assert moved is not incumbent
            assert extrinsic_distance(moved, incumbent) <= spacing + 1e-12
            assert min(extrinsic_distance(moved, p) for p in points) >= DEDUP_TOL

    def test_floor_clears_duplicates(self):
        x = ManifoldPoint(KIND, [0.0, 0.0, 1.0])
        near = ManifoldPoint(KIND, [1.5e-8, 0.0, 1.0])
        data = GpDataset.from_points([x, near], [0.0, 0.0])
        assert local_spacing(data, x) == 2.0 * DEDUP_TOL

    def test_all_duplicates(self):
        x = ManifoldPoint(KIND, [0.0, 0.0, 1.0])
        data = GpDataset.from_points([x, x], [0.0, 0.0])
        assert local_spacing(data, x) is None


class TestRefitSchedule:
    def test_no_refit_after_last_iteration(self, monkeypatch):
        fits = []
        original = bo.fit_hyperparams

        def counting(data, *args, **kwargs):
            fits.append(len(data))
            return original(data, *args, **kwargs)

        monkeypatch.setattr(bo, "fit_hyperparams", counting)
        obj = frechet_objective(latitude_circle_problem())
        _, _, trace = run(obj, BoConfig(n_init=4, n_iters=10, refit_every=5, seed=0))
        assert len(trace.records) == 11
        assert fits == [4, 9]  # the initial design, and after iteration 5


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(InvalidInputError):
            BoConfig(n_init=0)
        with pytest.raises(InvalidInputError):
            BoConfig(n_iters=-1)
        with pytest.raises(InvalidInputError):
            BoConfig(refit_every=-2)
