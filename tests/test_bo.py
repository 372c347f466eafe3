import math
import time

import numpy as np
import pytest

from manibo import (
    BoConfig,
    DomainError,
    GpDataset,
    Grassmann,
    InvalidInputError,
    ManifoldError,
    ManifoldPoint,
    Objective,
    Spd,
    Sphere,
    embed,
    extrinsic_distance,
    flatten_ambient,
    frechet_objective,
    latitude_circle_problem,
    project_to_tangent,
    proposal_dedup,
    random_point,
    run,
    unembed,
)
from manibo import bo
from manibo.bo import DEDUP_TOL
from manibo.manifolds import (
    SPD_CHART_SLACK,
    SPD_LOG_NORM_MAX,
    ambient_norms,
    retract_embedded,
)

from conftest import ALL_KINDS

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
        trace = run(counted_obj, BoConfig(n_init=7, n_iters=0, seed=4))
        assert len(calls) == 7
        assert trace.final.best_value == min(v for _, v in calls)
        assert len(trace.records) == 1
        assert trace.records[0].iteration == 0

    def test_constant_objective(self):
        obj = Objective(kind=KIND, fn=lambda x: 3.25)
        trace = run(obj, BoConfig(n_init=3, n_iters=5, seed=0))
        assert trace.final.best_value == 3.25
        assert all(rec.best_value == 3.25 for rec in trace.records)

    def test_zero_objective_runs_without_a_fit(self):
        # All residuals are 0, so the profiled amplitude is 0 at every
        # lengthscale: each fit fails and the run keeps its current values.
        trace = run(Objective(Sphere(2), lambda x: 0.0), BoConfig(n_init=3, n_iters=6))
        assert not trace.aborted
        assert len(trace.records) == 7

    def test_sphere_mean_recovery(self):
        # End-to-end: the optimizer localizes the closed-form minimizer.
        obj = frechet_objective(latitude_circle_problem(8, -0.5))
        trace = run(obj, BoConfig(n_init=5, n_iters=25, seed=0))
        assert extrinsic_distance(trace.final.best_point, obj.oracle_point) <= 1e-2

    def test_incumbent_is_running_minimum(self):
        obj = frechet_objective(latitude_circle_problem())
        counted, calls = _counting(obj.fn)
        counted_obj = Objective(kind=KIND, fn=counted)
        trace = run(counted_obj, BoConfig(n_init=4, n_iters=8, seed=2))
        values = [v for _, v in calls]
        assert trace.final.best_value == min(values)
        best_so_far = np.minimum.accumulate(
            [min(values[:4])] + values[4:]
        )
        np.testing.assert_array_equal([rec.best_value for rec in trace.records], best_so_far)

    def test_dataset_size_is_init_plus_iters(self):
        obj = frechet_objective(latitude_circle_problem())
        counted, calls = _counting(obj.fn)
        counted_obj = Objective(kind=KIND, fn=counted)
        trace = run(counted_obj, BoConfig(n_init=4, n_iters=6, seed=1))
        assert len(calls) == 10
        assert trace.final.n_evals == 10

    def test_bit_reproducible(self):
        obj = frechet_objective(latitude_circle_problem())
        cfg = BoConfig(n_init=4, n_iters=6, seed=11)
        trace_a, trace_b = run(obj, cfg), run(obj, cfg)
        assert trace_a.final.best_value == trace_b.final.best_value
        np.testing.assert_array_equal(
            trace_a.final.best_point.coords, trace_b.final.best_point.coords
        )
        for rec_a, rec_b in zip(trace_a.records, trace_b.records):
            assert rec_a.value == rec_b.value
            assert rec_a.best_value == rec_b.best_value
            np.testing.assert_array_equal(rec_a.point.coords, rec_b.point.coords)

    def test_proposals_on_manifold(self):
        obj = frechet_objective(latitude_circle_problem())
        trace = run(obj, BoConfig(n_init=3, n_iters=6, seed=5))
        for rec in trace.records:
            assert abs(np.linalg.norm(rec.point.coords) - 1.0) < 1e-10

    def test_oracle_errors_recorded(self):
        obj = frechet_objective(latitude_circle_problem())
        trace = run(obj, BoConfig(n_init=3, n_iters=3, seed=6))
        assert all(rec.err_to_oracle is not None for rec in trace.records)
        no_oracle = Objective(kind=KIND, fn=obj.fn)
        trace = run(no_oracle, BoConfig(n_init=3, n_iters=3, seed=6))
        assert all(rec.err_to_oracle is None for rec in trace.records)

    def test_init_points_override(self):
        problem = latitude_circle_problem()
        obj = frechet_objective(problem)
        init = problem.data[:4]
        trace = run(obj, BoConfig(n_init=4, n_iters=2, seed=0, init_points=init))
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
        trace = run(obj, BoConfig(n_init=4, n_iters=10, seed=3))
        assert trace.aborted
        assert "non-finite" in trace.abort_reason
        assert np.isfinite(trace.final.best_value)
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
        trace = run(obj, BoConfig(n_init=4, n_iters=10, seed=3))
        assert trace.aborted
        assert "DomainError" in trace.abort_reason
        assert "iteration 3" in trace.abort_reason
        assert len(trace.records) == 3
        assert np.isfinite(trace.final.best_value)

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
        trace = run(obj, BoConfig(n_init=n_init, n_iters=10, seed=3))
        assert trace.aborted
        assert "iteration 3" in trace.abort_reason
        assert "RuntimeError: simulator crashed" in trace.abort_reason
        assert [r.iteration for r in trace.records] == [0, 1, 2]
        assert np.isfinite(trace.final.best_value)

    def test_proposal_exception_mid_run_aborts_with_trace(self, monkeypatch):
        # Not a ManifoldError: any exception from the proposal phase keeps
        # the trace.
        calls = {"n": 0}
        maximize = bo.maximize

        def failing_third(state, seed):
            calls["n"] += 1
            if calls["n"] == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return maximize(state, seed)

        monkeypatch.setattr(bo, "maximize", failing_third)
        obj = frechet_objective(latitude_circle_problem())
        trace = run(obj, BoConfig(n_init=4, n_iters=10, seed=3))
        assert trace.aborted
        assert trace.abort_reason == (
            "proposal failed at iteration 3: LinAlgError: Eigenvalues did not converge"
        )
        assert [r.iteration for r in trace.records] == [0, 1, 2]
        assert trace.final.n_evals == 6
        assert np.isfinite(trace.final.best_value)

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
            trace = run(
                obj, BoConfig(n_init=5, n_iters=8, refit_every=1, seed=0)
            )
        assert trace.aborted
        assert "iteration 3" in trace.abort_reason
        assert "InvalidInputError" in trace.abort_reason
        assert [r.iteration for r in trace.records] == [0, 1, 2, 3]
        assert trace.final.value == 1e200
        assert trace.final.n_evals == 8
        assert np.isfinite(trace.final.best_value)

    def test_failed_trend_fit_aborts_with_trace(self, monkeypatch):
        # Sphere(2) fits its affine prior mean from 12 data: after iteration
        # 8 here.  The next surrogate build reads it and fails.
        def failing_lstsq(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", failing_lstsq)
        obj = frechet_objective(latitude_circle_problem())
        trace = run(obj, BoConfig(n_init=4, n_iters=12, seed=3))
        assert trace.aborted
        assert trace.abort_reason.startswith("proposal failed at iteration 9: LinAlgError")
        assert [r.iteration for r in trace.records] == list(range(9))
        assert trace.final.n_evals == 12
        assert np.isfinite(trace.final.best_value)

    def test_failed_initial_fit_aborts_with_trace(self):
        calls = {"n": 0}

        def overflowing(x):
            calls["n"] += 1
            return 1e200 if calls["n"] == 2 else 0.0

        obj = Objective(kind=KIND, fn=overflowing)
        with np.errstate(over="ignore"):
            trace = run(obj, BoConfig(n_init=3, n_iters=4, seed=0))
        assert trace.aborted
        assert "iteration 0" in trace.abort_reason
        assert [r.iteration for r in trace.records] == [0]
        assert trace.final.best_value == 0.0

    @pytest.mark.parametrize("failure", ["nan", "inf", "-inf", "raise"])
    def test_init_failure_aborts_with_trace(self, failure):
        # The 3rd of 5 initial points fails: a non-finite value and an
        # exception all abort the run and keep record 0 over the first two
        # points.
        calls = {"n": 0}
        base = frechet_objective(latitude_circle_problem()).fn

        def failing_third(x):
            calls["n"] += 1
            if calls["n"] == 3:
                if failure == "raise":
                    raise RuntimeError("simulator crashed")
                return float(failure)
            return base(x)

        obj = Objective(kind=KIND, fn=failing_third)
        trace = run(obj, BoConfig(n_init=5, n_iters=4, seed=0))
        assert trace.aborted
        if failure == "raise":
            assert trace.abort_reason == (
                "objective raised during init: RuntimeError: simulator crashed"
            )
        else:
            assert trace.abort_reason == (
                f"objective returned non-finite value {failure} during init"
            )
        assert [r.iteration for r in trace.records] == [0]
        assert trace.final.n_evals == 2
        assert np.isfinite(trace.final.best_value)


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


    def test_duplicate_at_the_spd_chart_bound_is_separated(self):
        # A datum with log-norm exactly SPD_LOG_NORM_MAX: about half of the
        # random perturbations step off the chart.  Such a draw fails and
        # the next is tried, instead of aborting the run.
        kind = Spd(2)
        x = unembed(kind, np.diag([SPD_LOG_NORM_MAX, 0.0]))
        others = [random_point(kind, np.random.default_rng(7)) for _ in range(3)]
        data = GpDataset.from_points([x] + others, np.arange(4.0))
        for seed in range(20):
            moved = proposal_dedup(data, x, np.random.default_rng(seed), 0.5)
            assert ambient_norms(kind, embed(moved)) <= SPD_LOG_NORM_MAX + SPD_CHART_SLACK
            assert min(extrinsic_distance(moved, p) for p in data.points) >= DEDUP_TOL


def _chord(step):
    """The embedded distance a unit-sphere step of that tangent length
    covers: the projection (x + s u) / |x + s u| turns by atan(s)."""
    return 2.0 * math.sin(0.5 * math.atan(step))


class TestLocalSpacing:
    """``proposal_dedup`` moves a duplicate by the data spacing around it."""

    def test_duplicate_of_incumbent_moves_within_spacing(self, rng):
        obj = frechet_objective(latitude_circle_problem())
        points = [random_point(KIND, rng) for _ in range(6)]
        data = GpDataset.from_points(points, [obj.fn(p) for p in points])
        incumbent = points[int(np.argmin(data.values))]
        others = [extrinsic_distance(incumbent, p) for p in points if p is not incumbent]
        spacing = 0.5 * min(others)
        for seed in range(5):
            moved = proposal_dedup(data, incumbent, np.random.default_rng(seed), 1.0)
            assert moved is not incumbent
            assert extrinsic_distance(moved, incumbent) <= spacing + 1e-12
            assert extrinsic_distance(moved, incumbent) == pytest.approx(
                _chord(spacing), abs=1e-12
            )
            assert min(extrinsic_distance(moved, p) for p in points) >= DEDUP_TOL

    def test_floor_clears_duplicates(self):
        x = ManifoldPoint(KIND, [0.0, 0.0, 1.0])
        near = ManifoldPoint(KIND, [1.5e-8, 0.0, 1.0])
        data = GpDataset.from_points([x, near], [0.0, 0.0])
        for seed in range(5):
            moved = proposal_dedup(data, x, np.random.default_rng(seed), 1.0)
            assert extrinsic_distance(moved, x) == pytest.approx(2.0 * DEDUP_TOL, rel=1e-6)
            assert extrinsic_distance(moved, near) >= DEDUP_TOL

    def test_all_duplicates(self):
        x = ManifoldPoint(KIND, [0.0, 0.0, 1.0])
        data = GpDataset.from_points([x, x], [0.0, 0.0])
        moved = proposal_dedup(data, x, np.random.default_rng(0), 0.5)
        assert extrinsic_distance(moved, x) == pytest.approx(_chord(0.1 * 0.5), abs=1e-12)


def _flat_row_distances(dataset, x):
    """The distance from x to each datum on flat embedding coordinates, one
    row at a time: x's flat row against each of the dataset's rows."""
    w = flatten_ambient(x.kind, embed(x))
    return [float(np.sqrt(np.sum((w - row) * (w - row)))) for row in dataset.embedded]


def _reference_proposal_dedup(dataset, x_next, rng, lengthscale):
    """``proposal_dedup`` written out on ``_flat_row_distances``."""

    def min_dist(candidate):
        return min(_flat_row_distances(dataset, candidate))

    if min_dist(x_next) >= DEDUP_TOL:
        return x_next
    separated = [d for d in _flat_row_distances(dataset, x_next) if d >= DEDUP_TOL]
    step = max(0.5 * min(separated), 2.0 * DEDUP_TOL) if separated else 0.1 * lengthscale
    candidate = x_next
    for attempt in range(50):
        if attempt and attempt % 10 == 0:
            step *= 2.0
        direction = rng.standard_normal(x_next.kind.ambient_shape)
        tangent = project_to_tangent(x_next, direction)
        norm = np.linalg.norm(tangent)
        if norm < 1e-12:
            continue
        try:
            row = retract_embedded(
                x_next.kind, embed(x_next)[None], ((step / norm) * tangent)[None], 1.0
            )[0]
            candidate = unembed(x_next.kind, row)
        except ManifoldError:
            continue
        if min_dist(candidate) >= DEDUP_TOL:
            return candidate
    return candidate


class TestCachedDistances:
    """The dataset's flat rows, which ``proposal_dedup`` measures from, give
    the embedded distances between the data to 1e-12 relative, on datasets
    built at once and grown by ``append``; and the dedup on those rows keeps
    the bits of ``_reference_proposal_dedup``, the manifold-point path."""

    @pytest.mark.parametrize("kind", [Sphere(2), Grassmann(2, 5), Spd(3)], ids=str)
    def test_equal_to_extrinsic_distance(self, kind, rng):
        points = [random_point(kind, rng) for _ in range(5)]
        built = GpDataset.from_points(points[:3], np.zeros(3))
        grown = built.append(points[3], 1.0).append(points[4], 2.0)
        queries = [random_point(kind, rng) for _ in range(4)] + points
        for data in (built, grown):
            for x in queries:
                got = np.sqrt(data.append(x, 0.0).sq_dists[-1, :-1])
                exact = [extrinsic_distance(x, pt) for pt in data.points]
                np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0.0)
                for seed in range(2):
                    moved = proposal_dedup(data, x, np.random.default_rng(seed), 0.05)
                    reference = _reference_proposal_dedup(
                        data, x, np.random.default_rng(seed), 0.05
                    )
                    assert moved.coords.tobytes() == reference.coords.tobytes()
                    assert (moved is x) == (reference is x)

    def test_kind_mismatch(self, rng):
        data = GpDataset.from_points([random_point(KIND, rng)], [0.0])
        with pytest.raises(InvalidInputError):
            proposal_dedup(data, random_point(Spd(3), rng), np.random.default_rng(0), 1.0)


class TestDedupOnRows:
    """``proposal_dedup`` draws on embedded rows and returns the bits of the
    manifold-point path, ``_reference_proposal_dedup``, on every kind."""

    @pytest.mark.parametrize("kind", ALL_KINDS + [Grassmann(2, 5), Grassmann(1, 3)], ids=str)
    @pytest.mark.parametrize("lengthscale", [0.05, 50.0])
    def test_matches_the_manifold_point_path(self, kind, lengthscale, rng):
        for _ in range(3):
            points = [random_point(kind, rng) for _ in range(4)]
            # A proposal that repeats a datum, and one that repeats every
            # datum (the step is then 0.1 lengthscale).
            cases = [
                (GpDataset.from_points(points, np.zeros(4)), points[1]),
                (GpDataset.from_points([points[0]] * 2, np.zeros(2)), points[0]),
            ]
            for data, x in cases:
                for seed in range(4):
                    moved = proposal_dedup(data, x, np.random.default_rng(seed), lengthscale)
                    reference = _reference_proposal_dedup(
                        data, x, np.random.default_rng(seed), lengthscale
                    )
                    assert moved.coords.tobytes() == reference.coords.tobytes()
                    assert (moved is x) == (reference is x)

    def test_spd_steps_off_the_chart_fail_as_on_points(self, monkeypatch):
        # A duplicate near the chart bound, with steps of 0.1 * 50 = 5: some
        # draws leave the chart and fail, and every row the dedup returns is
        # the one the manifold-point path returns.
        kind = Spd(3)
        x = unembed(kind, np.diag([9.0, 1.0, 0.0]))
        data = GpDataset.from_points([x, x], [0.0, 0.0])
        steps = []
        real_retract = bo.retract_embedded

        def spy(*args):
            stepped = real_retract(*args)
            steps.append(stepped)
            return stepped

        monkeypatch.setattr(bo, "retract_embedded", spy)
        for seed in range(10):
            moved = proposal_dedup(data, x, np.random.default_rng(seed), 50.0)
            reference = _reference_proposal_dedup(data, x, np.random.default_rng(seed), 50.0)
            assert moved.coords.tobytes() == reference.coords.tobytes()
            assert ambient_norms(kind, embed(moved)) <= SPD_LOG_NORM_MAX + SPD_CHART_SLACK
        # Spd's projection is NaN past the chart, and nowhere else.
        off_chart = sum(int(np.isnan(row[0]).all()) for row in steps)
        assert 0 < off_chart < len(steps)


class TestRefitSchedule:
    def test_refits_warm_start_from_fewer_starts(self, monkeypatch):
        fits = []
        original = bo.fit_hyperparams

        def counting(data, init, n_starts, *args, **kwargs):
            fits.append((len(data), n_starts))
            return original(data, init, n_starts, *args, **kwargs)

        monkeypatch.setattr(bo, "fit_hyperparams", counting)
        obj = frechet_objective(latitude_circle_problem())
        run(obj, BoConfig(n_init=4, n_iters=12, refit_every=3, seed=0))
        assert fits == [(4, bo.FIT_RESTARTS)] + [(n, bo.REFIT_RESTARTS) for n in (7, 10, 13)]
        assert bo.REFIT_RESTARTS < bo.FIT_RESTARTS

    def test_no_refit_after_last_iteration(self, monkeypatch):
        fits = []
        original = bo.fit_hyperparams

        def counting(data, *args, **kwargs):
            fits.append(len(data))
            return original(data, *args, **kwargs)

        monkeypatch.setattr(bo, "fit_hyperparams", counting)
        obj = frechet_objective(latitude_circle_problem())
        trace = run(obj, BoConfig(n_init=4, n_iters=10, refit_every=5, seed=0))
        assert len(trace.records) == 11
        assert fits == [4, 9]  # the initial design, and after iteration 5

    def test_each_fit_precedes_the_record_that_times_it(self, monkeypatch):
        # The initial fit comes before record 0, so row 0 times it; the
        # refit after iteration s comes before record s.
        events = []
        fit, record = bo.fit_hyperparams, bo.RunTrace.record

        def fitting(data, *args, **kwargs):
            events.append(("fit", len(data)))
            return fit(data, *args, **kwargs)

        def recording(self, iteration, *args):
            events.append(("record", iteration))
            return record(self, iteration, *args)

        monkeypatch.setattr(bo, "fit_hyperparams", fitting)
        monkeypatch.setattr(bo.RunTrace, "record", recording)
        obj = frechet_objective(latitude_circle_problem())
        run(obj, BoConfig(n_init=4, n_iters=10, refit_every=3, seed=0))
        expected = []
        for s in range(11):
            if s % 3 == 0 and s < 10:
                expected.append(("fit", 4 + s))
            expected.append(("record", s))
        assert events == expected


class TestRunTrace:
    def test_record_measures_the_incumbent_against_the_oracle(self, rng):
        # Each record carries the evaluations ``evaluate`` counted so far,
        # and the wall time since the record before it (or since the trace
        # was created), so the records' times add up to no more than the run.
        x, y, oracle = (random_point(KIND, rng) for _ in range(3))

        def fn(point):
            return 2.0 if point is x else 3.0

        trace = bo.RunTrace(Objective(kind=KIND, fn=fn))
        trace.record(0, x, trace.evaluate(x, "during init"))
        assert trace.final.err_to_oracle is None
        start = time.perf_counter()
        trace = bo.RunTrace(Objective(kind=KIND, fn=fn, oracle_point=oracle))
        for _ in range(4):
            value = trace.evaluate(x, "during init")
        time.sleep(0.01)
        trace.record(0, x, value)
        trace.record(1, y, trace.evaluate(y, "at iteration 1"))
        elapsed_ms = (time.perf_counter() - start) * 1e3
        first, second = trace.records
        assert (first.iteration, first.point, first.value, first.n_evals) == (0, x, 2.0, 4)
        assert (second.iteration, second.point, second.value, second.n_evals) == (1, y, 3.0, 5)
        assert (second.best_point, second.best_value) == (x, 2.0)
        assert second.err_to_oracle == extrinsic_distance(x, oracle)
        assert first.wall_ms >= 10.0 and second.wall_ms >= 0.0
        assert first.wall_ms + second.wall_ms <= elapsed_ms

    def test_incumbent_is_first_point_then_strictly_lower_ones(self, rng):
        # The first record's point is the incumbent whatever its value, inf
        # included; a later point replaces it only with a strictly lower
        # value, so a tie keeps the earlier point.
        points = [random_point(KIND, rng) for _ in range(5)]
        values = [math.inf, 2.0, 2.0, 3.0, 1.0]
        trace = bo.RunTrace(Objective(kind=KIND, fn=float))
        for i, (point, value) in enumerate(zip(points, values)):
            trace.record(i, point, value)
        incumbents = [points[0], points[1], points[1], points[1], points[4]]
        assert [rec.best_point for rec in trace.records] == incumbents
        assert [rec.best_value for rec in trace.records] == [math.inf, 2.0, 2.0, 2.0, 1.0]


    def test_abort_sets_the_flag_and_the_reason(self, caplog):
        trace = bo.RunTrace(Objective(kind=KIND, fn=float))
        with caplog.at_level("WARNING", logger="manibo.bo"):
            trace.abort("objective raised at iteration 2", RuntimeError("simulator crashed"))
        assert trace.aborted
        assert trace.abort_reason == (
            "objective raised at iteration 2: RuntimeError: simulator crashed"
        )
        assert caplog.records[-1].getMessage() == trace.abort_reason
        trace = bo.RunTrace(Objective(kind=KIND, fn=float))
        trace.abort("objective returned non-finite value nan at iteration 4")
        assert trace.abort_reason == "objective returned non-finite value nan at iteration 4"


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(InvalidInputError):
            BoConfig(n_init=0)
        with pytest.raises(InvalidInputError):
            BoConfig(n_iters=-1)
        with pytest.raises(InvalidInputError):
            BoConfig(refit_every=-2)
        with pytest.raises(InvalidInputError):
            BoConfig(init_points=())
