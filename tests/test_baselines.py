import dataclasses
import math

import numpy as np
import pytest

from manibo import (
    BoConfig,
    DomainError,
    FrechetProblem,
    InvalidInputError,
    ManifoldPoint,
    Objective,
    Spd,
    Sphere,
    embed,
    extrinsic_distance,
    flatten_ambient,
    frechet_grad_objective,
    grassmann_objective,
    latitude_circle_problem,
    nelder_mead,
    project_to_tangent,
    random_approx_problem,
    random_point,
    riemannian_gd,
    run,
    unembed,
    unflatten_ambient,
)
from manibo import baselines
from manibo.baselines import GD_MAX_BACKTRACKS, GD_STEP
from manibo.manifolds import retract_embedded


def _assert_valid(kind):
    """Wrap an objective so every evaluation re-checks the point invariants."""

    def wrapper(fn):
        def checked(x):
            assert x.kind == kind
            ManifoldPoint(kind, x.coords)  # construction re-validates
            return fn(x)

        return checked

    return wrapper


class TestGradientObjective:
    def test_gradient_matches_finite_differences(self, rng):
        # The tangential part of the supplied gradient must match central
        # differences of the retraction-composed objective.
        gobj = frechet_grad_objective(latitude_circle_problem())
        kind = gobj.kind
        h = 1e-5
        for _ in range(10):
            x = random_point(kind, rng)
            w = flatten_ambient(kind, embed(x))
            fd = np.zeros_like(w)
            for j in range(w.size):
                up, down = w.copy(), w.copy()
                up[j] += h
                down[j] -= h
                fd[j] = (
                    gobj.fn(unembed(kind, unflatten_ambient(kind, up)))
                    - gobj.fn(unembed(kind, unflatten_ambient(kind, down)))
                ) / (2.0 * h)
            tangential = project_to_tangent(x, gobj.grad(x))
            scale = max(np.linalg.norm(tangential), 1e-8)
            assert np.linalg.norm(tangential - fd) / scale < 1e-5


class TestRiemannianGd:
    def test_starts_at_minimizer_returns_immediately(self):
        gobj = frechet_grad_objective(latitude_circle_problem(8, -0.5))
        south = ManifoldPoint(Sphere(2), [0.0, 0.0, -1.0])
        trace = riemannian_gd(gobj, south)
        np.testing.assert_array_equal(trace.final.best_point.coords, south.coords)
        assert len(trace.records) == 1

    def test_converges_to_south_pole(self, monkeypatch):
        monkeypatch.setattr(baselines, "GD_TOL", 1e-10)
        gobj = frechet_grad_objective(latitude_circle_problem(8, -0.5))
        south = ManifoldPoint(Sphere(2), [0.0, 0.0, -1.0])
        x0 = random_point(Sphere(2), 77)
        trace = riemannian_gd(gobj, x0, max_iters=100)
        assert extrinsic_distance(trace.final.best_point, south) < 1e-6
        assert trace.final.iteration <= 100

    def test_each_iterate_is_the_shared_one_row_step(self):
        # Every accepted iterate is the first one-row retract_embedded step
        # from the previous embedded iterate, at GD_STEP * 0.5**j, that
        # lowers the value: the step every other optimizer takes.  The
        # Frechet objective is scaled by 8 so that some first steps
        # overshoot and halve; at its own scale none does on the sphere.
        kind = Sphere(2)
        cloud = FrechetProblem(tuple(random_point(kind, seed) for seed in range(6)))
        frechet = frechet_grad_objective(cloud)
        gobj = dataclasses.replace(
            frechet, fn=lambda x: 8.0 * frechet.fn(x), grad=lambda x: 8.0 * frechet.grad(x)
        )
        x = random_point(kind, 7)
        f = gobj.fn(x)
        trace = riemannian_gd(gobj, x, max_iters=40)
        n_evals, halvings = 1, 0
        for record in trace.records[1:]:
            e, tangent = embed(x), project_to_tangent(x, gobj.grad(x))
            for j in range(GD_MAX_BACKTRACKS + 1):
                row = retract_embedded(kind, e[None], -tangent[None], GD_STEP * 0.5**j)[0]
                x_next = unembed(kind, row)
                if gobj.fn(x_next) < f:
                    break
            n_evals, halvings = n_evals + j + 1, halvings + j
            x, f = x_next, gobj.fn(x_next)
            assert record.point.coords.tobytes() == x.coords.tobytes()
            assert (record.value, record.n_evals) == (f, n_evals)
        assert len(trace.records) > 2 and halvings > 0

    def test_trace_nonincreasing(self, rng):
        gobj = frechet_grad_objective(latitude_circle_problem())
        x0 = random_point(Sphere(2), rng)
        trace = riemannian_gd(gobj, x0, max_iters=50)
        values = [rec.value for rec in trace.records]
        assert all(b < a or (a == b and i == 0) for i, (a, b) in enumerate(zip(values, values[1:])))

    def test_evaluates_only_manifold_points(self, rng):
        problem = latitude_circle_problem()
        gobj = frechet_grad_objective(problem)
        kind = gobj.kind
        checked = dataclasses.replace(gobj, fn=_assert_valid(kind)(gobj.fn))
        riemannian_gd(checked, random_point(kind, rng), max_iters=20)

    def test_rejects_objective_without_gradient(self, rng):
        calls = []
        obj = Objective(kind=Sphere(2), fn=lambda x: calls.append(x) or 0.0)
        with pytest.raises(InvalidInputError, match="gradient"):
            riemannian_gd(obj, random_point(obj.kind, rng))
        assert calls == []


class TestNelderMead:
    def test_circle_quadratic(self):
        # Oracle: dense angular grid of the quadratic restricted to the unit
        # circle, minimized at the target's radial projection.
        kind = Sphere(1)
        target = np.array([0.3, -0.8])

        def fn(x):
            return float(np.sum((x.coords - target) ** 2))

        oracle_point = target / np.linalg.norm(target)
        thetas = np.linspace(0.0, 2.0 * math.pi, 200001)
        grid = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        grid_best = grid[np.argmin(np.sum((grid - target) ** 2, axis=1))]
        np.testing.assert_allclose(grid_best, oracle_point, atol=1e-5)

        obj = Objective(kind=kind, fn=fn)
        x0 = ManifoldPoint(kind, [1.0, 0.0])
        trace = nelder_mead(obj, x0, max_evals=500)
        assert np.linalg.norm(trace.final.best_point.coords - oracle_point) < 1e-4
        assert trace.final.best_value - float(np.sum((oracle_point - target) ** 2)) < 1e-4

    def test_grassmann_reaches_svd_level(self):
        # Starting from the best of a seeded six-point design, the simplex
        # gets within 5% of the optimal error inside 60 evaluations.
        problem = random_approx_problem(3, 6, 2, seed=0)
        obj = grassmann_objective(problem)
        rng = np.random.default_rng(0)
        design = [random_point(obj.kind, rng) for _ in range(6)]
        x0 = min(design, key=obj.fn)
        trace = nelder_mead(obj, x0, max_evals=60)
        assert trace.final.best_value <= 1.05 * obj.oracle_value

    def test_constant_objective_exhausts_budget(self, rng):
        kind = Sphere(2)
        obj = Objective(kind=kind, fn=lambda x: 2.0)
        x0 = random_point(kind, rng)
        trace = nelder_mead(obj, x0, max_evals=40)
        assert trace.final.n_evals == 40
        np.testing.assert_allclose(trace.final.best_point.coords, x0.coords, atol=1e-12)

    def test_incumbent_nonincreasing(self, rng):
        obj = grassmann_objective(random_approx_problem(3, 6, 2, seed=1))
        x0 = random_point(obj.kind, rng)
        trace = nelder_mead(obj, x0, max_evals=80)
        best = [rec.best_value for rec in trace.records]
        assert all(b <= a for a, b in zip(best, best[1:]))

    def test_evaluates_only_manifold_points(self, rng):
        problem = random_approx_problem(3, 6, 2, seed=2)
        obj = grassmann_objective(problem)
        checked = Objective(kind=obj.kind, fn=_assert_valid(obj.kind)(obj.fn))
        nelder_mead(checked, random_point(obj.kind, rng), max_evals=50)

    def test_stops_on_simplex_collapse(self, monkeypatch):
        # A smooth strictly convex objective shrinks the simplex below its
        # tolerance well before a generous budget.
        monkeypatch.setattr(baselines, "NM_TOL", 1e-6)
        kind = Sphere(1)
        target = np.array([1.0, 0.0])
        obj = Objective(kind=kind, fn=lambda x: float(np.sum((x.coords - target) ** 2)))
        x0 = ManifoldPoint(kind, [0.0, 1.0])
        trace = nelder_mead(obj, x0, max_evals=100000)
        assert trace.final.n_evals < 100000

    @pytest.mark.parametrize("max_evals", [0, -3])
    def test_rejects_budget_below_one_before_evaluating(self, rng, max_evals):
        calls = []
        obj = Objective(kind=Sphere(2), fn=lambda x: calls.append(x) or 0.0)
        with pytest.raises(InvalidInputError):
            nelder_mead(obj, random_point(obj.kind, rng), max_evals=max_evals)
        assert calls == []

    def test_failed_retraction_spends_an_evaluation_at_x0(self):
        # x0 lies at log-norm 9.95, so the initial simplex's vertices along
        # the two diagonal axes lie past the chart bound of 10: each is a
        # +inf row at x0 that counts toward n_evals and the budget, and the
        # objective never sees it.
        kind = Spd(2)
        x0 = ManifoldPoint(kind, np.exp(9.95 / math.sqrt(2.0)) * np.eye(2))
        calls = []

        def fn(x):
            calls.append(x)
            return float(np.sum(embed(x) ** 2))

        trace = nelder_mead(Objective(kind=kind, fn=fn), x0, max_evals=4)
        assert not trace.aborted
        assert [rec.iteration for rec in trace.records] == [1, 2, 3, 4]
        assert [rec.n_evals for rec in trace.records] == [1, 2, 3, 4]
        assert [rec.value == math.inf for rec in trace.records] == [False, True, False, True]
        assert all(rec.point is x0 for rec in trace.records if rec.value == math.inf)
        assert len(calls) == 2
        assert all(math.isfinite(rec.best_value) for rec in trace.records)


def _failing_at(fn, k):
    """fn, except that its k-th call raises RuntimeError."""
    calls = {"n": 0}

    def wrapped(x):
        calls["n"] += 1
        if calls["n"] == k:
            raise RuntimeError("simulator crashed")
        return fn(x)

    return wrapped


class TestAbort:
    def test_gd_aborts_with_the_iterates_so_far(self):
        gobj = frechet_grad_objective(latitude_circle_problem(8, -0.5))
        x0 = ManifoldPoint(Sphere(2), [1.0, 0.0, 0.0])
        full = riemannian_gd(gobj, x0, max_iters=20)
        # On this problem GD never backtracks: one evaluation per iteration.
        assert [rec.n_evals for rec in full.records] == list(range(1, 22))
        trace = riemannian_gd(dataclasses.replace(gobj, fn=_failing_at(gobj.fn, 5)), x0, 20)
        assert trace.aborted
        assert trace.abort_reason == (
            "objective raised at iteration 4: RuntimeError: simulator crashed"
        )
        assert [rec.iteration for rec in trace.records] == [0, 1, 2, 3]
        assert [rec.value for rec in trace.records] == [rec.value for rec in full.records[:4]]

    def test_gd_aborts_on_a_failing_gradient(self):
        gobj = frechet_grad_objective(latitude_circle_problem(8, -0.5))
        x0 = ManifoldPoint(Sphere(2), [1.0, 0.0, 0.0])
        trace = riemannian_gd(dataclasses.replace(gobj, grad=_failing_at(gobj.grad, 3)), x0)
        assert trace.aborted
        assert trace.abort_reason.startswith("gradient raised at iteration 3: RuntimeError")
        assert [rec.iteration for rec in trace.records] == [0, 1, 2]

    def test_gd_aborts_on_a_rejected_step(self):
        # Ascending |log x|^2 from log-norm 6: the first trial step doubles
        # the log, past the chart bound of 10, so unembed rejects it.
        kind = Spd(2)
        obj = Objective(
            kind=kind,
            fn=lambda x: -float(np.sum(embed(x) ** 2)),
            grad=lambda x: -2.0 * embed(x),
        )
        x0 = ManifoldPoint(kind, np.exp(3.0 * math.sqrt(2.0)) * np.eye(2))
        trace = riemannian_gd(obj, x0)
        assert trace.aborted
        assert trace.abort_reason.startswith("step rejected at iteration 1: InvalidInputError")
        assert [rec.iteration for rec in trace.records] == [0]

    def test_nelder_mead_aborts_with_the_evaluations_so_far(self):
        obj = grassmann_objective(random_approx_problem(n=4, p=2, seed=0))
        x0 = random_point(obj.kind, np.random.default_rng(1))
        full = nelder_mead(obj, x0, max_evals=40)
        failing = dataclasses.replace(obj, fn=_failing_at(obj.fn, 25))
        trace = nelder_mead(failing, x0, max_evals=40)
        assert trace.aborted
        assert trace.abort_reason == (
            "objective raised at evaluation 25: RuntimeError: simulator crashed"
        )
        assert [rec.n_evals for rec in trace.records] == list(range(1, 25))
        assert [rec.value for rec in trace.records] == [rec.value for rec in full.records[:24]]

    def test_nelder_mead_aborts_within_the_initial_simplex(self):
        kind = Sphere(2)
        obj = Objective(kind=kind, fn=_failing_at(lambda x: float(x.coords[2]), 2))
        trace = nelder_mead(obj, random_point(kind, np.random.default_rng(0)), max_evals=50)
        assert trace.aborted
        assert trace.abort_reason.startswith("objective raised at evaluation 2: ")
        assert len(trace.records) == 1

    @pytest.mark.parametrize("failure", ["raise", "domain", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("optimizer", ["ebo", "gd", "nelder_mead"])
    @pytest.mark.parametrize("at_call", [1, 4])
    def test_one_failure_rule(self, optimizer, failure, at_call):
        # All three optimizers evaluate through RunTrace.evaluate.  A failed
        # first evaluation raises: the objective's exception, or
        # InvalidInputError for a non-finite value.  A failed 4th evaluation
        # aborts the run with the records so far, whose incumbents are all
        # finite, and calls the objective no more.
        gobj = frechet_grad_objective(latitude_circle_problem(8, -0.5))
        x0 = ManifoldPoint(Sphere(2), [1.0, 0.0, 0.0])
        calls = {"n": 0}

        def failing(x):
            calls["n"] += 1
            if calls["n"] == at_call:
                if failure == "raise":
                    raise RuntimeError("simulator crashed")
                if failure == "domain":
                    raise DomainError("objective left its domain")
                return float(failure)
            return gobj.fn(x)

        obj = dataclasses.replace(gobj, fn=failing)
        optimize = {
            "ebo": lambda: run(obj, BoConfig(n_init=3, n_iters=4, seed=0)),
            "gd": lambda: riemannian_gd(obj, x0, max_iters=10),
            "nelder_mead": lambda: nelder_mead(obj, x0, max_evals=10),
        }[optimizer]
        if at_call == 1:
            expected = {"raise": RuntimeError, "domain": DomainError}.get(
                failure, InvalidInputError
            )
            with pytest.raises(expected):
                optimize()
            return
        trace = optimize()
        # On this problem GD takes one evaluation per iteration.
        where, iterations, n_evals = {
            "ebo": ("at iteration 1", [0], [3]),
            "gd": ("at iteration 3", [0, 1, 2], [1, 2, 3]),
            "nelder_mead": ("at evaluation 4", [1, 2, 3], [1, 2, 3]),
        }[optimizer]
        assert trace.aborted
        assert trace.abort_reason == {
            "raise": f"objective raised {where}: RuntimeError: simulator crashed",
            "domain": f"objective raised {where}: DomainError: objective left its domain",
        }.get(failure, f"objective returned non-finite value {failure} {where}")
        assert [rec.iteration for rec in trace.records] == iterations
        assert [rec.n_evals for rec in trace.records] == n_evals
        assert all(math.isfinite(rec.best_value) for rec in trace.records)
        assert calls["n"] == 4
