"""End-to-end acceptance suite.

Each test pins one exit criterion of the build: the benchmark reproductions
with their oracle tolerances and runtime budgets, the surrogate and gradient
correctness gates, the bulk geometry axioms, and trace determinism.  A
summary line per test is printed at the end of the pytest run.
"""

import dataclasses
import json
import math
import time

import numpy as np
from click.testing import CliRunner
from scipy.special import ndtr

from manibo import (
    AcquisitionState,
    BoConfig,
    GpDataset,
    GpModel,
    Grassmann,
    KernelParams,
    ManifoldPoint,
    Objective,
    Spd,
    Sphere,
    embed,
    extrinsic_distance,
    extrinsic_mean_oracle,
    flatten_ambient,
    frechet_grad_objective,
    frechet_objective,
    generate_spd_regression_data,
    gram_matrix,
    grassmann_objective,
    latitude_circle_problem,
    nelder_mead,
    posterior,
    project_to_image,
    project_to_tangent,
    random_approx_problem,
    random_point,
    response_design,
    riemannian_gd,
    run,
    spd_regression_objective,
    svd_oracle,
    unembed,
    weighted_mean_oracle,
)
from manibo.acquisition import _improvement, pi_gradient_ambient
from manibo.cli import main as cli_main
from manibo.egp import posterior_rows
from manibo.manifolds import retract_embedded

FAMILY_KINDS = [Sphere(2), Grassmann(2, 3), Spd(3)]


def _kernel(params, x, z):
    """The squared-exponential covariance written out on the embedded
    distance: amplitude * exp(-d(x, z)^2 / (2 l^2))."""
    d = extrinsic_distance(x, z)
    return params.amplitude * math.exp(-(d * d) / (2.0 * params.lengthscale**2))


def _random_rotation(p, rng):
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# Sphere mean-estimation reproduction


def test_sphere_mean_ebo_reaches_oracle():
    """eBO localizes the closed-form sphere mean to 1e-2 in 25 iterations."""
    start = time.perf_counter()
    obj = frechet_objective(latitude_circle_problem(8, -0.5))
    trace = run(obj, BoConfig(n_init=5, n_iters=25, seed=0))
    err = extrinsic_distance(trace.final.best_point, obj.oracle_point)
    assert err <= 1e-2, f"final error {err:.3e} above 1e-2"
    assert trace.final.iteration <= 25
    assert time.perf_counter() - start < 30.0


def test_sphere_mean_ebo_vs_gradient_descent_precision():
    """Final eBO log-error matches or beats gradient descent after 25
    equal-cost steps on at least 3 of 5 seeds.

    Kept unweakened.  With analytic gradients and a backtracking safeguard,
    descent contracts the error geometrically (about 0.5x per step, reaching
    ~1e-8 in 25 steps).  eBO used to stop at 2e-7-1e-5: not because of
    matrix regularization (jitter was 0 throughout) but through a chain of
    surrogate numerics, from a posterior variance clamped to 0 to PI ties to
    dedup moves far from the optimum, and then the noise floor.  A stable
    variance, log PI, spacing-scaled dedup, a linear prior mean and an
    exploitation round closed the gap; the README's "The ebo-vs-gd note"
    has the measured cause and the per-seed errors.
    """
    start = time.perf_counter()
    gobj = frechet_grad_objective(latitude_circle_problem(8, -0.5))
    wins = 0
    details = []
    for seed in range(5):
        trace = run(gobj, BoConfig(n_init=5, n_iters=25, seed=seed))
        x0 = trace.records[0].best_point
        gd_trace = riemannian_gd(gobj, x0, max_iters=25)
        ebo_err = max(trace.final.err_to_oracle, 1e-300)
        gd_err = max(gd_trace.final.err_to_oracle, 1e-300)
        wins += math.log10(ebo_err) <= math.log10(gd_err)
        details.append(f"seed {seed}: eBO {ebo_err:.2e} vs GD {gd_err:.2e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert wins >= 3, "eBO beat GD on %d of 5 seeds (%s)" % (wins, "; ".join(details))


def _fibonacci_sphere(n):
    """n nearly evenly spread unit vectors in R^3 (a Fibonacci lattice)."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([radius * np.cos(phi), radius * np.sin(phi), z], axis=1)


def test_extrinsic_mean_matches_fibonacci_grid_search():
    """Closed-form mean equals brute-force minimization over a million-point
    sphere grid, within the grid resolution."""
    start = time.perf_counter()
    problem = latitude_circle_problem(8, -0.5)
    obj = frechet_objective(problem)
    oracle = extrinsic_mean_oracle(problem)

    grid = _fibonacci_sphere(1_000_000)
    emb = np.stack([embed(p) for p in problem.data])
    best_value, best_point = np.inf, None
    for chunk in np.array_split(grid, 10):
        diffs = chunk[:, None, :] - emb[None, :, :]
        values = np.einsum("ijk,ijk->ij", diffs, diffs).mean(axis=1)
        idx = int(np.argmin(values))
        if values[idx] < best_value:
            best_value, best_point = float(values[idx]), chunk[idx]
    assert best_value <= obj.fn(oracle) + 1e-4  # sanity: grid found the basin
    assert np.linalg.norm(best_point - oracle.coords) <= 5e-3
    assert time.perf_counter() - start < 60.0


def _two_bumps(w):
    """Minus two Gaussian bumps on the unit sphere, at rows w (..., 3).
    Not affine in the embedding, unlike the Frechet objective, so the
    affine prior mean cannot find its minimizer."""
    value = 0.0
    for center, height, width in (
        ([0.3, -0.5, 0.8], 1.0, 0.7),
        ([-0.6, -0.5, 0.6], 0.7, 0.6),
    ):
        center = np.asarray(center) / np.linalg.norm(center)
        sq = np.sum((w - center) ** 2, axis=-1)
        value = value - height * np.exp(-sq / (2.0 * width**2))
    return value


def test_sphere_two_bumps_ebo_reaches_grid_optimum():
    """eBO finds the minimizer of a sphere objective that its prior mean
    cannot fit, to 1e-3 on each of 5 seeds in 25 iterations; the minimizer
    of the final affine prior mean misses it by more than 1e-2.

    The optimum comes from a dense grid search: a million-point Fibonacci
    lattice, then a 1e-5-spaced grid on the tangent plane around its best
    point, fine enough to resolve errors down to ~1e-5."""
    start = time.perf_counter()
    grid = _fibonacci_sphere(1_000_000)
    coarse = grid[np.argmin(_two_bumps(grid))]
    basis = np.linalg.svd(coarse[None, :])[2][1:]  # tangent plane at coarse
    offsets = np.linspace(-4e-3, 4e-3, 801)
    u, v = np.meshgrid(offsets, offsets)
    local = coarse + u.reshape(-1, 1) * basis[0] + v.reshape(-1, 1) * basis[1]
    local /= np.linalg.norm(local, axis=1, keepdims=True)
    optimum = local[np.argmin(_two_bumps(local))]
    assert np.linalg.norm(optimum - coarse) < 3.5e-3  # inside the local grid

    evaluated = []

    def fn(x):
        value = float(_two_bumps(x.coords))
        evaluated.append((x, value))
        return value

    details = []
    for seed in range(5):
        evaluated.clear()
        obj = Objective(kind=Sphere(2), fn=fn, oracle_point=ManifoldPoint(Sphere(2), optimum))
        trace = run(obj, BoConfig(n_init=5, n_iters=25, seed=seed))
        assert not trace.aborted
        slope = GpDataset.from_points(*zip(*evaluated)).trend[1:]
        trend_err = np.linalg.norm(-slope / np.linalg.norm(slope) - optimum)
        err = np.linalg.norm(trace.final.best_point.coords - optimum)
        details.append(f"seed {seed}: eBO {err:.2e}, prior mean {trend_err:.2e}")
        assert trend_err > 1e-2, details[-1]
        assert err <= 1e-3, "; ".join(details)
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# Subspace approximation reproduction


def test_grassmann_ebo_within_5pct_and_faster_than_nelder_mead():
    """eBO reaches 5% of the optimal error within 30 iterations using fewer
    objective evaluations than the simplex baseline, on 3 of 5 seeds."""
    start = time.perf_counter()
    successes = 0
    for seed in range(5):
        problem = random_approx_problem(3, 6, 2, seed=seed)
        obj = grassmann_objective(problem)
        threshold = 1.05 * obj.oracle_value
        trace = run(obj, BoConfig(n_init=6, n_iters=30, seed=seed))
        ebo_evals = next(
            (r.n_evals for r in trace.records if r.best_value <= threshold), None
        )
        x0 = trace.records[0].best_point
        nm_trace = nelder_mead(obj, x0, max_evals=200)
        nm_evals = next(
            (r.n_evals for r in nm_trace.records if r.best_value <= threshold), None
        )
        reached = ebo_evals is not None
        faster = reached and (nm_evals is None or ebo_evals < nm_evals)
        successes += reached and faster
    assert successes >= 3, f"only {successes} of 5 seeds passed"
    assert time.perf_counter() - start < 60.0


def test_eckart_young_identity():
    """Reconstruction error at the SVD frame equals the trailing singular
    mass, and the Frobenius split holds on random frames, both at 1e-10."""
    rng = np.random.default_rng(424242)
    for trial in range(20):
        problem = random_approx_problem(3, 6, 2, seed=1000 + trial)
        obj = grassmann_objective(problem)
        point, value = svd_oracle(problem)
        singulars = np.linalg.svd(problem.matrix, compute_uv=False)
        expected = math.sqrt(float(np.sum(singulars[problem.p:] ** 2)))
        assert abs(value - expected) <= 1e-10
        assert abs(obj.fn(point) - expected) <= 1e-10
    problem = random_approx_problem(3, 6, 2, seed=77)
    obj = grassmann_objective(problem)
    total = float(np.sum(problem.matrix**2))
    for _ in range(100):
        x = random_point(problem.kind, rng)
        projected = float(np.sum((x.coords.T @ problem.matrix) ** 2))
        assert abs(obj.fn(x) ** 2 - (total - projected)) <= 1e-10


# ---------------------------------------------------------------------------
# SPD kernel regression reproduction


def test_spd_regression_recovers_weighted_mean():
    """At five query locations the optimizer lands within 1e-2 log-Euclidean
    distance of the closed-form weighted mean, 30 iterations per query."""
    start = time.perf_counter()
    base = generate_spd_regression_data(n=75, noise=0.05, seed=42, bandwidth=0.1)
    for query in (0.1, 0.3, 0.5, 0.7, 0.9):
        problem = dataclasses.replace(base, query=query)
        obj = spd_regression_objective(problem)
        init = response_design(problem, 8, seed=7)
        trace = run(
            obj, BoConfig(n_init=8, n_iters=30, seed=7, init_points=init)
        )
        oracle = weighted_mean_oracle(problem)
        dist = extrinsic_distance(trace.final.best_point, oracle)
        assert dist <= 1e-2, f"query {query}: distance {dist:.3e} above 1e-2"
        assert trace.final.iteration <= 30
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# Surrogate correctness


def test_gp_posterior_correctness():
    """Noise-free interpolation at 1e-8, dense-solve agreement at 1e-10 on
    all manifold families, and variance positivity plus monotone shrinkage
    on 100 random cases."""
    rng = np.random.default_rng(20240818)
    for kind in FAMILY_KINDS:
        points = [random_point(kind, rng) for _ in range(5)]
        values = rng.standard_normal(5)
        noise_free = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)
        model = GpModel.build(noise_free, GpDataset.from_points(points, values))
        for point, value in zip(points, values):
            mean, var = posterior(model, point)
            assert abs(mean - value) <= 1e-8
            assert var <= 1e-8

        params = KernelParams(lengthscale=1.0, amplitude=1.3, noise=1e-3)
        data = GpDataset.from_points(points, values)
        model = GpModel.build(params, data)
        gram = gram_matrix(params, data)
        for _ in range(5):
            query = random_point(kind, rng)
            k_vec = np.array([_kernel(params, p, query) for p in points])
            mean_oracle = float(k_vec @ np.linalg.solve(gram, values))
            var_oracle = params.amplitude - float(
                k_vec @ np.linalg.solve(gram, k_vec)
            )
            mean, var = posterior(model, query)
            assert abs(mean - mean_oracle) <= 1e-10
            assert abs(var - var_oracle) <= 1e-10

    params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-4)
    for case in range(100):
        kind = FAMILY_KINDS[case % 3]
        data = GpDataset.from_points(
            [random_point(kind, rng) for _ in range(4)], rng.standard_normal(4)
        )
        query = random_point(kind, rng)
        _, var_before = posterior(GpModel.build(params, data), query)
        grown = data.append(random_point(kind, rng), float(rng.standard_normal()))
        _, var_after = posterior(GpModel.build(params, grown), query)
        assert var_before >= 0.0 and var_after >= 0.0
        assert var_after <= var_before + 1e-10


def _pi_at(state, w):
    """PI at one flat point, which need not lie on the embedded image."""
    return float(ndtr(_improvement(state, posterior_rows(state.model, w[None]))[0][0]))


def test_acquisition_gradient_finite_differences():
    """Analytic acquisition gradients match central differences (h=1e-5) to
    1e-5 relative accuracy on 50 random model/query pairs per manifold."""
    rng = np.random.default_rng(31337)
    h = 1e-5
    for kind in FAMILY_KINDS:
        for _ in range(50):
            points = [random_point(kind, rng) for _ in range(5)]
            values = rng.standard_normal(5)
            params = KernelParams(
                lengthscale=float(rng.uniform(0.5, 2.0)),
                amplitude=float(rng.uniform(0.5, 2.0)),
                noise=1e-6,
            )
            model = GpModel.build(params, GpDataset.from_points(points, values))
            state = AcquisitionState(model, float(values.min()))
            x = random_point(kind, rng)
            w = flatten_ambient(kind, embed(x))
            analytic = flatten_ambient(kind, pi_gradient_ambient(state, x))
            numeric = np.zeros_like(w)
            for j in range(w.size):
                up, down = w.copy(), w.copy()
                up[j] += h
                down[j] -= h
                numeric[j] = (_pi_at(state, up) - _pi_at(state, down)) / (2.0 * h)
            # Floor: the smallest gradient certifiable at 1e-5 relative from
            # finite differences of O(1) values at h=1e-5.
            scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-6)
            assert np.linalg.norm(analytic - numeric) / scale < 1e-5


# ---------------------------------------------------------------------------
# Geometry axioms in bulk


def test_manifold_axioms_bulk():
    """Projection idempotence, embed/unembed round trips, retraction
    closure and first-order consistency, projector algebra, and kernel frame
    invariance, each over at least 100 seeded random cases."""
    rng = np.random.default_rng(55555)

    for kind in FAMILY_KINDS:
        for _ in range(100):
            ambient = rng.standard_normal(kind.ambient_shape)
            image = project_to_image(kind, ambient)
            assert np.linalg.norm(project_to_image(kind, image) - image) <= 1e-10
            assert np.linalg.norm(embed(unembed(kind, ambient)) - image) <= 1e-8

            x = random_point(kind, rng)
            tangent = project_to_tangent(x, ambient)
            again = project_to_tangent(x, tangent)
            assert np.linalg.norm(again - tangent) <= 1e-10

            roundtrip = unembed(kind, embed(x))
            assert np.linalg.norm(embed(roundtrip) - embed(x)) <= 1e-8

            norm = np.linalg.norm(tangent)
            if norm > 1e-8:
                unit = (1.0 / norm) * tangent
                row = retract_embedded(kind, embed(x)[None], unit[None], 1e-4)[0]
                stepped = unembed(kind, row)  # construction re-validates
                if isinstance(kind, Sphere):
                    assert abs(np.linalg.norm(stepped.coords) - 1.0) <= 1e-12
                linear = embed(x) + 1e-4 * unit
                assert np.linalg.norm(embed(stepped) - linear) <= 1e-6

    kind = Grassmann(2, 3)
    for _ in range(100):
        proj = embed(random_point(kind, rng))
        assert np.linalg.norm(proj @ proj - proj) <= 1e-10
        assert np.linalg.norm(proj - proj.T) <= 1e-10
        assert abs(np.trace(proj) - kind.p) <= 1e-10

    params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)
    for _ in range(100):
        x = random_point(kind, rng)
        z = random_point(kind, rng)
        rotated = ManifoldPoint(kind, x.coords @ _random_rotation(kind.p, rng))
        assert abs(_kernel(params, x, z) - _kernel(params, rotated, z)) <= 1e-10


# ---------------------------------------------------------------------------
# Determinism


def test_csv_determinism(tmp_path, monkeypatch):
    """Two consecutive runs of the same seeded command emit byte-identical
    CSV traces."""
    monkeypatch.delenv("MANIBO_OUT", raising=False)
    runner = CliRunner()
    args = [
        "run",
        "--experiment", "frechet-sphere",
        "--seed", "7",
        "--iters", "25",
        "--init", "5",
        "--baselines", "gd,nelder-mead",
    ]
    out_a, out_b = tmp_path / "first", tmp_path / "second"
    result_a = runner.invoke(cli_main, args + ["--out", str(out_a)])
    result_b = runner.invoke(cli_main, args + ["--out", str(out_b)])
    assert result_a.exit_code == 0 and result_b.exit_code == 0
    for name in ("ebo.csv", "gd.csv", "nelder_mead.csv"):
        bytes_a = (out_a / name).read_bytes()
        assert bytes_a == (out_b / name).read_bytes()
        assert bytes_a.startswith(b"iter,f_next,f_best,err_to_oracle,wall_ms\n")
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["config"]["seed"] == 7
