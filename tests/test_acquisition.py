import math

import numpy as np
import pytest
from scipy.special import ndtr

from manibo import (
    AcquisitionState,
    AscentConfig,
    GpDataset,
    GpModel,
    Grassmann,
    InvalidInputError,
    KernelParams,
    ManifoldPoint,
    Spd,
    Sphere,
    ascend,
    embed,
    flatten_ambient,
    maximize,
    pi_gradient_ambient,
    pi_value,
    project_to_tangent,
    random_point,
)
from manibo import acquisition, manifolds
from manibo.acquisition import (
    LOG_PI_RTOL,
    _ascent_gradient,
    _ascent_value,
    _at,
    _into_trust,
    _pi_flat,
    _pi_gradient_flat,
    _resolve_step,
    _within_trust,
    inverse_mills_ratio,
    normal_cdf,
)
from manibo.egp import posterior
from manibo.manifolds import (
    AmbiguousSubspaceError,
    ManifoldError,
    ambient_norms,
    retract_embedded,
    tangent_project_embedded,
    unembed,
    unflatten_ambient,
    within_chart,
)

from conftest import BATCH_KINDS, FAMILY_KINDS


def _state(kind, n, rng, params=None, best=None):
    params = params or KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-6)
    points = [random_point(kind, rng) for _ in range(n)]
    values = rng.standard_normal(n)
    model = GpModel.build(params, GpDataset.from_points(points, values))
    return AcquisitionState.for_model(model, float(values.min()) if best is None else best)


def _fd_gradient(state, w, h=1e-5):
    grad = np.zeros_like(w)
    for j in range(w.size):
        up, down = w.copy(), w.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (_pi_flat(state, up) - _pi_flat(state, down)) / (2.0 * h)
    return grad


class TestNormalCdf:
    def test_zero(self):
        assert abs(normal_cdf(0.0) - 0.5) < 1e-15

    def test_symmetry(self, rng):
        for x in rng.uniform(-8.0, 8.0, size=200):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)


class TestPiValue:
    def test_training_point_scores_half(self, rng):
        # One noise-free observation: the posterior mean there equals the
        # incumbent, so the improvement score sits at the coin-flip value
        # (up to the deviation floor).
        x = random_point(Sphere(2), rng)
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)
        model = GpModel.build(params, GpDataset.from_points([x], [0.7]))
        state = AcquisitionState.for_model(model, 0.7)
        assert pi_value(state, x) == pytest.approx(0.5, abs=1e-3)

    def test_cdf_table_value(self, rng):
        # Far from the data the posterior reverts to mean 0 and deviation 1;
        # an incumbent of 1.96 then scores the textbook 0.975.
        params = KernelParams(lengthscale=0.05, amplitude=1.0, noise=0.0)
        north = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        south = ManifoldPoint(Sphere(2), [0.0, 0.0, -1.0])
        model = GpModel.build(params, GpDataset.from_points([north], [0.0]))
        state = AcquisitionState.for_model(model, 1.96)
        assert pi_value(state, south) == pytest.approx(0.9750021048517795, abs=1e-9)

    def test_interpolated_bad_point_scores_zero(self, rng):
        x = random_point(Sphere(2), rng)
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)
        model = GpModel.build(params, GpDataset.from_points([x], [10.0]))
        state = AcquisitionState.for_model(model, 0.0)
        assert pi_value(state, x) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_always_in_unit_interval(self, kind, rng):
        state = _state(kind, 5, rng)
        for _ in range(50):
            value = pi_value(state, random_point(kind, rng))
            assert 0.0 <= value <= 1.0


class TestPiGradient:
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_matches_finite_differences(self, kind, rng):
        # The scale floor of 1e-6 is the smallest gradient a central
        # difference at h=1e-5 can certify to 1e-5 relative accuracy; below
        # it both sides are zero at measurement precision.
        state = _state(kind, 5, rng)
        for _ in range(10):
            w = flatten_ambient(kind, embed(random_point(kind, rng)))
            analytic = _pi_gradient_flat(state, w)
            numeric = _fd_gradient(state, w)
            scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-6)
            assert np.linalg.norm(analytic - numeric) / scale < 1e-5

    def test_ambient_gradient_matches_flat(self, rng):
        kind = Spd(3)
        state = _state(kind, 4, rng)
        x = random_point(kind, rng)
        ambient = pi_gradient_ambient(state, x)
        flat = _pi_gradient_flat(state, flatten_ambient(kind, embed(x)))
        np.testing.assert_allclose(flatten_ambient(kind, ambient), flat, atol=1e-12)

    def test_symmetric_pair_midpoint_is_stationary(self):
        # Two observations mirrored across the z-axis with equal values: at
        # the midpoint the tangential gradient cancels by symmetry.
        kind = Sphere(2)
        theta = 0.6
        a = ManifoldPoint(kind, [math.sin(theta), 0.0, math.cos(theta)])
        b = ManifoldPoint(kind, [-math.sin(theta), 0.0, math.cos(theta)])
        mid = ManifoldPoint(kind, [0.0, 0.0, 1.0])
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-6)
        model = GpModel.build(params, GpDataset.from_points([a, b], [0.4, 0.4]))
        state = AcquisitionState.for_model(model, 0.4)
        grad = pi_gradient_ambient(state, mid)
        projected = project_to_tangent(mid, grad)
        assert projected.norm < 1e-6
        numeric = _fd_gradient(state, flatten_ambient(kind, embed(mid)))
        tangential = tangent_project_embedded(kind, mid.coords, numeric)
        assert np.linalg.norm(tangential) < 1e-6

    def test_underflow_yields_zero_vector(self, rng):
        x = random_point(Sphere(2), rng)
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)
        model = GpModel.build(params, GpDataset.from_points([x], [10.0]))
        state = AcquisitionState.for_model(model, 0.0)
        np.testing.assert_array_equal(pi_gradient_ambient(state, x), np.zeros(3))


def _log_pi_at(state, w):
    """log PI at one flat point, as the ascent computes it: ``_ascent_value``
    on a 1-row posterior."""
    return float(_ascent_value(state, _at(state, w))[0])


def _log_pi_gradient_at(state, w):
    return _ascent_gradient(state, _at(state, w))[0]


class TestLogPi:
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_gradient_matches_finite_differences(self, kind, rng):
        h = 1e-5
        state = _state(kind, 5, rng)
        for _ in range(10):
            w = flatten_ambient(kind, embed(random_point(kind, rng)))
            analytic = _log_pi_gradient_at(state, w)
            numeric = np.zeros_like(w)
            for j in range(w.size):
                up, down = w.copy(), w.copy()
                up[j] += h
                down[j] -= h
                numeric[j] = (_log_pi_at(state, up) - _log_pi_at(state, down)) / (2.0 * h)
            scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-6)
            assert np.linalg.norm(analytic - numeric) / scale < 1e-5

    def test_value_is_log_of_pi(self, rng):
        state = _state(Sphere(2), 5, rng)
        for _ in range(20):
            w = flatten_ambient(Sphere(2), embed(random_point(Sphere(2), rng)))
            assert math.exp(_log_pi_at(state, w)) == pytest.approx(_pi_flat(state, w), rel=1e-12)

    def test_inverse_mills_ratio(self):
        # Moderate arguments: the direct quotient phi / Phi is accurate.
        for z in (-5.0, -1.0, 0.0, 2.0, 6.0):
            direct = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / ndtr(z)
            assert inverse_mills_ratio(z) == pytest.approx(direct, rel=1e-12)
        # Far left tail, where both phi and Phi underflow: the asymptote -z.
        for z in (-40.0, -1e3, -1e10, -1e200):
            assert inverse_mills_ratio(z) == pytest.approx(-z, rel=1e-3)
        # Far right tail: the log gradient vanishes without overflow.
        assert 0.0 <= inverse_mills_ratio(40.0) < 1e-300
        assert inverse_mills_ratio(1e10) == 0.0

    def test_ranks_where_pi_saturates(self):
        # Along the arc from a bad datum toward a good one the standardized
        # improvement grows from 9 to 30.  PI rounds to 1.0 all along, so it
        # cannot rank these points; log PI still rises, with a gradient.
        kind = Sphere(2)
        a = ManifoldPoint(kind, [0.0, 0.0, 1.0])
        b = ManifoldPoint(kind, [math.sin(0.5), 0.0, math.cos(0.5)])
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-6)
        model = GpModel.build(params, GpDataset.from_points([a, b], [1.0, -1.0]))
        state = AcquisitionState.for_model(model, 1.0)
        arc = [np.array([math.sin(t), 0.0, math.cos(t)]) for t in np.linspace(0.025, 0.3, 12)]
        assert all(_pi_flat(state, w) == 1.0 for w in arc)
        logs = [_log_pi_at(state, w) for w in arc]
        assert all(lo < hi < 0.0 for lo, hi in zip(logs, logs[1:]))
        for w in arc:
            grad = _log_pi_gradient_at(state, w)
            assert np.linalg.norm(tangent_project_embedded(kind, w, grad)) > 0.0


class TestRetractionStaysOnImage:
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_embedded_iterates_stay_on_image(self, kind, rng):
        # The ascent walks embedded representations; each step must remain
        # exactly on the embedded image.
        for _ in range(20):
            e = embed(random_point(kind, rng))
            v = tangent_project_embedded(
                kind, e, rng.standard_normal(kind.ambient_shape)
            )
            stepped = retract_embedded(kind, e, v, 0.2)
            if isinstance(kind, Sphere):
                assert abs(np.linalg.norm(stepped) - 1.0) < 1e-12
            elif isinstance(kind, Grassmann):
                np.testing.assert_allclose(stepped @ stepped, stepped, atol=1e-10)
                assert np.trace(stepped) == pytest.approx(kind.p, abs=1e-10)
            else:
                np.testing.assert_allclose(stepped, stepped.T, atol=1e-14)


class TestAscend:
    def test_stationary_start_returns_start(self):
        kind = Sphere(2)
        theta = 0.6
        a = ManifoldPoint(kind, [math.sin(theta), 0.0, math.cos(theta)])
        b = ManifoldPoint(kind, [-math.sin(theta), 0.0, math.cos(theta)])
        mid = ManifoldPoint(kind, [0.0, 0.0, 1.0])
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-6)
        model = GpModel.build(params, GpDataset.from_points([a, b], [0.4, 0.4]))
        state = AcquisitionState.for_model(model, 0.4)
        [(result, _)] = ascend(state, AscentConfig(grad_tol=1e-5), [mid])
        np.testing.assert_allclose(result.coords, mid.coords, atol=1e-12)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_never_below_start(self, kind, rng):
        state = _state(kind, 4, rng)
        config = AscentConfig(seed=0)
        for _ in range(5):
            x0 = random_point(kind, rng)
            [(result, acq)] = ascend(state, config, [x0])
            assert acq >= pi_value(state, x0) - 1e-12
            # Re-embedding the returned native coordinates reconstructs the
            # iterate to eigensolver precision only.
            assert acq == pytest.approx(pi_value(state, result), abs=1e-9)

    def test_beats_random_probes_single_datum(self, rng):
        # Oracle: dense random probing of the sphere.
        kind = Sphere(2)
        datum = ManifoldPoint(kind, [0.0, 0.0, 1.0])
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-6)
        model = GpModel.build(params, GpDataset.from_points([datum], [1.0]))
        state = AcquisitionState.for_model(model, 1.0)
        start = ManifoldPoint(kind, [1.0, 0.0, 0.0])
        # A quarter-sphere traverse needs more than the default step budget.
        [(_, acq)] = ascend(state, AscentConfig(max_steps=2000), [start])
        probe_rng = np.random.default_rng(11)
        probe_best = max(
            pi_value(state, random_point(kind, probe_rng)) for _ in range(100)
        )
        assert acq >= probe_best - 1e-3

    def test_projected_gradient_tangency(self, rng):
        kind = Sphere(2)
        state = _state(kind, 5, rng)
        for _ in range(20):
            x = random_point(kind, rng)
            tangent = project_to_tangent(x, pi_gradient_ambient(state, x))
            assert abs(np.dot(x.coords, tangent.direction)) < 1e-10

    def test_kind_mismatch(self, rng):
        state = _state(Sphere(2), 3, rng)
        with pytest.raises(InvalidInputError):
            ascend(state, AscentConfig(), [random_point(Spd(2), rng)])


class TestMaximize:
    def test_single_start_reduces_to_ascend_from_incumbent(self, rng):
        kind = Sphere(2)
        state = _state(kind, 5, rng)
        config = AscentConfig(n_starts=1, seed=3)
        incumbent = state.model.data.points[int(np.argmin(state.model.data.values))]
        [(expected, _)] = ascend(state, config, [incumbent])
        result = maximize(state, config)
        np.testing.assert_array_equal(result.coords, expected.coords)

    def test_argmax_over_starts(self, rng):
        kind = Sphere(2)
        state = _state(kind, 4, rng)
        config = AscentConfig(n_starts=6, seed=9)
        # Replay the deterministic start list and take the first-best ascent.
        start_rng = np.random.default_rng(config.seed)
        starts = [state.model.data.points[int(np.argmin(state.model.data.values))]]
        starts += [random_point(kind, start_rng) for _ in range(config.n_starts - 1)]
        best_point, best_acq = None, -np.inf
        for s in starts:
            [(candidate, acq)] = ascend(state, config, [s])
            if acq > best_acq:
                best_point, best_acq = candidate, acq
        result = maximize(state, config)
        np.testing.assert_array_equal(result.coords, best_point.coords)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_bit_reproducible(self, kind, rng):
        state = _state(kind, 4, rng)
        config = AscentConfig(seed=21)
        a = maximize(state, config)
        b = maximize(state, config)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_beats_dense_random_search(self, rng):
        # Oracle: 500 uniform random probes of the acquisition surface.
        kind = Sphere(2)
        state = _state(kind, 3, rng)
        result = maximize(state, AscentConfig(seed=2))
        result_acq = pi_value(state, result)
        probe_rng = np.random.default_rng(17)
        probe_best = max(
            pi_value(state, random_point(kind, probe_rng)) for _ in range(500)
        )
        assert result_acq >= probe_best - 1e-2


class TestTrustAndExploit:
    def test_proposal_within_trust_radius(self, rng):
        kind = Spd(3)
        state = _state(kind, 5, rng)
        radius = 0.05
        bounded = AcquisitionState.for_model(
            state.model, state.best_value, trust_radius=radius
        )
        for seed in range(3):
            x = maximize(bounded, AscentConfig(seed=seed))
            center = bounded.trust_center
            assert np.linalg.norm(flatten_ambient(kind, embed(x)) - center) <= radius + 1e-12

    def test_exploit_round_descends_posterior_mean(self, rng):
        kind = Sphere(2)
        state = _state(kind, 5, rng)
        greedy = AcquisitionState.for_model(state.model, state.best_value, exploit=True)
        x = maximize(greedy, AscentConfig(seed=4))
        mean_x, _ = posterior(state.model, x)
        probe_rng = np.random.default_rng(5)
        probes = [posterior(state.model, random_point(kind, probe_rng))[0] for _ in range(200)]
        assert mean_x <= min(probes) + 1e-6


def _reference_ascend(state, config, x0):
    """The ascent of one start, step by step: the rules ``ascend`` applies
    to every row, written as a plain loop over 1-row evaluations."""
    kind = state.model.data.kind
    e = embed(x0)
    w = flatten_ambient(kind, e)
    acq = _ascent_value(state, _at(state, w))[0]
    step = _resolve_step(state, config)
    for _ in range(config.max_steps):
        grad = unflatten_ambient(kind, _ascent_gradient(state, _at(state, w))[0])
        tangent = tangent_project_embedded(kind, e, grad)
        if ambient_norms(kind, tangent) < config.grad_tol:
            break
        accepted = False
        for _ in range(config.max_backtracks + 1):
            e_cand = retract_embedded(kind, e, tangent, step)
            if within_chart(kind, e_cand):
                w_cand = flatten_ambient(kind, e_cand)
                if _within_trust(state, w_cand[None])[0]:
                    acq_cand = _ascent_value(state, _at(state, w_cand))[0]
                    if acq_cand >= acq:
                        accepted = True
                        break
            step *= 0.5
        if not accepted or acq_cand == acq:
            break
        gain = acq_cand - acq
        e, w, acq = e_cand, w_cand, acq_cand
        if not state.exploit and gain <= LOG_PI_RTOL * -acq:
            break
        step *= 1.5
    return unembed(kind, e), _pi_flat(state, w)


class TestBatchedAscent:
    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @pytest.mark.parametrize(
        "trust_radius, exploit", [(math.inf, False), (math.inf, True), (0.8, False)]
    )
    def test_rows_equal_single_start_ascents(self, kind, trust_radius, exploit, rng):
        base = _state(kind, 8, rng)
        state = AcquisitionState.for_model(
            base.model, base.best_value, trust_radius=trust_radius, exploit=exploit
        )
        config = AscentConfig(seed=0)
        starts = [_into_trust(state, random_point(kind, rng)) for _ in range(10)]
        batch = ascend(state, config, starts)
        for start, (point, pi) in zip(starts, batch):
            [(alone, alone_pi)] = ascend(state, config, [start])
            reference, reference_pi = _reference_ascend(state, config, start)
            np.testing.assert_array_equal(point.coords, alone.coords)
            np.testing.assert_array_equal(point.coords, reference.coords)
            assert pi == alone_pi == reference_pi

    def test_failed_row_leaves_other_rows_unchanged(self, monkeypatch, rng):
        kind = Grassmann(2, 3)
        state = _state(kind, 6, rng)
        config = AscentConfig(seed=0)
        starts = [random_point(kind, rng) for _ in range(5)]
        clean = ascend(state, config, starts)
        doomed = embed(starts[2])
        retract = acquisition.retract_embedded

        def fail_from_start_2(kind, e, v, t):
            # A batched retraction marks a failed row with NaN.
            out = retract(kind, e, v, t)
            out[np.all(e == doomed, axis=(1, 2))] = np.nan
            return out

        monkeypatch.setattr(acquisition, "retract_embedded", fail_from_start_2)
        broken = ascend(state, config, starts)
        assert broken[2] is None
        for row in (0, 1, 3, 4):
            np.testing.assert_array_equal(broken[row][0].coords, clean[row][0].coords)
            assert broken[row][1] == clean[row][1]

    def test_every_row_failing_raises(self, monkeypatch, rng):
        kind = Grassmann(2, 3)
        state = _state(kind, 6, rng)
        # No eigenvalue gap is wide enough: every retraction is ambiguous.
        monkeypatch.setattr(manifolds, "EIGENGAP_TOL", math.inf)
        with pytest.raises(AmbiguousSubspaceError):
            ascend(state, AscentConfig(), [random_point(kind, rng) for _ in range(3)])
        with pytest.raises(ManifoldError):
            maximize(state, AscentConfig(seed=1))


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            AscentConfig(step=0.0)
        with pytest.raises(InvalidInputError):
            AscentConfig(max_steps=0)
        with pytest.raises(InvalidInputError):
            AscentConfig(grad_tol=0.0)
        with pytest.raises(InvalidInputError):
            AcquisitionState(model=None, best_value=np.nan, sigma_floor=1.0)
