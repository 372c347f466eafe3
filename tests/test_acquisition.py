import math

import numpy as np
import pytest
from scipy.special import ndtr

from manibo import (
    AcquisitionState,
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
    ASCENT_LOOKAHEAD,
    ASCENT_RTOL,
    ASCENT_STARTS,
    ASCENT_STEP,
    DEDUP_TOL,
    MAX_BACKTRACKS,
    _ascent_gradient,
    _ascent_value,
    _improvement,
    _inside_radius,
    inverse_mills_ratio,
)
from manibo.egp import posterior, posterior_rows
from manibo.manifolds import (
    SPD_LOG_NORM_MAX,
    ManifoldError,
    _sym,
    ambient_norms,
    retract_embedded,
    tangent_project_embedded,
    unembed,
    unflatten_ambient,
)

from conftest import BATCH_KINDS, FAMILY_KINDS


def _state(kind, n, rng, params=None, best=None):
    params = params or KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-6)
    points = [random_point(kind, rng) for _ in range(n)]
    values = rng.standard_normal(n)
    model = GpModel.build(params, GpDataset.from_points(points, values))
    return AcquisitionState(model, float(values.min()) if best is None else best)


def _at(state, w):
    """The posterior at one flat point, as a 1-row stack."""
    return posterior_rows(state.model, np.asarray(w, dtype=float)[None])


def _pi_at(state, w):
    """PI at one flat point, which need not lie on the embedded image."""
    return float(ndtr(_improvement(state, _at(state, w))[0][0]))


def _fd_gradient(state, w, h=1e-5):
    grad = np.zeros_like(w)
    for j in range(w.size):
        up, down = w.copy(), w.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (_pi_at(state, up) - _pi_at(state, down)) / (2.0 * h)
    return grad


class TestPiValue:
    def test_training_point_scores_half(self, rng):
        # One noise-free observation: the posterior mean there equals the
        # incumbent, so the improvement score sits at the coin-flip value
        # (up to the deviation floor).
        x = random_point(Sphere(2), rng)
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)
        model = GpModel.build(params, GpDataset.from_points([x], [0.7]))
        state = AcquisitionState(model, 0.7)
        assert pi_value(state, x) == pytest.approx(0.5, abs=1e-3)

    def test_cdf_table_value(self, rng):
        # Far from the data the posterior reverts to mean 0 and deviation 1;
        # an incumbent of 1.96 then scores the textbook 0.975.
        params = KernelParams(lengthscale=0.05, amplitude=1.0, noise=0.0)
        north = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        south = ManifoldPoint(Sphere(2), [0.0, 0.0, -1.0])
        model = GpModel.build(params, GpDataset.from_points([north], [0.0]))
        state = AcquisitionState(model, 1.96)
        assert pi_value(state, south) == pytest.approx(0.9750021048517795, abs=1e-9)

    def test_interpolated_bad_point_scores_zero(self, rng):
        x = random_point(Sphere(2), rng)
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)
        model = GpModel.build(params, GpDataset.from_points([x], [10.0]))
        state = AcquisitionState(model, 0.0)
        assert pi_value(state, x) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_always_in_unit_interval(self, kind, rng):
        state = _state(kind, 5, rng)
        for _ in range(50):
            value = pi_value(state, random_point(kind, rng))
            assert 0.0 <= value <= 1.0

    def test_kind_mismatch(self, rng):
        # A Sphere(5) point has as many flat coordinates as an Spd(3) one,
        # so only the kind check tells them apart, as in ``posterior``.
        state = _state(Spd(3), 5, rng)
        with pytest.raises(InvalidInputError, match="kind mismatch"):
            pi_value(state, random_point(Sphere(5), rng))


class TestPiGradient:
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_matches_finite_differences(self, kind, rng):
        # The scale floor of 1e-6 is the smallest gradient a central
        # difference at h=1e-5 can certify to 1e-5 relative accuracy; below
        # it both sides are zero at measurement precision.
        state = _state(kind, 5, rng)
        for _ in range(10):
            x = random_point(kind, rng)
            analytic = flatten_ambient(kind, pi_gradient_ambient(state, x))
            numeric = _fd_gradient(state, flatten_ambient(kind, embed(x)))
            scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-6)
            assert np.linalg.norm(analytic - numeric) / scale < 1e-5

    def test_ambient_gradient_matches_flat(self, rng):
        # The chain rule through log PI: grad PI = PI * grad log PI, with the
        # log-PI gradient the ascent uses in flat coordinates.
        kind = Spd(3)
        state = _state(kind, 4, rng)
        x = random_point(kind, rng)
        ambient = pi_gradient_ambient(state, x)
        w = flatten_ambient(kind, embed(x))
        flat = pi_value(state, x) * _ascent_gradient_at(state, w)
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
        state = AcquisitionState(model, 0.4)
        grad = pi_gradient_ambient(state, mid)
        projected = project_to_tangent(mid, grad)
        assert np.linalg.norm(projected) < 1e-6
        numeric = _fd_gradient(state, flatten_ambient(kind, embed(mid)))
        tangential = tangent_project_embedded(kind, mid.coords, numeric)
        assert np.linalg.norm(tangential) < 1e-6

    def test_underflow_yields_zero_vector(self, rng):
        x = random_point(Sphere(2), rng)
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)
        model = GpModel.build(params, GpDataset.from_points([x], [10.0]))
        state = AcquisitionState(model, 0.0)
        np.testing.assert_array_equal(pi_gradient_ambient(state, x), np.zeros(3))

    def test_gradient_kind_mismatch(self, rng):
        # As for ``pi_value``: equal flat dimensions, different kinds.
        state = _state(Spd(3), 5, rng)
        with pytest.raises(InvalidInputError, match="kind mismatch"):
            pi_gradient_ambient(state, random_point(Sphere(5), rng))


def _log_pi_at(state, w):
    """log PI at one flat point, as the ascent computes it: ``_ascent_value``
    on a 1-row posterior."""
    return float(_ascent_value(state, _at(state, w))[0][0])


def _ascent_gradient_at(state, w):
    """The ascent's gradient at one flat point, from a value pass of its
    own on a 1-row posterior there."""
    post = _at(state, w)
    return _ascent_gradient(state, post, _ascent_value(state, post)[1])[0]


class TestLogPi:
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_gradient_matches_finite_differences(self, kind, rng):
        h = 1e-5
        state = _state(kind, 5, rng)
        for _ in range(10):
            w = flatten_ambient(kind, embed(random_point(kind, rng)))
            analytic = _ascent_gradient_at(state, w)
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
            assert math.exp(_log_pi_at(state, w)) == pytest.approx(_pi_at(state, w), rel=1e-12)

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
        state = AcquisitionState(model, 1.0)
        arc = [np.array([math.sin(t), 0.0, math.cos(t)]) for t in np.linspace(0.025, 0.3, 12)]
        assert all(_pi_at(state, w) == 1.0 for w in arc)
        logs = [_log_pi_at(state, w) for w in arc]
        assert all(lo < hi < 0.0 for lo, hi in zip(logs, logs[1:]))
        for w in arc:
            grad = _ascent_gradient_at(state, w)
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
            stepped = retract_embedded(kind, e[None], v[None], 0.2)[0]
            if isinstance(kind, Sphere):
                assert abs(np.linalg.norm(stepped) - 1.0) < 1e-12
            elif isinstance(kind, Grassmann):
                np.testing.assert_allclose(stepped @ stepped, stepped, atol=1e-10)
                assert np.trace(stepped) == pytest.approx(kind.p, abs=1e-10)
            else:
                np.testing.assert_allclose(stepped, stepped.T, atol=1e-14)


class TestAscend:
    def test_stationary_start_returns_start(self, monkeypatch):
        kind = Sphere(2)
        theta = 0.6
        a = ManifoldPoint(kind, [math.sin(theta), 0.0, math.cos(theta)])
        b = ManifoldPoint(kind, [-math.sin(theta), 0.0, math.cos(theta)])
        mid = ManifoldPoint(kind, [0.0, 0.0, 1.0])
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-6)
        model = GpModel.build(params, GpDataset.from_points([a, b], [0.4, 0.4]))
        state = AcquisitionState(model, 0.4)
        monkeypatch.setattr(acquisition, "ASCENT_GRAD_TOL", 1e-5)
        e, _ = ascend(state, embed(mid)[None])
        np.testing.assert_allclose(e[0], embed(mid), atol=1e-12)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_never_below_start(self, kind, rng):
        state = _state(kind, 4, rng)
        for _ in range(5):
            x0 = random_point(kind, rng)
            e, acq = ascend(state, embed(x0)[None])
            assert acq[0] >= _log_pi_at(state, flatten_ambient(kind, embed(x0)))
            # The value is the log PI at the returned embedded iterate, bit
            # for bit.
            assert acq[0] == _log_pi_at(state, flatten_ambient(kind, e[0]))

    def test_beats_random_probes_single_datum(self, monkeypatch, rng):
        # Oracle: dense random probing of the sphere.
        kind = Sphere(2)
        datum = ManifoldPoint(kind, [0.0, 0.0, 1.0])
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-6)
        model = GpModel.build(params, GpDataset.from_points([datum], [1.0]))
        state = AcquisitionState(model, 1.0)
        start = ManifoldPoint(kind, [1.0, 0.0, 0.0])
        # A quarter-sphere traverse needs more than the default step budget.
        monkeypatch.setattr(acquisition, "ASCENT_MAX_STEPS", 2000)
        _, acq = ascend(state, embed(start)[None])
        probe_rng = np.random.default_rng(11)
        probe_best = max(
            pi_value(state, random_point(kind, probe_rng)) for _ in range(100)
        )
        assert math.exp(acq[0]) >= probe_best - 1e-3

    def test_projected_gradient_tangency(self, rng):
        kind = Sphere(2)
        state = _state(kind, 5, rng)
        for _ in range(20):
            x = random_point(kind, rng)
            tangent = project_to_tangent(x, pi_gradient_ambient(state, x))
            assert abs(np.dot(x.coords, tangent)) < 1e-10

    def test_kind_mismatch(self, rng):
        # Starts must be a non-empty stack of the model kind's embedded
        # shape: rows of another kind, one unstacked row and an empty stack
        # are all rejected.
        state = _state(Sphere(2), 3, rng)
        row = embed(random_point(Sphere(2), rng))
        for starts in (embed(random_point(Spd(2), rng))[None], row, row[None][:0]):
            with pytest.raises(InvalidInputError):
                ascend(state, starts)

    @pytest.mark.parametrize("trust_radius", [0.5, math.inf])
    def test_start_failing_the_trust_test_returns_unmoved_at_minus_inf(
        self, trust_radius, rng
    ):
        # A start outside the radius and a NaN start (an Spd row past the
        # chart) never climb: each returns unmoved with the value -inf, so
        # it never ranks.  The incumbent's row lies at distance 0 and
        # climbs as it does alone.
        kind = Spd(3)
        base = _state(kind, 6, rng)
        state = AcquisitionState(base.model, base.best_value, trust_radius=trust_radius)
        incumbent = embed(state.model.data.points[state.incumbent])
        far = incumbent + np.eye(3)  # sqrt(3) away in flat coordinates
        past = kind.project((20.0 * np.eye(3))[None])[0]
        assert np.isnan(past).all()
        starts = np.stack([incumbent, far, past])
        e, acq = ascend(state, starts)
        alone, alone_acq = ascend(state, starts[:1])
        np.testing.assert_array_equal(e[0], alone[0])
        assert acq[0] == alone_acq[0] and math.isfinite(acq[0])
        dropped = [2] if math.isinf(trust_radius) else [1, 2]
        np.testing.assert_array_equal(e[dropped], starts[dropped])
        assert (acq[dropped] == -np.inf).all()
        if math.isinf(trust_radius):
            assert math.isfinite(acq[1])


def _reference_draw(kind, rng):
    """A random start row as ``maximize`` draws it: ``random_point``'s
    embedding, except on Spd, where it is the symmetric Gaussian matrix that
    ``random_point`` exponentiates, or a NaN row past the chart."""
    if isinstance(kind, Spd):
        e = _sym(rng.standard_normal(kind.ambient_shape))
        return e if np.linalg.norm(e) <= SPD_LOG_NORM_MAX else np.full_like(e, np.nan)
    return embed(random_point(kind, rng))


def _distances(state, e):
    """Per embedded row of e, its flat distance to the incumbent's datum
    (NaN for a NaN row)."""
    data = state.model.data
    return np.linalg.norm(data.kind.flatten_rows(e) - data.embedded[state.incumbent], axis=1)


def _spy_on_ascend(monkeypatch):
    """Wrap ``acquisition.ascend``, as ``maximize`` calls it; returns the
    list to which every call appends its starts, rows and values."""
    seen = []
    real_ascend = acquisition.ascend

    def spy(state, e):
        out, acq = real_ascend(state, e)
        seen.append((np.array(e), out, acq))
        return out, acq

    monkeypatch.setattr(acquisition, "ascend", spy)
    return seen


def _maximize_starts(state, rng):
    """Ten start rows for ``ascend``: the incumbent's row, then nine random
    draws, each pulled toward the incumbent in flat coordinates onto the
    trust radius where it lies outside and mapped back by ``kind.project``.
    So where the radius binds, rows start inside, on and outside its
    boundary: the projection moves a pulled row off the radius, on the
    sphere and the Grassmannian, and a row it moves past the radius
    returns unmoved at -inf."""
    data = state.model.data
    kind = data.kind
    e = kind.random_embedded(rng, ASCENT_STARTS - 1)
    pull = (~(_distances(state, e) <= state.trust_radius)).nonzero()[0]
    center = data.embedded[state.incumbent]
    diff = kind.flatten_rows(e[pull]) - center
    scale = state.trust_radius / np.linalg.norm(diff, axis=1)
    e[pull] = kind.project(kind.unflatten_rows(center + diff * scale[:, None]))
    starts = np.concatenate([embed(data.points[state.incumbent])[None], e])
    assert len(starts) == ASCENT_STARTS == 10 and np.isfinite(starts).all()
    return starts


class TestMaximize:
    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @pytest.mark.parametrize("trust_radius", [math.inf, 0.8])
    def test_start_rows_match_manifold_point_path(
        self, kind, trust_radius, monkeypatch, rng
    ):
        # ``maximize`` ascends the incumbent and every draw, each built here
        # through manifold points.  A draw outside the radius returns
        # unmoved at -inf; every other row ranks.
        base = _state(kind, 8, rng)
        state = AcquisitionState(base.model, base.best_value, trust_radius=trust_radius)
        incumbent = embed(state.model.data.points[state.incumbent])
        seen = _spy_on_ascend(monkeypatch)

        def check(seed, nan_draw=None):
            maximize(state, seed)
            starts, e, acq = seen[-1]
            draw_rng = np.random.default_rng(seed)
            reference = np.stack(
                [incumbent] + [_reference_draw(kind, draw_rng) for _ in range(ASCENT_STARTS - 1)]
            )
            if nan_draw is not None:
                reference[1 + nan_draw] = np.nan
            np.testing.assert_array_equal(starts, reference)
            dropped = ~(_distances(state, starts) <= trust_radius)
            np.testing.assert_array_equal(e[dropped], starts[dropped])
            assert (acq[dropped] == -np.inf).all()
            assert np.isfinite(acq[~dropped]).all()
            return dropped

        for seed in range(3):
            dropped = check(seed)
            assert dropped.any() if math.isfinite(trust_radius) else not dropped.any()
        # The fourth draw comes back NaN, as an Spd draw past the chart
        # does: it returns at -inf, and the draws after it keep their rows.
        draw = type(kind).random_embedded

        def fourth_is_nan(self, gen, count):
            e = draw(self, gen, count)
            e[3] = np.nan
            return e

        monkeypatch.setattr(type(kind), "random_embedded", fourth_is_nan)
        assert check(0, nan_draw=3)[4]

    def test_spd_start_is_the_log_of_its_random_point(self, monkeypatch, rng):
        # An Spd start is drawn on the image, without the exp/log round trip
        # through random_point, and differs from that point's embedding by
        # round-off only.
        kind = Spd(3)
        state = _state(kind, 5, rng)
        seen = _spy_on_ascend(monkeypatch)
        for seed in range(5):
            maximize(state, seed)
            point_rng = np.random.default_rng(seed)
            points = [random_point(kind, point_rng) for _ in range(ASCENT_STARTS - 1)]
            np.testing.assert_allclose(
                seen[-1][0][1:], [embed(point) for point in points], rtol=0.0, atol=1e-13
            )

    def test_single_start_reduces_to_ascend_from_incumbent(self, monkeypatch, rng):
        kind = Sphere(2)
        state = _state(kind, 5, rng)
        monkeypatch.setattr(acquisition, "ASCENT_STARTS", 1)
        incumbent = state.model.data.points[int(np.argmin(state.model.data.values))]
        e, _ = ascend(state, embed(incumbent)[None])
        result = maximize(state, 3)
        np.testing.assert_array_equal(result.coords, unembed(kind, e[0]).coords)

    def test_argmax_over_starts(self, monkeypatch, rng):
        kind = Sphere(2)
        state = _state(kind, 4, rng)
        monkeypatch.setattr(acquisition, "ASCENT_STARTS", 6)
        # Replay the deterministic start list and take the first-best ascent.
        start_rng = np.random.default_rng(9)
        starts = [state.model.data.points[int(np.argmin(state.model.data.values))]]
        starts += [random_point(kind, start_rng) for _ in range(5)]
        starts = np.stack([embed(s) for s in starts])
        best_e, best_acq = None, -np.inf
        for s in starts:
            e, acq = ascend(state, s[None])
            if acq[0] > best_acq:
                best_e, best_acq = e[0], acq[0]
        result = maximize(state, 9)
        np.testing.assert_array_equal(result.coords, unembed(kind, best_e).coords)
        e, acq = ascend(state, starts)
        np.testing.assert_array_equal(e[int(np.argmax(acq))], best_e)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_bit_reproducible(self, kind, rng):
        state = _state(kind, 4, rng)
        a = maximize(state, 21)
        b = maximize(state, 21)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_beats_dense_random_search(self, rng):
        # Oracle: 500 uniform random probes of the acquisition surface.
        kind = Sphere(2)
        state = _state(kind, 3, rng)
        result = maximize(state, 2)
        result_acq = pi_value(state, result)
        probe_rng = np.random.default_rng(17)
        probe_best = max(
            pi_value(state, random_point(kind, probe_rng)) for _ in range(500)
        )
        assert result_acq >= probe_best - 1e-2

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_ascends_the_incumbent_and_draws_within_the_radius(self, kind, monkeypatch, rng):
        # Row 0 is the incumbent's, at distance 0, and always ranks.  Every
        # row ``ascend`` returns lies within the radius or returns unmoved
        # at -inf.  At a radius no draw reaches, only the incumbent ranks.
        base = _state(kind, 8, rng)
        incumbent = embed(base.model.data.points[base.incumbent])
        seen = _spy_on_ascend(monkeypatch)
        for radius in (1.5, 3.0, 1e-6):
            state = AcquisitionState(base.model, base.best_value, trust_radius=radius)
            for seed in range(3):
                maximize(state, seed)
                starts, e, acq = seen[-1]
                assert len(starts) == ASCENT_STARTS
                np.testing.assert_array_equal(starts[0], incumbent)
                ranked = np.isfinite(acq)
                assert ranked[0]
                assert _distances(state, e[ranked]).max() <= radius
                np.testing.assert_array_equal(e[~ranked], starts[~ranked])
                assert (acq[~ranked] == -np.inf).all()
                if radius == 3.0:  # draws reach it on every kind
                    assert ranked.sum() > 1
                if radius == 1e-6:
                    assert ranked.sum() == 1

    def test_draw_outside_the_radius_is_dropped_not_pulled(self, monkeypatch, rng):
        # The incumbent spans e1 and every random draw e2, sqrt(2) away in
        # flat coordinates.  At radius sqrt(2) / 2 a pull onto the radius
        # would land on diag(0.5, 0.5, 0), whose top eigenvalue is tied, so
        # it has no nearest image point.  The draws return unmoved at -inf
        # instead, and only the incumbent ranks.
        kind = Grassmann(1, 3)
        incumbent = ManifoldPoint(kind, [[1.0], [0.0], [0.0]])
        points = [incumbent] + [random_point(kind, rng) for _ in range(3)]
        data = GpDataset.from_points(points, [-1.0, 0.0, 0.5, 1.0])
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-6)
        state = AcquisitionState(
            GpModel.build(params, data), -1.0, trust_radius=math.sqrt(2.0) / 2.0
        )
        monkeypatch.setattr(
            Grassmann,
            "random_coords",
            lambda self, gen, count: np.tile([[0.0], [1.0], [0.0]], (count, 1, 1)),
        )
        seen = _spy_on_ascend(monkeypatch)
        maximize(state, 0)
        starts, e, acq = seen[-1]
        np.testing.assert_array_equal(starts[0], embed(incumbent))
        np.testing.assert_array_equal(e[1:], np.tile(np.diag([0.0, 1.0, 0.0]), (9, 1, 1)))
        assert math.isfinite(acq[0]) and (acq[1:] == -np.inf).all()

    @pytest.mark.parametrize("trust_radius", [1.0, math.inf])
    def test_draws_past_the_chart_are_dropped_at_any_radius(self, trust_radius, monkeypatch):
        # The incumbent lies at log-norm 9.5 and every random draw at 20
        # along the same axis, past the chart, where ``random_embedded``
        # returns NaN.  A NaN row lies within no radius, not even an
        # infinite one, so the draws return unmoved at -inf and only the
        # incumbent ranks.
        kind = Spd(2)
        logs = [np.diag([9.5, 0.0]), np.diag([9.0, 0.5]), np.diag([9.2, -0.3])]
        points = [unembed(kind, v) for v in logs]
        data = GpDataset.from_points(points, [-1.0, 0.0, 1.0])
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-6)
        state = AcquisitionState(GpModel.build(params, data), -1.0, trust_radius=trust_radius)
        far = kind.project(np.diag([20.0, 0.0])[None])[0]
        assert np.isnan(far).all()
        monkeypatch.setattr(
            Spd, "random_embedded", lambda self, gen, count: np.repeat(far[None], count, axis=0)
        )
        seen = _spy_on_ascend(monkeypatch)
        result = maximize(state, 0)
        starts, e, acq = seen[-1]
        np.testing.assert_array_equal(starts[0], embed(points[0]))
        assert np.isnan(e[1:]).all()
        assert math.isfinite(acq[0]) and (acq[1:] == -np.inf).all()
        assert ambient_norms(kind, embed(result)) <= SPD_LOG_NORM_MAX


class TestTrustAndExploit:
    def test_proposal_inside_trust_radius(self, rng):
        kind = Spd(3)
        state = _state(kind, 5, rng)
        radius = 0.05
        bounded = AcquisitionState(state.model, state.best_value, trust_radius=radius)
        for seed in range(3):
            x = maximize(bounded, seed)
            assert _distances(bounded, embed(x)[None])[0] <= radius + 1e-12

    def test_exploit_round_descends_posterior_mean(self, rng):
        kind = Sphere(2)
        state = _state(kind, 5, rng)
        greedy = AcquisitionState(state.model, state.best_value, exploit=True)
        x = maximize(greedy, 4)
        mean_x, _ = posterior(state.model, x)
        probe_rng = np.random.default_rng(5)
        probes = [posterior(state.model, random_point(kind, probe_rng))[0] for _ in range(200)]
        assert mean_x <= min(probes) + 1e-6


def _reference_ascend(state, e, retract=retract_embedded):
    """The ascent of one embedded start, step by step: the rules ``ascend``
    applies to every row, written as a plain loop over 1-row evaluations.
    A start that fails the trust test returns unmoved at -inf.  A NaN trial
    (no nearest image point, or outside the chart) lies within no trust
    radius, so it is rejected like any other."""
    kind = state.model.data.kind
    w = flatten_ambient(kind, e)
    post = _at(state, w)
    if not _inside_radius(state, post)[0]:
        return e, -math.inf
    acq = _ascent_value(state, post)[0][0]
    step = ASCENT_STEP * state.model.params.lengthscale
    for _ in range(acquisition.ASCENT_MAX_STEPS):
        grad = unflatten_ambient(kind, _ascent_gradient_at(state, w))
        tangent = tangent_project_embedded(kind, e, grad)
        speed = ambient_norms(kind, tangent)
        if speed < acquisition.ASCENT_GRAD_TOL:
            break
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            if step * speed < DEDUP_TOL:  # the displacement floor
                break
            e_cand = retract(kind, e[None], tangent[None], step)[0]
            w_cand = kind.flatten_rows(e_cand)
            post = _at(state, w_cand)
            if _inside_radius(state, post)[0]:
                acq_cand = _ascent_value(state, post)[0][0]
                if acq_cand >= acq:
                    accepted = True
                    break
            step *= 0.5
        if not accepted or acq_cand == acq:
            break
        gain = acq_cand - acq
        e, w, acq = e_cand, w_cand, acq_cand
        # What is left to gain: -log PI, or the predicted improvement.
        remaining = abs(state.best_value + acq) if state.exploit else -acq
        if gain <= acquisition.ASCENT_RTOL * remaining:
            break
        step *= 1.5
    return e, acq


def _first_tangent(state, e):
    """The ascent direction at the embedded point e, as ``_reference_ascend``
    computes it."""
    kind = state.model.data.kind
    grad = unflatten_ambient(kind, _ascent_gradient_at(state, flatten_ambient(kind, e)))
    return tangent_project_embedded(kind, e, grad)


def _first_trial_gain(state, e):
    """What the first trial step of an ascent from the embedded point e
    adds to the acquisition (the first step of ``_reference_ascend``); 0 at
    a stationary start, which tries no step."""
    kind = state.model.data.kind
    tangent = _first_tangent(state, e)
    speed = ambient_norms(kind, tangent)
    step = ASCENT_STEP * state.model.params.lengthscale
    if speed < acquisition.ASCENT_GRAD_TOL or step * speed < DEDUP_TOL:
        return 0.0
    w_cand = flatten_ambient(kind, retract_embedded(kind, e[None], tangent[None], step)[0])
    w = flatten_ambient(kind, e)
    return (
        _ascent_value(state, _at(state, w_cand))[0][0]
        - _ascent_value(state, _at(state, w))[0][0]
    )


def _incumbent_start(kind, rng, fits):
    """A state and a start at its incumbent, with a trust radius that only
    trial steps halved at least ``fits`` times stay within: the radius is
    1.5 times the displacement of the step halved ``fits`` times, and each
    halving halves the displacement (to first order, at these tiny steps)."""
    base = _state(kind, 6, rng)
    start = embed(base.model.data.points[int(np.argmin(base.model.data.values))])
    speed = ambient_norms(kind, _first_tangent(base, start))
    step = ASCENT_STEP * base.model.params.lengthscale * 0.5**fits
    state = AcquisitionState(base.model, base.best_value, trust_radius=1.5 * step * speed)
    return state, start


class TestBatchedAscent:
    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @pytest.mark.parametrize(
        "trust_radius, exploit",
        # At 0.3 the radius binds: rows crawl along its boundary.
        [(math.inf, False), (math.inf, True), (0.8, False), (0.3, False)],
    )
    def test_rows_equal_single_start_ascents(self, kind, trust_radius, exploit, rng):
        base = _state(kind, 8, rng)
        state = AcquisitionState(
            base.model, base.best_value, trust_radius=trust_radius, exploit=exploit
        )
        starts = _maximize_starts(state, rng)
        if trust_radius == 0.8:
            # Rows pulled onto the radius start on it (Spd) or, projected
            # back onto the image, some past it (the sphere and Grassmannian),
            # where they return unmoved at -inf.
            assert (_distances(state, starts) >= (1.0 - 1e-9) * trust_radius).any()
        given = starts.copy()
        e, acq = ascend(state, starts)
        np.testing.assert_array_equal(starts, given)  # the starts are not moved
        for row, start in enumerate(starts):
            alone, alone_acq = ascend(state, start[None])
            reference, reference_acq = _reference_ascend(state, start)
            np.testing.assert_array_equal(e[row], alone[0])
            np.testing.assert_array_equal(e[row], reference)
            assert acq[row] == alone_acq[0] == reference_acq

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @pytest.mark.parametrize(
        "trust_radius, exploit",
        # At 0.03 the radius binds: some trials land outside it.
        [(math.inf, False), (math.inf, True), (0.03, False), (0.03, True)],
    )
    def test_lookahead_changes_no_result(self, kind, trust_radius, exploit, monkeypatch, rng):
        # The lookahead only sets how many of a row's trials a round
        # tries, so every starting depth, doubled after each fully
        # rejected round, reaches the same iterates, bit for bit.
        base = _state(kind, 8, rng)
        state = AcquisitionState(
            base.model, base.best_value, trust_radius=trust_radius, exploit=exploit
        )
        starts = _maximize_starts(state, rng)
        e, acq = ascend(state, starts)
        # The trials the trust test rejects, NaN ones included: in every
        # posterior pass after an ``ascend`` call's first (its starts'), the
        # rows that fail ``_inside_radius``.
        passes = []
        scoring = acquisition.posterior_rows

        def counting(model, w):
            post = scoring(model, w)
            passes.append(int((~_inside_radius(state, post)).sum()))
            return post

        monkeypatch.setattr(acquisition, "posterior_rows", counting)
        outside = []
        for lookahead in (1, 2, 8, MAX_BACKTRACKS + 1):
            monkeypatch.setattr(acquisition, "ASCENT_LOOKAHEAD", lookahead)
            e_deep, acq_deep = ascend(state, starts)
            np.testing.assert_array_equal(e_deep, e)
            np.testing.assert_array_equal(acq_deep, acq)
            outside += passes[1:]
            passes.clear()
        assert (sum(outside) > 0) == (trust_radius < math.inf)

    @pytest.mark.parametrize("trust_radius", [1.0, math.inf])
    def test_nan_trial_lies_outside_the_posterior_trust_test(self, trust_radius, rng):
        # An Spd trial past the chart comes back NaN from the retraction.
        # Its squared distance in the posterior pass is NaN, so it lies
        # within no radius, not even an infinite one; the other rows keep
        # their bits and their distances.
        kind = Spd(3)
        base = _state(kind, 6, rng)
        state = AcquisitionState(base.model, base.best_value, trust_radius=trust_radius)
        rows = np.stack([embed(random_point(kind, rng)) for _ in range(4)])
        past = retract_embedded(kind, rows[:1], np.eye(3)[None], 2.0 * SPD_LOG_NORM_MAX)
        assert np.isnan(past).all()
        stack = np.concatenate([rows[:2], past, rows[2:]])
        w = kind.flatten_rows(stack)
        post = posterior_rows(state.model, w)
        inside = _inside_radius(state, post)
        assert not inside[2]
        np.testing.assert_array_equal(
            np.delete(inside, 2), _distances(state, rows) <= trust_radius
        )
        clean = posterior_rows(state.model, kind.flatten_rows(rows))
        np.testing.assert_array_equal(np.delete(post.sq_dists, 2, axis=0), clean.sq_dists)
        np.testing.assert_array_equal(np.delete(post.mean, 2), clean.mean)

    def test_failed_row_leaves_other_rows_unchanged(self, monkeypatch, rng):
        kind = Grassmann(2, 3)
        state = _state(kind, 6, rng)
        starts = [embed(random_point(kind, rng)) for _ in range(4)]
        # Two more starts: one whose first trial moves it, one whose first
        # trial is rejected.
        moves, rejected = None, None
        while moves is None or rejected is None:
            start = embed(random_point(kind, rng))
            gain = _first_trial_gain(state, start)
            if gain > 0.0 and moves is None:
                moves = start
            elif gain < 0.0 and rejected is None:
                rejected = start
        starts = np.stack(starts + [moves, rejected])
        clean_e, clean_acq = ascend(state, starts)
        retract = acquisition.retract_embedded

        first_step = ASCENT_STEP * state.model.params.lengthscale

        def failing(doomed, halvings_only):
            # A batched retraction marks a failed row with NaN: every trial
            # from the doomed start, or only those with a halved step.
            def retract_failing(kind, e, v, t):
                out = retract(kind, e, v, t)
                hit = np.all(e == doomed, axis=(1, 2))
                out[hit & (t < first_step) if halvings_only else hit] = np.nan
                return out
            return retract_failing

        # (failing start, only its halvings fail, whether the row stays put)
        for row, halvings_only, stays in [(2, False, True), (5, True, True), (4, True, False)]:
            retract_failing = failing(starts[row], halvings_only)
            monkeypatch.setattr(acquisition, "retract_embedded", retract_failing)
            e, acq = ascend(state, starts)
            # A failed trial is rejected and halved like any other: the row
            # is the reference ascent through the same retraction, and a
            # halving that fails after an accepted first trial is never
            # reached, so it changes nothing.
            reference, reference_acq = _reference_ascend(state, starts[row], retract_failing)
            np.testing.assert_array_equal(e[row], reference)
            assert acq[row] == reference_acq
            assert np.array_equal(e[row], starts[row]) == stays
            for other in range(len(starts)):
                if other != row or not stays:
                    np.testing.assert_array_equal(e[other], clean_e[other])
                    assert acq[other] == clean_acq[other]

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @pytest.mark.parametrize("fits", [MAX_BACKTRACKS, MAX_BACKTRACKS + 1])
    def test_last_halving_is_the_last_trial(self, kind, fits, rng):
        # Only the steps halved at least ``fits`` times fit in the trust
        # radius.  At MAX_BACKTRACKS the row's last trial moves it; one
        # halving later every trial is rejected (21 = 4 + 8 + 9 trials), and
        # the lookahead must not try the step halved once more.
        state, start = _incumbent_start(kind, rng, fits)
        # Every trial lies above the displacement floor, so only the
        # halvings left stop the row.
        last_step = ASCENT_STEP * state.model.params.lengthscale * 0.5**MAX_BACKTRACKS
        assert last_step * ambient_norms(kind, _first_tangent(state, start)) >= DEDUP_TOL
        e, acq = ascend(state, start[None])
        reference, reference_acq = _reference_ascend(state, start)
        np.testing.assert_array_equal(e[0], reference)
        assert acq[0] == reference_acq
        assert np.array_equal(e[0], start) == (fits > MAX_BACKTRACKS)

    def test_rejected_row_tries_its_halvings_together(self, monkeypatch, rng):
        # A row rejected at every trial makes 3 rounds of retractions, not
        # 21: its step and its next halvings at once, twice as many trials
        # after each fully rejected round, and the last round only the
        # trials left.
        state, start = _incumbent_start(Spd(3), rng, MAX_BACKTRACKS + 1)
        sizes = []
        retract = acquisition.retract_embedded

        def counting(kind, e, v, t):
            sizes.append(len(e))
            return retract(kind, e, v, t)

        monkeypatch.setattr(acquisition, "retract_embedded", counting)
        e, _ = ascend(state, start[None])
        np.testing.assert_array_equal(e[0], start)
        assert sizes == [ASCENT_LOOKAHEAD, 2 * ASCENT_LOOKAHEAD, 9] == [4, 8, 9]
        assert sum(sizes) == MAX_BACKTRACKS + 1

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_no_trial_below_the_displacement_floor(self, kind, monkeypatch, rng):
        # Rows stop at the loop's own resolution: every trial that the
        # ascent retracts, and then scores, moves its row by DEDUP_TOL or
        # more, and a round schedules every trial above that floor within
        # the row's lookahead and its halvings left.  The small lengthscale
        # makes rows halve their steps far.
        params = KernelParams(lengthscale=0.05, amplitude=1.0, noise=1e-6)
        base = _state(kind, 8, rng, params=params)
        # Per row and round: its trials, its lookahead, the trials its
        # lookahead and its halvings left allow, and those of them above
        # the floor.
        rounds = []
        # Per row of the last round, by its point and tangent: its
        # lookahead, its rejected trials before that round, and its trials.
        last = {}
        retract = acquisition.retract_embedded

        def spy(kind, e, v, t):
            displacement = t * ambient_norms(kind, v)
            assert displacement.min() >= DEDUP_TOL
            # A row's trials are consecutive and share its point and tangent.
            axes = tuple(range(1, e.ndim))
            same = np.all(e[1:] == e[:-1], axis=axes) & np.all(v[1:] == v[:-1], axis=axes)
            first = np.concatenate([[0], np.flatnonzero(~same) + 1])
            trials = np.diff(np.append(first, len(e)))
            tried = {}
            for f, n in zip(first.tolist(), trials.tolist()):
                key = (e[f].tobytes(), v[f].tobytes())
                # A row tries its point and tangent again only after a round
                # that rejected every trial; an accepted step moves it.
                if key in last:
                    depth, rejected, n_last = last[key]
                    depth, rejected = 2 * depth, rejected + n_last
                else:
                    depth, rejected = ASCENT_LOOKAHEAD, 0
                limit = min(depth, MAX_BACKTRACKS + 1 - rejected)
                halved = displacement[f] * 0.5 ** np.arange(limit)
                rounds.append((n, depth, limit, int((halved >= DEDUP_TOL).sum())))
                tried[key] = (depth, rejected, n)
            last.clear()
            last.update(tried)
            return retract(kind, e, v, t)

        monkeypatch.setattr(acquisition, "retract_embedded", spy)

        def ascend_as_reference(state):
            last.clear()
            starts = _maximize_starts(state, rng)
            e, acq = ascend(state, starts)
            for row, start in enumerate(starts):
                reference, reference_acq = _reference_ascend(state, start)
                np.testing.assert_array_equal(e[row], reference)
                assert acq[row] == reference_acq

        for exploit in (False, True):
            ascend_as_reference(
                AcquisitionState(base.model, base.best_value, trust_radius=0.3, exploit=exploit)
            )
        # The relative stop ends most exploit rows above the floor.  Without
        # it the floor alone ends them, and they crawl down to it, halving.
        monkeypatch.setattr(acquisition, "ASCENT_RTOL", 0.0)
        ascend_as_reference(
            AcquisitionState(base.model, base.best_value, trust_radius=0.3, exploit=True)
        )
        trials, depth, limit, above = np.array(rounds).T
        np.testing.assert_array_equal(trials, above)
        assert np.all(trials <= depth)
        # Some rows double their lookahead, and somewhere the floor binds
        # inside a round: it schedules fewer trials than it allows.
        assert (depth > ASCENT_LOOKAHEAD).any()
        assert (above < limit).any()

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_exploit_row_stops_at_relative_gain(self, kind, monkeypatch, rng):
        # An exploit row stops once an accepted step gains at most
        # ASCENT_RTOL of the improvement it still predicts over the
        # incumbent, |f_best - mean|, on either side of it.  The incumbent
        # value only sets that scale: it changes nothing else in an exploit
        # round.
        base = _state(kind, 8, rng)
        greedy = AcquisitionState(base.model, base.best_value, exploit=True)
        start = embed(random_point(kind, rng))
        while not _first_trial_gain(greedy, start) > 0.0:
            start = embed(random_point(kind, rng))
        gain = _first_trial_gain(greedy, start)
        step = ASCENT_STEP * base.model.params.lengthscale
        first = retract_embedded(kind, start[None], _first_tangent(greedy, start)[None], step)
        mean = _at(greedy, kind.flatten_rows(first)[0]).mean[0]
        for ratio, stops in [(2.0, True), (-2.0, True), (0.5, False), (-0.5, False)]:
            state = AcquisitionState(base.model, mean + ratio * gain / ASCENT_RTOL, exploit=True)
            e, acq = ascend(state, start[None])
            assert np.array_equal(e[0], first[0]) == stops
            assert (acq[0] == -mean) == stops
        # One datum below the zero prior mean: the mean is least exactly at
        # the incumbent.  With the incumbent value the mean there, what is
        # left shrinks with the rows' distance from it, so the rule never
        # binds, and the rows end where their next trial would move them
        # less than DEDUP_TOL, next to the incumbent.  The trust radius of
        # one lengthscale keeps every start within the datum's reach; a
        # pulled start that the projection moved past it returns unmoved at
        # -inf.
        params = KernelParams(lengthscale=0.5, amplitude=1.0, noise=1e-6)
        model = GpModel.build(params, GpDataset.from_points([random_point(kind, rng)], [-1.0]))
        least = _at(AcquisitionState(model, 0.0), model.data.embedded[0]).mean[0]
        state = AcquisitionState(model, least, trust_radius=0.5, exploit=True)
        starts = _maximize_starts(state, rng)
        e, acq = ascend(state, starts)
        monkeypatch.setattr(acquisition, "ASCENT_RTOL", 0.0)
        unstopped, unstopped_acq = ascend(state, starts)
        np.testing.assert_array_equal(e, unstopped)
        np.testing.assert_array_equal(acq, unstopped_acq)
        ranked = np.isfinite(acq)
        np.testing.assert_array_equal(e[~ranked], starts[~ranked])
        assert _distances(state, e[ranked]).max() < 10 * DEDUP_TOL

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_exploit_round_never_forms_the_variance(self, kind, monkeypatch, rng):
        # An exploit round climbs the negated posterior mean, so it needs
        # neither L^{-1} nor the variance terms formed from it.
        base = _state(kind, 8, rng)
        state = AcquisitionState(base.model, base.best_value, exploit=True)

        def forbidden(model):
            raise AssertionError("an exploit round read GpModel.chol_inv")

        monkeypatch.setattr(GpModel, "chol_inv", property(forbidden))
        maximize(state, 0)
        with pytest.raises(AssertionError):
            maximize(AcquisitionState(base.model, base.best_value), 0)

    def test_every_row_failing_raises(self, monkeypatch, rng):
        kind = Grassmann(2, 3)
        state = _state(kind, 6, rng)
        # No eigenvalue gap is wide enough: every retraction is ambiguous,
        # so every trial is rejected and every row stays at its start.
        monkeypatch.setattr(manifolds, "EIGENGAP_TOL", math.inf)
        starts = np.stack([embed(random_point(kind, rng)) for _ in range(3)])
        e, acq = ascend(state, starts)
        np.testing.assert_array_equal(e, starts)
        assert np.all(np.isfinite(acq))
        # maximize cannot unembed the winner.
        with pytest.raises(ManifoldError):
            maximize(state, 1)


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            AcquisitionState(model=None, best_value=np.nan)

    @pytest.mark.parametrize("radius", [-0.3, 0.0, math.nan])
    def test_rejects_trust_radius(self, radius):
        # A negative radius would pass ``_inside_radius``'s squared test as
        # its absolute value; at 0 or NaN every trial leaves the region.
        with pytest.raises(InvalidInputError, match="trust_radius"):
            AcquisitionState(model=None, best_value=0.0, trust_radius=radius)
        AcquisitionState(model=None, best_value=0.0, trust_radius=math.inf)
