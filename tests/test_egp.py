import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from manibo import (
    FittingFailedError,
    GpDataset,
    GpModel,
    Grassmann,
    IllConditionedModelError,
    InvalidInputError,
    KernelParams,
    Spd,
    Sphere,
    ManifoldPoint,
    embed,
    extrinsic_distance,
    fit_hyperparams,
    gram_matrix,
    log_marginal_likelihood,
    median_heuristic_params,
    posterior,
    random_point,
    unembed,
)
from manibo import egp
from manibo.bo import FIT_RESTARTS, REFIT_RESTARTS
from manibo.egp import TREND_POINTS_PER_COEFFICIENT, posterior_rows

from conftest import ALL_KINDS, BATCH_KINDS, FAMILY_KINDS


def _dataset(kind, n, rng, fn=None):
    points = [random_point(kind, rng) for _ in range(n)]
    if fn is None:
        values = rng.standard_normal(n)
    else:
        values = [fn(p) for p in points]
    return GpDataset.from_points(points, values)


class TestKernelParams:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            KernelParams(lengthscale=0.0, amplitude=1.0, noise=0.0)
        with pytest.raises(InvalidInputError):
            KernelParams(lengthscale=1.0, amplitude=-1.0, noise=0.0)
        with pytest.raises(InvalidInputError):
            KernelParams(lengthscale=1.0, amplitude=1.0, noise=-1e-3)

    def test_zero_noise_allowed(self):
        KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)


def _kernel(params, x, z):
    """The squared-exponential covariance written out on the embedded
    distance: amplitude * exp(-d(x, z)^2 / (2 l^2))."""
    d = extrinsic_distance(x, z)
    return params.amplitude * math.exp(-(d * d) / (2.0 * params.lengthscale**2))


class TestKernelEval:
    """The kernel as ``gram_matrix`` evaluates it, on noise-free datasets."""

    def test_same_point_gives_amplitude(self, rng):
        params = KernelParams(lengthscale=0.7, amplitude=2.5, noise=0.0)
        x = random_point(Sphere(2), rng)
        gram = gram_matrix(params, GpDataset.from_points([x, x], [0.0, 0.0]))
        np.testing.assert_allclose(gram, np.full((2, 2), 2.5), rtol=1e-14)

    def test_sphere_poles_value(self):
        # Embedded distance between the poles is 2, so the kernel value is
        # exp(-4 / (2 * 2^2)) = exp(-1/2).
        params = KernelParams(lengthscale=2.0, amplitude=1.0, noise=0.0)
        north = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        south = ManifoldPoint(Sphere(2), [0.0, 0.0, -1.0])
        gram = gram_matrix(params, GpDataset.from_points([north, south], [0.0, 0.0]))
        assert gram[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_grassmann_frame_invariance(self, rng):
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)
        kind = Grassmann(2, 3)
        x = random_point(kind, rng)
        theta = 1.1
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        same_span = ManifoldPoint(kind, x.coords @ rot)
        z = random_point(kind, rng)
        gram = gram_matrix(params, GpDataset.from_points([x, same_span, z], np.zeros(3)))
        assert gram[0, 2] == pytest.approx(gram[1, 2], abs=1e-12)
        assert gram[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_kind_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            GpDataset.from_points(
                [random_point(Sphere(2), rng), random_point(Spd(2), rng)], [0.0, 0.0]
            )


class TestGramMatrix:
    def test_single_point(self, rng):
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.01)
        data = _dataset(Sphere(2), 1, rng)
        np.testing.assert_allclose(gram_matrix(params, data), [[1.01]], rtol=1e-14)

    def test_duplicate_points_need_noise_or_jitter(self, rng):
        x = random_point(Sphere(2), rng)
        data = GpDataset.from_points([x, x], [0.3, 0.3])
        noisy = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-4)
        model = GpModel.build(noisy, data)
        assert model.jitter == 0.0
        noiseless = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)
        model = GpModel.build(noiseless, data)
        assert model.jitter > 0.0

    def test_close_points_keep_their_distance(self):
        # Two unit vectors 1e-8 apart with a lengthscale of 1e-8: the kernel
        # value is exp(-1/2).  The expansion |a|^2 + |b|^2 - 2 a.b of the
        # squared distance carries an error of order 1e-16, as large as the
        # squared distance itself.
        a = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        b = ManifoldPoint(Sphere(2), [math.sin(1e-8), 0.0, math.cos(1e-8)])
        data = GpDataset.from_points([a, b], [0.0, 0.0])
        params = KernelParams(lengthscale=1e-8, amplitude=1.0, noise=0.0)
        gram = gram_matrix(params, data)
        assert gram[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-6)
        assert gram[0, 0] == 1.0

    def test_eigenvalues_at_least_noise(self, rng):
        # Oracle: eigendecomposition of the assembled matrix.
        params = KernelParams(lengthscale=0.8, amplitude=2.0, noise=0.05)
        data = _dataset(Sphere(2), 5, rng)
        eigs = np.linalg.eigvalsh(gram_matrix(params, data))
        assert eigs.min() >= params.noise - 1e-10

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_kernel_part_psd_random_sets(self, kind, rng):
        params = KernelParams(lengthscale=1.0, amplitude=1.5, noise=0.0)
        for n in (2, 5, 9):
            data = _dataset(kind, n, rng)
            eigs = np.linalg.eigvalsh(gram_matrix(params, data))
            assert eigs.min() >= -1e-8 * params.amplitude

    def test_jitter_ladder_ends_at_its_ceiling(self, monkeypatch):
        # At this amplitude the product JITTER_INITIAL * amplitude * 10**6,
        # accumulated step by step, lands an ulp above JITTER_MAX * amplitude,
        # and a ladder that compared it against that bound skipped its top.
        # On a zero matrix each attempt's diagonal is its jitter exactly.
        tried = []

        def failing(matrix):
            tried.append(matrix[0, 0])
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        amplitude = 23.60759222053524
        with pytest.raises(IllConditionedModelError):
            egp._cholesky_with_jitter(np.zeros((2, 2)), amplitude)
        assert tried[0] == 0.0
        assert tried[-1] == egp.JITTER_MAX * amplitude
        np.testing.assert_allclose(
            tried[1:], amplitude * np.geomspace(egp.JITTER_INITIAL, egp.JITTER_MAX, 7), rtol=1e-12
        )

    def test_chol_reconstructs_gram(self, rng):
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-4)
        data = _dataset(Spd(3), 6, rng)
        model = GpModel.build(params, data)
        gram = gram_matrix(params, data)
        np.testing.assert_allclose(model.chol @ model.chol.T, gram, rtol=1e-8)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_distances_and_gram_are_symmetric_bit_for_bit(self, kind, rng):
        # gram_matrix does not symmetrize: it relies on sq_dists being
        # symmetric in every bit, near-duplicate and repeated points included.
        points = [random_point(kind, rng) for _ in range(6)]
        for x in points[:3]:
            nudge = 1e-9 * rng.standard_normal(kind.ambient_shape)
            points.append(unembed(kind, embed(x) + nudge))
        points.append(points[0])
        data = GpDataset.from_points(points, rng.standard_normal(len(points)))
        params = KernelParams(lengthscale=0.7, amplitude=1.3, noise=1e-3)
        for matrix in (data.sq_dists, gram_matrix(params, data)):
            assert matrix.tobytes() == matrix.T.copy().tobytes()


class TestPosterior:
    def test_noise_free_interpolation(self, rng):
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=0.0)
        data = _dataset(Sphere(2), 5, rng)
        model = GpModel.build(params, data)
        for point, value in zip(data.points, data.values):
            mean, var = posterior(model, point)
            assert mean == pytest.approx(value, abs=1e-8)
            assert var <= 1e-8

    def test_prior_reversion_far_away(self, rng):
        params = KernelParams(lengthscale=0.05, amplitude=1.7, noise=1e-6)
        north = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        nearby = [
            ManifoldPoint(Sphere(2), [math.sin(0.01 * (i + 1)), 0.0, math.cos(0.01 * (i + 1))])
            for i in range(3)
        ]
        data = GpDataset.from_points(nearby, [1.0, 2.0, 3.0])
        model = GpModel.build(params, data)
        south = ManifoldPoint(Sphere(2), [0.0, 0.0, -1.0])
        mean, var = posterior(model, south)
        assert abs(mean) < 1e-6
        assert var == pytest.approx(params.amplitude, abs=1e-6)
        del north

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_matches_dense_solve_oracle(self, kind, rng):
        params = KernelParams(lengthscale=1.0, amplitude=1.3, noise=1e-3)
        data = _dataset(kind, 5, rng)
        model = GpModel.build(params, data)
        gram = gram_matrix(params, data)
        query = random_point(kind, rng)
        k_vec = np.array([_kernel(params, p, query) for p in data.points])
        solve = np.linalg.solve(gram, data.values)
        mean_oracle = float(k_vec @ solve)
        var_oracle = params.amplitude - float(k_vec @ np.linalg.solve(gram, k_vec))
        mean, var = posterior(model, query)
        assert mean == pytest.approx(mean_oracle, abs=1e-10)
        assert var == pytest.approx(var_oracle, abs=1e-10)

    def test_variance_shrinks_with_data(self, rng):
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-4)
        kind = Sphere(2)
        for _ in range(20):
            data = _dataset(kind, 4, rng)
            query = random_point(kind, rng)
            _, var_before = posterior(GpModel.build(params, data), query)
            grown = data.append(random_point(kind, rng), 0.5)
            _, var_after = posterior(GpModel.build(params, grown), query)
            assert var_after <= var_before + 1e-10

    def test_mean_invariant_under_permutation(self, rng):
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-5)
        data = _dataset(Sphere(2), 6, rng)
        query = random_point(Sphere(2), rng)
        mean, _ = posterior(GpModel.build(params, data), query)
        perm = np.random.default_rng(3).permutation(6)
        shuffled = GpDataset.from_points(
            [data.points[i] for i in perm], data.values[perm]
        )
        mean_shuffled, _ = posterior(GpModel.build(params, shuffled), query)
        assert mean_shuffled == pytest.approx(mean, abs=1e-12)

    def test_depends_only_on_embeddings(self, rng):
        # Replacing a frame by a rotation of itself changes nothing.
        kind = Grassmann(2, 3)
        params = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-5)
        points = [random_point(kind, rng) for _ in range(4)]
        values = rng.standard_normal(4)
        theta = 0.9
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        rotated = [ManifoldPoint(kind, p.coords @ rot) for p in points]
        query = random_point(kind, rng)
        mean_a, var_a = posterior(
            GpModel.build(params, GpDataset.from_points(points, values)), query
        )
        mean_b, var_b = posterior(
            GpModel.build(params, GpDataset.from_points(rotated, values)), query
        )
        assert mean_b == pytest.approx(mean_a, abs=1e-10)
        assert var_b == pytest.approx(var_a, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(FAMILY_KINDS),
    n_rows=st.integers(1, 12),
    fortran=st.booleans(),
)
def test_stacked_posterior_rows_equal_single_rows(seed, kind, n_rows, fortran):
    # Each row's bits, gradients included, are those of a 1-row call,
    # whatever the batch size and the memory layout of the query stack.
    rng = np.random.default_rng(seed)
    data = _dataset(kind, 7, rng)
    model = GpModel.build(KernelParams(0.8, 1.3, 1e-6), data)
    points = [random_point(kind, rng) for _ in range(n_rows)]
    w = kind.flatten_rows(np.stack([embed(p) for p in points]))
    stacked = posterior_rows(model, np.asfortranarray(w) if fortran else w)
    grads = stacked.gradients()
    (mean_grad,) = stacked.gradients(variance=False)
    for row in range(n_rows):
        single = posterior_rows(model, w[row][None])
        for name in ("sq_dists", "k", "v", "mean", "var", "beta"):
            np.testing.assert_array_equal(getattr(stacked, name)[row], getattr(single, name)[0])
        for stacked_grad, single_grad in zip(grads, single.gradients()):
            np.testing.assert_array_equal(stacked_grad[row], single_grad[0])
        np.testing.assert_array_equal(mean_grad[row], single.gradients(variance=False)[0][0])
        assert posterior(model, points[row]) == (stacked.mean[row], stacked.var[row])


@pytest.mark.parametrize("kind", BATCH_KINDS)
@pytest.mark.parametrize("n_rows", [1, 7])
def test_gradients_keep_the_bits_of_the_stacked_weights(kind, n_rows, rng):
    # ``gradients`` fills its (S, 2, n) weights in place; the bits must be
    # those of the weights built by broadcasting and stacking, with the
    # prior mean's slope active.
    n = TREND_POINTS_PER_COEFFICIENT * (kind.ambient_dim + 1) + 2
    model = GpModel.build(KernelParams(0.8, 1.3, 1e-6), _dataset(kind, n, rng))
    assert np.any(model.data.trend != 0.0)
    w = kind.flatten_rows(np.stack([embed(random_point(kind, rng)) for _ in range(n_rows)]))
    post = posterior_rows(model, w)
    beta = np.matmul(model.chol_inv.T, post.v[:, :, None])[..., 0]
    alpha = np.broadcast_to(model.alpha, beta.shape)
    weights = post.k[:, None, :] * np.stack([alpha, beta], axis=1)
    sums = np.matmul(weights, post.diff) / model.params.lengthscale**2
    dmean, dvar = post.gradients()
    assert dmean.tobytes() == (model.data.trend[1:] + sums[:, 0]).tobytes()
    assert dvar.tobytes() == (-2.0 * sums[:, 1]).tobytes()


@pytest.mark.parametrize("kind", BATCH_KINDS)
def test_mean_gradient_alone_forms_no_variance_term(kind, rng):
    # The mean's gradient alone leaves v, var and beta unformed, and agrees
    # with the mean half of the joint gradients to round-off: the (S, 1, n)
    # product need not give the (S, 2, n) product's bits.
    n = TREND_POINTS_PER_COEFFICIENT * (kind.ambient_dim + 1) + 2
    model = GpModel.build(KernelParams(0.8, 1.3, 1e-6), _dataset(kind, n, rng))
    w = kind.flatten_rows(np.stack([embed(random_point(kind, rng)) for _ in range(5)]))
    post = posterior_rows(model, w)
    (dmean,) = post.gradients(variance=False)
    assert not {"v", "var", "beta"} & set(vars(post))
    assert "chol_inv" not in vars(model)
    np.testing.assert_allclose(dmean, post.gradients()[0], rtol=1e-12, atol=1e-15)


def test_take_carries_the_terms_already_formed(rng):
    # ``take`` keeps what was formed (a PI round's candidates read var, so
    # their accepted rows reuse v), and leaves the rest on demand.
    kind = Spd(3)
    model = GpModel.build(KernelParams(0.8, 1.3, 1e-6), _dataset(kind, 7, rng))
    w = kind.flatten_rows(np.stack([embed(random_point(kind, rng)) for _ in range(6)]))
    post = posterior_rows(model, w)
    assert post.var.shape == (6,)
    taken = post.take([4, 1])
    assert set(vars(taken)) >= {"v", "var"} and "beta" not in vars(taken)
    by_array = post.take(np.array([4, 1], dtype=np.intp))
    for name in ("diff", "sq_dists", "k", "mean", "v", "var"):
        np.testing.assert_array_equal(getattr(taken, name), getattr(post, name)[[4, 1]])
        assert getattr(by_array, name).tobytes() == getattr(taken, name).tobytes()
    fresh = posterior_rows(model, w[[4, 1]])
    np.testing.assert_array_equal(taken.gradients()[1], fresh.gradients()[1])
    assert "v" not in vars(posterior_rows(model, w).take([0]))


def _mp_posterior_variance(params, embedded, w):
    """amplitude - k.(K + noise I)^{-1} k at 60 digits, on the given floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        rows = [[mpmath.mpf(float(x)) for x in row] for row in embedded]
        query = [mpmath.mpf(float(x)) for x in w]
        scale = 2 * mpmath.mpf(params.lengthscale) ** 2

        def kern(a, b):
            sq = sum((x - y) ** 2 for x, y in zip(a, b))
            return mpmath.mpf(params.amplitude) * mpmath.exp(-sq / scale)

        n = len(rows)
        gram = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                gram[i, j] = kern(rows[i], rows[j]) + (
                    mpmath.mpf(params.noise) if i == j else 0
                )
        k = mpmath.matrix([kern(row, query) for row in rows])
        return float(mpmath.mpf(params.amplitude) - (k.T * mpmath.lu_solve(gram, k))[0])


class TestIllConditionedVariance:
    # Lengthscale far above the data spread, two near-duplicate pairs and a
    # noise ratio of 1e-10: the Gram matrix has condition number ~1e10, the
    # regime the optimizer reaches once proposals cluster.  The explicit-
    # inverse form k.(K^{-1} k) returned about -6e-7 here (clamped to 0).
    @staticmethod
    def _point(a, b):
        v = np.array([a, b, -1.0])
        return ManifoldPoint(Sphere(2), v / np.linalg.norm(v))

    def test_matches_extended_precision(self):
        offsets = [(0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3), (-1e-3, 5e-4),
                   (1e-6, 0.0), (0.0, 2e-6)]
        data = GpDataset.from_points(
            [self._point(a, b) for a, b in offsets],
            [1.0 + 0.5 * (a * a + b * b) for a, b in offsets],
        )
        params = KernelParams(lengthscale=10.0, amplitude=0.3, noise=3e-11)
        model = GpModel.build(params, data)
        for a, b in [(5e-7, 1e-7), (2e-6, 3e-6), (5e-4, 5e-4), (0.1, 0.2)]:
            query = self._point(a, b)
            _, var = posterior(model, query)
            expected = _mp_posterior_variance(params, data.embedded, query.coords)
            assert expected > 0.0
            assert var == pytest.approx(expected, rel=1e-3)


def _affine(p):
    return 2.0 + p.coords @ [0.5, -1.0, 0.25]


class TestLinearTrend:
    """The dataset's prior mean, ``GpDataset.trend``."""

    def test_affine_values_fit_exactly(self, rng):
        data = _dataset(Sphere(2), 12, rng, fn=_affine)
        np.testing.assert_allclose(data.trend, [2.0, 0.5, -1.0, 0.25], atol=1e-12)

    def test_zero_until_three_points_per_coefficient(self, rng):
        np.testing.assert_array_equal(_dataset(Sphere(2), 11, rng, fn=_affine).trend, 0.0)
        assert _dataset(Sphere(2), 12, rng, fn=_affine).trend[0] == pytest.approx(2.0)

    def test_append_refits_the_trend_and_leaves_the_parent(self, rng):
        parent = _dataset(Sphere(2), 11, rng, fn=_affine)
        np.testing.assert_array_equal(parent.trend, 0.0)
        x = random_point(Sphere(2), rng)
        grown = parent.append(x, _affine(x))
        np.testing.assert_allclose(grown.trend, [2.0, 0.5, -1.0, 0.25], atol=1e-12)
        np.testing.assert_array_equal(parent.trend, 0.0)

    def test_model_mean_follows_trend_away_from_data(self, rng):
        # Far from the data the kernel part reverts to 0 and the posterior
        # mean to the affine prior mean.
        trend = np.array([1.5, 0.2, -0.3, 0.4])
        data = _dataset(Sphere(2), 12, rng, fn=lambda p: trend[0] + p.coords @ trend[1:])
        np.testing.assert_allclose(data.trend, trend, atol=1e-12)
        params = KernelParams(lengthscale=0.05, amplitude=1.0, noise=1e-6)
        model = GpModel.build(params, data)
        query = random_point(Sphere(2), np.random.default_rng(3))
        mean, var = posterior(model, query)
        assert mean == pytest.approx(1.5 + query.coords @ trend[1:], abs=1e-6)
        assert var == pytest.approx(1.0, abs=1e-6)


class TestLogMarginalLikelihood:
    def test_single_standard_normal_observation(self, rng):
        # With one observation of 0 under unit prior variance the evidence is
        # the standard normal density at zero: -log(sqrt(2 pi)).
        x = random_point(Sphere(2), rng)
        data = GpDataset.from_points([x], [0.0])
        params = KernelParams(lengthscale=1.0, amplitude=0.75, noise=0.25)
        model = GpModel.build(params, data)
        assert log_marginal_likelihood(model) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi), rel=1e-12
        )


class TestFitHyperparams:
    def test_requires_two_points(self, rng):
        data = _dataset(Sphere(2), 1, rng)
        with pytest.raises(InvalidInputError):
            fit_hyperparams(data, median_heuristic_params(data), FIT_RESTARTS)

    def test_requires_a_start(self, rng):
        data = _dataset(Sphere(2), 4, rng)
        with pytest.raises(InvalidInputError):
            fit_hyperparams(data, median_heuristic_params(data), 0)

    def test_fitted_within_bounds(self, rng):
        # The lengthscale lies in its interval, the amplitude is the one
        # profiled at it, and there is no noise.
        data = _dataset(Sphere(2), 8, rng)
        lo, hi = egp._lengthscale_bounds(data)
        init = median_heuristic_params(data)
        fitted = fit_hyperparams(data, init, FIT_RESTARTS, seed=1)
        assert lo <= fitted.lengthscale <= hi
        profiled = _profiled_amplitude(data, fitted.lengthscale)
        assert fitted.amplitude == pytest.approx(profiled, rel=1e-12)
        assert fitted.noise == 0.0

    def test_recovers_known_lengthscale(self):
        # Self-consistency: data drawn from a surrogate with lengthscale 1
        # should be fitted with a lengthscale in [0.5, 2].
        gen = np.random.default_rng(0)
        kind = Sphere(2)
        points = [random_point(kind, gen) for _ in range(40)]
        true = KernelParams(lengthscale=1.0, amplitude=1.0, noise=1e-8)
        gram = gram_matrix(true, GpDataset.from_points(points, np.zeros(40)))
        values = np.linalg.cholesky(gram) @ gen.standard_normal(40)
        data = GpDataset.from_points(points, values)
        fitted = fit_hyperparams(data, median_heuristic_params(data), FIT_RESTARTS, seed=0)
        assert 0.5 <= fitted.lengthscale <= 2.0

    def test_deterministic(self, rng):
        data = _dataset(Sphere(2), 10, rng)
        init = median_heuristic_params(data)
        a = fit_hyperparams(data, init, FIT_RESTARTS, seed=5)
        b = fit_hyperparams(data, init, FIT_RESTARTS, seed=5)
        assert a == b

    def test_vanishing_residuals_cannot_be_fitted(self, rng):
        # Every profiled amplitude is 0, so no start can be scored.
        data = GpDataset.from_points([random_point(Sphere(2), rng) for _ in range(4)], np.zeros(4))
        with pytest.raises(FittingFailedError):
            fit_hyperparams(data, median_heuristic_params(data), FIT_RESTARTS)


def _fit_case(kind, with_trend, duplicated, seed):
    """A dataset and starting values for one fit.  Values are a smooth
    function of the embedding.  With a trend there are enough points for
    the dataset to fit its affine prior mean; without, 8 points and the zero
    mean.  The duplicated case repeats three of the points, so that the
    noise-free Gram matrix is singular and needs jitter."""
    gen = np.random.default_rng(seed)
    n = TREND_POINTS_PER_COEFFICIENT * (kind.ambient_dim + 1) if with_trend else 8
    points = [random_point(kind, gen) for _ in range(n)]
    if duplicated:
        points = points[: n - 3] + points[:3]
    emb = GpDataset.from_points(points, np.zeros(n)).embedded
    data = GpDataset.from_points(points, emb[:, 0] + 0.5 * emb[:, 1] ** 2)
    if with_trend:
        assert np.any(data.trend != 0.0)
    else:
        np.testing.assert_array_equal(data.trend, 0.0)
    return data, median_heuristic_params(data)


PIN_KINDS = [Sphere(2), Grassmann(2, 5), Spd(3)]


def _recording_cholesky(monkeypatch):
    """Record each factorization's jitter, None for a failed one."""
    jitters = []
    original = egp._cholesky_with_jitter

    def recording(gram, amplitude):
        try:
            chol, jitter = original(gram, amplitude)
        except IllConditionedModelError:
            jitters.append(None)
            raise
        jitters.append(jitter)
        return chol, jitter

    monkeypatch.setattr(egp, "_cholesky_with_jitter", recording)
    return jitters


def _lml_at(data, lengthscale, amplitude):
    """The log marginal likelihood of the noise-free model."""
    return log_marginal_likelihood(GpModel.build(KernelParams(lengthscale, amplitude, 0.0), data))


def _profiled_amplitude(data, lengthscale):
    """|L^{-1} r|^2 / n of the unit-amplitude, noise-free model."""
    whitened = GpModel.build(KernelParams(lengthscale, 1.0, 0.0), data).whitened
    return float(whitened @ whitened) / len(data)


def _profiled_lml(data, log_l):
    """The log marginal likelihood at the profiled amplitude, through the
    public model and likelihood rather than ``egp._profiled``."""
    lengthscale = math.exp(log_l)
    return _lml_at(data, lengthscale, _profiled_amplitude(data, lengthscale))


class TestLmlDerivatives:
    """``_profiled_derivatives`` of ``_profiled`` against central finite
    differences of the log marginal likelihood at the profiled amplitude,
    in the log lengthscale."""

    @pytest.mark.parametrize("with_trend", [False, True], ids=["zero_mean", "trend"])
    @pytest.mark.parametrize("kind", PIN_KINDS, ids=str)
    def test_matches_finite_differences(self, kind, with_trend):
        data, init = _fit_case(kind, with_trend, False, seed=5)
        log_l = math.log(init.lengthscale) + 0.3
        model, value = egp._profiled(data, log_l)
        assert model.jitter == 0.0
        assert value == pytest.approx(_profiled_lml(data, log_l), rel=1e-10)
        grad, curv = egp._profiled_derivatives(model)
        h = 1e-3
        fd_grad = (_profiled_lml(data, log_l + h) - _profiled_lml(data, log_l - h)) / (2 * h)
        fd_curv = (
            _profiled_lml(data, log_l + h) - 2.0 * value + _profiled_lml(data, log_l - h)
        ) / (h * h)
        scale = max(1.0, abs(curv))
        assert grad == pytest.approx(fd_grad, rel=0, abs=1e-5 * scale)
        assert curv == pytest.approx(fd_curv, rel=0, abs=1e-4 * scale)

    @pytest.mark.parametrize("with_trend", [False, True], ids=["zero_mean", "trend"])
    @pytest.mark.parametrize("kind", PIN_KINDS, ids=str)
    def test_fitted_amplitude_maximizes(self, kind, with_trend):
        # At the fitted lengthscale the likelihood falls on either side of
        # the fitted amplitude.
        data, init = _fit_case(kind, with_trend, False, seed=5)
        fitted = fit_hyperparams(data, init, FIT_RESTARTS, seed=3)
        best = _lml_at(data, fitted.lengthscale, fitted.amplitude)
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            assert best >= _lml_at(data, fitted.lengthscale, factor * fitted.amplitude)

    def test_none_when_unfactorizable(self, monkeypatch):
        # Three duplicated points and no jitter allowed.
        monkeypatch.setattr(egp, "JITTER_MAX", 0.0)
        data, init = _fit_case(Sphere(2), False, True, seed=5)
        assert egp._profiled(data, math.log(init.lengthscale)) is None

    def test_none_when_residuals_vanish(self, rng):
        data = _dataset(Sphere(2), 4, rng, fn=lambda x: 0.0)
        assert egp._profiled(data, 0.0) is None


class TestFitNewton:
    """``fit_hyperparams`` on the ``_fit_case`` datasets, checked against
    the optimality conditions on the lengthscale interval rather than
    against a pinned trajectory."""

    @pytest.mark.parametrize("with_trend", [False, True], ids=["zero_mean", "trend"])
    @pytest.mark.parametrize("kind", PIN_KINDS, ids=str)
    def test_box_kkt_point(self, kind, with_trend):
        # Inside the interval the Newton decrement is below the fit's
        # tolerance; at a bound the gradient points out of the interval.
        data, init = _fit_case(kind, with_trend, False, seed=7)
        fitted = fit_hyperparams(data, init, FIT_RESTARTS, seed=3)
        log_l = math.log(fitted.lengthscale)
        log_lo, log_hi = np.log(egp._lengthscale_bounds(data))
        grad, curv = egp._profiled_derivatives(egp._profiled(data, log_l)[0])
        if math.isclose(log_l, log_lo, rel_tol=0, abs_tol=1e-12):
            assert grad <= 0.0
        elif math.isclose(log_l, log_hi, rel_tol=0, abs_tol=1e-12):
            assert grad >= 0.0
        else:
            assert curv < 0.0 and grad**2 / (2.0 * -curv) <= egp.FIT_TOL, (grad, curv)

    @pytest.mark.parametrize(
        "with_trend, n_starts",
        [(False, FIT_RESTARTS), (True, FIT_RESTARTS),
         (False, REFIT_RESTARTS), (True, REFIT_RESTARTS)],
        ids=["zero_mean", "trend", "zero_mean-refit", "trend-refit"],
    )
    @pytest.mark.parametrize("kind", PIN_KINDS, ids=str)
    def test_not_worse_than_any_start(self, kind, with_trend, n_starts):
        data, init = _fit_case(kind, with_trend, False, seed=7)
        fitted = fit_hyperparams(data, init, n_starts, seed=3)
        log_lo, log_hi = np.log(egp._lengthscale_bounds(data))
        rng = np.random.default_rng(3)
        starts = [np.clip(math.log(init.lengthscale), log_lo, log_hi)]
        starts += [rng.uniform(log_lo, log_hi) for _ in range(n_starts - 1)]
        fitted_lml = log_marginal_likelihood(GpModel.build(fitted, data))
        for start in starts:
            assert fitted_lml >= _profiled_lml(data, start)

    @pytest.mark.parametrize("case", ["duplicated", "unfactorizable"])
    @pytest.mark.parametrize("with_trend", [False, True], ids=["zero_mean", "trend"])
    @pytest.mark.parametrize("kind", PIN_KINDS, ids=str)
    def test_needs_jitter_or_fails_to_factorize(self, kind, with_trend, case, monkeypatch):
        # Duplicated points make every noise-free Gram matrix singular: the
        # fit needs jitter, and with none allowed no start can be scored.
        if case == "unfactorizable":
            monkeypatch.setattr(egp, "JITTER_MAX", 0.0)
        data, init = _fit_case(kind, with_trend, True, seed=7)
        jitters = _recording_cholesky(monkeypatch)
        if case == "duplicated":
            fitted = fit_hyperparams(data, init, FIT_RESTARTS, seed=3)
            assert all(j is not None and j > 0.0 for j in jitters)
            assert GpModel.build(fitted, data).jitter > 0.0
            lo, hi = egp._lengthscale_bounds(data)
            assert lo <= fitted.lengthscale <= hi and fitted.noise == 0.0
        else:
            with pytest.raises(FittingFailedError):
                fit_hyperparams(data, init, FIT_RESTARTS, seed=3)
            assert jitters and all(j is None for j in jitters)


class TestSolveChol:
    """``_solve_chol`` is ``solve_triangular`` without its wrapper."""

    @pytest.mark.parametrize("transpose", [False, True], ids=["L", "LT"])
    @pytest.mark.parametrize("rhs", ["vector", "matrix", "identity"])
    def test_equals_solve_triangular(self, rhs, transpose, rng):
        data = _dataset(Spd(3), 12, rng)
        chol = np.linalg.cholesky(gram_matrix(median_heuristic_params(data), data))
        b = {
            "vector": rng.standard_normal(12),
            "matrix": rng.standard_normal((12, 4)),
            "identity": np.eye(12),
        }[rhs]
        got = egp._solve_chol(chol, b, transpose=transpose)
        a = chol.T if transpose else chol
        expected = solve_triangular(a, b, lower=not transpose, check_finite=False)
        assert got.shape == expected.shape
        assert got.flags.f_contiguous == expected.flags.f_contiguous
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("transpose", [False, True], ids=["L", "LT"])
    def test_zero_diagonal_raises(self, transpose, rng):
        chol = np.tril(rng.standard_normal((6, 6))) + 3.0 * np.eye(6)
        chol[3, 3] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 3"):
            egp._solve_chol(chol, rng.standard_normal(6), transpose=transpose)


class TestMedianHeuristic:
    def test_single_point_fallbacks(self, rng):
        data = _dataset(Sphere(2), 1, rng)
        params = median_heuristic_params(data)
        assert params.lengthscale == 1.0
        assert params.amplitude == 1e-6

    def test_scales_with_spread(self, rng):
        data = _dataset(Sphere(2), 12, rng)
        params = median_heuristic_params(data)
        assert 0.1 < params.lengthscale < 2.5
        assert params.noise == pytest.approx(1e-6 * params.amplitude)


class TestDatasetValidation:
    def test_mixed_kinds_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            GpDataset.from_points(
                [random_point(Sphere(2), rng), random_point(Spd(2), rng)], [0.0, 1.0]
            )

    def test_nonfinite_values_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            GpDataset.from_points([random_point(Sphere(2), rng)], [np.inf])

    def test_append_preserves_original(self, rng):
        data = _dataset(Sphere(2), 3, rng)
        grown = data.append(random_point(Sphere(2), rng), 1.0)
        assert len(data) == 3
        assert len(grown) == 4
