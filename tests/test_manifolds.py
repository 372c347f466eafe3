import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manibo import (
    DegenerateProjectionError,
    DomainError,
    Grassmann,
    InvalidInputError,
    ManifoldPoint,
    Spd,
    Sphere,
    embed,
    extrinsic_distance,
    flatten_ambient,
    project_to_image,
    project_to_tangent,
    random_point,
    unembed,
    unflatten_ambient,
)
from manibo.manifolds import (
    DEGENERATE_NORM_TOL,
    SPD_CHART_SLACK,
    SPD_LOG_NORM_MAX,
    _eigh,
    retract_embedded,
    tangent_project_embedded,
)

from conftest import ALL_KINDS, BATCH_KINDS


def test_kind_dimensions():
    assert Sphere(2).ambient_dim == 3
    assert Grassmann(2, 3).ambient_dim == 6  # dim Sym(3)
    assert Spd(3).ambient_dim == 6


def test_kind_validation():
    with pytest.raises(InvalidInputError):
        Sphere(0)
    with pytest.raises(InvalidInputError):
        Grassmann(2, 2)
    with pytest.raises(InvalidInputError):
        Grassmann(0, 3)
    with pytest.raises(InvalidInputError):
        Spd(0)


class TestPointValidation:
    def test_sphere_norm_enforced(self):
        with pytest.raises(InvalidInputError):
            ManifoldPoint(Sphere(2), [1.0, 1.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            ManifoldPoint(Sphere(2), [np.nan, 0.0, 1.0])

    def test_grassmann_orthonormality_enforced(self):
        with pytest.raises(InvalidInputError):
            ManifoldPoint(Grassmann(2, 3), np.ones((3, 2)))

    def test_spd_definiteness_enforced(self):
        with pytest.raises(DomainError):
            ManifoldPoint(Spd(2), np.diag([1.0, -1.0]))
        with pytest.raises(InvalidInputError):
            ManifoldPoint(Spd(2), [[1.0, 0.5], [0.0, 1.0]])

    def test_coords_are_read_only(self):
        point = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            point.coords[0] = 1.0


class TestEmbed:
    def test_sphere_identity(self):
        x = ManifoldPoint(Sphere(2), [0.0, 0.0, -1.0])
        np.testing.assert_array_equal(embed(x), [0.0, 0.0, -1.0])

    def test_grassmann_axis_projector(self):
        x = ManifoldPoint(Grassmann(1, 2), [[1.0], [0.0]])
        np.testing.assert_allclose(embed(x), [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_spd_identity_logs_to_zero(self):
        x = ManifoldPoint(Spd(2), np.eye(2))
        np.testing.assert_allclose(embed(x), np.zeros((2, 2)), atol=1e-14)

    def test_grassmann_frame_invariance(self, rng):
        kind = Grassmann(2, 3)
        x = random_point(kind, rng)
        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        rotated = ManifoldPoint(kind, x.coords @ rot)
        np.testing.assert_allclose(embed(x), embed(rotated), atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_embedding_is_computed_once_and_read_only(self, kind, rng, monkeypatch):
        # The point is embedded while it is built, which validates it, and
        # never again.
        coords = random_point(kind, rng).coords
        calls = []
        real = type(kind).embed

        def counting(self, coords):
            calls.append(coords)
            return real(self, coords)

        monkeypatch.setattr(type(kind), "embed", counting)
        x = ManifoldPoint(kind, coords)
        assert len(calls) == 1
        first = embed(x)
        assert embed(x) is first
        assert len(calls) == 1
        monkeypatch.undo()
        assert first.tobytes() == kind.embed(x.coords).tobytes()
        with pytest.raises(ValueError):
            first.flat[0] = 1.0

    def test_spd_point_is_checked_and_embedded_by_one_eigh(self, rng, monkeypatch):
        coords = random_point(Spd(3), rng).coords
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append("eigh")
            return real_eigh(a, *args, **kwargs)

        def counting_eigvalsh(a, *args, **kwargs):
            calls.append("eigvalsh")
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        embed(ManifoldPoint(Spd(3), coords))
        assert calls == ["eigh"]

    def test_spd_coords_of_a_stack_equal_each_matrix_alone(self, rng):
        kind = Spd(3)
        logs = kind.project(rng.standard_normal((6, 3, 3)))
        stacked = kind.coords(logs)
        for log, coords in zip(logs, stacked):
            assert coords.tobytes() == kind.coords(log).tobytes()


class TestUnembed:
    def test_sphere_radial(self):
        x = unembed(Sphere(2), np.array([0.0, 0.0, -0.5]))
        np.testing.assert_allclose(x.coords, [0.0, 0.0, -1.0], atol=1e-14)

    def test_grassmann_projector_to_span(self):
        x = unembed(Grassmann(1, 2), np.array([[1.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(np.abs(x.coords), [[1.0], [0.0]], atol=1e-12)

    def test_spd_exp_zero(self):
        x = unembed(Spd(2), np.zeros((2, 2)))
        np.testing.assert_allclose(x.coords, np.eye(2), atol=1e-14)

    def test_sphere_degenerate(self):
        with pytest.raises(DegenerateProjectionError):
            unembed(Sphere(2), np.zeros(3))

    def test_grassmann_ambiguous(self):
        with pytest.raises(DegenerateProjectionError):
            unembed(Grassmann(1, 2), 0.5 * np.eye(2))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_roundtrip_preserves_point(self, kind, rng):
        for _ in range(10):
            x = random_point(kind, rng)
            back = unembed(kind, embed(x))
            np.testing.assert_allclose(embed(back), embed(x), atol=1e-8)


class TestSpdChart:
    def _log_coords(self, rng, norm):
        a = rng.standard_normal((3, 3))
        a = a + a.T
        return a * (norm / np.linalg.norm(a))

    def test_round_trip_holds_up_to_the_bound(self, rng):
        kind = Spd(3)
        for _ in range(100):
            v = self._log_coords(rng, rng.uniform(0.9, 1.0) * SPD_LOG_NORM_MAX)
            np.testing.assert_array_equal(project_to_image(kind, v), v)
            assert np.linalg.norm(embed(unembed(kind, v)) - v) <= 1e-8

    def test_unembed_rejects_beyond_the_bound(self, rng):
        kind = Spd(3)
        for norm in (1.01 * SPD_LOG_NORM_MAX, 20.0, 30.0, 800.0):
            v = self._log_coords(rng, norm)
            assert np.isnan(kind.project(v[None])).all()
            with pytest.raises(DegenerateProjectionError):
                unembed(kind, v)

    def test_point_validation_enforces_the_bound(self):
        inside = math.exp(0.99 * SPD_LOG_NORM_MAX / math.sqrt(2.0))
        ManifoldPoint(Spd(2), np.diag([inside, 1.0 / inside]))
        outside = math.exp(1.01 * SPD_LOG_NORM_MAX / math.sqrt(2.0))
        with pytest.raises(DomainError):
            ManifoldPoint(Spd(2), np.diag([outside, 1.0 / outside]))

    def test_every_accepted_point_round_trips(self, rng):
        # Points near the bound in native coordinates, as an optimizer
        # would construct them, survive embed/unembed.
        kind = Spd(3)
        for _ in range(100):
            v = self._log_coords(rng, 0.999 * SPD_LOG_NORM_MAX)
            w, q = np.linalg.eigh(v)
            x = ManifoldPoint(kind, (q * np.exp(w)) @ q.T)
            again = unembed(kind, embed(x))
            assert np.linalg.norm(embed(again) - embed(x)) <= 1e-8

    def test_chart_holds_at_exactly_the_bound(self, rng):
        # At the bound the exp/log round-off moves the log-norm by up to a
        # few 1e-10: every log-coordinate the chart accepts still unembeds,
        # and every point that builds still round-trips.
        kind = Spd(3)
        for _ in range(200):
            v = self._log_coords(rng, SPD_LOG_NORM_MAX)
            if np.isnan(kind.project(v[None])).any():
                continue
            x = unembed(kind, v)
            again = unembed(kind, embed(x))
            assert np.linalg.norm(embed(again) - v) <= 1e-7

    def test_compact_kinds_always_in_chart(self, rng):
        # Far from the image, the compact kinds still have a nearest point.
        for kind in (Sphere(2), Grassmann(2, 3)):
            v = 1e6 * rng.standard_normal(kind.ambient_shape)
            assert np.isfinite(kind.project(v[None])).all()

    def test_projection_keeps_the_bound_and_is_nan_past_it(self):
        # The band's outer edge, two slacks past the bound, is scaled onto
        # the bound; one ulp further out the row is NaN.  The other rows
        # keep their bits.
        kind = Spd(3)
        at = np.diag([SPD_LOG_NORM_MAX, 0.0, 0.0])
        edge = SPD_LOG_NORM_MAX + 2.0 * SPD_CHART_SLACK
        band = np.diag([edge, 0.0, 0.0])
        past = np.diag([np.nextafter(edge, np.inf), 0.0, 0.0])
        out = kind.project(np.stack([at, band, past, at]))
        np.testing.assert_array_equal(out[[0, 3]], [at, at])
        np.testing.assert_allclose(out[1], at, rtol=0.0, atol=1e-14)
        assert np.isnan(out[2]).all()

    def test_random_draw_past_the_chart(self):
        # A symmetric Gaussian 20 x 20 matrix has a Frobenius norm near 14,
        # past the bound: its embedded draw is an all-NaN row, and
        # random_point raises on the same draw.
        kind = Spd(20)
        for seed in range(3):
            assert np.isnan(kind.random_embedded(np.random.default_rng(seed), 1)).all()
            with pytest.raises(DegenerateProjectionError, match="chart"):
                random_point(kind, seed)

    def test_project_to_image_raises_past_the_chart(self):
        # Past the band the projection names the chart; in the band it is
        # the point on the bound.
        kind = Spd(3)
        for norm in (1.01 * SPD_LOG_NORM_MAX, 30.0):
            v = np.diag([norm, 0.0, 0.0])
            with pytest.raises(DegenerateProjectionError, match="chart"):
                project_to_image(kind, v)
        band = np.diag([SPD_LOG_NORM_MAX + SPD_CHART_SLACK, 0.0, 0.0])
        np.testing.assert_allclose(project_to_image(kind, band),
                                   np.diag([SPD_LOG_NORM_MAX, 0.0, 0.0]), rtol=0.0, atol=1e-14)


class TestProjectToImage:
    def test_sphere(self):
        np.testing.assert_allclose(
            project_to_image(Sphere(2), np.array([0.0, 0.0, -2.0])),
            [0.0, 0.0, -1.0],
            atol=1e-14,
        )

    def test_grassmann_matches_brute_force(self):
        # Oracle: scan all rank-1 projectors u(theta) u(theta)^T of R^2 for
        # the Frobenius-nearest one.
        target = np.array([[0.9, 0.0], [0.0, 0.1]])
        thetas = np.linspace(0.0, math.pi, 200001)
        units = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        projectors = units[:, :, None] * units[:, None, :]
        errs = np.linalg.norm(projectors - target, axis=(1, 2))
        oracle = projectors[np.argmin(errs)]
        np.testing.assert_allclose(oracle, [[1.0, 0.0], [0.0, 0.0]], atol=1e-8)
        result = project_to_image(Grassmann(1, 2), target)
        np.testing.assert_allclose(result, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_spd_is_symmetrization(self, rng):
        v = rng.standard_normal((3, 3))
        np.testing.assert_allclose(project_to_image(Spd(3), v), 0.5 * (v + v.T))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_idempotent(self, kind, rng):
        for _ in range(10):
            v = rng.standard_normal(kind.ambient_shape)
            once = project_to_image(kind, v)
            twice = project_to_image(kind, once)
            np.testing.assert_allclose(twice, once, atol=1e-10)

    @pytest.mark.parametrize(
        "kind, specials",
        [pytest.param(Sphere(2), [np.zeros(3)], id="sphere"),
         pytest.param(Grassmann(2, 3), [np.diag([1.0, 0.5, 0.5])], id="grassmann"),
         pytest.param(Spd(3), [np.diag([SPD_LOG_NORM_MAX + SPD_CHART_SLACK, 0.0, 0.0]),
                               np.diag([1.01 * SPD_LOG_NORM_MAX, 0.0, 0.0])], id="spd")],
    )
    def test_unembed_is_coords_of_the_projection(self, kind, specials):
        # One nearest-point map: where the projection has no point, unembed
        # raises the same error; elsewhere it lands on the projection
        # (test_matches_embed_of_unembed covers random values).  Here: the
        # sphere's zero vector, a Grassmann tie, an Spd row in the band past
        # the chart bound and one beyond the band.
        for v in specials:
            try:
                image = project_to_image(kind, v)
            except DegenerateProjectionError as exc:
                with pytest.raises(DegenerateProjectionError) as raised:
                    unembed(kind, v)
                assert str(raised.value) == str(exc)
                continue
            np.testing.assert_allclose(embed(unembed(kind, v)), image, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_embed_of_unembed(self, kind, rng):
        for _ in range(10):
            v = rng.standard_normal(kind.ambient_shape)
            np.testing.assert_allclose(
                embed(unembed(kind, v)), project_to_image(kind, v), atol=1e-8
            )


def _fd_tangent_basis(kind, x, rng, eps=1e-7, count=12):
    """Finite-difference spanning set of the tangent space at x: directional
    derivatives of the image projection along random ambient directions."""
    e = embed(x)
    basis = []
    for _ in range(count):
        h = rng.standard_normal(kind.ambient_shape)
        u = (project_to_image(kind, e + eps * h) - e) / eps
        norm = np.linalg.norm(u)
        if norm > 1e-8:
            basis.append(u / norm)
    return basis


class TestProjectToTangent:
    def test_sphere_removes_normal_component(self):
        x = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        tangent = project_to_tangent(x, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(tangent, [1.0, 2.0, 0.0], atol=1e-14)

    def test_sphere_purely_normal(self):
        x = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        tangent = project_to_tangent(x, np.array([0.0, 0.0, 5.0]))
        np.testing.assert_allclose(tangent, np.zeros(3), atol=1e-14)

    def test_grassmann_identity_projects_to_zero(self, rng):
        # The identity matrix commutes with the projector, so its tangent
        # component vanishes; confirmed against the finite-difference basis.
        x = ManifoldPoint(Grassmann(1, 2), [[1.0], [0.0]])
        tangent = project_to_tangent(x, np.eye(2))
        np.testing.assert_allclose(tangent, np.zeros((2, 2)), atol=1e-12)
        for u in _fd_tangent_basis(Grassmann(1, 2), x, rng):
            assert abs(np.sum(np.eye(2) * u)) < 1e-6

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_idempotent(self, kind, rng):
        for _ in range(10):
            x = random_point(kind, rng)
            g = rng.standard_normal(kind.ambient_shape)
            once = project_to_tangent(x, g)
            twice = project_to_tangent(x, once)
            np.testing.assert_allclose(twice, once, atol=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_residual_orthogonal_to_fd_tangent_basis(self, kind, rng):
        for _ in range(5):
            x = random_point(kind, rng)
            g = rng.standard_normal(kind.ambient_shape)
            if not isinstance(kind, Sphere):
                g = 0.5 * (g + g.T)  # ambient space is Sym(k)
            residual = g - project_to_tangent(x, g)
            for u in _fd_tangent_basis(kind, x, rng):
                assert abs(np.sum(residual * u)) < 1e-6


def _one_row(kind, e, v, t):
    """A single step: ``retract_embedded`` on one stacked row."""
    return retract_embedded(kind, e[None], v[None], t)[0]


def _step(x, d, t):
    """The step every optimizer takes from a point along d: a one-row
    ``retract_embedded`` from its embedding, unembedded."""
    return unembed(x.kind, _one_row(x.kind, embed(x), d, t))


class TestExpMap:
    """The projection retraction that stands in for the exponential map,
    taken from a point (``_step``)."""

    def test_sphere_quarter_circle(self):
        # A tangent step of length pi/2, which the geodesic would take a
        # quarter circle, lands at (x + t d) / |x + t d|: the angle atan(pi/2)
        # from x, short of the quarter circle that no finite step reaches.
        x = ManifoldPoint(Sphere(2), [1.0, 0.0, 0.0])
        v = np.array([0.0, math.pi / 2.0, 0.0])
        y = _step(x, v, 1.0)
        norm = math.hypot(1.0, math.pi / 2.0)
        np.testing.assert_allclose(y.coords, [1.0 / norm, 0.5 * math.pi / norm, 0.0],
                                   rtol=0.0, atol=1e-15)
        assert math.atan2(y.coords[1], y.coords[0]) == pytest.approx(math.atan(math.pi / 2.0))
        far = _step(x, v, 1e8)
        np.testing.assert_allclose(far.coords, [0.0, 1.0, 0.0], rtol=0.0, atol=1e-8)

    def test_sphere_full_period(self):
        # A step of length 2 pi does not wrap around to x, as the geodesic's
        # does: the projection (x + t d) / |x + t d| is not periodic in t.
        x = ManifoldPoint(Sphere(2), [1.0, 0.0, 0.0])
        v = np.array([0.0, 2.0 * math.pi, 0.0])
        for t in (0.5, 1.0, 2.0):
            y = _step(x, v, t)
            norm = math.hypot(1.0, 2.0 * math.pi * t)
            np.testing.assert_allclose(y.coords, [1.0 / norm, 2.0 * math.pi * t / norm, 0.0],
                                       rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_vector_fixes_point(self, kind, rng):
        x = random_point(kind, rng)
        v = np.zeros(kind.ambient_shape)
        y = _step(x, v, 1.0)
        np.testing.assert_allclose(embed(y), embed(x), atol=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_output_on_manifold(self, kind, rng):
        # ManifoldPoint construction re-validates the invariants, so a
        # successful return is itself the check; sphere norms get a tighter
        # bound.
        for _ in range(10):
            x = random_point(kind, rng)
            v = project_to_tangent(x, rng.standard_normal(kind.ambient_shape))
            y = _step(x, v, 0.3)
            if isinstance(kind, Sphere):
                assert abs(np.linalg.norm(y.coords) - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_first_order_consistency(self, kind, rng):
        t = 1e-4
        for _ in range(5):
            x = random_point(kind, rng)
            v = project_to_tangent(x, rng.standard_normal(kind.ambient_shape))
            norm = np.linalg.norm(v)
            if norm < 1e-6:
                continue
            v = (1.0 / norm) * v
            linear = embed(x) + t * v
            assert np.linalg.norm(embed(_step(x, v, t)) - linear) < 1e-6

    def test_kind_mismatch(self, rng):
        # A gradient shaped for another kind is rejected by its shape, where
        # gradient descent projects it before stepping.
        x = random_point(Sphere(2), rng)
        with pytest.raises(InvalidInputError):
            project_to_tangent(x, np.zeros((2, 2)))

    def test_rejects_non_finite_direction(self):
        # The step's non-finite row comes back NaN, and unembed rejects it.
        north = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                _step(north, np.array([bad, 0.0, 0.0]), 1.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rejects_wrong_shape_direction(self, kind, rng):
        x = random_point(kind, rng)
        with pytest.raises(InvalidInputError):
            project_to_tangent(x, np.zeros(kind.ambient_dim + 1))

    @pytest.mark.parametrize("kind", BATCH_KINDS, ids=str)
    def test_is_the_embedded_retraction(self, kind, rng):
        # A one-row retract_embedded is project_to_image of the ambient
        # step, and _step unembeds it: the same bits, for random and zero
        # directions and t.
        for _ in range(20):
            x = random_point(kind, rng)
            d = project_to_tangent(x, rng.standard_normal(kind.ambient_shape))
            t = float(rng.uniform(0.01, 1.0))
            for direction in (d, np.zeros(kind.ambient_shape)):
                e = embed(x)
                retracted = _one_row(kind, e, direction, t)
                assert retracted.tobytes() == project_to_image(kind, e + t * direction).tobytes()
                stepped = _step(x, direction, t)
                assert stepped.coords.tobytes() == unembed(kind, retracted).coords.tobytes()


class TestDistances:
    def test_sphere_poles(self):
        north = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        south = ManifoldPoint(Sphere(2), [0.0, 0.0, -1.0])
        assert extrinsic_distance(north, south) == pytest.approx(2.0, abs=1e-14)

    def test_grassmann_axes(self):
        # Hand-check oracle: the projector difference is diag(1, -1), whose
        # Frobenius norm is sqrt(2).
        e1 = ManifoldPoint(Grassmann(1, 2), [[1.0], [0.0]])
        e2 = ManifoldPoint(Grassmann(1, 2), [[0.0], [1.0]])
        diff = embed(e1) - embed(e2)
        assert np.linalg.norm(diff) == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert extrinsic_distance(e1, e2) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_self_distance_zero(self, kind, rng):
        x = random_point(kind, rng)
        assert extrinsic_distance(x, x) == 0.0

    def test_kind_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            extrinsic_distance(random_point(Sphere(2), rng), random_point(Spd(2), rng))

    def test_spd_log_euclidean_values(self):
        eye = ManifoldPoint(Spd(2), np.eye(2))
        scaled = ManifoldPoint(Spd(2), math.e * np.eye(2))
        assert extrinsic_distance(eye, eye) == 0.0
        assert extrinsic_distance(scaled, eye) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_spd_symmetry(self, rng):
        kind = Spd(3)
        for _ in range(10):
            a, b = random_point(kind, rng), random_point(kind, rng)
            assert extrinsic_distance(a, b) == pytest.approx(
                extrinsic_distance(b, a), abs=1e-10
            )

    def test_spd_rejects_other_kinds(self, rng):
        x = random_point(Spd(2), rng)
        for other in (Spd(3), Grassmann(1, 2)):
            with pytest.raises(InvalidInputError):
                extrinsic_distance(x, random_point(other, rng))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_triangle_inequality(self, kind, rng):
        for _ in range(10):
            x, y, z = (random_point(kind, rng) for _ in range(3))
            assert extrinsic_distance(x, z) <= (
                extrinsic_distance(x, y) + extrinsic_distance(y, z) + 1e-10
            )


class TestRandomPoint:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_invariants(self, kind):
        x = random_point(kind, 123)
        if isinstance(kind, Sphere):
            assert abs(np.linalg.norm(x.coords) - 1.0) < 1e-12
        elif isinstance(kind, Grassmann):
            np.testing.assert_allclose(
                x.coords.T @ x.coords, np.eye(kind.p), atol=1e-10
            )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deterministic(self, kind):
        a = random_point(kind, 7)
        b = random_point(kind, 7)
        np.testing.assert_array_equal(a.coords, b.coords)


class _FixedNormals:
    """A generator stand-in whose ``standard_normal`` returns given draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def standard_normal(self, size):
        assert size == self.draws.shape
        return self.draws.copy()


class TestStackedDraws:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("count", [1, 9])
    @pytest.mark.parametrize("draw", ["random_coords", "random_embedded"])
    def test_stack_equals_one_row_draws(self, kind, count, draw):
        # A stack of count draws has the bits of count one-row draws from
        # the same generator, and leaves the generator in the same state.
        shape = kind.coords_shape if draw == "random_coords" else kind.ambient_shape
        for seed in range(20):
            gen, row_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            stack = getattr(kind, draw)(gen, count)
            rows = [getattr(kind, draw)(row_gen, 1) for _ in range(count)]
            assert stack.shape == (count,) + shape
            assert all(row.shape == (1,) + shape for row in rows)
            np.testing.assert_array_equal(stack, np.concatenate(rows))
            assert gen.bit_generator.state == row_gen.bit_generator.state

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_embedded_draws_embed_the_coordinate_draws(self, kind):
        # One draw per kind: the embedded stack is the embedding of the
        # coordinate stack from the same generator state, bit for bit on
        # the sphere and the Grassmannian; on Spd the coordinates are the
        # exponentials of the embedded draws, so their logs agree to
        # round-off.
        coords = kind.random_coords(np.random.default_rng(3), 9)
        e = kind.random_embedded(np.random.default_rng(3), 9)
        embedded = np.stack([kind.embed(c) for c in coords])
        if isinstance(kind, Spd):
            np.testing.assert_allclose(embedded, e, rtol=0.0, atol=1e-13)
        else:
            np.testing.assert_array_equal(embedded, e)

    def test_sphere_rows_are_gaussian_rows_over_their_norm(self):
        # The same bits as dividing each Gaussian row by np.linalg.norm.
        kind = Sphere(4)
        for seed in range(200):
            draws = np.random.default_rng(seed).standard_normal((9, 5))
            np.testing.assert_array_equal(
                kind.random_coords(np.random.default_rng(seed), 9),
                [v / np.linalg.norm(v) for v in draws],
            )

    @pytest.mark.parametrize("draw", ["random_coords", "random_embedded"])
    def test_degenerate_and_past_the_chart_rows_are_nan(self, draw):
        # A sphere row of norm below DEGENERATE_NORM_TOL and an Spd row
        # past the chart come back all NaN; the rows around them keep the
        # bits of their one-row draws.
        sphere_rows = [[0.6, 0.8, 0.0], [0.5 * DEGENERATE_NORM_TOL, 0.0, 0.0], [0.0, 3.0, 4.0]]
        spd_rows = [np.eye(2), np.diag([2.0 * SPD_LOG_NORM_MAX, 0.0]), np.diag([1.0, -2.0])]
        for kind, rows in ((Sphere(2), sphere_rows), (Spd(2), spd_rows)):
            stack = getattr(kind, draw)(_FixedNormals(rows), 3)
            assert np.isnan(stack[1]).all()
            for r in (0, 2):
                alone = getattr(kind, draw)(_FixedNormals([rows[r]]), 1)[0]
                assert np.isfinite(alone).all()
                np.testing.assert_array_equal(stack[r], alone)


class TestGrassmannProjectorAlgebra:
    def test_projector_identities(self, rng):
        kind = Grassmann(2, 3)
        for _ in range(20):
            proj = embed(random_point(kind, rng))
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
            np.testing.assert_allclose(proj.T, proj, atol=1e-10)
            assert np.trace(proj) == pytest.approx(kind.p, abs=1e-10)


class TestEighHelper:
    """``_eigh`` calls the gufunc behind ``np.linalg.eigh``: the same bits
    on the symmetric stacks a Grassmann projection factors."""

    @staticmethod
    def _assert_numpy_bits(a):
        w, vecs = _eigh(a)
        w_np, vecs_np = np.linalg.eigh(a)
        assert w.tobytes() == w_np.tobytes()
        assert vecs.tobytes() == vecs_np.tobytes()

    @pytest.mark.parametrize(
        "kind,n_rows",
        [(Grassmann(2, 3), 1), (Grassmann(2, 3), 8), (Grassmann(2, 3), 23), (Grassmann(2, 4), 8)],
    )
    def test_trial_stacks(self, kind, n_rows, rng):
        e, _, v = _stack(kind, rng, n_rows)
        a = e + 0.3 * v
        self._assert_numpy_bits(0.5 * (a + a.swapaxes(-1, -2)))

    def test_tied_matrix(self):
        # The ambiguous row of ``test_ambiguous_row_is_nan_and_spares_the_others``.
        self._assert_numpy_bits(np.diag([1.0, 0.5, 0.5])[None])


class TestFlattening:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_roundtrip(self, kind, rng):
        v = rng.standard_normal(kind.ambient_shape)
        if not isinstance(kind, Sphere):
            v = 0.5 * (v + v.T)
        flat = flatten_ambient(kind, v)
        assert flat.shape == (kind.ambient_dim,)
        np.testing.assert_allclose(unflatten_ambient(kind, flat), v, atol=1e-14)

    def test_isometry(self, rng):
        kind = Spd(3)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        a, b = 0.5 * (a + a.T), 0.5 * (b + b.T)
        frob = float(np.sum(a * b))
        flat = float(flatten_ambient(kind, a) @ flatten_ambient(kind, b))
        assert flat == pytest.approx(frob, rel=1e-12)


def _stack(kind, rng, n_rows):
    """Embedded points, ambient vectors and their tangent projections."""
    e = np.stack([embed(random_point(kind, rng)) for _ in range(n_rows)])
    g = rng.standard_normal((n_rows,) + kind.ambient_shape)
    return e, g, tangent_project_embedded(kind, e, g)


class TestStackedGeometry:
    """A leading batch axis computes every row as a single call would; a
    single retraction is a one-row call (``_one_row``)."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(BATCH_KINDS),
        n_rows=st.integers(1, 12),
    )
    def test_tangent_projection_rows_equal_single_calls(self, seed, kind, n_rows):
        e, g, projected = _stack(kind, np.random.default_rng(seed), n_rows)
        for row in range(n_rows):
            np.testing.assert_array_equal(
                projected[row], tangent_project_embedded(kind, e[row], g[row])
            )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(BATCH_KINDS),
        n_rows=st.integers(1, 12),
        scalar_step=st.booleans(),
    )
    def test_retraction_rows_equal_single_calls(self, seed, kind, n_rows, scalar_step):
        rng = np.random.default_rng(seed)
        e, _, v = _stack(kind, rng, n_rows)
        t = 0.3 if scalar_step else rng.uniform(0.0, 2.0, n_rows)
        stepped = retract_embedded(kind, e, v, t)
        for row in range(n_rows):
            t_row = t if scalar_step else t[row]
            np.testing.assert_array_equal(
                stepped[row], _one_row(kind, e[row], v[row], t_row)
            )

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @pytest.mark.parametrize("n_rows", [1, 7])
    def test_scalar_step_equals_one_step_per_row(self, kind, n_rows, rng):
        # A scalar t is expanded to one step per row; the bits must be those
        # of the same call with that array.
        e, _, v = _stack(kind, rng, n_rows)
        stepped = retract_embedded(kind, e, v, 0.3)
        assert stepped.tobytes() == retract_embedded(kind, e, v, np.full(n_rows, 0.3)).tobytes()

    def test_ambiguous_row_is_nan_and_spares_the_others(self, rng):
        kind = Grassmann(2, 3)
        e, _, v = _stack(kind, rng, 4)
        # diag(1, 1, 0) + 0.5 diag(0, -1, 1) = diag(1, 0.5, 0.5): the two
        # smaller eigenvalues tie, so the dominant plane is not unique.
        e[1], v[1] = np.diag([1.0, 1.0, 0.0]), np.diag([0.0, -1.0, 1.0])
        stepped = retract_embedded(kind, e, v, 0.5)
        assert np.all(np.isnan(stepped[1]))
        for row in (0, 2, 3):
            np.testing.assert_array_equal(
                stepped[row], _one_row(kind, e[row], v[row], 0.5)
            )
        assert np.all(np.isnan(_one_row(kind, e[1], v[1], 0.5)))
        with pytest.raises(DegenerateProjectionError):
            project_to_image(kind, e[1] + 0.5 * v[1])

    def test_degenerate_sphere_row_is_nan_and_raises_alone(self, rng):
        # The zero vector has no nearest point on the sphere.
        kind = Sphere(2)
        e, _, v = _stack(kind, rng, 3)
        e[1], v[1] = 0.0, 0.0
        stepped = retract_embedded(kind, e, v, 0.5)
        assert np.all(np.isnan(stepped[1]))
        for row in (0, 2):
            np.testing.assert_array_equal(
                stepped[row], _one_row(kind, e[row], v[row], 0.5)
            )
        assert np.all(np.isnan(_one_row(kind, e[1], v[1], 0.5)))
        with pytest.raises(DegenerateProjectionError):
            project_to_image(kind, e[1] + 0.5 * v[1])

    @pytest.mark.parametrize(
        "kind, value, error",
        [(Sphere(2), np.zeros(3), DegenerateProjectionError),
         (Grassmann(2, 3), np.diag([1.0, 0.5, 0.5]), DegenerateProjectionError)],
        ids=str,
    )
    def test_project_to_image_raises_where_the_nearest_point_is_not_unique(
        self, kind, value, error
    ):
        with pytest.raises(error):
            project_to_image(kind, value)

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_row_is_nan_and_spares_the_others(self, rng, bad, kind):
        # One non-finite entry must not fail the stacked eigh of the rows,
        # and on every kind it makes the whole row NaN.
        e, _, v = _stack(kind, rng, 3)
        v[1].flat[v[1].size // 2] = bad
        stepped = retract_embedded(kind, e, v, 0.5)
        assert np.all(np.isnan(stepped[1]))
        for row in (0, 2):
            np.testing.assert_array_equal(
                stepped[row], _one_row(kind, e[row], v[row], 0.5)
            )
        assert np.all(np.isnan(_one_row(kind, e[1], v[1], 0.5)))
        with pytest.raises(InvalidInputError):
            project_to_image(kind, e[1] + 0.5 * v[1])
