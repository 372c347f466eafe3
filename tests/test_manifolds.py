import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manibo import (
    AmbiguousSubspaceError,
    DegenerateProjectionError,
    DomainError,
    Grassmann,
    InvalidInputError,
    ManifoldPoint,
    Spd,
    Sphere,
    TangentVector,
    embed,
    exp_map,
    extrinsic_distance,
    flatten_ambient,
    project_to_image,
    project_to_tangent,
    random_point,
    spd_intrinsic_distance,
    unembed,
    unflatten_ambient,
)
from manibo.manifolds import (
    SPD_LOG_NORM_MAX,
    retract_embedded,
    tangent_project_embedded,
    within_chart,
)

from conftest import ALL_KINDS, BATCH_KINDS


def test_kind_dimensions():
    assert Sphere(2).ambient_dim == 3
    assert Sphere(2).intrinsic_dim == 2
    assert Grassmann(2, 3).ambient_dim == 6  # dim Sym(3)
    assert Grassmann(2, 3).intrinsic_dim == 2
    assert Spd(3).ambient_dim == 6
    assert Spd(3).intrinsic_dim == 6


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

    def test_tangent_vector_must_be_tangent(self):
        north = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        with pytest.raises(InvalidInputError):
            TangentVector(north, np.array([0.0, 0.0, 1.0]))
        eye = ManifoldPoint(Spd(2), np.eye(2))
        with pytest.raises(InvalidInputError):
            TangentVector(eye, np.array([[0.0, 1.0], [-1.0, 0.0]]))
        TangentVector(north, np.array([1.0, 2.0, 0.0]))  # tangent: accepted


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
        with pytest.raises(AmbiguousSubspaceError):
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
            assert within_chart(kind, v)
            assert np.linalg.norm(embed(unembed(kind, v)) - v) <= 1e-8

    def test_unembed_rejects_beyond_the_bound(self, rng):
        kind = Spd(3)
        for norm in (1.01 * SPD_LOG_NORM_MAX, 20.0, 30.0, 800.0):
            v = self._log_coords(rng, norm)
            assert not within_chart(kind, v)
            with pytest.raises(DomainError):
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

    def test_compact_kinds_always_in_chart(self, rng):
        for kind in (Sphere(2), Grassmann(2, 3)):
            assert within_chart(kind, 1e6 * np.ones(kind.ambient_shape))


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
        np.testing.assert_allclose(tangent.direction, [1.0, 2.0, 0.0], atol=1e-14)

    def test_sphere_purely_normal(self):
        x = ManifoldPoint(Sphere(2), [0.0, 0.0, 1.0])
        tangent = project_to_tangent(x, np.array([0.0, 0.0, 5.0]))
        np.testing.assert_allclose(tangent.direction, np.zeros(3), atol=1e-14)

    def test_grassmann_identity_projects_to_zero(self, rng):
        # The identity matrix commutes with the projector, so its tangent
        # component vanishes; confirmed against the finite-difference basis.
        x = ManifoldPoint(Grassmann(1, 2), [[1.0], [0.0]])
        tangent = project_to_tangent(x, np.eye(2))
        np.testing.assert_allclose(tangent.direction, np.zeros((2, 2)), atol=1e-12)
        for u in _fd_tangent_basis(Grassmann(1, 2), x, rng):
            assert abs(np.sum(np.eye(2) * u)) < 1e-6

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_idempotent(self, kind, rng):
        for _ in range(10):
            x = random_point(kind, rng)
            g = rng.standard_normal(kind.ambient_shape)
            once = project_to_tangent(x, g)
            twice = project_to_tangent(x, once.direction)
            np.testing.assert_allclose(twice.direction, once.direction, atol=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_residual_orthogonal_to_fd_tangent_basis(self, kind, rng):
        for _ in range(5):
            x = random_point(kind, rng)
            g = rng.standard_normal(kind.ambient_shape)
            if not isinstance(kind, Sphere):
                g = 0.5 * (g + g.T)  # ambient space is Sym(k)
            residual = g - project_to_tangent(x, g).direction
            for u in _fd_tangent_basis(kind, x, rng):
                assert abs(np.sum(residual * u)) < 1e-6


class TestExpMap:
    def test_sphere_quarter_circle(self):
        x = ManifoldPoint(Sphere(2), [1.0, 0.0, 0.0])
        v = TangentVector(x, np.array([0.0, math.pi / 2.0, 0.0]))
        y = exp_map(x, v, 1.0)
        np.testing.assert_allclose(y.coords, [0.0, 1.0, 0.0], atol=1e-14)

    def test_sphere_full_period(self):
        x = ManifoldPoint(Sphere(2), [1.0, 0.0, 0.0])
        v = TangentVector(x, np.array([0.0, 2.0 * math.pi, 0.0]))
        y = exp_map(x, v, 1.0)
        np.testing.assert_allclose(y.coords, [1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_vector_fixes_point(self, kind, rng):
        x = random_point(kind, rng)
        v = TangentVector(x, np.zeros(kind.ambient_shape))
        y = exp_map(x, v, 1.0)
        np.testing.assert_allclose(embed(y), embed(x), atol=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_output_on_manifold(self, kind, rng):
        # ManifoldPoint construction re-validates the invariants, so a
        # successful return is itself the check; sphere norms get a tighter
        # bound.
        for _ in range(10):
            x = random_point(kind, rng)
            v = project_to_tangent(x, rng.standard_normal(kind.ambient_shape))
            y = exp_map(x, v, 0.3)
            if isinstance(kind, Sphere):
                assert abs(np.linalg.norm(y.coords) - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_first_order_consistency(self, kind, rng):
        t = 1e-4
        for _ in range(5):
            x = random_point(kind, rng)
            v = project_to_tangent(x, rng.standard_normal(kind.ambient_shape))
            if v.norm < 1e-6:
                continue
            v = v.scaled(1.0 / v.norm)
            linear = embed(x) + t * v.direction
            assert np.linalg.norm(embed(exp_map(x, v, t)) - linear) < 1e-6

    def test_kind_mismatch(self, rng):
        x = random_point(Sphere(2), rng)
        other = random_point(Spd(2), rng)
        v = TangentVector(other, np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            exp_map(x, v, 1.0)


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
        assert spd_intrinsic_distance(eye, eye) == 0.0
        assert spd_intrinsic_distance(scaled, eye) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )

    def test_spd_symmetry(self, rng):
        kind = Spd(3)
        for _ in range(10):
            a, b = random_point(kind, rng), random_point(kind, rng)
            assert spd_intrinsic_distance(a, b) == pytest.approx(
                spd_intrinsic_distance(b, a), abs=1e-10
            )

    def test_spd_rejects_other_kinds(self, rng):
        with pytest.raises(DomainError):
            spd_intrinsic_distance(
                random_point(Sphere(2), rng), random_point(Sphere(2), rng)
            )

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


class TestGrassmannProjectorAlgebra:
    def test_projector_identities(self, rng):
        kind = Grassmann(2, 3)
        for _ in range(20):
            proj = embed(random_point(kind, rng))
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
            np.testing.assert_allclose(proj.T, proj, atol=1e-10)
            assert np.trace(proj) == pytest.approx(kind.p, abs=1e-10)


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
    """A leading batch axis computes every row as a single call would."""

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
                stepped[row], retract_embedded(kind, e[row], v[row], t_row)
            )

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
                stepped[row], retract_embedded(kind, e[row], v[row], 0.5)
            )
        with pytest.raises(AmbiguousSubspaceError):
            retract_embedded(kind, e[1], v[1], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_row_is_nan_and_spares_the_others(self, rng, bad):
        # One non-finite entry must not fail the stacked eigh of the rows.
        kind = Grassmann(2, 5)
        e, _, v = _stack(kind, rng, 3)
        v[1, 2, 3] = bad
        stepped = retract_embedded(kind, e, v, 0.5)
        assert np.all(np.isnan(stepped[1]))
        for row in (0, 2):
            np.testing.assert_array_equal(
                stepped[row], retract_embedded(kind, e[row], v[row], 0.5)
            )
        with pytest.raises(InvalidInputError):
            retract_embedded(kind, e[1], v[1], 0.5)
