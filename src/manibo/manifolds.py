"""Supported manifolds and their Euclidean embeddings.

Three families are implemented, each with native point coordinates and an
embedding into a Euclidean space where kernels, ambient gradients, and line
steps are computed:

* ``Sphere(n)``: unit vectors in R^{n+1}; the embedding is the identity.
* ``Grassmann(p, n)``: p-dimensional subspaces of R^n, stored as an
  orthonormal n x p frame and embedded as the rank-p orthogonal projector
  ``X @ X.T`` inside Sym(n).
* ``Spd(p)``: symmetric positive definite p x p matrices, embedded by the
  matrix logarithm (log-Euclidean coordinates) inside Sym(p).

Each kind is one class holding everything that differs between manifolds,
behind the small protocol that ``ManifoldKind`` declares: point and
tangency checks, embed / unembed / project-to-image, the stacked tangent
projection and retraction, the chart check, random coordinates, and the
flat layout.  Grassmann and Spd share the Sym(k) parts.  The free functions
below are the public entry points; they validate their arguments and
delegate to the kind.  Adding a manifold means adding one such class.

Ambient values for the matrix manifolds are full symmetric matrices under
the Frobenius inner product.  ``flatten_ambient`` / ``unflatten_ambient``
convert to length-D coordinate vectors with sqrt(2)-scaled off-diagonals,
so that the flat dot product equals the Frobenius inner product and one
Euclidean kernel definition serves every manifold.

All functions are pure; random generation is explicit through a seed or a
``numpy.random.Generator``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

# Structural invariants (unit norm, orthonormal frames, symmetry).
POINT_ATOL = 1e-10
# Tangency / projection identities.
TANGENT_ATOL = 1e-8
# Below this eigenvalue gap a dominant p-subspace is considered ill-defined.
EIGENGAP_TOL = 1e-10
# Below this norm a radial projection to the sphere is undefined.
DEGENERATE_NORM_TOL = 1e-12
# Tangent steps shorter than this are treated as zero by the sphere map.
ZERO_STEP_TOL = 1e-14
# The Spd chart: log-Euclidean coordinates of Frobenius norm at most this.
# Beyond it the exp/log round trip loses precision (its error passes 1e-8
# near norm 15 for 3 x 3 matrices) and, further out, definiteness itself.
# ManifoldPoint validation and unembed both enforce it.
SPD_LOG_NORM_MAX = 10.0


class ManifoldError(ValueError):
    """Base class for geometry errors."""


class InvalidInputError(ManifoldError):
    """Input outside an operation's domain: wrong shape, kind, or non-finite."""


class DomainError(ManifoldError):
    """Matrix input violates a definiteness requirement."""


class DegenerateProjectionError(ManifoldError):
    """Nearest-point projection is undefined (e.g. the zero vector to a sphere)."""


class AmbiguousSubspaceError(ManifoldError):
    """Tied eigenvalues make the dominant subspace ill-defined."""


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


class ManifoldKind:
    """The protocol every manifold kind implements, on raw arrays that the
    free functions have already checked for shape and finiteness:

    * ``coords_shape``, ``ambient_shape``, ``ambient_dim``, ``intrinsic_dim``;
    * ``check_point(coords)`` and ``check_tangent(coords, d, tol)`` raise
      unless the coordinates, or d at that point, are valid;
    * ``embed(coords)``; ``unembed(v)``, the coordinates of the image point
      nearest to v; ``project_to_image(v)``;
    * ``tangent_project(e, g)`` and ``retract(e, v, t, single)``: a row that
      cannot be retracted comes back NaN, or raises when ``single``;
    * ``within_chart(e)``, ``flatten_rows(v)``, ``unflatten_rows(w)``;
    * ``random_coords(gen)`` and ``exp_map(x, d, t)``.

    The stacked methods (``tangent_project`` through ``unflatten_rows``)
    accept leading batch axes and compute every row on its own, so a row's
    bits do not depend on the other rows.  A kind overrides the defaults
    below where it has an exact or cheaper form.
    """

    def project_to_image(self, v: np.ndarray) -> np.ndarray:
        return self.embed(self.unembed(v))

    def within_chart(self, e: np.ndarray) -> np.ndarray:
        return np.ones(_batch_shape(self, e), dtype=bool)

    def exp_map(self, x: ManifoldPoint, d: np.ndarray, t: float) -> ManifoldPoint:
        """The projection retraction: the ambient step, back onto the image."""
        return unembed(self, embed(x) + t * d)


@dataclass(frozen=True)
class Sphere(ManifoldKind):
    """Unit sphere S^n embedded in R^{n+1}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"Sphere requires n >= 1, got n={self.n}")

    @property
    def coords_shape(self) -> tuple[int, ...]:
        return (self.n + 1,)

    ambient_shape = coords_shape

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    @property
    def intrinsic_dim(self) -> int:
        return self.n

    def check_point(self, coords):
        norm = np.linalg.norm(coords)
        if abs(norm - 1.0) > POINT_ATOL:
            raise InvalidInputError(f"sphere point has norm {norm!r}, expected 1")

    def check_tangent(self, coords, d, tol):
        if abs(np.dot(coords, d)) > tol:
            raise InvalidInputError("direction is not tangent to the sphere")

    def embed(self, coords):
        return np.array(coords)

    def unembed(self, v):
        norm = np.linalg.norm(v)
        if norm < DEGENERATE_NORM_TOL:
            raise DegenerateProjectionError(
                f"cannot project near-zero vector (norm {norm:g}) to the sphere"
            )
        return v / norm

    def tangent_project(self, e, g):
        return g - np.einsum("...i,...i->...", e, g)[..., None] * e

    def retract(self, e, v, t, single):
        """The geodesic, computed with numpy's elementwise cos/sin and an
        einsum norm per row."""
        speed = ambient_norms(self, v)[:, None]
        moving = speed[:, 0] >= ZERO_STEP_TOL
        out = np.array(e)
        theta = t[moving] * speed[moving]
        y = np.cos(theta) * e[moving] + np.sin(theta) * (v[moving] / speed[moving])
        out[moving] = y / ambient_norms(self, y)[:, None]
        return out

    def exp_map(self, x, d, t):
        """The geodesic for one point, computed with ``math.cos`` and
        ``np.linalg.norm``.  It is a second copy of ``retract``'s formula
        because the two round differently (on about one random S^2 step in
        five they differ in the last bits), and the gradient-descent
        baseline and proposal dedup, which step through here, must keep
        their traces."""
        speed = float(np.linalg.norm(d))
        if speed < ZERO_STEP_TOL:
            return x
        theta = t * speed
        y = math.cos(theta) * x.coords + math.sin(theta) * (d / speed)
        return ManifoldPoint(self, y / np.linalg.norm(y))

    def random_coords(self, gen):
        v = gen.standard_normal(self.n + 1)
        while np.linalg.norm(v) < DEGENERATE_NORM_TOL:
            v = gen.standard_normal(self.n + 1)
        return v / np.linalg.norm(v)

    def flatten_rows(self, v):
        return np.array(v, order="C")

    unflatten_rows = flatten_rows


class _SymKind(ManifoldKind):
    """A kind embedded in Sym(k), the symmetric k x k matrices."""

    @property
    def ambient_dim(self) -> int:
        k = self.ambient_shape[0]
        return k * (k + 1) // 2

    def check_tangent(self, coords, d, tol):
        if np.max(np.abs(d - d.T)) > tol:
            raise InvalidInputError("direction is not symmetric")

    def flatten_rows(self, v):
        k = self.ambient_shape[0]
        upper, lower, factors, _ = _sym_flat_layout(k)
        entries = v.reshape(v.shape[:-2] + (k * k,))
        return 0.5 * (entries[..., upper] + entries[..., lower]) * factors

    def unflatten_rows(self, w):
        _, _, factors, entry = _sym_flat_layout(self.ambient_shape[0])
        return (w / factors)[..., entry].reshape(w.shape[:-1] + self.ambient_shape)


@functools.lru_cache(maxsize=None)
def _sym_flat_layout(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """How a k x k symmetric matrix, read as its k*k entries, maps to flat
    coordinates: the entries (i, j) and (j, i) of each upper-triangle pair,
    the flat scale factors, and the flat index of every matrix entry."""
    rows, cols = np.triu_indices(k)
    upper, lower = rows * k + cols, cols * k + rows
    factors = np.where(rows == cols, 1.0, math.sqrt(2.0))
    entry = np.empty(k * k, dtype=int)
    entry[upper] = entry[lower] = np.arange(upper.size)
    for table in (upper, lower, factors, entry):
        table.setflags(write=False)
    return upper, lower, factors, entry


@dataclass(frozen=True)
class Grassmann(_SymKind):
    """Subspaces of dimension p in R^n, embedded as projectors in Sym(n)."""

    p: int
    n: int

    def __post_init__(self):
        if not 1 <= self.p < self.n:
            raise InvalidInputError(
                f"Grassmann requires 1 <= p < n, got p={self.p}, n={self.n}"
            )

    @property
    def coords_shape(self) -> tuple[int, ...]:
        return (self.n, self.p)

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.n, self.n)

    @property
    def intrinsic_dim(self) -> int:
        return self.p * (self.n - self.p)

    def check_point(self, coords):
        if np.max(np.abs(coords.T @ coords - np.eye(self.p))) > POINT_ATOL:
            raise InvalidInputError("Grassmann frame columns are not orthonormal")

    def check_tangent(self, coords, d, tol):
        super().check_tangent(coords, d, tol)
        if np.max(np.abs(d - self.tangent_project(self.embed(coords), d))) > tol:
            raise InvalidInputError("direction is not in the projector tangent space")

    def embed(self, coords):
        return coords @ coords.T

    def _top_frames(self, sym_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frames of the dominant p-eigenspaces of a stack of symmetric
        matrices, and the eigenvalue gap that makes each subspace unique (at
        least ``EIGENGAP_TOL``) or not.  The stacked ``eigh`` factors each
        matrix on its own."""
        w, vecs = np.linalg.eigh(sym_v)
        gaps = w[..., self.n - self.p] - w[..., self.n - self.p - 1]
        return vecs[..., self.n - self.p:][..., ::-1], gaps

    def _ambiguous(self, gap: float) -> AmbiguousSubspaceError:
        return AmbiguousSubspaceError(
            f"eigenvalue gap {gap:g} below {EIGENGAP_TOL:g}: dominant "
            f"{self.p}-subspace is not unique"
        )

    def unembed(self, v):
        frames, gaps = self._top_frames(_sym(v)[None])
        if not gaps[0] >= EIGENGAP_TOL:
            raise self._ambiguous(gaps[0])
        return frames[0]

    def tangent_project(self, e, g):
        pg = e @ _sym(g)
        return pg + np.swapaxes(pg, -1, -2) - 2.0 * (pg @ e)

    def retract(self, e, v, t, single):
        """The nearest-point retraction: the dominant p-eigenspace of the
        ambient step."""
        y = _sym(e + t * v)
        finite = np.isfinite(y).all(axis=(-2, -1))
        if single and not finite[0]:
            raise InvalidInputError("Grassmann step has non-finite entries")
        if not finite.all():
            # A non-finite row goes into the stacked eigh as zeros (one NaN
            # or inf would fail the whole stack); its eigenvalues then tie,
            # so it comes back NaN like any ambiguous row.
            y = np.where(finite[:, None, None], y, 0.0)
        frames, gaps = self._top_frames(y)
        out = frames @ np.swapaxes(frames, -1, -2)
        ambiguous = ~(gaps >= EIGENGAP_TOL)
        if single and ambiguous[0]:
            raise self._ambiguous(gaps[0])
        out[ambiguous] = np.nan
        return out

    def random_coords(self, gen):
        q, r = np.linalg.qr(gen.standard_normal((self.n, self.p)))
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        return q * signs


@dataclass(frozen=True)
class Spd(_SymKind):
    """Symmetric positive definite p x p matrices in log-Euclidean coordinates."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise InvalidInputError(f"Spd requires p >= 1, got p={self.p}")

    @property
    def coords_shape(self) -> tuple[int, ...]:
        return (self.p, self.p)

    ambient_shape = coords_shape
    intrinsic_dim = _SymKind.ambient_dim

    def check_point(self, coords):
        if np.max(np.abs(coords - coords.T)) > POINT_ATOL:
            raise InvalidInputError("Spd point is not symmetric")
        eigs = np.linalg.eigvalsh(_sym(coords))
        if eigs[0] <= 0.0:
            raise DomainError("Spd point is not positive definite")
        log_norm = float(np.linalg.norm(np.log(eigs)))
        # POINT_ATOL of slack absorbs the exp/log round-off of points that
        # unembed builds right at the bound.
        if log_norm > SPD_LOG_NORM_MAX + POINT_ATOL:
            raise DomainError(
                f"Spd point has log-norm {log_norm:g}, outside the chart "
                f"(at most {SPD_LOG_NORM_MAX:g})"
            )

    def embed(self, coords):
        """The matrix logarithm; raises DomainError off the SPD cone."""
        w, v = np.linalg.eigh(_sym(coords))
        if w[0] <= 0.0:
            raise DomainError(f"matrix is not positive definite (min eigenvalue {w[0]:g})")
        return _sym((v * np.log(w)) @ v.T)

    def unembed(self, v):
        """The matrix exponential, within the chart."""
        if not self.within_chart(v):
            raise DomainError(
                f"log-coordinates of norm {np.linalg.norm(v):g} lie outside the Spd "
                f"chart (at most {SPD_LOG_NORM_MAX:g})"
            )
        w, vecs = np.linalg.eigh(_sym(v))
        if w[-1] > 700.0:
            raise InvalidInputError(
                f"log-coordinate eigenvalue {w[-1]:g} too large to exponentiate"
            )
        return _sym((vecs * np.exp(w)) @ vecs.T)

    def project_to_image(self, v):
        """The image is all of Sym(p): symmetrization."""
        return _sym(v)

    def tangent_project(self, e, g):
        return _sym(g)

    def retract(self, e, v, t, single):
        """Exact: the image is linear."""
        return _sym(e + t * v)

    def within_chart(self, e):
        return ambient_norms(self, e) <= SPD_LOG_NORM_MAX

    def random_coords(self, gen):
        """The exponential of a symmetric Gaussian matrix."""
        return self.unembed(_sym(gen.standard_normal((self.p, self.p))))


def _batch_shape(kind: ManifoldKind, a: np.ndarray) -> tuple[int, ...]:
    return a.shape[: a.ndim - len(kind.ambient_shape)]


def ambient_norms(kind: ManifoldKind, a: np.ndarray) -> np.ndarray:
    """Euclidean (Frobenius) norm of each ambient value in a, which may
    carry leading batch axes.  Each norm is computed on its own row, so it
    does not depend on how many rows are stacked."""
    flat = a.reshape(_batch_shape(kind, a) + (math.prod(kind.ambient_shape),))
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point on a manifold in its native coordinates.

    Construction validates the coordinate invariants of the kind: unit norm
    for the sphere, orthonormal columns for a Grassmann frame, symmetry and
    positive definiteness for Spd.  Coordinates are stored as a read-only
    float64 array.
    """

    kind: ManifoldKind
    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.shape != self.kind.coords_shape:
            raise InvalidInputError(
                f"coords shape {coords.shape} does not match {self.kind} "
                f"(expected {self.kind.coords_shape})"
            )
        if not np.all(np.isfinite(coords)):
            raise InvalidInputError("coords contain non-finite entries")
        self.kind.check_point(coords)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """An ambient vector lying in the tangent space of the embedded manifold.

    Construction checks tangency at the base point: orthogonality to the
    sphere point, membership in the projector-manifold tangent space for
    Grassmann, symmetry for Spd.
    """

    base: ManifoldPoint
    direction: np.ndarray

    def __post_init__(self):
        direction = np.array(self.direction, dtype=float)
        kind = self.base.kind
        if direction.shape != kind.ambient_shape:
            raise InvalidInputError(
                f"direction shape {direction.shape} does not match ambient shape "
                f"{kind.ambient_shape}"
            )
        if not np.all(np.isfinite(direction)):
            raise InvalidInputError("direction contains non-finite entries")
        tol = TANGENT_ATOL * max(1.0, float(np.linalg.norm(direction)))
        kind.check_tangent(self.base.coords, direction, tol)
        direction.setflags(write=False)
        object.__setattr__(self, "direction", direction)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.direction))

    def __neg__(self) -> "TangentVector":
        return TangentVector(self.base, -self.direction)

    def scaled(self, factor: float) -> "TangentVector":
        return TangentVector(self.base, factor * self.direction)


def _require_ambient(kind: ManifoldKind, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != kind.ambient_shape:
        raise InvalidInputError(
            f"ambient value has shape {v.shape}, expected {kind.ambient_shape}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("ambient value contains non-finite entries")
    return v


def embed(x: ManifoldPoint) -> np.ndarray:
    """Map a point to its ambient Euclidean representation.

    Sphere: identity.  Grassmann: the orthogonal projector ``X @ X.T`` (the
    same matrix for every frame spanning the subspace).  Spd: the matrix
    logarithm.
    """
    return x.kind.embed(x.coords)


def unembed(kind: ManifoldKind, v: np.ndarray) -> ManifoldPoint:
    """Map an ambient value (near the embedded manifold) back to a point.

    This is the retraction used throughout: the ambient value is projected
    to the nearest point of the image and expressed in native coordinates.
    """
    return ManifoldPoint(kind, kind.unembed(_require_ambient(kind, v)))


def within_chart(kind: ManifoldKind, e: np.ndarray) -> np.ndarray:
    """Whether an embedded value lies where ``unembed`` accepts it: always
    for the sphere and the Grassmannian, within ``SPD_LOG_NORM_MAX`` for Spd.
    With leading batch axes on e, one flag per value."""
    return kind.within_chart(e)


def project_to_image(kind: ManifoldKind, v: np.ndarray) -> np.ndarray:
    """Nearest point of the embedded manifold to an ambient value.

    Idempotent.  For Spd the embedded image is all of Sym(p), so this is
    just symmetrization.
    """
    return kind.project_to_image(_require_ambient(kind, v))


def tangent_project_embedded(
    kind: ManifoldKind, e: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Tangent projection expressed on the embedded representation e of a
    point; the workhorse behind project_to_tangent and the acquisition
    ascent, which iterates in embedded coordinates.

    e and g may carry a leading batch axis (one point and one ambient vector
    per row); each row is projected on its own (a stacked ``@`` makes one
    BLAS call per row), with the same bits as a single call.
    """
    e, g = np.ascontiguousarray(e, dtype=float), np.ascontiguousarray(g, dtype=float)
    return kind.tangent_project(e, g)


def retract_embedded(
    kind: ManifoldKind, e: np.ndarray, v: np.ndarray, t
) -> np.ndarray:
    """Embedded representation of a step from the embedded point e along the
    tangent vector v: the geodesic for the sphere, the nearest-point
    retraction for the matrix manifolds (exact for Spd, whose image is
    linear).  Equals ``embed(exp_map(x, v, t))`` for x with ``embed(x) = e``
    up to rounding.

    With a leading batch axis on e and v (and t a scalar or one step length
    per row), each row is retracted on its own, with the same bits as a
    single call.  A single Grassmann step whose dominant subspace is not
    unique raises ``AmbiguousSubspaceError``, and one with non-finite
    entries raises ``InvalidInputError``; in a batch, such a row comes back
    as NaN and the other rows are unaffected.
    """
    e, v = np.ascontiguousarray(e, dtype=float), np.ascontiguousarray(v, dtype=float)
    single = e.ndim == len(kind.ambient_shape)
    if single:
        e, v = e[None], v[None]
    t = np.broadcast_to(np.asarray(t, dtype=float), e.shape[:1])
    t = t.reshape(t.shape + (1,) * len(kind.ambient_shape))
    out = kind.retract(e, v, t, single)
    return out[0] if single else out


def project_to_tangent(x: ManifoldPoint, g: np.ndarray) -> TangentVector:
    """Orthogonal projection of an ambient vector onto the tangent space at x.

    The projection is with respect to the Euclidean / Frobenius inner
    product of the ambient space.
    """
    g = _require_ambient(x.kind, g)
    return TangentVector(x, tangent_project_embedded(x.kind, embed(x), g))


def exp_map(x: ManifoldPoint, v: TangentVector, t: float = 1.0) -> ManifoldPoint:
    """Step from x along the tangent vector v, scaled by t.

    The sphere uses the exact closed-form geodesic.  Grassmann and Spd use
    the projection retraction: take the ambient step and project back to the
    image, which agrees with the geodesic to first order.  For Spd the image
    is linear, so the retraction is exact.
    """
    if v.base.kind != x.kind:
        raise InvalidInputError("tangent vector is based on a different manifold")
    return x.kind.exp_map(x, v.direction, t)


def extrinsic_distance(x: ManifoldPoint, z: ManifoldPoint) -> float:
    """Euclidean (Frobenius) distance between the embedded representations."""
    if x.kind != z.kind:
        raise InvalidInputError(f"kind mismatch: {x.kind} vs {z.kind}")
    return float(np.linalg.norm(embed(x) - embed(z)))


def spd_intrinsic_distance(a: ManifoldPoint, b: ManifoldPoint) -> float:
    """Log-Euclidean distance ||log a - log b||_F between SPD matrices."""
    if not isinstance(a.kind, Spd) or not isinstance(b.kind, Spd):
        raise DomainError("log-Euclidean distance requires Spd points")
    if a.kind != b.kind:
        raise DomainError(f"size mismatch: {a.kind} vs {b.kind}")
    return extrinsic_distance(a, b)


def random_point(kind: ManifoldKind, rng: Union[int, np.random.Generator]) -> ManifoldPoint:
    """Draw a random point: uniform on the sphere and Grassmannian, and the
    exponential of a symmetric Gaussian matrix for Spd.  Deterministic given
    the seed."""
    return ManifoldPoint(kind, kind.random_coords(np.random.default_rng(rng)))


def flatten_rows(kind: ManifoldKind, v: np.ndarray) -> np.ndarray:
    """``flatten_ambient`` without validation, for ambient values with
    leading batch axes: one length-D row per value, in C order (``einsum``
    sums in memory order, so the layout decides a row's bits)."""
    return kind.flatten_rows(v)


def unflatten_rows(kind: ManifoldKind, w: np.ndarray) -> np.ndarray:
    """Inverse of ``flatten_rows``."""
    return kind.unflatten_rows(w)


def flatten_ambient(kind: ManifoldKind, v: np.ndarray) -> np.ndarray:
    """Flatten an ambient value to a length-D vector.

    Symmetric matrices use the upper triangle with off-diagonal entries
    scaled by sqrt(2), making the flat dot product equal to the Frobenius
    inner product.  Sphere values pass through unchanged.
    """
    return flatten_rows(kind, _require_ambient(kind, v))


def unflatten_ambient(kind: ManifoldKind, w: np.ndarray) -> np.ndarray:
    """Inverse of flatten_ambient."""
    w = np.asarray(w, dtype=float)
    if w.shape != (kind.ambient_dim,):
        raise InvalidInputError(
            f"flat value has shape {w.shape}, expected ({kind.ambient_dim},)"
        )
    return unflatten_rows(kind, w)
