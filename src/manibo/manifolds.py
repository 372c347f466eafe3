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


@dataclass(frozen=True)
class Sphere:
    """Unit sphere S^n embedded in R^{n+1}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"Sphere requires n >= 1, got n={self.n}")

    @property
    def coords_shape(self) -> tuple[int, ...]:
        return (self.n + 1,)

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.n + 1,)

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    @property
    def intrinsic_dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class Grassmann:
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
    def ambient_dim(self) -> int:
        return self.n * (self.n + 1) // 2

    @property
    def intrinsic_dim(self) -> int:
        return self.p * (self.n - self.p)


@dataclass(frozen=True)
class Spd:
    """Symmetric positive definite p x p matrices in log-Euclidean coordinates."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise InvalidInputError(f"Spd requires p >= 1, got p={self.p}")

    @property
    def coords_shape(self) -> tuple[int, ...]:
        return (self.p, self.p)

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return (self.p, self.p)

    @property
    def ambient_dim(self) -> int:
        return self.p * (self.p + 1) // 2

    @property
    def intrinsic_dim(self) -> int:
        return self.p * (self.p + 1) // 2


ManifoldKind = Union[Sphere, Grassmann, Spd]


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _batch_shape(kind: ManifoldKind, a: np.ndarray) -> tuple[int, ...]:
    return a.shape[: a.ndim - len(kind.ambient_shape)]


def ambient_norms(kind: ManifoldKind, a: np.ndarray) -> np.ndarray:
    """Euclidean (Frobenius) norm of each ambient value in a, which may
    carry leading batch axes.  Each norm is computed on its own row, so it
    does not depend on how many rows are stacked."""
    flat = a.reshape(_batch_shape(kind, a) + (math.prod(kind.ambient_shape),))
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


def _sym_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix via eigendecomposition."""
    w, v = np.linalg.eigh(_sym(a))
    if w[-1] > 700.0:
        raise InvalidInputError(
            f"log-coordinate eigenvalue {w[-1]:g} too large to exponentiate"
        )
    return _sym((v * np.exp(w)) @ v.T)


def _spd_logm(s: np.ndarray) -> np.ndarray:
    """Matrix logarithm of an SPD matrix; raises DomainError otherwise."""
    w, v = np.linalg.eigh(_sym(s))
    if w[0] <= 0.0:
        raise DomainError(f"matrix is not positive definite (min eigenvalue {w[0]:g})")
    return _sym((v * np.log(w)) @ v.T)


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
        kind = self.kind
        if isinstance(kind, Sphere):
            norm = np.linalg.norm(coords)
            if abs(norm - 1.0) > POINT_ATOL:
                raise InvalidInputError(f"sphere point has norm {norm!r}, expected 1")
        elif isinstance(kind, Grassmann):
            gram = coords.T @ coords
            if np.max(np.abs(gram - np.eye(kind.p))) > POINT_ATOL:
                raise InvalidInputError("Grassmann frame columns are not orthonormal")
        else:
            if np.max(np.abs(coords - coords.T)) > POINT_ATOL:
                raise InvalidInputError("Spd point is not symmetric")
            eigs = np.linalg.eigvalsh(_sym(coords))
            if eigs[0] <= 0.0:
                raise DomainError("Spd point is not positive definite")
            log_norm = float(np.linalg.norm(np.log(eigs)))
            # POINT_ATOL of slack absorbs the exp/log round-off of points
            # that unembed builds right at the bound.
            if log_norm > SPD_LOG_NORM_MAX + POINT_ATOL:
                raise DomainError(
                    f"Spd point has log-norm {log_norm:g}, outside the chart "
                    f"(at most {SPD_LOG_NORM_MAX:g})"
                )
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
        if isinstance(kind, Sphere):
            if abs(np.dot(self.base.coords, direction)) > tol:
                raise InvalidInputError("direction is not tangent to the sphere")
        elif isinstance(kind, Grassmann):
            if np.max(np.abs(direction - direction.T)) > tol:
                raise InvalidInputError("direction is not symmetric")
            p_mat = self.base.coords @ self.base.coords.T
            pg = p_mat @ direction
            reproj = pg + pg.T - 2.0 * (p_mat @ direction @ p_mat)
            if np.max(np.abs(direction - reproj)) > tol:
                raise InvalidInputError(
                    "direction is not in the projector tangent space"
                )
        else:
            if np.max(np.abs(direction - direction.T)) > tol:
                raise InvalidInputError("direction is not symmetric")
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
    kind = x.kind
    if isinstance(kind, Sphere):
        return np.array(x.coords)
    if isinstance(kind, Grassmann):
        return x.coords @ x.coords.T
    return _spd_logm(x.coords)


def _grassmann_top_frames(
    kind: Grassmann, sym_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Frames of the dominant p-eigenspaces of a stack of symmetric
    matrices, and the eigenvalue gap that makes each subspace unique (at
    least ``EIGENGAP_TOL``) or not.  The stacked ``eigh`` factors each
    matrix on its own."""
    w, vecs = np.linalg.eigh(sym_v)
    gaps = w[..., kind.n - kind.p] - w[..., kind.n - kind.p - 1]
    return vecs[..., kind.n - kind.p:][..., ::-1], gaps


def _grassmann_top_frame(kind: Grassmann, sym_v: np.ndarray) -> np.ndarray:
    """Frame of the dominant p-eigenspace of a symmetric matrix."""
    frames, gaps = _grassmann_top_frames(kind, sym_v[None])
    if not gaps[0] >= EIGENGAP_TOL:
        raise _ambiguous_subspace(kind, gaps[0])
    return frames[0]


def _ambiguous_subspace(kind: Grassmann, gap: float) -> AmbiguousSubspaceError:
    return AmbiguousSubspaceError(
        f"eigenvalue gap {gap:g} below {EIGENGAP_TOL:g}: dominant "
        f"{kind.p}-subspace is not unique"
    )


def unembed(kind: ManifoldKind, v: np.ndarray) -> ManifoldPoint:
    """Map an ambient value (near the embedded manifold) back to a point.

    This is the retraction used throughout: the ambient value is projected
    to the nearest point of the image and expressed in native coordinates.
    """
    v = _require_ambient(kind, v)
    if isinstance(kind, Sphere):
        norm = np.linalg.norm(v)
        if norm < DEGENERATE_NORM_TOL:
            raise DegenerateProjectionError(
                f"cannot project near-zero vector (norm {norm:g}) to the sphere"
            )
        return ManifoldPoint(kind, v / norm)
    if isinstance(kind, Grassmann):
        frame = _grassmann_top_frame(kind, _sym(v))
        return ManifoldPoint(kind, frame)
    if not within_chart(kind, v):
        raise DomainError(
            f"log-coordinates of norm {np.linalg.norm(v):g} lie outside the Spd "
            f"chart (at most {SPD_LOG_NORM_MAX:g})"
        )
    return ManifoldPoint(kind, _sym_expm(v))


def within_chart(kind: ManifoldKind, e: np.ndarray) -> np.ndarray:
    """Whether an embedded value lies where ``unembed`` accepts it: always
    for the sphere and the Grassmannian, within ``SPD_LOG_NORM_MAX`` for Spd.
    With leading batch axes on e, one flag per value."""
    if not isinstance(kind, Spd):
        return np.ones(_batch_shape(kind, e), dtype=bool)
    return ambient_norms(kind, e) <= SPD_LOG_NORM_MAX


def project_to_image(kind: ManifoldKind, v: np.ndarray) -> np.ndarray:
    """Nearest point of the embedded manifold to an ambient value.

    Idempotent.  For Spd the embedded image is all of Sym(p), so this is
    just symmetrization.
    """
    v = _require_ambient(kind, v)
    if isinstance(kind, Sphere):
        norm = np.linalg.norm(v)
        if norm < DEGENERATE_NORM_TOL:
            raise DegenerateProjectionError(
                f"cannot project near-zero vector (norm {norm:g}) to the sphere"
            )
        return v / norm
    if isinstance(kind, Grassmann):
        frame = _grassmann_top_frame(kind, _sym(v))
        return frame @ frame.T
    return _sym(v)


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
    if isinstance(kind, Sphere):
        return g - np.einsum("...i,...i->...", e, g)[..., None] * e
    if isinstance(kind, Grassmann):
        sym_g = _sym(g)
        pg = e @ sym_g
        return pg + np.swapaxes(pg, -1, -2) - 2.0 * (pg @ e)
    return _sym(g)


def retract_embedded(
    kind: ManifoldKind, e: np.ndarray, v: np.ndarray, t
) -> np.ndarray:
    """Embedded representation of a step from the embedded point e along the
    tangent vector v: the geodesic for the sphere, the nearest-point
    retraction for the matrix manifolds (exact for Spd, whose image is
    linear).  Equals ``embed(exp_map(x, v, t))`` for x with ``embed(x) = e``.

    With a leading batch axis on e and v (and t a scalar or one step length
    per row), each row is retracted on its own, with the same bits as a
    single call.  A single Grassmann step whose dominant subspace is not
    unique raises ``AmbiguousSubspaceError``; in a batch, that row comes
    back as NaN and the other rows are unaffected.
    """
    e, v = np.ascontiguousarray(e, dtype=float), np.ascontiguousarray(v, dtype=float)
    batched = e.ndim > len(kind.ambient_shape)
    if not batched:
        e, v = e[None], v[None]
    t = np.broadcast_to(np.asarray(t, dtype=float), e.shape[:1])
    t = t.reshape(t.shape + (1,) * len(kind.ambient_shape))
    if isinstance(kind, Sphere):
        speed = ambient_norms(kind, v)[:, None]
        moving = speed[:, 0] >= ZERO_STEP_TOL
        out = np.array(e)
        theta = t[moving] * speed[moving]
        y = np.cos(theta) * e[moving] + np.sin(theta) * (v[moving] / speed[moving])
        out[moving] = y / ambient_norms(kind, y)[:, None]
    elif isinstance(kind, Grassmann):
        frames, gaps = _grassmann_top_frames(kind, _sym(e + t * v))
        out = frames @ np.swapaxes(frames, -1, -2)
        ambiguous = ~(gaps >= EIGENGAP_TOL)
        if ambiguous.any() and not batched:
            raise _ambiguous_subspace(kind, gaps[0])
        out[ambiguous] = np.nan
    else:
        out = _sym(e + t * v)
    return out if batched else out[0]


def project_to_tangent(x: ManifoldPoint, g: np.ndarray) -> TangentVector:
    """Orthogonal projection of an ambient vector onto the tangent space at x.

    The projection is with respect to the Euclidean / Frobenius inner
    product of the ambient space.
    """
    kind = x.kind
    g = _require_ambient(kind, g)
    if isinstance(kind, Sphere):
        e = x.coords
    elif isinstance(kind, Grassmann):
        e = x.coords @ x.coords.T
    else:
        e = None  # Spd projection is plain symmetrization; no base needed.
    return TangentVector(x, tangent_project_embedded(kind, e, g))


def exp_map(x: ManifoldPoint, v: TangentVector, t: float = 1.0) -> ManifoldPoint:
    """Step from x along the tangent vector v, scaled by t.

    The sphere uses the exact closed-form geodesic.  Grassmann and Spd use
    the projection retraction: take the ambient step and project back to the
    image, which agrees with the geodesic to first order.  For Spd the image
    is linear, so the retraction is exact.
    """
    if v.base.kind != x.kind:
        raise InvalidInputError("tangent vector is based on a different manifold")
    kind = x.kind
    if isinstance(kind, Sphere):
        speed = v.norm
        if speed < ZERO_STEP_TOL:
            return x
        theta = t * speed
        y = math.cos(theta) * x.coords + math.sin(theta) * (v.direction / speed)
        return ManifoldPoint(kind, y / np.linalg.norm(y))
    return unembed(kind, embed(x) + t * v.direction)


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
    return float(np.linalg.norm(_spd_logm(a.coords) - _spd_logm(b.coords)))


def random_point(kind: ManifoldKind, rng: Union[int, np.random.Generator]) -> ManifoldPoint:
    """Draw a random point: uniform on the sphere and Grassmannian, and the
    exponential of a symmetric Gaussian matrix for Spd.  Deterministic given
    the seed."""
    gen = np.random.default_rng(rng)
    if isinstance(kind, Sphere):
        v = gen.standard_normal(kind.n + 1)
        while np.linalg.norm(v) < DEGENERATE_NORM_TOL:
            v = gen.standard_normal(kind.n + 1)
        return ManifoldPoint(kind, v / np.linalg.norm(v))
    if isinstance(kind, Grassmann):
        a = gen.standard_normal((kind.n, kind.p))
        q, r = np.linalg.qr(a)
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        return ManifoldPoint(kind, q * signs)
    a = gen.standard_normal((kind.p, kind.p))
    return ManifoldPoint(kind, _sym_expm(_sym(a)))


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


def flatten_rows(kind: ManifoldKind, v: np.ndarray) -> np.ndarray:
    """``flatten_ambient`` without validation, for ambient values with
    leading batch axes: one length-D row per value, in C order (``einsum``
    sums in memory order, so the layout decides a row's bits)."""
    if isinstance(kind, Sphere):
        return np.array(v, order="C")
    k = kind.ambient_shape[0]
    upper, lower, factors, _ = _sym_flat_layout(k)
    entries = v.reshape(v.shape[:-2] + (k * k,))
    return 0.5 * (entries[..., upper] + entries[..., lower]) * factors


def unflatten_rows(kind: ManifoldKind, w: np.ndarray) -> np.ndarray:
    """Inverse of ``flatten_rows``."""
    if isinstance(kind, Sphere):
        return np.array(w, order="C")
    k = kind.ambient_shape[0]
    _, _, factors, entry = _sym_flat_layout(k)
    return (w / factors)[..., entry].reshape(w.shape[:-1] + (k, k))


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
