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
behind the small protocol that ``ManifoldKind`` declares: ``embed`` (which
also checks the point) and ``coords``, the stacked tangent projection and
the one nearest-point map onto the image, ``project`` (which also enforces
the kind's chart), stacked random draws, and the flat layout.  Every step is that
projection of the ambient step from an embedded row (``retract_embedded``),
a retraction on every embedded submanifold (Absil & Malick, SIAM J. Optim.
2012), and ``unembed`` is ``coords`` of a one-row projection.  Grassmann
and Spd share the Sym(k) parts.  The free functions below are the public
entry points; they validate their arguments and delegate to the kind.
Adding a manifold means adding one such class.

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
from numpy.linalg import _umath_linalg

# Structural invariants (unit norm, orthonormal frames, symmetry).
POINT_ATOL = 1e-10
# Below this eigenvalue gap a dominant p-subspace is considered ill-defined.
EIGENGAP_TOL = 1e-10
# Below this norm a radial projection to the sphere is undefined.
DEGENERATE_NORM_TOL = 1e-12
# The Spd chart: log-Euclidean coordinates of Frobenius norm at most this.
# Beyond it the exp/log round trip loses precision (its error passes 1e-8
# near norm 15 for 3 x 3 matrices) and, further out, definiteness itself.
SPD_LOG_NORM_MAX = 10.0
# At the bound that round trip moves the log-norm by up to 2.8e-10: points
# are validated up to one slack beyond it, and ``Spd.project`` scales
# log-norms up to two beyond it onto it, so every accepted point round-trips.
SPD_CHART_SLACK = 1e-8


class ManifoldError(ValueError):
    """Base class for geometry errors."""


class InvalidInputError(ManifoldError):
    """Input outside an operation's domain: wrong shape, kind, or non-finite."""


class DomainError(ManifoldError):
    """Matrix input violates a definiteness requirement."""


class DegenerateProjectionError(ManifoldError):
    """No unique nearest point of the image within the kind's chart."""


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)`` of a float stack of symmetric matrices, bit for
    bit, by the gufunc the wrapper calls, without the wrapper's validation
    and ``errstate``: a matrix where ``eigh`` does not converge comes back
    NaN (with a RuntimeWarning) where the wrapper raises ``LinAlgError``."""
    return _umath_linalg.eigh_lo(a, signature="d->dd")


class ManifoldKind:
    """The protocol every manifold kind implements, on raw arrays that the
    free functions have already checked for shape and finiteness:

    * ``coords_shape``, ``ambient_shape``; ``ambient_dim``, the flat
      length, comes from ``flatten_rows``;
    * ``embed(coords)``, which raises unless the coordinates are a valid
      point and otherwise returns their embedding; ``coords(e)``, the
      native coordinates of an image point that ``project`` returned,
      without a check;
    * ``tangent_project(e, g)`` and ``project(a)``, the image point nearest
      to each finite ambient row of a, NaN where the nearest image point is
      undefined, not unique, or outside the kind's chart;
    * ``flatten_rows(v)``, ``flatten_ambient`` without validation: one
      length-D row per ambient value, in C order (``einsum`` sums in memory
      order, so the layout decides a row's bits), and its inverse
      ``unflatten_rows(w)``;
    * ``random_coords(gen, count)`` and ``random_embedded(gen, count)``,
      one stack of ``count`` draws from ``gen``, in native coordinates and
      embedded: one draw per kind, so both give the same points for the
      same generator state.  A row is all-NaN where its draw has no image
      point within the chart (a sphere draw of norm below
      ``DEGENERATE_NORM_TOL``, an Spd draw past the chart).

    The stacked methods (``tangent_project`` through ``unflatten_rows``)
    accept leading batch axes and compute every row on its own, so a row's
    bits do not depend on the other rows.  So do the draws: a stack of
    ``count`` rows has the bits of ``count`` one-row draws from the same
    generator, and leaves it in the same state.
    """

    @functools.cached_property
    def ambient_dim(self) -> int:
        return self.flatten_rows(np.zeros(self.ambient_shape)).size


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

    def embed(self, coords):
        norm = np.linalg.norm(coords)
        if abs(norm - 1.0) > POINT_ATOL:
            raise InvalidInputError(f"sphere point has norm {norm!r}, expected 1")
        return np.array(coords)

    def coords(self, e):
        return e

    def tangent_project(self, e, g):
        return g - np.einsum("...i,...i->...", e, g)[..., None] * e

    def project(self, a):
        """Radial: a / |a|, with an einsum norm per row."""
        norms = ambient_norms(self, a)[..., None]
        out = np.empty_like(a)
        out.fill(np.nan)  # np.full_like minus its Python wrapper: called every ascent round
        return np.divide(a, norms, out=out, where=norms >= DEGENERATE_NORM_TOL)

    def random_coords(self, gen, count):
        """Gaussian rows scaled to unit norm.  The norm is ``vecdot``'s,
        which has ``np.linalg.norm``'s bits per row (``project``'s einsum
        norm does not)."""
        v = gen.standard_normal((count, self.n + 1))
        norms = np.sqrt(np.vecdot(v, v))[:, None]
        out = np.full_like(v, np.nan)
        return np.divide(v, norms, out=out, where=norms >= DEGENERATE_NORM_TOL)

    random_embedded = random_coords

    def flatten_rows(self, v):
        return np.array(v, order="C")

    unflatten_rows = flatten_rows


class _SymKind(ManifoldKind):
    """A kind embedded in Sym(k), the symmetric k x k matrices."""

    def flatten_rows(self, v):
        k = self.ambient_shape[0]
        upper, lower, factors, _ = _sym_flat_layout(k)
        entries = v.reshape(v.shape[:-2] + (k * k,))
        # take gives a stack in C order, as the protocol promises; the
        # index entries[..., upper] would give it in F order.
        pairs = entries.take(upper, axis=-1) + entries.take(lower, axis=-1)
        return 0.5 * pairs * factors

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

    def embed(self, coords):
        if np.max(np.abs(coords.T @ coords - np.eye(self.p))) > POINT_ATOL:
            raise InvalidInputError("Grassmann frame columns are not orthonormal")
        return coords @ coords.T

    def _top_frames(self, sym_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frames of the dominant p-eigenspaces of a stack of symmetric
        matrices, and the eigenvalue gap that makes each subspace unique (at
        least ``EIGENGAP_TOL``) or not.  The stacked ``eigh`` factors each
        matrix on its own; it calls the gufunc directly (``_eigh``), so a
        matrix where ``eigh`` does not converge comes back NaN, gap and all,
        and ``project`` makes its row NaN."""
        w, vecs = _eigh(sym_v)
        gaps = w[..., self.n - self.p] - w[..., self.n - self.p - 1]
        return vecs[..., self.n - self.p:][..., ::-1], gaps

    def coords(self, e):
        """An orthonormal frame of the projector's range."""
        return self._top_frames(e[None])[0][0]

    def tangent_project(self, e, g):
        pg = e @ _sym(g)
        return pg + pg.swapaxes(-1, -2) - 2.0 * (pg @ e)

    def project(self, a):
        """The projector onto the dominant p-eigenspace of each row."""
        frames, gaps = self._top_frames(_sym(a))
        out = frames @ frames.swapaxes(-1, -2)
        out[~(gaps >= EIGENGAP_TOL)] = np.nan
        return out

    def random_coords(self, gen, count):
        """Frames of Gaussian matrices, by one stacked ``qr`` with the signs
        of R's diagonal folded in, so that the frames are uniform."""
        q, r = np.linalg.qr(gen.standard_normal((count, self.n, self.p)))
        signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        signs[signs == 0.0] = 1.0
        return q * signs[:, None, :]

    def random_embedded(self, gen, count):
        q = self.random_coords(gen, count)
        return q @ q.swapaxes(-1, -2)


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

    def embed(self, coords):
        """The matrix logarithm, from one ``eigh``; raises
        InvalidInputError unless the point is symmetric, DomainError off the
        SPD cone or outside the chart."""
        if np.max(np.abs(coords - coords.T)) > POINT_ATOL:
            raise InvalidInputError("Spd point is not symmetric")
        w, v = np.linalg.eigh(_sym(coords))
        if w[0] <= 0.0:
            raise DomainError(f"Spd point is not positive definite (min eigenvalue {w[0]:g})")
        log_w = np.log(w)
        log_norm = float(np.linalg.norm(log_w))
        if log_norm > SPD_LOG_NORM_MAX + SPD_CHART_SLACK:
            raise DomainError(
                f"Spd point has log-norm {log_norm:g}, outside the chart "
                f"(at most {SPD_LOG_NORM_MAX:g})"
            )
        return _sym((v * log_w) @ v.T)

    def coords(self, e):
        """The matrix exponential, of each matrix of a stack."""
        w, vecs = np.linalg.eigh(e)
        return _sym((vecs * np.exp(w)[..., None, :]) @ vecs.swapaxes(-1, -2))

    def tangent_project(self, e, g):
        return _sym(g)

    def project(self, a):
        """The image is all of Sym(p): symmetrization, within the chart.  A
        row up to two ``SPD_CHART_SLACK`` past its bound is scaled onto the
        bound, the nearest chart point; a row further out is NaN."""
        out = _sym(a)
        norms = ambient_norms(self, out)
        if not (norms <= SPD_LOG_NORM_MAX).all():
            # One scale per row: 1 within the bound, bound / norm in the
            # band, NaN past it (and for a NaN row).
            within = norms <= SPD_LOG_NORM_MAX + 2.0 * SPD_CHART_SLACK
            scale = SPD_LOG_NORM_MAX / np.maximum(norms, SPD_LOG_NORM_MAX)
            out *= np.where(within, scale, np.nan)[..., None, None]
        return out

    def random_coords(self, gen, count):
        """The exponentials of ``random_embedded``'s rows."""
        e = self.random_embedded(gen, count)
        inside = ~np.isnan(e[:, 0, 0])
        e[inside] = self.coords(e[inside])
        return e

    def random_embedded(self, gen, count):
        """Symmetric Gaussian matrices, drawn on the image itself rather
        than through ``embed`` (an ``eigh`` and a log) of their exponentials
        (another ``eigh``)."""
        return self.project(gen.standard_normal((count, self.p, self.p)))


def ambient_norms(kind: ManifoldKind, a: np.ndarray) -> np.ndarray:
    """Euclidean (Frobenius) norm of each ambient value in a, which may
    carry leading batch axes.  Each norm is computed on its own row, so it
    does not depend on how many rows are stacked."""
    batch_shape = a.shape[: a.ndim - len(kind.ambient_shape)]
    flat = a.reshape(batch_shape + (math.prod(kind.ambient_shape),))
    return np.sqrt(np.einsum("...i,...i->...", flat, flat))


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point on a manifold in its native coordinates.

    Construction embeds the point (``kind.embed``), which validates the
    coordinate invariants of the kind: unit norm for the sphere, orthonormal
    columns for a Grassmann frame, symmetry, positive definiteness and the
    chart for Spd.  Coordinates are stored as a read-only float64 array, and
    so is their embedding: the data, the objective, the acquisition, the
    dedup and the trace all embed the same points.
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
        embedding = self.kind.embed(coords)
        for array in (coords, embedding):
            array.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_embedding", embedding)


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
    logarithm.  Computed when the point is built, which validates it: every
    call on the same point returns the same read-only array, so a caller
    that writes into the embedding (an objective, say) works on a copy,
    ``embed(x).copy()``.
    """
    return x._embedding


def unembed(kind: ManifoldKind, v: np.ndarray) -> ManifoldPoint:
    """Map an ambient value (near the embedded manifold) back to a point:
    ``project_to_image`` of it, in native coordinates."""
    return ManifoldPoint(kind, kind.coords(project_to_image(kind, v)))


def project_to_image(kind: ManifoldKind, v: np.ndarray) -> np.ndarray:
    """Nearest point of the embedded manifold to an ambient value: a
    one-row ``kind.project``.

    Idempotent up to round-off.  For Spd the embedded image is all of
    Sym(p), so within the chart this is symmetrization.  Raises
    ``DegenerateProjectionError`` where the image has no unique nearest
    point within the kind's chart.
    """
    v = _require_ambient(kind, v)
    out = kind.project(v[None])[0]
    if np.isnan(out.flat[0]):
        raise DegenerateProjectionError(
            f"{kind} has no unique nearest point within its chart to this value"
        )
    return out


def tangent_project_embedded(
    kind: ManifoldKind, e: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Tangent projection expressed on the embedded representation e of a
    point; the workhorse behind project_to_tangent, ``proposal_dedup`` and
    the acquisition ascent, which all step embedded rows.

    e and g may carry a leading batch axis (one point and one ambient vector
    per row); each row is projected on its own (a stacked ``@`` makes one
    BLAS call per row), with the same bits as a single call.
    """
    e, g = np.ascontiguousarray(e, dtype=float), np.ascontiguousarray(g, dtype=float)
    return kind.tangent_project(e, g)


def retract_embedded(
    kind: ManifoldKind, e: np.ndarray, v: np.ndarray, t
) -> np.ndarray:
    """The step from each embedded row of e along the tangent row of v: the
    image point nearest to ``e + t * v`` (``kind.project``), on every kind,
    and the one step every optimizer takes.

    e and v are stacked rows (``e[None]`` for one step), t a scalar or one
    step length per row; each row is retracted on its own, so its bits do
    not depend on the other rows.  A row whose step is non-finite, has no
    unique nearest point or lies outside the chart comes back all NaN (a
    non-finite row never reaches ``kind.project``, where one NaN would fail
    a stacked ``eigh``).
    """
    e, v = np.ascontiguousarray(e, dtype=float), np.ascontiguousarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = t.repeat(len(e))
    a = e + t.reshape(t.shape + (1,) * len(kind.ambient_shape)) * v
    finite = np.isfinite(a)
    if finite.all():
        return kind.project(a)
    rows = finite.reshape(len(a), -1).all(axis=1)
    out = np.full_like(a, np.nan)
    out[rows] = kind.project(a[rows])
    return out


def project_to_tangent(x: ManifoldPoint, g: np.ndarray) -> np.ndarray:
    """Orthogonal projection of an ambient vector onto the tangent space at x.

    The projection is with respect to the Euclidean / Frobenius inner
    product of the ambient space.
    """
    g = _require_ambient(x.kind, g)
    return tangent_project_embedded(x.kind, embed(x), g)


def extrinsic_distance(x: ManifoldPoint, z: ManifoldPoint) -> float:
    """Euclidean (Frobenius) distance between the embedded representations."""
    if x.kind != z.kind:
        raise InvalidInputError(f"kind mismatch: {x.kind} vs {z.kind}")
    return float(np.linalg.norm(embed(x) - embed(z)))


def random_point(kind: ManifoldKind, rng: Union[int, np.random.Generator]) -> ManifoldPoint:
    """Draw a random point: uniform on the sphere and Grassmannian, and the
    exponential of a symmetric Gaussian matrix for Spd.  Deterministic given
    the seed: a one-row ``random_coords``.  Raises
    ``DegenerateProjectionError`` where the draw has no image point within
    the kind's chart."""
    coords = kind.random_coords(np.random.default_rng(rng), 1)[0]
    if np.isnan(coords.flat[0]):
        raise DegenerateProjectionError(f"{kind} drew a point outside its chart")
    return ManifoldPoint(kind, coords)


def flatten_ambient(kind: ManifoldKind, v: np.ndarray) -> np.ndarray:
    """Flatten an ambient value to a length-D vector.

    Symmetric matrices use the upper triangle with off-diagonal entries
    scaled by sqrt(2), making the flat dot product equal to the Frobenius
    inner product.  Sphere values pass through unchanged.
    """
    return kind.flatten_rows(_require_ambient(kind, v))


def unflatten_ambient(kind: ManifoldKind, w: np.ndarray) -> np.ndarray:
    """Inverse of flatten_ambient."""
    w = np.asarray(w, dtype=float)
    if w.shape != (kind.ambient_dim,):
        raise InvalidInputError(
            f"flat value has shape {w.shape}, expected ({kind.ambient_dim},)"
        )
    return kind.unflatten_rows(w)
