"""Dense finite-dimensional subspace primitives.

Vectors are points of a finite truncation of l2, represented as 1-d float
arrays.  Subspaces are given by row matrices of spanning vectors and
handled through SVD orthonormalization, which keeps distances and span
comparisons stable on the ill-conditioned systems produced elsewhere in
this package.

Results are plain arrays: a point is a 1-d array, a family of points a
row matrix.  The :class:`TruncatedVector` and :class:`SubspaceBasis`
wrappers are accepted as input only; :func:`as_vector` and
:func:`span_matrix` decide what counts as a vector or a span.

Functionals on l2 are identified with vectors acting by the inner product,
so dual systems are returned as row matrices as well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, NetCapError, SingularGramError

__all__ = [
    "TruncatedVector",
    "SubspaceBasis",
    "ToleranceConfig",
    "as_vector",
    "span_matrix",
    "orthonormal_rows",
    "prefix_bases",
    "tail_norms",
    "distance_to_span",
    "project",
    "span_gap",
    "span_equal",
    "directed_span_gap",
    "unit_net",
    "dual_solve",
]

#: default cap on generated net sizes; nets are exponential in dimension
NET_POINT_CAP = 2_000_000


def _validated_array(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1:
        raise ArgumentError(f"expected a 1-d coordinate array, got shape {arr.shape}")
    if arr.size < 1:
        raise ArgumentError("ambient dimension must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("coordinates must be finite (no NaN or inf)")
    return arr


@dataclass(frozen=True)
class TruncatedVector:
    """A point of a finite l2 truncation: coordinates plus ambient dimension."""

    coords: np.ndarray
    ambient_dim: int = 0

    def __post_init__(self):
        arr = _validated_array(self.coords)
        object.__setattr__(self, "coords", arr)
        dim = self.ambient_dim or arr.size
        if dim != arr.size:
            raise ArgumentError(
                f"ambient_dim {dim} does not match coordinate length {arr.size}"
            )
        object.__setattr__(self, "ambient_dim", dim)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __array__(self, dtype=None):
        return self.coords if dtype is None else self.coords.astype(dtype)


def as_vector(x, ambient_dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` (TruncatedVector or array-like) to a validated 1-d array."""
    arr = x.coords if isinstance(x, TruncatedVector) else _validated_array(x)
    if ambient_dim is not None and arr.size != ambient_dim:
        raise ArgumentError(
            f"ambient dimension mismatch: vector has {arr.size}, expected {ambient_dim}"
        )
    return arr


@dataclass(frozen=True)
class SubspaceBasis:
    """An ordered list of spanning vectors with a relative rank tolerance.

    The empty list is permitted and denotes the zero subspace.  When
    ``independent`` is set the numerical rank must equal the list length.
    """

    vectors: tuple = ()
    rank_tol: float = 1e-10
    independent: bool = False
    ambient_dim: int = field(default=0)

    def __post_init__(self):
        rows = [as_vector(v) for v in self.vectors]
        if rows:
            dims = {r.size for r in rows}
            if len(dims) > 1:
                raise ArgumentError(f"vectors have mixed ambient dimensions {sorted(dims)}")
            dim = rows[0].size
        else:
            dim = self.ambient_dim
            if dim <= 0:
                raise ArgumentError("an empty SubspaceBasis needs an explicit ambient_dim")
        if self.rank_tol <= 0:
            raise ArgumentError("rank_tol must be strictly positive")
        object.__setattr__(self, "vectors", tuple(TruncatedVector(r) for r in rows))
        object.__setattr__(self, "ambient_dim", dim)
        if self.independent and self.rank() != len(rows):
            raise ArgumentError("vectors flagged independent but numerically rank deficient")

    @property
    def matrix(self) -> np.ndarray:
        if not self.vectors:
            return np.zeros((0, self.ambient_dim))
        return np.vstack([v.coords for v in self.vectors])

    def rank(self) -> int:
        return orthonormal_rows(self.matrix, self.rank_tol).shape[0]


def span_matrix(S, ambient_dim: int | None = None) -> np.ndarray:
    """Coerce a subspace description to a row matrix of spanning vectors.

    Accepts a :class:`SubspaceBasis`, a 2-d array (rows spanning), or a
    sequence of vectors.  An empty description denotes the zero subspace.
    """
    if isinstance(S, SubspaceBasis):
        M = S.matrix
    else:
        M = np.asarray(S, dtype=float)
        if M.ndim == 1:
            M = M[None, :] if M.size else M.reshape(0, 0)
        if M.size and not np.all(np.isfinite(M)):
            raise ArgumentError("spanning vectors must be finite")
        if M.ndim != 2:
            raise ArgumentError(f"cannot interpret shape {M.shape} as a span")
    if ambient_dim is not None and M.shape[0] and M.shape[1] != ambient_dim:
        raise ArgumentError(
            f"ambient dimension mismatch: span lives in {M.shape[1]}, expected {ambient_dim}"
        )
    return M


def orthonormal_rows(M: np.ndarray, rank_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of ``M`` via SVD.

    Nonzero rows are normalized first, so spans mixing vectors across many
    orders of magnitude keep their small members.  ``rank_tol`` is relative
    to the largest singular value.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or 0 in M.shape:
        return np.zeros((0, M.shape[-1] if M.ndim == 2 else 0))
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    scaled = np.divide(M, norms, out=np.zeros_like(M), where=norms > 0)
    _, s, vt = np.linalg.svd(scaled, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, M.shape[1]))
    rank = int(np.sum(s > rank_tol * s[0]))
    return vt[:rank]


def prefix_bases(M: np.ndarray, rank_tol: float = 1e-10):
    """Orthonormal bases of every row prefix of ``M`` from one Householder QR.

    Factors the normalized rows as M_hat^T = Q R (``numpy.linalg.qr``) with
    diag(R) > 0, so column j of Q is the direction modified Gram-Schmidt
    adds for row j.  Rank semantics are Gram-Schmidt's relative residual
    test: a row within ``rank_tol`` of the span before it (|R_jj|), or a
    zero row, adds no direction, and the QR is redone without it.

    Returns ``(Q, R, rank)``: Q (d x r) orthonormal columns, R the r x r
    factor of the kept rows, and ``Q[:, :rank[k]]`` spans the first k rows
    (k = 0..n).  Cost O(d r^2) per factorization.
    """
    M = np.asarray(M, dtype=float)
    norms = np.linalg.norm(M, axis=1)
    kept = np.flatnonzero(norms > 0)
    while True:
        Q, R = np.linalg.qr((M[kept] / norms[kept, None]).T)
        bad = np.flatnonzero(np.abs(np.diagonal(R)) <= rank_tol)
        if not bad.size:
            break
        kept = np.delete(kept, bad[0])
    # rows past a basis of the whole space are dependent
    kept, R = kept[:Q.shape[1]], R[:, :Q.shape[1]]
    signs = np.where(np.diagonal(R) < 0, -1.0, 1.0)
    return Q * signs, R * signs[:, None], np.searchsorted(kept, np.arange(len(M) + 1))


def tail_norms(V: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """T[i, j] = distance from V[i] to span(Q[:, :j]), j = 0..r, for Q with
    orthonormal columns: the norm of the coordinate tail (V Q)[i, j:] plus
    the part of V[i] outside span(Q), summed in squares from the end so
    small distances stay accurate.  Cost O(n d r)."""
    C = V @ Q
    out = V - C @ Q.T
    sq = np.concatenate([np.square(C), np.zeros((C.shape[0], 1))], axis=1)
    tails = np.cumsum(sq[:, ::-1], axis=1)[:, ::-1]
    return np.sqrt(tails + np.einsum("ij,ij->i", out, out)[:, None])


def _head_basis(S, x_dim: int, rank_tol: float) -> np.ndarray:
    M = span_matrix(S, ambient_dim=None)
    if M.shape[0] and M.shape[1] != x_dim:
        raise ArgumentError(
            f"ambient dimension mismatch: vector has {x_dim}, span has {M.shape[1]}"
        )
    return orthonormal_rows(M, rank_tol)


def distance_to_span(x, S, rank_tol: float = 1e-10) -> float:
    """Distance from ``x`` to the span of ``S`` (orthogonal projection residual)."""
    xv = as_vector(x)
    Q = _head_basis(S, xv.size, rank_tol)
    if Q.shape[0] == 0:
        return float(np.linalg.norm(xv))
    resid = xv - Q.T @ (Q @ xv)
    return float(np.linalg.norm(resid))


def project(x, S, rank_tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Orthogonal projection of ``x`` onto span(S) and the residual norm."""
    xv = as_vector(x)
    Q = _head_basis(S, xv.size, rank_tol)
    if Q.shape[0] == 0:
        proj = np.zeros_like(xv)
    else:
        proj = Q.T @ (Q @ xv)
    return proj, float(np.linalg.norm(xv - proj))


def span_gap(S1, S2, rank_tol: float = 1e-10) -> float:
    """Spectral norm of the projector difference between the two spans.

    Equals the larger of the two one-sided maxima of the distance from a
    unit vector of one span to the other span (the Hausdorff gap between
    unit balls), computable through principal angles.
    """
    M1 = span_matrix(S1)
    M2 = span_matrix(S2)
    if M1.shape[0] and M2.shape[0] and M1.shape[1] != M2.shape[1]:
        raise ArgumentError("spans live in different ambient dimensions")
    n = M1.shape[1] if M1.shape[0] else M2.shape[1]
    Q1 = orthonormal_rows(M1, rank_tol)
    Q2 = orthonormal_rows(M2, rank_tol)
    P1 = Q1.T @ Q1 if Q1.shape[0] else np.zeros((n, n))
    P2 = Q2.T @ Q2 if Q2.shape[0] else np.zeros((n, n))
    return float(np.linalg.norm(P1 - P2, 2))


def span_equal(S1, S2, tol: float, rank_tol: float = 1e-10) -> bool:
    """True iff the two spans agree within ``tol`` (projector difference norm)."""
    return span_gap(S1, S2, rank_tol) <= tol


def directed_span_gap(S_sub, S_sup, rank_tol: float = 1e-10) -> float:
    """Max distance from a unit vector of span(S_sub) to span(S_sup).

    Zero iff span(S_sub) is contained in span(S_sup) up to rank_tol.
    """
    Msub = span_matrix(S_sub)
    Q = orthonormal_rows(Msub, rank_tol)
    if Q.shape[0] == 0:
        return 0.0
    Qs = orthonormal_rows(span_matrix(S_sup, ambient_dim=Q.shape[1]), rank_tol)
    if Qs.shape[0] == 0:
        return 1.0
    R = Q - (Q @ Qs.T) @ Qs
    return float(np.linalg.svd(R, compute_uv=False)[0])


def unit_net(S, resolution: float, rank_tol: float = 1e-10,
             max_points: int = NET_POINT_CAP) -> np.ndarray:
    """A finite ``resolution``-net of the unit sphere of span(S).

    Returns the net points as rows; every unit vector of the span is
    within ``resolution`` (Euclidean) of one of them.  Built on an angle
    grid in orthonormalized coordinates, so the size grows like
    (1/resolution)**(dim-1); the call fails with :class:`NetCapError`
    rather than exhaust memory when the requested net would exceed
    ``max_points``.
    """
    if not (0.0 < resolution < 1.0):
        raise ArgumentError(f"net resolution must lie in (0, 1), got {resolution}")
    Q = orthonormal_rows(span_matrix(S), rank_tol)
    d = Q.shape[0]
    if d == 0:
        raise ArgumentError("cannot build a net on the zero subspace")
    if d == 1:
        return np.vstack([Q, -Q])

    # Per-angle step so the worst geodesic offset stays below asin(res/2),
    # hence chord distance below the resolution.
    h = 2.0 * math.asin(resolution / 2.0) / math.sqrt(d - 1)
    n_polar = max(1, math.ceil(math.pi / h))
    n_azim = max(1, math.ceil(2.0 * math.pi / h))
    size = (n_polar + 1) ** (d - 2) * n_azim
    if size > max_points:
        raise NetCapError(size, max_points)

    polar = np.linspace(0.0, math.pi, n_polar + 1)
    azim = np.arange(n_azim) * (2.0 * math.pi / n_azim)
    points = []
    for combo in itertools.product(*([polar] * (d - 2) + [azim])):
        coord = np.empty(d)
        sin_prod = 1.0
        for i, theta in enumerate(combo):
            coord[i] = sin_prod * math.cos(theta)
            sin_prod *= math.sin(theta)
        coord[d - 1] = sin_prod
        points.append(coord)
    pts = np.asarray(points)
    # renormalize against accumulated rounding, then map into the ambient
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts @ Q


def dual_solve(vectors, within, rank_tol: float = 1e-10,
               biorth_tol: float = 1e-8) -> np.ndarray:
    """Biorthogonal functionals of ``vectors`` inside span(``within``).

    Returns the k x d matrix of rows f_1..f_k in span(within), with
    <f_i, v_j> equal to the Kronecker delta up to ``biorth_tol``.  Requires
    dim(within) == len(vectors) and an invertible cross-Gram matrix;
    otherwise the vectors are not minimal relative to the given span and a
    :class:`SingularGramError` is raised.
    """
    V = span_matrix(vectors)
    if V.shape[0] == 0:
        return np.zeros((0, V.shape[1] or span_matrix(within).shape[1]))
    W = orthonormal_rows(span_matrix(within, ambient_dim=V.shape[1]), rank_tol)
    k = V.shape[0]
    if W.shape[0] != k:
        raise ArgumentError(
            f"need dim(within) == number of vectors, got {W.shape[0]} != {k}"
        )
    if orthonormal_rows(V, rank_tol).shape[0] != k:
        raise SingularGramError("input vectors are linearly dependent above rank_tol")
    G = V @ W.T
    s = np.linalg.svd(G, compute_uv=False)
    if s[-1] <= rank_tol * s[0]:
        raise SingularGramError(
            "cross-Gram matrix is singular above rank_tol: "
            "the vectors are not minimal relative to the given span"
        )
    A = np.linalg.solve(G, np.eye(k))
    F = A.T @ W
    defect = float(np.max(np.abs(F @ V.T - np.eye(k))))
    if not defect <= biorth_tol:  # a non-finite F gives a NaN defect
        raise SingularGramError(
            f"dual solve verified defect {defect:.3e} above biorth_tol {biorth_tol:.3e}; "
            "the pairing is too ill-conditioned"
        )
    return F


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical knobs shared by the diagnostics.

    rank_tol is relative to the largest singular value; the others are
    absolute.  net_resolution parameterizes every sphere-net argument, and
    all net-based guarantees are stated relative to it.
    """

    rank_tol: float = 1e-10
    biorth_tol: float = 1e-8
    span_tol: float = 1e-8
    net_resolution: float = 0.25

    def __post_init__(self):
        for name in ("rank_tol", "biorth_tol", "span_tol", "net_resolution"):
            if getattr(self, name) <= 0:
                raise ArgumentError(f"{name} must be strictly positive")
        if self.net_resolution >= 1.0:
            raise ArgumentError("net_resolution must be below 1")
