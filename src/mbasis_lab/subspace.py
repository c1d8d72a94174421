"""Dense finite-dimensional subspace primitives.

Vectors are points of a finite truncation of l2, represented as 1-d float
arrays.  Subspaces are given by row matrices of spanning vectors and
factored by one kernel: a Householder QR of the normalized rows with
Gram-Schmidt's rank test, which keeps distances and span comparisons
stable on the ill-conditioned systems produced elsewhere in this package.
The systems here are finite perturbations of the unit-vector basis, so
most rows of a truncation are isolated rows, none of whose columns another
row touches, most of them unit rows, multiples of some e_j.  Each is its
own direction, and the QR factors only the other, coupled rows on the
other columns, at cost O(d' r'^2) for d' such columns and r' such rows.
:func:`prefix_bases` forms its Q.  :func:`prefix_coordinates` factors the
rows together with some vectors and reads, off the R factor alone and
without forming Q, their coordinates on the prefix directions and one
table of their distances to every prefix span; :func:`distance_to_span`,
:func:`project` and, where its solve cannot certify it, the rank check of
:func:`dual_solve` use it.
:func:`span_gap` forms the basis of its first span only, and reads the
rank of the second span and the distance to it off one such R factor.
Every span rank in the package is this kernel's Gram-Schmidt test.

Arrays in, arrays out: a point is a 1-d array, a family of points a row
matrix, and a ``(0, d)`` array is the zero subspace of dimension d.
:func:`as_vector` and :func:`span_matrix` decide what counts as a vector or
a span.

Functionals on l2 are identified with vectors acting by the inner product,
so dual systems are returned as row matrices as well.

:class:`ToleranceConfig` holds the package's tolerances, the one place each
is named: every ``rank_tol`` and ``biorth_tol`` default reads it.  No
primitive here builds a net of a sphere: the constructions certify their
sphere conditions spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ArgumentError, SingularGramError

__all__ = [
    "ToleranceConfig",
    "as_vector",
    "span_matrix",
    "orthonormal_rows",
    "prefix_bases",
    "prefix_coordinates",
    "distance_to_span",
    "project",
    "span_gap",
    "span_equal",
    "directed_span_gap",
    "dual_solve",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """The numerical tolerances shared by the diagnostics, each named once.

    Its fields are the tolerance keys of a config file, the ``tolerances``
    of ``run.json`` and the tolerance lines of a stored ``header.txt``, so
    a tolerance is added or renamed here and nowhere else.  Each must be
    strictly positive.

    rank_tol is Gram-Schmidt's per-row relative residual test of
    :func:`prefix_bases`: a row within rank_tol of the span of the normalized
    rows before it adds no direction.  It must be below 1: a normalized
    row's residual is at most 1, so rank_tol >= 1 would drop every row.
    Two invertibility tests, not span ranks, read it relative to the
    largest singular value instead: the cross-Gram test of
    :func:`dual_solve` and the block independence test of
    ``pathology.operator_T``.  biorth_tol bounds the biorthogonality
    defects and span_tol the span gaps and span distances the checks
    accept; both are absolute.  Every ``rank_tol`` and ``biorth_tol`` parameter of the
    package defaults to the class attribute of that name.
    """

    rank_tol: float = 1e-10
    biorth_tol: float = 1e-8
    span_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:  # NaN too
                raise ArgumentError(f"{f.name} must be strictly positive")
        if not self.rank_tol < 1:
            raise ArgumentError(f"rank_tol must be below 1, got {self.rank_tol}")


def as_vector(x, ambient_dim: int | None = None) -> np.ndarray:
    """Coerce the array-like ``x`` to a validated 1-d array: nonempty,
    finite and, when ``ambient_dim`` is given, that long."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ArgumentError(f"expected a 1-d coordinate array, got shape {arr.shape}")
    if arr.size < 1:
        raise ArgumentError("ambient dimension must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("coordinates must be finite (no NaN or inf)")
    if ambient_dim is not None and arr.size != ambient_dim:
        raise ArgumentError(
            f"ambient dimension mismatch: vector has {arr.size}, expected {ambient_dim}"
        )
    return arr


def span_matrix(S, ambient_dim: int | None = None) -> np.ndarray:
    """Coerce a subspace description to a row matrix of spanning vectors.

    Accepts a 2-d array (rows spanning) or a sequence of vectors.  An empty
    description, such as a ``(0, d)`` array, denotes the zero subspace.
    """
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


def orthonormal_rows(M: np.ndarray, rank_tol: float = ToleranceConfig.rank_tol) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of ``M``: the transposed
    Q of :func:`prefix_bases`, with its Gram-Schmidt rank test."""
    return prefix_bases(M, rank_tol)[0].T


def _isolated_rows(M: np.ndarray):
    """The isolated rows of ``M``, nonzero rows none of whose columns another
    row touches, each orthogonal to every other row: ``(units, cols,
    wide)``, the rows with one nonzero and its column, and the rows with
    more.  One O(n d) pass over the nonzero pattern in float32 products,
    exact below 2^24: the column counts, then per row its nonzeros in
    shared columns, its nonzero count and its column sum.
    """
    nz = (M != 0).astype(np.float32)
    count = np.ones(len(M), np.float32) @ nz
    if not (count == 1).any():
        return (np.zeros(0, dtype=np.intp),) * 3
    W = np.ones((M.shape[1], 3), np.float32)
    W[:, 0], W[:, 2] = count > 1, np.arange(M.shape[1])
    shared, nnz, colsum = (nz @ W).T
    units = np.flatnonzero((shared == 0) & (nnz == 1))
    return units, colsum[units].astype(np.intp), np.flatnonzero((shared == 0) & (nnz > 1))


def _prefix_qr(M: np.ndarray, V: np.ndarray | None, rank_tol: float):
    """[M_hat^T | V^T] = Q [[R11, R12], [0, R22]] under Gram-Schmidt's rank
    test, with the isolated rows of M split off.

    M_hat is M with normalized rows.  For ``rank_tol`` < 1 an isolated row
    (:func:`_isolated_rows`) is kept: its direction w is the row normalized,
    sign * e_j exactly for a unit row, its column of R11 is e_k, and V's
    coordinate on it is V w.  The other rows are factored by
    :func:`_householder_qr` on the columns no split row touches, with V
    there and, on coordinates where those rows are zero, V's part outside
    each wide w on its support, in the coordinates of the reflector
    I - u u^T / (1 + |w_1|), u = w + sign(w_1) e_1, but the first; so the
    coupled rows meet one QR whether V is given or not, and R has the whole
    QR's shape.  The results merge back in prefix order.  A wide row whose
    sum of squares is not a normal float stays with the other rows.

    Returns ``(Q, R, kept, pu)``: ``kept`` the r rows of M that add a
    direction, diag(R11) > 0, Q the d x r directions when V is None, else
    None, as :func:`_householder_qr` returns them, and ``pu`` the positions
    in ``kept`` of the split rows, where R11 is the identity.
    """
    M = np.asarray(M, dtype=float)
    units, cols, wides = _isolated_rows(M) if rank_tol < 1 else (np.zeros(0, dtype=np.intp),) * 3
    wide = M[wides]
    if wides.size:
        with np.errstate(over="ignore"):  # an overflowing square is caught as not fine
            sq = (wide * wide).sum(axis=1)  # numpy.linalg.norm's arithmetic
        # a sum of squares below the normal range has lost digits
        fine = (sq >= np.finfo(float).tiny) & (sq < np.inf)
        wides, wide = wides[fine], wide[fine] / np.sqrt(sq[fine, None])
    if not (units.size or wides.size):
        return *_householder_qr(M, V, rank_tol), units
    signs = np.sign(M[units, cols])
    # the wide rows' nonzeros, row by row: wide row wi, column wj
    wi, wj = np.divmod(np.flatnonzero(wide != 0), M.shape[1])
    coupled = np.ones(M.shape[0], dtype=bool)
    coupled[units] = coupled[wides] = False
    other = np.ones(M.shape[1], dtype=bool)
    other[cols] = other[wj] = False
    Mc, Vc = M[coupled][:, other], None if V is None else V[:, other]
    if wides.size and V is not None:
        C = wide @ V.T
        w, lead = wide[wi, wj], np.concatenate([[True], wi[1:] != wi[:-1]])
        coef = ((C + np.sign(w[lead])[:, None] * V[:, wj[lead]].T)
                / (1 + np.abs(w[lead]))[:, None])
        Vc = np.concatenate([Vc, (V[:, wj].T - w[:, None] * coef[wi])[~lead].T], axis=1)
        Mc = np.concatenate([Mc, np.zeros((len(Mc), int(np.count_nonzero(~lead))))], axis=1)
    Qc, Rc, kc = _householder_qr(Mc, Vc, rank_tol)
    kc = np.flatnonzero(coupled)[kc]
    is_kept = ~coupled
    is_kept[kc] = True
    at = np.cumsum(is_kept) - 1
    pu, pc = at[~coupled], at[kc]
    r, rc = pu.size + pc.size, kc.size
    R = np.zeros((r + Rc.shape[0] - rc, r + Rc.shape[1] - rc))
    R[pu, pu] = 1.0
    R[pc[:, None], pc] = Rc[:rc, :rc]
    R[pc, r:] = Rc[:rc, rc:]
    R[r:, r:] = Rc[rc:, rc:]
    kept = np.flatnonzero(is_kept)
    if V is not None:
        R[at[units], r:] = V[:, cols].T * signs[:, None]
        if wides.size:
            R[at[wides], r:] = C
        return None, R, kept, pu
    Q = np.zeros((M.shape[1], r))
    Q[cols, at[units]] = signs
    Q[wj, at[wides][wi]] = wide[wi, wj]
    Q[np.flatnonzero(other)[:, None], pc] = Qc
    return Q, R, kept, pu


def _householder_qr(M: np.ndarray, V: np.ndarray | None, rank_tol: float):
    """Householder QR of [M_hat^T | V^T] under Gram-Schmidt's rank test.

    M_hat is M with normalized rows.  A row of M within ``rank_tol`` of the
    span before it (|R_jj|), or a zero row, adds no direction: the QR is
    redone without the first such row and every later row within
    ``rank_tol`` of the directions before it (its column of R below them),
    which Gram-Schmidt drops too.  Rows past a basis of the whole space are
    dependent.  V's columns come last, so they never change the rank.

    Returns ``(Q, R, kept)`` with ``kept`` the r rows of M that add a
    direction and R = [[R11, R12], [0, R22]], diag(R11) > 0: R11 (r x r)
    factors the kept rows, R12 holds V's coordinates on the r directions
    and R22 the part of V outside their span.  Q is those d x r directions
    when V is None; given V, the QR runs with ``mode="r"`` and Q is None.
    """
    with np.errstate(over="ignore"):  # a row past 2**511 overflows: its column is zero
        norms = np.linalg.norm(M, axis=1)
    kept = np.flatnonzero(norms > 0)
    while True:
        # built in one piece, so no second copy of the normalized rows stays
        # alive through the QR: this bounds the peak memory of a large V
        A = np.concatenate([M[kept] / norms[kept, None], M[:0] if V is None else V]).T
        if V is None:
            Q, R = np.linalg.qr(A)
        else:
            Q, R = None, np.linalg.qr(A, mode="r")
        n = kept.size
        bad = np.flatnonzero(np.abs(np.diagonal(R[:, :n])) <= rank_tol)
        if not bad.size:
            break
        b = bad[0]
        kept = np.delete(kept, b + np.flatnonzero(np.linalg.norm(R[b:, b:n], axis=0) <= rank_tol))
    r = min(n, M.shape[1])
    signs = np.where(np.diagonal(R)[:r] < 0, -1.0, 1.0)
    R = np.concatenate([R[:, :r], R[:, n:]], axis=1)
    R[:r] *= signs[:, None]
    return None if Q is None else Q * signs, R, kept[:r]


def prefix_bases(M: np.ndarray, rank_tol: float = ToleranceConfig.rank_tol):
    """Orthonormal bases of every row prefix of ``M`` from one Householder QR.

    Factors the normalized rows as M_hat^T = Q R (``numpy.linalg.qr``) with
    diag(R) > 0, so column j of Q is the direction modified Gram-Schmidt
    adds for row j.  Rank semantics are Gram-Schmidt's relative residual
    test, shared with :func:`prefix_coordinates`: a row within ``rank_tol``
    of the span before it, or a zero row, adds no direction.

    Returns ``(Q, R, rank)``: Q (d x r) orthonormal columns, R the r x r
    factor of the kept rows, and ``Q[:, :rank[k]]`` spans the first k rows
    (k = 0..n).  An isolated row is its own direction, the row normalized
    (:func:`_prefix_qr`), so the cost is O(d' r'^2) for the r' coupled rows
    on their d' columns, plus one O(n d) nonzero scan.
    """
    Q, R, kept, _ = _prefix_qr(M, None, rank_tol)
    return Q, R, np.searchsorted(kept, np.arange(len(M) + 1))


def prefix_coordinates(M: np.ndarray, V: np.ndarray, rank_tol: float = ToleranceConfig.rank_tol):
    """Coordinates of the rows of ``V`` on the prefix directions of ``M``,
    and their distances to every prefix span, from the R factor of one QR.

    Factors [M_hat^T | V^T] = Q [[R11, R12], [0, R22]] with
    ``numpy.linalg.qr(..., mode="r")`` under the rank semantics of
    :func:`prefix_bases`, so the r prefix directions are Q's first r
    columns, and V^T = Q[:, :r] R12 + Q[:, r:] R22 gives R12^T = V Q[:, :r]
    and the column norms of R22 as the distances to span(M) (Golub & Van
    Loan, *Matrix Computations*, 4th ed., 5.3).  The distance to the span of
    the first j directions adds the squares of the coordinate tail
    C[i, j:], summed from the end so small distances stay accurate.  Q is
    never formed, which halves the cost of a QR that forms it when V has
    few rows.  An isolated row of M is its own direction, on which V's
    coordinates are its products with V, exactly ``V[:, j] * sign`` for a
    unit row, so the cost is O(d' (r' + k)^2) for the r' coupled rows on
    their d' columns, plus one O(n d) nonzero scan.

    Returns ``(C, dist, rank)``: C (k x r) the coordinates, ``dist``
    (k x (r + 1)) with ``dist[i, j]`` the distance from V[i] to the span of
    the first j directions, whose last column is the R22 norm, exactly 0
    when M spans the whole space, and ``rank`` the prefix rank table of
    :func:`prefix_bases`: ``C[:, :rank[j]]`` are the coordinates on, and
    ``dist[:, rank[j]]`` the distances to, the span of the first j rows of M.
    """
    V = np.asarray(V, dtype=float)
    _, R, kept, _ = _prefix_qr(M, V, rank_tol)
    r, rank = kept.size, np.searchsorted(kept, np.arange(len(M) + 1))
    C, outside = R[:r, r:].T, np.linalg.norm(R[r:, r:], axis=0)
    sq = np.concatenate([np.square(C), np.square(outside)[:, None]], axis=1)
    dist = np.sqrt(np.cumsum(sq[:, ::-1], axis=1)[:, ::-1])
    dist[:, r] = outside
    return C, dist, rank


def _span_rows(S, x: np.ndarray) -> np.ndarray:
    """The spanning rows of ``S`` as a matrix as wide as ``x``."""
    return span_matrix(S, ambient_dim=x.size).reshape(-1, x.size)


def distance_to_span(x, S, rank_tol: float = ToleranceConfig.rank_tol) -> float:
    """Distance from ``x`` to the span of ``S``: the norm of R22 in
    :func:`prefix_coordinates`, without forming a basis of the span."""
    xv = as_vector(x)
    return float(prefix_coordinates(_span_rows(S, xv), xv[None], rank_tol)[1][0, -1])


def project(x, S, rank_tol: float = ToleranceConfig.rank_tol) -> tuple[np.ndarray, float]:
    """Orthogonal projection of ``x`` onto span(S) and the residual norm.

    From the QR of :func:`prefix_coordinates`: the kept normalized rows
    factor as S_hat^T = Q R11, so the projection Q R12 is S_hat^T y for
    R11 y = R12, and the residual norm is that of R22.  R11 is the identity
    on the isolated rows of :func:`_prefix_qr`'s split and zero between
    them and the other rows, so their coefficients are read off R12 and
    only the triangle of the coupled rows is solved.  Q is never formed.
    """
    xv = as_vector(x)
    M = _span_rows(S, xv)
    _, R, kept, pu = _prefix_qr(M, xv[None], rank_tol)
    r = kept.size
    y = R[:r, r].copy()
    pc = np.delete(np.arange(r), pu)
    y[pc] = np.linalg.solve(R[np.ix_(pc, pc)], y[pc])
    unit = M[kept] / np.linalg.norm(M[kept], axis=1)[:, None]
    return unit.T @ y, float(np.linalg.norm(R[r:, r]))


def _residual_norm(D: np.ndarray) -> float:
    """||D||_2: the square root of the largest eigenvalue
    (``numpy.linalg.eigvalsh``) of the smaller Gram matrix of D, clamped at
    0, and +0.0 for an empty D.  Its error is about k u lambda_max for a
    Gram matrix of order k, relative on sigma_max^2, the one value read.
    """
    if not D.size:
        return 0.0
    G = D @ D.T if D.shape[0] <= D.shape[1] else D.T @ D
    return float(np.sqrt(np.maximum(np.linalg.eigvalsh(G)[-1], 0.0)))


def _outside(Q: np.ndarray, S: np.ndarray, rank_tol: float) -> tuple[int, float]:
    """The rank of ``S`` and the largest distance from a unit vector of the
    span of the orthonormal rows ``Q`` to span(S).

    Both come from the R factor of one :func:`_prefix_qr` of
    [S_hat^T | Q^T], with S's isolated rows split off: the rank is its
    kept row count and the distance the spectral norm of R22, the part of
    Q^T outside span(S) (Golub & Van Loan, *Matrix Computations*, 4th ed.,
    5.3), read by :func:`_residual_norm`.  No basis of span(S) is formed.
    """
    _, R, kept, _ = _prefix_qr(S, Q, rank_tol)
    r = kept.size
    return r, _residual_norm(R[r:, r:])


def span_gap(S1, S2, rank_tol: float = ToleranceConfig.rank_tol) -> float:
    """Spectral norm of the projector difference between the two spans.

    Equals the larger of the two one-sided maxima of the distance from a
    unit vector of one span to the other span (the Hausdorff gap between
    unit balls): 1 when the ranks differ, exactly 0 for bitwise-equal
    inputs, else the sine of the largest principal angle (Davis & Kahan
    1970).  Q1 is the :func:`orthonormal_rows` basis of S1, and the rank of
    S2 and the distance of span(Q1) to span(S2) come from one R-only QR of
    S2 against Q1 (:func:`_outside`), so no basis of S2 is formed.  Past
    the two exact cases the ranks are equal, so the one-sided maxima
    agree, and the value is ``directed_span_gap(S1, S2)`` bit for bit: both
    read the one core.
    """
    M1 = span_matrix(S1)
    M2 = span_matrix(S2)
    if M1.shape[0] and M2.shape[0] and M1.shape[1] != M2.shape[1]:
        raise ArgumentError("spans live in different ambient dimensions")
    if np.array_equal(M1, M2):
        return 0.0
    d = (M1 if M1.shape[0] else M2).shape[1]
    Q1 = orthonormal_rows(M1.reshape(-1, d), rank_tol)
    rank, gap = _outside(Q1, M2.reshape(-1, d), rank_tol)
    return 1.0 if rank != Q1.shape[0] else gap


def span_equal(S1, S2, tol: float, rank_tol: float = ToleranceConfig.rank_tol) -> bool:
    """True iff the two spans agree within ``tol`` (projector difference norm)."""
    return span_gap(S1, S2, rank_tol) <= tol


def directed_span_gap(S_sub, S_sup, rank_tol: float = ToleranceConfig.rank_tol) -> float:
    """Max distance from a unit vector of span(S_sub) to span(S_sup).

    Zero iff span(S_sub) is contained in span(S_sup) up to rank_tol, and
    exactly 1 when span(S_sup) has the lower rank, for then a unit vector
    of span(S_sub) is orthogonal to it.  Read off the core of
    :func:`span_gap`, :func:`_outside`.
    """
    Q = orthonormal_rows(span_matrix(S_sub), rank_tol)
    if Q.shape[0] == 0:
        return 0.0
    S = span_matrix(S_sup, ambient_dim=Q.shape[1]).reshape(-1, Q.shape[1])
    rank, gap = _outside(Q, S, rank_tol)
    return 1.0 if rank < Q.shape[0] else gap


def _gamma(n: float) -> float:
    """Higham's gamma_n = n u / (1 - n u) for the unit roundoff u = 2^-53,
    +inf once n u reaches 1."""
    nu = n * 2.0 ** -53
    return nu / (1 - nu) if nu < 1 else np.inf


def _raised(norm: float, size: int) -> float:
    """A computed Frobenius norm of ``size`` entries raised to a bound on the
    exact one: by the factor 1 + gamma_{size+2} for the rounding of its sum
    of squares and root, and by sqrt(size) 2^-537 for its squares'
    underflow."""
    return (1 + _gamma(size + 2)) * float(norm) + size ** 0.5 * 2.0 ** -537


def _left_inverse_bound(F: np.ndarray, Z: np.ndarray):
    """The package's one certificate of independence: from F Z^T = I up to
    its defect, a lower bound on every Gram-Schmidt residual of the
    normalized rows of ``Z``.

    Returns ``(bound, cut, defect, delta)``: the bound, the bound less the
    floor of the kernel's rounding, the computed defect max|F Z^T - I| and
    delta >= ||F Z^T - I||_2.  bound and cut are NaN when a row's sum of
    squares is not a normal float with a factor 2 to spare.  A cut above
    rank_tol certifies that the kernel's rank test keeps all k rows.  F and
    Z are k x d, k <= d, and sigma_min is the k-th singular value.  Two
    callers read it: :func:`dual_solve`, with Z its vectors V and F its
    computed functionals, for its defect test, its rank test and, through
    :func:`_ratio_bound`, its cross-Gram test; and
    ``representing.strongness_diagnostic``, with a system's selected rows
    at k = d, where all rows kept means they span the space.

    With u the unit roundoff, gamma_n as in :func:`_gamma`, Higham's
    gamma~_n taken as gamma_{16 n} (*Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 3.5 and Thm 19.4), Frobenius norms and each
    computed norm raised by :func:`_raised`:

    - Each entry of the computed F Z^T is within gamma_d |f_i| |z_j| plus
      d 2^-1074 of the exact one, the diagonal's subtraction of 1 rounds
      by a relative u, and every other entry is exact, so
      ||F Z^T - I||_2 <= delta = k defect (1 + gamma_1)
      + gamma_{d+1} ||F|| ||Z|| + k d 2^-1074.
    - If delta < 1, F Z^T is invertible with sigma_min(F Z^T) >= 1 - delta,
      and sigma_min(F Z^T) <= ||F||_2 sigma_min(Z), so sigma_min(Z) >=
      (1 - delta) / ||F||.  Scaling the rows to unit norm divides sigma_min
      by at most max ||z_i||, and every Gram-Schmidt residual, a diagonal
      entry of the R factor of the unit rows, is at least their
      sigma_min: bound = (1 - delta) / (||F|| max ||z_i||).  The kernel's
      isolated rows read residual 1, and the other rows' smallest singular
      value is no smaller than all rows'.
    - If every row's sum of squares is a normal float, the computed unit
      rows are within gamma~_d of the exact ones and the computed R
      diagonal, by Thm 19.4, within sqrt(k) (gamma~_d + gamma~_{dk} (1 +
      gamma~_d)) of the residuals: cut = bound less that floor.  Otherwise
      the kernel's normalization can lose a row, and nothing is certified.
      The row sums here are one ``einsum`` pass, in another order than
      ``numpy.linalg.norm``'s; two sums of d nonnegative products differ by
      under 2 gamma_d of either plus d 2^-1074, so the factor 2 kept from
      each end of the normal range leaves the kernel's sums normal.
    - In :func:`dual_solve`, G = V W^T and F = A^T W for the computed solve
      A of G, each computed entry within gamma_d, resp. gamma_k, of the
      product of absolute values plus d, resp. k, subnormal units, so
      F V^T - I is (G A - I)^T up to their rounding and ||G A - I|| <= r =
      delta + (gamma_k + gamma_d) ||A|| ||W|| ||V|| + k d 2^-1074 (||A||
      + ||V|| + 1).  If r < 1, G A is invertible, so sigma_min(G) >= s_lo =
      (1 - r) / ||A|| and kappa_2(G) <= ||G|| / s_lo.  LAPACK's singular
      values are those of G + E, ||E|| <= 2 g ||G|| for g = gamma~_{k^2}
      (Householder sweeps from both sides, Thm 19.4), each then read to a
      relative g, so each is within (3 g + 2 g^2) ||G|| <= e = 4 g ||G|| of
      the exact one (for g > 1/2 nothing certifies): the cut
      (s_lo - e) / (||G|| + e) of :func:`_ratio_bound` above rank_tol
      certifies the cross-Gram test.

    The dozen scalar operations of the bounds round by a few u: a few
    u / ||A|| <= a few u ||G|| on s_lo and a few u on the bound, inside e
    and the rank floor, which are at least 64 u ||G|| and 32 u.  The one
    k x k temporary is F Z^T, made F Z^T - I and its absolute value in
    place; neither the squares of Z nor an identity is formed.
    """
    k, d = Z.shape
    info = np.finfo(float)
    with np.errstate(all="ignore"):  # a value past the float range certifies nothing
        P = F @ Z.T
        P.ravel()[:: k + 1] -= 1.0
        defect = float(np.abs(P, out=P).max())
        sq = np.einsum("ij,ij->i", Z, Z)
        normal = sq.min() >= 2 * info.tiny and sq.max() <= info.max / 2
        nF, nZ = _raised(np.linalg.norm(F), F.size), _raised(np.sqrt(sq.sum()), Z.size)
        zmax = _raised(np.sqrt(sq.max()), Z.size) if normal else np.nan
        delta = k * defect * (1 + _gamma(1)) + _gamma(d + 1) * nF * nZ + k * d * 2.0 ** -1074
        bound = (1 - delta) / (nF * zmax)
    floor = np.sqrt(k) * (_gamma(16 * d) + _gamma(16 * d * k) * (1 + _gamma(16 * d)))
    return bound, bound - floor, defect, delta


def _ratio_bound(G: np.ndarray, A: np.ndarray, W: np.ndarray, V: np.ndarray, delta: float):
    """Lower bound on sigma_min / sigma_max of G = V W^T from its solve A and
    the ``delta`` of :func:`_left_inverse_bound` for F = A^T W and Z = V, as
    ``(bound, cut)``: the bound alone and less the rounding of LAPACK's
    singular values.  Derived in :func:`_left_inverse_bound`."""
    k, d = V.shape
    nA, nG, nV, nW = (_raised(np.linalg.norm(M), M.size) for M in (A, G, V, W))
    r = delta + (_gamma(k) + _gamma(d)) * nA * nW * nV + k * d * 2.0 ** -1074 * (nA + nV + 1)
    s_lo = (1 - r) / nA
    e = 4 * _gamma(16 * k * k) * nG
    return s_lo / nG, (s_lo - e) / (nG + e)


def dual_solve(vectors, within, rank_tol: float = ToleranceConfig.rank_tol,
               biorth_tol: float = ToleranceConfig.biorth_tol) -> np.ndarray:
    """Biorthogonal functionals of ``vectors`` inside span(``within``).

    Returns the k x d matrix of rows f_1..f_k in span(within), with
    <f_i, v_j> equal to the Kronecker delta up to ``biorth_tol``.  Requires
    dim(within) == len(vectors) and an invertible cross-Gram matrix;
    otherwise the vectors are not minimal relative to the given span and a
    :class:`SingularGramError` is raised.  The rows are combined in the
    :func:`orthonormal_rows` basis W of ``within``, so dim(within) is its rank
    under Gram-Schmidt's test, as everywhere else in the package.

    Two tests refuse before the defect test, in this order: the rank of
    the vectors under Gram-Schmidt's test, off the R factor of
    :func:`prefix_coordinates` (the error's ``test`` is ``"rank"``), and
    s_min <= rank_tol s_max for the singular values s of G = V W^T
    (``"cross-Gram"``); the defect test's ``test`` is ``"defect"``.  The
    solve runs first, under ``errstate``: A = ``solve(G, I)`` and
    F = A^T W.  One :func:`_left_inverse_bound` of (F, V), whose product
    F V^T is the only one formed, reads the defect max|F V^T - I| and
    certifies the rank test, and its delta certifies the cross-Gram test
    through :func:`_ratio_bound`; the derivation is in the former's
    docstring.  The two tests run only where this solve cannot certify
    that both pass: after a ``LinAlgError``, a non-finite value, a row
    whose sum of squares is not a normal float or a cut within its floor
    of rank_tol.  They then refuse exactly as when they ran before the
    solve, and a ``LinAlgError`` is raised after them.

    Certified or not, F is the same solve's, bit for bit, and each refusal
    has the same text and order as when both tests always ran.
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
    G = V @ W.T
    failed, certified = None, False
    with np.errstate(all="ignore"):
        try:
            A = np.linalg.solve(G, np.eye(k))
        except np.linalg.LinAlgError as exc:
            failed = exc
        else:
            F = A.T @ W
            _, cut, defect, delta = _left_inverse_bound(F, V)
            certified = cut > rank_tol and _ratio_bound(G, A, W, V, delta)[1] > rank_tol
    if not certified:
        if prefix_coordinates(V, V[:0], rank_tol)[2][-1] != k:
            raise SingularGramError("input vectors are linearly dependent above rank_tol",
                                    test="rank")
        s = np.linalg.svd(G, compute_uv=False)
        if s[-1] <= rank_tol * s[0]:
            raise SingularGramError(
                "cross-Gram matrix is singular above rank_tol: "
                "the vectors are not minimal relative to the given span", test="cross-Gram"
            )
        if failed is not None:
            raise failed
    if not defect <= biorth_tol:  # a non-finite F gives a NaN defect
        raise SingularGramError(
            f"dual solve verified defect {defect:.3e} above biorth_tol {biorth_tol:.3e}; "
            "the pairing is too ill-conditioned", test="defect"
        )
    return F
