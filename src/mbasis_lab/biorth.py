"""Biorthogonal systems and their standard diagnostics.

A system is a paired finite family (x_n, f_n) of vectors and functionals
(functionals act by the l2 inner product).  The diagnostics quantify, at
truncation scale, the classical notions: biorthogonality defect,
C-boundedness, uniform minimality, norming constants, spanning indices of
a spanned system and block/pile perturbation structure.

All index sets exposed by this module are 1-based, matching the usual
mathematical indexing; raw array rows are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ArgumentError
from .subspace import (
    ToleranceConfig,
    orthonormal_rows,
    prefix_bases,
    prefix_coordinates,
    span_equal,
)

__all__ = [
    "BiorthSystem",
    "IntervalFamily",
    "PerturbationClass",
    "biorthogonality_defect",
    "boundedness_constant",
    "uniform_minimality_constant",
    "norming_constant_estimate",
    "spanning_indices",
    "classify_perturbation",
]


@dataclass(frozen=True)
class BiorthSystem:
    """Paired finite sequences of vectors ``xs`` and functionals ``fs``.

    Rows of the two matrices are the x_n and f_n.  On validated systems the
    biorthogonality defect is at most ``tol.biorth_tol`` and no row is zero.
    """

    xs: np.ndarray
    fs: np.ndarray
    ambient_dim: int = 0
    tol: ToleranceConfig = field(default_factory=ToleranceConfig)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.xs, dtype=float))
        F = np.atleast_2d(np.asarray(self.fs, dtype=float))
        if X.shape[0] != F.shape[0]:
            raise ArgumentError(f"|xs| != |fs|: {X.shape[0]} vs {F.shape[0]}")
        if X.shape[0] and X.shape[1] != F.shape[1]:
            raise ArgumentError("vectors and functionals live in different dimensions")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(F))):
            raise ArgumentError("system entries must be finite")
        dim = self.ambient_dim or (X.shape[1] if X.size else 0)
        if X.size and dim != X.shape[1]:
            raise ArgumentError("ambient_dim does not match the matrices")
        X.setflags(write=False)
        F.setflags(write=False)
        object.__setattr__(self, "xs", X)
        object.__setattr__(self, "fs", F)
        object.__setattr__(self, "ambient_dim", dim)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_pairs(cls, xs, fs, tol: ToleranceConfig | None = None) -> "BiorthSystem":
        """The system of the given pairs, validated."""
        return cls(xs, fs, tol=tol or ToleranceConfig()).validate()

    @classmethod
    def canonical(cls, n: int, ambient_dim: int | None = None,
                  tol: ToleranceConfig | None = None) -> "BiorthSystem":
        """The canonical pairs (e_1..e_n) in the given ambient dimension."""
        dim = ambient_dim or n
        if dim < n:
            raise ArgumentError("ambient dimension below the system size")
        E = np.eye(dim)[:n]
        return cls(E, E.copy(), tol=tol or ToleranceConfig())

    # -- basic accessors ------------------------------------------------

    @property
    def size(self) -> int:
        return self.xs.shape[0]

    def x(self, n: int) -> np.ndarray:
        """n-th vector, 1-based."""
        return self.xs[n - 1]

    def f(self, n: int) -> np.ndarray:
        """n-th functional, 1-based."""
        return self.fs[n - 1]

    def prefix(self, m: int) -> "BiorthSystem":
        """Subsystem of the first m pairs."""
        if not 0 <= m <= self.size:
            raise ArgumentError(f"prefix length {m} out of range")
        return replace(self, xs=self.xs[:m].copy(), fs=self.fs[:m].copy())

    def validate(self):
        defect = biorthogonality_defect(self)
        if defect > self.tol.biorth_tol:
            raise ArgumentError(
                f"biorthogonality defect {defect:.3e} above tolerance "
                f"{self.tol.biorth_tol:.3e}"
            )
        with np.errstate(over="ignore"):  # squares of entries past 2**511 overflow
            norms = np.linalg.norm(np.concatenate([self.xs, self.fs]), axis=1)
        if not np.all(np.isfinite(norms)):
            raise ArgumentError(f"{np.count_nonzero(~np.isfinite(norms))} row norms are "
                                "not finite in float64; reduce the truncation")
        if np.any(norms == 0.0):
            raise ArgumentError("zero vectors are not allowed in a biorthogonal system")
        return self


@dataclass(frozen=True)
class IntervalFamily:
    """A family of integer intervals I(m), inclusive 1-based bounds."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((int(lo), int(hi)) for lo, hi in self.intervals)
        for lo, hi in ivs:
            if lo < 1 or hi < lo:
                raise ArgumentError(f"malformed interval ({lo}, {hi})")
        object.__setattr__(self, "intervals", ivs)


# ---------------------------------------------------------------------------
# scalar diagnostics


def biorthogonality_defect(sys: BiorthSystem) -> float:
    """max over (k, n) of |<f_k, x_n> - delta_{k,n}|."""
    if sys.size == 0:
        return 0.0
    return float(np.max(np.abs(sys.fs @ sys.xs.T - np.eye(sys.size))))


def boundedness_constant(sys: BiorthSystem) -> float:
    """Least C with ||x_n|| * ||f_n|| <= C for every n."""
    if sys.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(sys.xs, axis=1) * np.linalg.norm(sys.fs, axis=1)))


def uniform_minimality_constant(sys: BiorthSystem) -> float:
    """min over n of dist(x_n / ||x_n||, span of the other vectors).

    :func:`prefix_bases` factors the normalized rows as X_hat^T = Q R, so
    their Gram matrix is R^T R and dist(x_hat_n, span of the others) =
    1 / sqrt((G^-1)_nn) = 1 / ||row n of R^-1||: one factorization and the
    inverse of its n x n R serve every n, O(d n^2).  The error scales with
    kappa(X_hat).  A family of rank below n under Gram-Schmidt's rank test
    at ``rank_tol`` reads 0.
    """
    if sys.size < 2:
        raise ArgumentError("uniform minimality needs at least 2 vectors")
    _, R, rank = prefix_bases(sys.xs, sys.tol.rank_tol)
    if rank[-1] < sys.size:
        return 0.0
    return float(1.0 / np.max(np.linalg.norm(np.linalg.inv(R), axis=1)))


def norming_constant_estimate(sys: BiorthSystem, samples: int | None = None,
                              seed: int = 0) -> float:
    """Monte-Carlo upper estimate of the norming constant of the system.

    The constant is the infimum over unit f in span(fs) of sup over unit x
    in span(xs) of |<f, x>|, the norm of the projection of f onto span(xs).
    This is the minimum of that norm, computed exactly, over ``samples``
    unit functionals f = c Q_F, with c a normalized standard Gaussian row
    and Q_F the :func:`orthonormal_rows` basis of span(fs); the Gaussian is
    rotation invariant, so f is uniform on the unit sphere of span(fs) in
    any orthonormal basis (Mezzadri, *Notices AMS* 54, 2007).  It can only
    overstate the constant.  Deterministic given the seed, and the first k
    of a seed's draws are the same for every ``samples`` >= k, so the
    estimate does not increase with ``samples``.  The default is
    max(64, 2n) samples for n pairs.  The norming refinement admits its
    level c against the exact constant instead
    (``representing.norming_property_minimum(sys, N, N)``); this estimate is
    kept for the benchmark harness and the tests, which still call it,
    until the benchmark reads the exact constant (ROADMAP item 2).
    """
    samples = max(64, 2 * sys.size) if samples is None else samples
    if samples <= 0:
        raise ArgumentError("need a positive number of samples")
    Qf = orthonormal_rows(sys.fs, sys.tol.rank_tol)
    if Qf.shape[0] == 0:
        raise ArgumentError("functional span is zero")
    Qx = orthonormal_rows(sys.xs, sys.tol.rank_tol)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((samples, Qf.shape[0]))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    fs = coeffs @ Qf
    return float(np.linalg.norm(fs @ Qx.T, axis=1).min())


# ---------------------------------------------------------------------------
# spanning indices


def spanning_indices(zsys: BiorthSystem, xsys: BiorthSystem) -> list[int]:
    """The spanning indices q(m) of ``zsys`` relative to ``xsys``.

    q(m) >= m is the least q such that every z_n and z_n* with n <= m lies
    within ``xsys.tol.span_tol`` of span{x_1..x_q} resp. span{f_1..f_q}
    (distances taken on normalized vectors); raises naming the first m no
    q <= |xsys| serves.
    Per side, the distance table of :func:`prefix_coordinates` of the
    normalized z rows against the x rows (Gram-Schmidt rank semantics at
    ``xsys.tol.rank_tol``, no Q formed) tabulates dist(z_n, span{x_1..x_q})
    for all (n, q), and q(m) is a running maximum.  Cost O(d n^2).
    """
    tol = xsys.tol.span_tol
    if zsys.ambient_dim != xsys.ambient_dim:
        raise ArgumentError("systems live in different ambient dimensions")
    need = np.zeros(zsys.size)
    zero = np.zeros(zsys.size, dtype=bool)
    for zs, xs in ((zsys.xs, xsys.xs), (zsys.fs, xsys.fs)):
        norms = np.linalg.norm(zs, axis=1)
        zero |= norms == 0
        unit = zs / np.where(norms > 0, norms, 1.0)[:, None]
        _, dist, rank = prefix_coordinates(xs, unit, xsys.tol.rank_tol)
        within = dist[:, rank] <= tol
        need = np.maximum(need, np.where(within.any(axis=1), within.argmax(axis=1), np.inf))
    bad = np.flatnonzero(zero | (need == np.inf))
    if bad.size:
        m = bad[0] + 1
        raise ArgumentError(f"zero vector at position {m}" if zero[m - 1] else
                            f"no q <= {xsys.size} spans the first {m} pairs within tol {tol}")
    return np.maximum(np.maximum.accumulate(need), np.arange(1, zsys.size + 1)).astype(int).tolist()


# ---------------------------------------------------------------------------
# perturbation classification


@dataclass(frozen=True)
class PerturbationClass:
    """Verdict of :func:`classify_perturbation`.

    kind is 'block', 'pile' or 'neither'.  For a block verdict,
    ``intervals`` holds the maximal (finest) successive-interval witness.
    ``pile_prefixes`` lists every prefix length at which both prefix spans
    agree.
    """

    kind: str
    intervals: IntervalFamily | None
    pile_prefixes: tuple


def _prefix_agreement(Z: np.ndarray, X: np.ndarray, tol: float, rank_tol: float):
    """``(equal, low, high)``: entry k - 1 of ``equal`` is
    ``span_equal(Z[:k], X[:k], tol, rank_tol)``; for k <= K, the number of
    leading rows both rank tests keep, entries k - 1 of ``low`` and
    ``high`` are the largest column norm and the Frobenius norm of the
    tail block D[k:, :k] of D = Q_x^T Q_z, so low <= gap(Z[:k], X[:k]) <= high.

    Column j of block k is the distance of z direction j to the first k
    x directions, one table read off the R factor of
    :func:`prefix_coordinates` (the x side forms no Q).  ``high`` within
    tol decides equal and ``low`` above it unequal; the rest, and every k
    past K, :func:`span_equal` decides.  Cost O(d n^2) for n rows.
    """
    Qz, _, rank_z = prefix_bases(Z, rank_tol)
    _, dist, rank_x = prefix_coordinates(X, Qz.T, rank_tol)
    K = min(int(np.sum(r[1:] == np.arange(1, r.size))) for r in (rank_x, rank_z))
    # column j of block k: dist(z direction j, first k x directions), j < k
    cols = np.triu(dist[:K, 1:K + 1])
    low, high = cols.max(axis=0, initial=0.0), np.sqrt(np.sum(np.square(cols), axis=0))
    equal = np.zeros(len(X), dtype=bool)
    equal[:K] = high <= tol
    undecided = np.flatnonzero(~equal[:K] & (low <= tol))
    for k in [*(undecided + 1).tolist(), *range(K + 1, len(X) + 1)]:
        equal[k - 1] = span_equal(Z[:k], X[:k], tol, rank_tol)
    return equal, low, high


def _agreements(zsys: BiorthSystem, xsys: BiorthSystem, start: int, tol: float,
                width: int = 16):
    """``(hits, low, high)``: the offsets k - 1 at which rows
    start..start+k-1 (1-based) agree on both sides, over windows of
    ``width`` rows quadrupled until one agrees, ranks decided at
    ``xsys.tol.rank_tol``; and, for the first K of those row blocks, K the
    shorter of the two sides' (:func:`_prefix_agreement`), the larger of
    the two sides' ``low`` and ``high`` bounds on their gaps."""
    rank_tol = xsys.tol.rank_tol
    while True:
        rows = slice(start - 1, min(zsys.size, start - 1 + width))
        (eq_x, low_x, high_x), (eq_f, low_f, high_f) = (
            _prefix_agreement(Z[rows], X[rows], tol, rank_tol)
            for Z, X in ((zsys.xs, xsys.xs), (zsys.fs, xsys.fs)))
        hits = np.flatnonzero(eq_x & eq_f)
        if hits.size or rows.stop == zsys.size:
            K = min(low_x.size, low_f.size)
            return (hits, np.maximum(low_x[:K], low_f[:K]),
                    np.maximum(high_x[:K], high_f[:K]))
        width *= 4


def _pairing_tables(zsys: BiorthSystem, xsys: BiorthSystem):
    """Prefix tables of the two pairings, index k for the first k rows:
    ``kappa[k]`` = max(||X_k|| ||F_k||, ||Z_k|| ||G_k||) and ``mu[k]`` the
    largest of the four norms (Frobenius, from running sums of the squared
    row norms), and the two 2-D prefix sums ``S`` of E^2 for the defects
    E = F X^T - I and G Z^T - I: ``S[i][k, j]`` is the squared Frobenius
    norm of E[:k, :j].  One n x n product per system.  An entry past the
    float64 range reads inf or nan, and no bound that reads it decides."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = [np.concatenate([[0.0], np.cumsum(np.sum(np.square(M), axis=1))])
              for M in (xsys.xs, xsys.fs, zsys.xs, zsys.fs)]
        kappa = np.sqrt(np.maximum(sq[0] * sq[1], sq[2] * sq[3]))
        S = []
        for vs, fs in ((xsys.xs, xsys.fs), (zsys.xs, zsys.fs)):
            T = np.zeros((len(vs) + 1,) * 2)
            T[1:, 1:] = np.cumsum(np.cumsum(np.square(fs @ vs.T - np.eye(len(vs))), axis=0),
                                  axis=1)
            S.append(T)
    return kappa, np.sqrt(np.max(sq, axis=0)), S


def _interval_bounds(p: int, low: np.ndarray, high: np.ndarray, tables):
    """``(lower, upper)``: the bounds of :func:`classify_perturbation` on the
    gap of rows p+1..b, for b = p+1..K, read off the start-1 tables."""
    kappa, mu, (SX, SZ) = tables
    b = np.arange(p + 1, low.size + 1)
    eps = np.sqrt(np.maximum(SX[b, b], SZ[b, b]))
    eta = np.sqrt(np.max([SX[p, b], SX[b, p], SZ[p, b], SZ[b, p]], axis=0))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = np.where(eps < 1, 1 / (1 - eps), np.inf)
        kp, hp, defect = kappa[p], high[p - 1], eta * c * mu[p] * mu[b]
        upper = high[b - 1] + kp * (hp + high[b - 1]) + defect * (1 + kp * c)
        lower = (low[b - 1] - (kp + defect) * hp) / (1 + kp + defect)
    return lower, upper


def _bounded_end(p: int, low: np.ndarray, high: np.ndarray, tables, tol: float,
                 floor: float):
    """The greedy end of the interval from p + 1 where the bounds decide it,
    ``floor`` the distance table's 4 d u: ``[b - p - 1]`` for the least
    agreeing end b, ``[]`` when every end disagrees, and ``None`` when an
    end before the first agreeing one is undecided or past K (p >= K
    included)."""
    kappa = tables[0]
    K, n = low.size, kappa.size - 1
    if p >= K:
        return None
    lower, upper = _interval_bounds(p, low, high, tables)
    phi = floor * np.sqrt(np.arange(p + 1, K + 1))
    apart = lower - 2 * phi > tol
    agree = upper + (2 + 2 * kappa[p]) * phi <= tol
    first = np.flatnonzero(~apart)
    if not first.size:
        return np.zeros(0, dtype=np.intp) if K == n else None
    return np.array([first[0]]) if agree[first[0]] else None


def classify_perturbation(zsys: BiorthSystem, xsys: BiorthSystem) -> PerturbationClass:
    """Classify ``zsys`` as a block or pile perturbation of ``xsys``.

    Row ranges agree when their vector spans and their functional spans
    both have projector gap (:func:`span_gap`, rank test of :func:`prefix_bases`
    at ``xsys.tol.rank_tol``) within ``xsys.tol.span_tol``.  Pile
    prefixes are all agreeing prefixes; block intervals close greedily at
    the earliest agreeing end (the maximal refinement when one exists), the
    first at the first pile prefix.

    Start 1 factors all n rows once per side (:func:`_prefix_agreement`):
    for full-rank prefixes the gap is the 2-norm of the block D[k:, :k] of
    D = Q_x^T Q_z (principal angles, Bjorck & Golub 1973), so its largest
    column norm and its Frobenius norm bracket the gap delta_k, the larger
    of the vector and the functional side's, for k <= K, the rows both
    rank tests keep whole.

    Later intervals I = [p + 1, b] are decided off those tables.  Write
    Z, G for ``zsys``' vectors and functionals, X, F for ``xsys``' and A_k
    for the first k rows of A.  For exactly biorthogonal pairs
    span Z_I = span Z_b intersected with (span G_p)^perp, the same for X
    and F, and for the functionals with the roles swapped.  Let
    kappa_p = max(||X_p|| ||F_p||, ||Z_p|| ||G_p||) and mu_k the largest of
    the four prefix-k norms (Frobenius, from running sums).  The pairing
    defects E = F X^T - I and G Z^T - I are read only on the blocks the
    identity uses, off 2-D prefix sums of E^2 (:func:`_pairing_tables`):
    eta the largest ||E[:p, :b]|| or ||E[:b, :p]||, eps the larger
    ||E[:b, :b]||, c = 1 / (1 - eps) and t = eta c mu_p mu_b.  For b <= K
    and eps < 1 (:func:`_interval_bounds`):

    - upper: gap(I) <= delta_b + kappa_p (delta_p + delta_b)
      + t (1 + kappa_p c).  A unit u in span Z_I is within delta_b of
      v = X_b^T a in span X_b, with ||a|| <= c ||F_b||; X_I^T a_I is in
      span X_I, and the rest is X_p^T a_p with a_p = F_p v - E[:p, :b] a.
      F_p v = F_p P_F v, P_F the projector on span F_p, and
      ||P_F v|| <= delta_p + ||P_G u|| + delta_b, where
      ||P_G u|| <= ||G_p u|| / sigma_min(G_p) <= eta c^2 mu_p mu_b, as
      G_p u = E[:p, I] alpha for u = Z_I^T alpha, ||alpha|| <= c ||G_I||,
      and sigma_min(G_p) >= (1 - eps) / ||Z_p||.  The two spans have equal
      dimension b - p, so this directed distance is the gap;
    - lower: gap(I) >= (delta_b - kappa' delta_p) / (1 + kappa') with
      kappa' = kappa_p + t.  The unit u of span Z_b at distance delta_b
      from span X_b splits as Z_p^T alpha_p + Z_I^T alpha_I, the first
      part of norm at most kappa' (alpha_p = G_p u - E[:p, :b] alpha), so
      within kappa' delta_p of span X_p, the second of norm at most
      1 + kappa', so within (1 + kappa') gap(I) of span X_I.

    Exact zero cross-block defects (rows on disjoint supports) leave only
    the defects inside the blocks, each multiplied by norms of prefix p.
    The tables stand in for delta: ``high`` from above, ``low`` from
    below.  The distance table holds each distance of a unit column to
    4 d u (d the ambient dimension, u the unit roundoff, the floor the
    kernel's tests hold it to), so a read over at most b columns, and the
    window's own gap, err by at most phi = 4 d u sqrt(b).  Scanning b
    upward from p + 1, an end disagrees when the lower bound less 2 phi
    exceeds span_tol and agrees when the upper bound plus
    (2 + 2 kappa_p) phi is within it; the first end that does not
    disagree closes the interval if it agrees.  If it is undecided, if
    every end through K < n disagrees, or if p >= K, the window search of
    :func:`_agreements` decides that start as before: windows of 16 rows,
    quadrupled until one closes, O(d w^2) per window of w rows.  A decided
    window needs no rank check of its own: in exact arithmetic a row that
    passes Gram-Schmidt's test against all earlier rows passes it against
    the window's.  The tables cost one n x n product per system and O(n^2)
    prefix sums, and a decided start O(n).
    """
    if zsys.ambient_dim != xsys.ambient_dim:
        raise ArgumentError("systems live in different ambient dimensions")
    tol = xsys.tol.span_tol
    if zsys.size != xsys.size:
        raise ArgumentError("systems must have equal length")
    n = zsys.size
    hits, low, high = _agreements(zsys, xsys, 1, tol, width=n)
    prefixes = tuple(int(k) + 1 for k in hits)
    tables = _pairing_tables(zsys, xsys) if hits.size and hits[0] + 1 < n else None
    floor = 4 * zsys.ambient_dim * np.finfo(float).eps / 2
    intervals = []
    start = 1
    while hits.size:
        intervals.append((start, start + int(hits[0])))
        start += int(hits[0]) + 1
        if start > n:
            break
        hits = _bounded_end(start - 1, low, high, tables, tol, floor)
        if hits is None:
            hits = _agreements(zsys, xsys, start, tol)[0]
    if intervals and start == n + 1:
        return PerturbationClass("block", IntervalFamily(tuple(intervals)), prefixes)
    if prefixes:
        rights = tuple((1, m) for m in prefixes)
        return PerturbationClass("pile", IntervalFamily(rights), prefixes)
    return PerturbationClass("neither", None, ())
