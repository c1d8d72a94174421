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
    svd_basis,
)

__all__ = [
    "BiorthSystem",
    "IntervalFamily",
    "PerturbationClass",
    "biorthogonality_defect",
    "boundedness_constant",
    "uniform_minimality_constant",
    "norming_constant_estimate",
    "norming_estimate_envelope",
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


def norming_estimate_envelope(sys: BiorthSystem, samples: int, seed: int) -> np.ndarray:
    """Running minimum over sampled functionals of sup_x |<f, x>|.

    For each sampled unit f in span(fs) the supremum over unit x in
    span(xs) equals the norm of the projection of f onto span(xs), which is
    computed exactly.  The running minimum is the monotone envelope of the
    norming-constant estimate as the sample grows.
    """
    if samples <= 0:
        raise ArgumentError("need a positive number of samples")
    Qf = svd_basis(sys.fs, sys.tol.rank_tol)
    if Qf.shape[0] == 0:
        raise ArgumentError("functional span is zero")
    Qx = orthonormal_rows(sys.xs, sys.tol.rank_tol)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((samples, Qf.shape[0]))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    fs = coeffs @ Qf
    values = np.linalg.norm(fs @ Qx.T, axis=1) if Qx.shape[0] else np.zeros(samples)
    return np.minimum.accumulate(values)


def norming_constant_estimate(sys: BiorthSystem, samples: int | None = None,
                              seed: int = 0) -> float:
    """Monte-Carlo upper estimate of the norming constant of the system.

    The constant is an infimum over unit functionals, and this is the
    minimum over sampled ones, so it can only overstate the constant.
    Deterministic given the seed; non-increasing in ``samples`` in
    expectation (it is a minimum over a growing sample set).  The default
    is max(64, 2n) samples for n pairs.  The norming refinement admits its
    level c against the exact constant instead
    (``representing.norming_property_minimum(sys, N, N)``); this estimate is
    kept for the benchmark harness and the tests, which still call it,
    until the benchmark reads the exact constant (ROADMAP item 4).
    """
    samples = max(64, 2 * sys.size) if samples is None else samples
    return float(norming_estimate_envelope(sys, samples, seed)[-1])


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


def _prefix_agreement(Z: np.ndarray, X: np.ndarray, tol: float,
                      rank_tol: float) -> np.ndarray:
    """Boolean array: entry k - 1 is ``span_equal(Z[:k], X[:k], tol, rank_tol)``."""
    Qz, _, rank_z = prefix_bases(Z, rank_tol)
    _, dist, rank_x = prefix_coordinates(X, Qz.T, rank_tol)
    K = min(int(np.sum(r[1:] == np.arange(1, r.size))) for r in (rank_x, rank_z))
    # column j of block k: dist(z direction j, first k x directions), j < k
    cols = np.triu(dist[:K, 1:K + 1])
    equal = np.zeros(len(X), dtype=bool)
    equal[:K] = np.sqrt(np.sum(np.square(cols), axis=0)) <= tol
    undecided = np.flatnonzero(~equal[:K] & (cols.max(axis=0, initial=0.0) <= tol))
    for k in [*(undecided + 1).tolist(), *range(K + 1, len(X) + 1)]:
        equal[k - 1] = span_equal(Z[:k], X[:k], tol, rank_tol)
    return equal


def _agreements(zsys: BiorthSystem, xsys: BiorthSystem, start: int, tol: float,
                width: int = 16) -> np.ndarray:
    """Offsets k - 1 at which rows start..start+k-1 (1-based) agree on both
    sides, over windows of ``width`` rows quadrupled until one agrees; ranks
    are decided at ``xsys.tol.rank_tol``."""
    rank_tol = xsys.tol.rank_tol
    while True:
        rows = slice(start - 1, min(zsys.size, start - 1 + width))
        hits = np.flatnonzero(_prefix_agreement(zsys.xs[rows], xsys.xs[rows], tol, rank_tol)
                              & _prefix_agreement(zsys.fs[rows], xsys.fs[rows], tol, rank_tol))
        if hits.size or rows.stop == zsys.size:
            return hits
        width *= 4


def classify_perturbation(zsys: BiorthSystem, xsys: BiorthSystem) -> PerturbationClass:
    """Classify ``zsys`` as a block or pile perturbation of ``xsys``.

    Row ranges agree when their vector spans and their functional spans
    both have projector gap (:func:`span_gap`, rank test of :func:`prefix_bases`
    at ``xsys.tol.rank_tol``) within ``xsys.tol.span_tol``.  Pile
    prefixes are all agreeing prefixes; block intervals close greedily at
    the earliest agreeing end (the maximal refinement when one exists), the
    first at the first pile prefix.

    For full-rank prefixes the gap is the 2-norm of the block D[k:, :k] of
    D = Q_x^T Q_z (principal angles, Bjorck & Golub 1973), with both bases
    from :func:`prefix_bases`.  The column tails of D are the distances of
    the z directions to the x prefix spans, one table read off the R factor
    of :func:`prefix_coordinates` (the x side forms no Q).  They decide most
    k (Frobenius norm within span_tol: equal; a column above it: unequal);
    the rest, and every k past the first row either side drops as
    dependent, :func:`span_equal` decides.  Start 1 factors all n rows,
    later starts windows of 16 rows, quadrupled until one closes: O(d w^2)
    per window of w rows.
    """
    tol = xsys.tol.span_tol
    if zsys.size != xsys.size:
        raise ArgumentError("systems must have equal length")
    n = zsys.size
    hits = _agreements(zsys, xsys, 1, tol, width=n)
    prefixes = tuple(int(k) + 1 for k in hits)
    intervals = []
    start = 1
    while hits.size:
        intervals.append((start, start + int(hits[0])))
        start += int(hits[0]) + 1
        if start > n:
            break
        hits = _agreements(zsys, xsys, start, tol)
    if intervals and start == n + 1:
        return PerturbationClass("block", IntervalFamily(tuple(intervals)), prefixes)
    if prefixes:
        rights = tuple((1, m) for m in prefixes)
        return PerturbationClass("pile", IntervalFamily(rights), prefixes)
    return PerturbationClass("neither", None, ())
