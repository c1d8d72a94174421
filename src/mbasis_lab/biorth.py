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
from functools import cached_property

import numpy as np

from .errors import ArgumentError
from .subspace import (
    ToleranceConfig,
    _raised,
    _sigma_bound,
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
    The defect is formed once per system: the arrays are read-only, and
    :meth:`prefix` and ``dataclasses.replace`` build new systems.
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

    @cached_property
    def _defect(self) -> float:
        if self.size == 0:
            return 0.0
        return float(np.max(np.abs(self.fs @ self.xs.T - np.eye(self.size))))

    def validate(self):
        defect = self._defect
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
    """max over (k, n) of |<f_k, x_n> - delta_{k,n}|, the value
    ``validate`` checks, formed once per system."""
    return sys._defect


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


def _unit_distances(Z: np.ndarray, X: np.ndarray, rank_tol: float):
    """``(norms, dist, rank)``: the row norms of ``Z`` and the
    :func:`prefix_coordinates` table of its unit rows (a zero row stays
    zero) against the rows of ``X``, so ``dist[j, rank[k]]`` is the
    distance from z_j / ||z_j|| to span{x_1..x_k}.  One R-only QR; no Q is
    formed."""
    norms = np.linalg.norm(Z, axis=1)
    _, dist, rank = prefix_coordinates(X, Z / np.where(norms > 0, norms, 1.0)[:, None], rank_tol)
    return norms, dist, rank


def spanning_indices(zsys: BiorthSystem, xsys: BiorthSystem) -> list[int]:
    """The spanning indices q(m) of ``zsys`` relative to ``xsys``.

    q(m) >= m is the least q such that every z_n and z_n* with n <= m lies
    within ``xsys.tol.span_tol`` of span{x_1..x_q} resp. span{f_1..f_q}
    (distances taken on normalized vectors); raises naming the first m no
    q <= |xsys| serves.
    Per side, the distance table of the normalized z rows against the x
    rows (:func:`_unit_distances`, which the classifier's start-1 bracket
    shares; Gram-Schmidt rank semantics at ``xsys.tol.rank_tol``, no Q
    formed) tabulates dist(z_n, span{x_1..x_q}) for all (n, q), and q(m)
    is a running maximum.  Cost O(d n^2).
    """
    tol = xsys.tol.span_tol
    if zsys.ambient_dim != xsys.ambient_dim:
        raise ArgumentError("systems live in different ambient dimensions")
    need = np.zeros(zsys.size)
    zero = np.zeros(zsys.size, dtype=bool)
    for zs, xs in ((zsys.xs, xsys.xs), (zsys.fs, xsys.fs)):
        norms, dist, rank = _unit_distances(zs, xs, xsys.tol.rank_tol)
        zero |= norms == 0
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


def _defect_sums(vs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """The 2-D prefix sums of E^2 for the pairing defect E = fs vs^T - I:
    entry [k, j] is the squared Frobenius norm of E[:k, :j].  One product."""
    n = len(vs)
    T = np.zeros((n + 1,) * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        E = fs @ vs.T
        E.ravel()[:: n + 1] -= 1.0
        np.cumsum(np.square(E, out=E), axis=0, out=E)
        np.cumsum(E, axis=1, out=T[1:, 1:])
    return T


def _certified_prefixes(Z: np.ndarray, G: np.ndarray, rank_tol: float, S=None):
    """The left-inverse certificate of every row prefix of the pairing
    G Z^T = I, per side: ``((sigma_z, K_z), (sigma_g, K_g))``.

    ``sigma_z[k - 1]`` is the bound of ``subspace._left_inverse_bound`` for
    the first k rows, G_k the left inverse of Z_k, so at most sigma_min of
    the unit rows of Z_k: (1 - delta_k) / (||G_k|| max_{j<=k} ||z_j||),
    through ``subspace._sigma_bound``, with ||G_k Z_k^T - I||_F, raised,
    in place of k times the defect.  That norm is read off the diagonal of
    ``S``, the :func:`_defect_sums` of the pairing (formed when not given),
    and the norms off running sums and maxima of the squared row norms.
    ``K_z`` counts the leading prefixes whose cut clears ``rank_tol``, so
    the kernel's rank test keeps every row of Z_k for k <= K_z.  The G side
    swaps Z and G.  A bound past the float range, or NaN for a row whose
    sum of squares is not a normal float with a factor 2 to spare,
    certifies nothing, and neither does any later prefix.
    """
    n, d = Z.shape
    S = _defect_sums(Z, G) if S is None else S
    k = np.arange(1, n + 1)
    info = np.finfo(float)
    sides = []
    with np.errstate(all="ignore"):  # a value past the float range certifies nothing
        e = _raised(np.sqrt(np.diagonal(S)[1:]), k * k)
        sq = [np.sum(np.square(M), axis=1) for M in (Z, G)]
        nz, ng = (_raised(np.sqrt(np.cumsum(s)), k * d) for s in sq)
        for s, nF, nV in ((sq[0], ng, nz), (sq[1], nz, ng)):
            top = np.maximum.accumulate(s)
            normal = (np.minimum.accumulate(s) >= 2 * info.tiny) & (top <= info.max / 2)
            vmax = np.where(normal, _raised(np.sqrt(top), k * d), np.nan)
            sigma, cut, _ = _sigma_bound(e, nF, nV, vmax, k, d)
            sides.append((sigma, int(np.argmin(np.append(cut > rank_tol, False)))))
    return tuple(sides)


def _leading(rank: np.ndarray) -> int:
    """The number of leading rows a prefix rank table keeps."""
    return int(np.sum(rank[1:] == np.arange(1, rank.size)))


def _prefix_agreement(Z: np.ndarray, X: np.ndarray, sigma: np.ndarray, K: int, tol: float,
                      rank_tol: float):
    """``(equal, low, high)``: entry k - 1 of ``equal`` is
    ``span_equal(Z[:k], X[:k], tol, rank_tol)``; for k up to K, entries
    k - 1 of ``low`` and ``high`` bracket gap(Z[:k], X[:k]), read off one
    distance table (:func:`_unit_distances`): low the largest distance
    from a unit row z_j / ||z_j||, j <= k, to span X_k, and high the 2-norm
    of those k distances over sigma[k - 1].  K counts the prefixes both
    the certificate of Z (the first K given, :func:`_certified_prefixes`,
    whose ``sigma`` this is) and X's rank test keep.  ``high`` plus its
    floor within tol decides equal and ``low`` less its floor above it
    unequal (:func:`_floors`); the rest, and every k past K,
    :func:`span_equal` decides.  Cost O(d n^2) for n rows.
    """
    _, dist, rank = _unit_distances(Z, X, rank_tol)
    K = min(K, _leading(rank))
    # column k - 1: dist(z_j / ||z_j||, span X_k) for j < k
    cols = np.triu(dist[:K, 1:K + 1])
    low = cols.max(axis=0, initial=0.0)
    high = np.sqrt(np.sum(np.square(cols), axis=0)) / sigma[:K]
    phi, slack = _floors(Z.shape[1], sigma[:K])
    equal = np.zeros(len(X), dtype=bool)
    equal[:K] = high + slack <= tol
    undecided = np.flatnonzero(~equal[:K] & (low - phi <= tol))
    for k in [*(undecided + 1).tolist(), *range(K + 1, len(X) + 1)]:
        equal[k - 1] = span_equal(Z[:k], X[:k], tol, rank_tol)
    return equal, low, high


def _agreements(zsys: BiorthSystem, xsys: BiorthSystem, start: int, tol: float,
                width: int = 16, certs=None):
    """``(hits, low, high)``: the offsets k - 1 at which rows
    start..start+k-1 (1-based) agree on both sides, over windows of
    ``width`` rows quadrupled until one agrees, ranks decided at
    ``xsys.tol.rank_tol``; and, for the first K of those row blocks, K the
    shorter of the two sides' (:func:`_prefix_agreement`), the larger of
    the two sides' ``low`` and ``high`` bounds on their gaps.  ``certs``
    holds the :func:`_certified_prefixes` of the first window's rows of
    ``zsys``, formed when not given."""
    rank_tol = xsys.tol.rank_tol
    while True:
        rows = slice(start - 1, min(zsys.size, start - 1 + width))
        Z, G = zsys.xs[rows], zsys.fs[rows]
        certs = _certified_prefixes(Z, G, rank_tol) if certs is None else certs
        (eq_x, low_x, high_x), (eq_f, low_f, high_f) = (
            _prefix_agreement(V, W[rows], sigma, K, tol, rank_tol)
            for V, W, (sigma, K) in zip((Z, G), (xsys.xs, xsys.fs), certs))
        hits = np.flatnonzero(eq_x & eq_f)
        if hits.size or rows.stop == zsys.size:
            K = min(low_x.size, low_f.size)
            return (hits, np.maximum(low_x[:K], low_f[:K]),
                    np.maximum(high_x[:K], high_f[:K]))
        width *= 4
        certs = None


def _pairing_tables(zsys: BiorthSystem, xsys: BiorthSystem):
    """Prefix tables of the two pairings, index k for the first k rows:
    ``kappa[k]`` = max(||X_k|| ||F_k||, ||Z_k|| ||G_k||) and ``mu[k]`` the
    largest of the four norms (Frobenius, from running sums of the squared
    row norms), the two :func:`_defect_sums` ``S`` of E^2 for the defects
    E = F X^T - I and G Z^T - I, and the :func:`_certified_prefixes` of
    ``zsys`` read off the second.  One n x n product per system.  An entry
    past the float64 range reads inf or nan, and no bound that reads it
    decides."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = [np.concatenate([[0.0], np.cumsum(np.sum(np.square(M), axis=1))])
              for M in (xsys.xs, xsys.fs, zsys.xs, zsys.fs)]
        kappa = np.sqrt(np.maximum(sq[0] * sq[1], sq[2] * sq[3]))
    S = [_defect_sums(vs, fs) for vs, fs in ((xsys.xs, xsys.fs), (zsys.xs, zsys.fs))]
    certs = _certified_prefixes(zsys.xs, zsys.fs, xsys.tol.rank_tol, S[1])
    return kappa, np.sqrt(np.max(sq, axis=0)), S, certs


def _floors(d: int, *sigmas: np.ndarray):
    """``(phi, slack)`` for the prefixes k = 1..K, K the length of each
    certificate in ``sigmas``: phi_k = 4 d u sqrt(k), the floor of a read
    of k distance-table entries, and slack_k the floor of ``high``, the
    largest phi_k / sigma_k; except 0.0 where X_k is the whole space
    (k = d), whose distances are exact zeros."""
    k = np.arange(1, len(sigmas[0]) + 1)
    phi = 4 * d * np.finfo(float).eps / 2 * np.sqrt(k)
    return phi, np.where(k < d, phi / np.min(sigmas, axis=0), 0.0)


def _interval_bounds(p: int, low: np.ndarray, high: np.ndarray, tables):
    """``(lower, upper)``: the bounds of :func:`classify_perturbation` on the
    gap of rows p+1..b, for b = p+1..K, read off the start-1 tables."""
    kappa, mu, (SX, SZ), _ = tables
    b = np.arange(p + 1, low.size + 1)
    eps = np.sqrt(np.maximum(SX[b, b], SZ[b, b]))
    eta = np.sqrt(np.max([SX[p, b], SX[b, p], SZ[p, b], SZ[b, p]], axis=0))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = np.where(eps < 1, 1 / (1 - eps), np.inf)
        kp, hp, defect = kappa[p], high[p - 1], eta * c * mu[p] * mu[b]
        upper = high[b - 1] + kp * (hp + high[b - 1]) + defect * (1 + kp * c)
        lower = (low[b - 1] - (kp + defect) * hp) / (1 + kp + defect)
    return lower, upper


def _bounded_end(p: int, low: np.ndarray, high: np.ndarray, floors, tables, tol: float):
    """The greedy end of the interval from p + 1 where the bounds decide it,
    ``floors`` the :func:`_floors` of the start-1 tables: ``[b - p - 1]``
    for the least agreeing end b, ``[]`` when every end disagrees, and
    ``None`` when an end before the first agreeing one is undecided or past
    K (p >= K included)."""
    kappa = tables[0]
    K, n = low.size, kappa.size - 1
    if p >= K:
        return None
    lower, upper = _interval_bounds(p, low, high, tables)
    phi, slack = (f[p:] for f in floors)
    sp = floors[1][p - 1]
    with np.errstate(invalid="ignore"):
        apart = lower - np.maximum(phi, sp) - phi > tol
        agree = upper + (1 + kappa[p]) * slack + kappa[p] * sp + phi <= tol
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

    Write Z, G for ``zsys``' vectors and functionals, X, F for ``xsys``'
    and A_k for the first k rows of A.  Start 1's bracket forms no Q.  Per
    side it reads one distance table, that of the unit rows z_j / ||z_j||
    to every prefix span X_k, off the R factor of one
    :func:`prefix_coordinates` (:func:`_unit_distances`).  Where Z_k and
    X_k both have rank k, their gap delta_k is the largest distance from a
    unit vector of span Z_k to span X_k (principal angles, Bjorck & Golub
    1973), so:

    - low_k = max_{j<=k} dist(z_j / ||z_j||, span X_k) <= delta_k, since
      each unit row is a unit vector of span Z_k;
    - delta_k <= high_k = ||(dist(z_j / ||z_j||, span X_k))_{j<=k}||_2
      / sigma_k, where sigma_k <= sigma_min of the unit rows of Z_k.  A
      unit u of span Z_k is sum_j alpha_j z_j / ||z_j|| with ||alpha|| <=
      1 / sigma_k, and the part of u outside span X_k is the same sum of
      the rows' parts, of norm at most ||alpha|| times the 2-norm of their
      distances (Cauchy-Schwarz).

    sigma_k is the left-inverse lemma of ``subspace._left_inverse_bound``
    for the first k pairs, G_k the left inverse of Z_k: (1 - delta'_k) /
    (||G_k|| max_{j<=k} ||z_j||), delta'_k from ||G_k Z_k^T - I||_F, read
    off the 2-D prefix sums of E^2 below, and the norms from running sums
    (:func:`_certified_prefixes`).  Its cut above rank_tol certifies that
    the kernel's rank test keeps all k rows of Z_k, which is Z's rank
    test; X's is the rank table of the same QR.  The functional side swaps
    Z and G, X and F.  The bracket holds for k <= K, the leading prefixes
    that pass both sides' tests; delta_k is the larger of the two sides'.
    high_k plus its floor s_k (below) within span_tol decides a prefix
    equal, and low_k less phi_k above it unequal.  :func:`span_equal`
    decides the rest and every prefix past K (:func:`_prefix_agreement`);
    the pathological system's functionals, whose norms reach 1e153, stop
    their certificate after a few prefixes.

    Later intervals I = [p + 1, b] are decided off those tables.  For
    exactly biorthogonal pairs span Z_I = span Z_b intersected with
    (span G_p)^perp, the same for X and F, and for the functionals with
    the roles swapped.  Let kappa_p = max(||X_p|| ||F_p||, ||Z_p|| ||G_p||)
    and mu_k the largest of the four prefix-k norms (Frobenius, from
    running sums).  The pairing defects E = F X^T - I and G Z^T - I are
    read only on the blocks the identity uses, off 2-D prefix sums of E^2
    (:func:`_pairing_tables`): eta the largest ||E[:p, :b]|| or
    ||E[:b, :p]||, eps the larger ||E[:b, :b]||, c = 1 / (1 - eps) and
    t = eta c mu_p mu_b.  For b <= K and eps < 1 (:func:`_interval_bounds`):

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
    below.  The distance table holds each distance of a unit row to
    4 d u (d the ambient dimension, u the unit roundoff, the floor the
    kernel's tests hold it to), so low, a maximum of at most b entries,
    and the window's own gap err by at most phi_b = 4 d u sqrt(b), and
    high_k, a 2-norm of k entries over sigma_k, by at most s_k =
    phi_k / sigma_k (:func:`_floors`).
    Where X_k is the whole space (k = d), R22 is empty, the distances are
    exact zeros and s_k = 0.
    lower is a weighted mean of low_b and -high_p, so it errs by at most
    the larger of phi_b and s_p; upper by (1 + kappa_p) s_b + kappa_p s_p.
    Scanning b upward from p + 1, an end disagrees when the lower bound
    less that error and phi_b exceeds span_tol, and agrees when the upper
    bound plus its error and phi_b is within it; the first end that does
    not disagree closes the interval if it agrees.  If it is undecided, if
    every end through K < n disagrees, or if p >= K, the window search of
    :func:`_agreements` decides that start as before: windows of 16 rows,
    quadrupled until one closes, each bracketed as start 1 is, with the
    certificate of its own pairing, O(d w^2) per window of w rows.  A
    decided window needs no rank check of its own: in exact arithmetic a
    row that passes Gram-Schmidt's test against all earlier rows passes it
    against the window's.  The tables cost one n x n product per system
    and O(n^2) prefix sums, and a decided start O(n).
    """
    if zsys.ambient_dim != xsys.ambient_dim:
        raise ArgumentError("systems live in different ambient dimensions")
    tol = xsys.tol.span_tol
    if zsys.size != xsys.size:
        raise ArgumentError("systems must have equal length")
    n = zsys.size
    tables = _pairing_tables(zsys, xsys)
    hits, low, high = _agreements(zsys, xsys, 1, tol, width=n, certs=tables[3])
    prefixes = tuple(int(k) + 1 for k in hits)
    floors = _floors(zsys.ambient_dim, *(sigma[:low.size] for sigma, _ in tables[3]))
    intervals = []
    start = 1
    while hits.size:
        intervals.append((start, start + int(hits[0])))
        start += int(hits[0]) + 1
        if start > n:
            break
        hits = _bounded_end(start - 1, low, high, floors, tables, tol)
        if hits is None:
            hits = _agreements(zsys, xsys, start, tol)[0]
    if intervals and start == n + 1:
        return PerturbationClass("block", IntervalFamily(tuple(intervals)), prefixes)
    if prefixes:
        rights = tuple((1, m) for m in prefixes)
        return PerturbationClass("pile", IntervalFamily(rights), prefixes)
    return PerturbationClass("neither", None, ())
