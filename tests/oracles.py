"""Superseded implementations kept as test oracles.

These are the incremental Gram-Schmidt ``spanning_indices``, the
projector-gap ``classify_perturbation``, the Gram-Schmidt loops of the
representing-index window search and of the pathological-system
verification, and the SVD-per-prefix representing and norming index
builders, which the orthonormal-prefix kernel replaced.  They are slow (O(n^3)-ish Python loops and a full
projector SVD per prefix) but transparently follow the definitions, so
the kernel-based diagnostics are required to agree with them exactly.
"""

from __future__ import annotations

import math

import numpy as np

from mbasis_lab.biorth import (
    BiorthSystem,
    IntervalFamily,
    PerturbationClass,
    norming_constant_estimate,
)
from mbasis_lab.errors import ArgumentError, ConstructionError
from mbasis_lab.representing import RepresentingIndices
from mbasis_lab.subspace import ToleranceConfig, orthonormal_rows, span_equal


class _PrefixSpan:
    """Incrementally grown orthonormal basis of row prefixes."""

    def __init__(self, rows: np.ndarray, rank_tol: float):
        self.rows = rows
        self.rank_tol = rank_tol
        self.basis: list[np.ndarray] = []
        self.used = 0

    def grow(self):
        """Append the next row's new direction (if any) to the basis."""
        r = self.rows[self.used].astype(float)
        scale = np.linalg.norm(r)
        for b in self.basis:
            r = r - (b @ r) * b
        # one reorthogonalization pass keeps the basis clean
        for b in self.basis:
            r = r - (b @ r) * b
        nrm = np.linalg.norm(r)
        if scale > 0 and nrm > self.rank_tol * scale:
            self.basis.append(r / nrm)
        self.used += 1

    def residual(self, v: np.ndarray) -> np.ndarray:
        for b in self.basis:
            v = v - (b @ v) * b
        return v


def spanning_indices(zsys: BiorthSystem, xsys: BiorthSystem, tol: float | None = None) -> list[int]:
    """The spanning indices q(m) of ``zsys`` relative to ``xsys``.

    q(m) is the least q such that every z_n and z_n* with n <= m lies
    within ``tol`` of span{x_1..x_q} resp. span{f_1..f_q} (distances taken
    on normalized vectors).  Raises when no q <= |xsys| works, naming the
    offending m.  The result is non-decreasing and q(m) >= m is verified.
    """
    tol = xsys.tol.span_tol if tol is None else tol
    if zsys.ambient_dim != xsys.ambient_dim:
        raise ArgumentError("systems live in different ambient dimensions")
    x_span = _PrefixSpan(xsys.xs, xsys.tol.rank_tol)
    f_span = _PrefixSpan(xsys.fs, xsys.tol.rank_tol)
    pending: list[np.ndarray] = []
    q = 0
    out = []
    for m in range(1, zsys.size + 1):
        zn = zsys.x(m)
        fn = zsys.f(m)
        for v, span in ((zn, x_span), (fn, f_span)):
            nrm = np.linalg.norm(v)
            if nrm == 0:
                raise ArgumentError(f"zero vector at position {m}")
            pending.append(span.residual(v / nrm))
        span_of = [x_span, f_span] * (len(pending) // 2)
        while any(np.linalg.norm(r) > tol for r in pending):
            if q >= xsys.size:
                raise ArgumentError(
                    f"no q <= {xsys.size} spans the first {m} pairs within tol {tol}"
                )
            x_span.grow()
            f_span.grow()
            q += 1
            pending = [
                (x_span if i % 2 == 0 else f_span).residual(r)
                for i, r in enumerate(pending)
            ]
        q_m = max(q, m)
        if q_m < m:
            raise ConstructionError(f"q({m}) = {q_m} fell below m; degenerate input")
        out.append(q_m)
    return out


def _prefix_agreements(zsys: BiorthSystem, xsys: BiorthSystem, tol: float) -> list[int]:
    out = []
    for m in range(1, min(zsys.size, xsys.size) + 1):
        if span_equal(zsys.xs[:m], xsys.xs[:m], tol) and span_equal(
            zsys.fs[:m], xsys.fs[:m], tol
        ):
            out.append(m)
    return out


def classify_perturbation(zsys: BiorthSystem, xsys: BiorthSystem,
                          tol: float | None = None) -> PerturbationClass:
    """Classify ``zsys`` as a block or pile perturbation of ``xsys``.

    Block boundaries are found greedily left to right, closing each
    interval at the earliest index where both span equalities hold; this
    yields the maximal refinement when one exists.  Every block verdict
    also satisfies the pile predicate (asserted).
    """
    tol = xsys.tol.span_tol if tol is None else tol
    if zsys.size != xsys.size:
        raise ArgumentError("systems must have equal length")
    n = zsys.size
    intervals = []
    start = 1
    for end in range(1, n + 1):
        zs = zsys.xs[start - 1:end]
        xs = xsys.xs[start - 1:end]
        zfs = zsys.fs[start - 1:end]
        xfs = xsys.fs[start - 1:end]
        if span_equal(zs, xs, tol) and span_equal(zfs, xfs, tol):
            intervals.append((start, end))
            start = end + 1
    block = start == n + 1 and intervals
    prefixes = tuple(_prefix_agreements(zsys, xsys, tol))
    if block:
        fam = IntervalFamily(tuple(intervals))
        assert prefixes, "block verdict must imply the pile predicate"
        return PerturbationClass("block", fam, prefixes)
    if prefixes:
        rights = tuple((1, m) for m in prefixes)
        return PerturbationClass("pile", IntervalFamily(rights), prefixes)
    return PerturbationClass("neither", None, ())


def _least_window_end(sys: BiorthSystem, head_end: int, delta: float) -> int:
    """Least p > head_end passing the spectral window criterion.

    p = N always passes: there the window equals the tail exactly, so the
    distance difference vanishes identically regardless of delta.
    """
    N = sys.size
    tol = sys.tol.rank_tol
    QH = orthonormal_rows(sys.xs[:head_end], tol)
    if QH.shape[0] == 0:
        return head_end + 1
    Qtail = orthonormal_rows(sys.xs[head_end:], tol)
    A = QH @ Qtail.T
    target = A @ A.T
    mid_basis: list[np.ndarray] = []
    M = np.zeros_like(target)
    for p in range(head_end + 1, N + 1):
        row = sys.xs[p - 1].astype(float)
        scale = np.linalg.norm(row)
        for b in mid_basis:
            row = row - (b @ row) * b
        for b in mid_basis:
            row = row - (b @ row) * b
        nrm = np.linalg.norm(row)
        if scale > 0 and nrm > tol * scale:
            u = row / nrm
            mid_basis.append(u)
            w = QH @ u
            M = M + np.outer(w, w)
        if p == N:
            return N
        s2 = float(np.linalg.eigvalsh(target - M)[-1])
        if math.sqrt(max(s2, 0.0)) <= delta:
            return p
    return N


def window_approximation_defect(sys: BiorthSystem, head_end: int, p: int) -> float:
    """Worst over the head unit sphere of dist(z, window) - dist(z, tail),
    bounded through the restricted projector difference (0 for an empty
    head and at p = N)."""
    N = sys.size
    if not head_end < p <= N:
        raise ArgumentError(f"need head_end < p <= {N}, got ({head_end}, {p})")
    if p == N:
        return 0.0
    tol = sys.tol.rank_tol
    QH = orthonormal_rows(sys.xs[:head_end], tol)
    if QH.shape[0] == 0:
        return 0.0
    Qtail = orthonormal_rows(sys.xs[head_end:], tol)
    Qmid = orthonormal_rows(sys.xs[head_end:p], tol)
    A = QH @ Qtail.T
    B = QH @ Qmid.T
    eigs = np.linalg.eigvalsh(A @ A.T - B @ B.T)
    return math.sqrt(max(float(eigs[-1]), 0.0))


def _pair_norm_sums(sys: BiorthSystem) -> np.ndarray:
    prods = np.linalg.norm(sys.xs, axis=1) * np.linalg.norm(sys.fs, axis=1)
    return np.concatenate([[0.0], np.cumsum(prods)])


def build_representing_indices(sys: BiorthSystem, depth: int) -> RepresentingIndices:
    """Representing indices r(1..depth) with r(1) = 1 (plain search)."""
    if depth < 1:
        raise ArgumentError("depth must be at least 1")
    N = sys.size
    if N < 1:
        raise ArgumentError("empty system")
    sums = _pair_norm_sums(sys)
    values = [1]
    deltas = [math.inf]
    interim = [1]
    for m in range(1, depth):
        r_prev = values[-1]
        if r_prev >= N:
            raise ArgumentError(
                f"truncation exhausted: r({m}) = {r_prev} is the truncation end; "
                f"reachable depth is {m}"
            )
        delta = 1.0 / (m * sums[r_prev])
        p = _least_window_end(sys, r_prev, delta)
        values.append(p)
        deltas.append(delta)
        interim.append(p)
    return RepresentingIndices(tuple(values), tuple(deltas), tuple(interim))


def norming_property_minimum(sys: BiorthSystem, p: int, rho: int) -> float:
    """Smallest singular value of the cross matrix between the SVD bases of
    f_1..f_rho and x_1..x_p."""
    tol = sys.tol.rank_tol
    QH = orthonormal_rows(sys.xs[:p], tol)
    QF = orthonormal_rows(sys.fs[:rho], tol)
    if QH.shape[0] == 0:
        return 1.0
    if QF.shape[0] < QH.shape[0]:
        return 0.0
    s = np.linalg.svd(QF @ QH.T, compute_uv=False)
    return float(s[-1])


def build_norming_indices(sys: BiorthSystem, depth: int, c: float) -> RepresentingIndices:
    """Representing indices widened, one SVD pair per candidate rho, until
    the norming property holds at level ``c``."""
    if depth < 1:
        raise ArgumentError("depth must be at least 1")
    if c <= 0:
        raise ArgumentError("c must be positive")
    est = norming_constant_estimate(sys, samples=max(64, 2 * sys.size), seed=0)
    if c > est / 2.0 + 1e-12:
        raise ArgumentError(
            f"c = {c} exceeds half the measured norming constant {est:.6f}"
        )
    N = sys.size
    sums = _pair_norm_sums(sys)
    values: list[int] = []
    deltas: list[float] = []
    interim: list[int] = []
    r_prev = 0
    for m in range(depth):
        if r_prev >= N:
            raise ArgumentError(
                f"truncation exhausted: r({m}) = {r_prev} is the truncation end; "
                f"reachable depth is {m}"
            )
        if r_prev == 0:
            delta = math.inf
            p = 1
        else:
            delta = 1.0 / (m * sums[r_prev])
            p = _least_window_end(sys, r_prev, delta)
        rho = p
        while norming_property_minimum(sys, p, rho) < c:
            rho += 1
            if rho > N:
                raise ArgumentError(
                    f"norming property unattainable within the truncation at step {m + 1} "
                    f"(interim p = {p}, c = {c})"
                )
        values.append(rho)
        deltas.append(delta)
        interim.append(p)
        r_prev = rho
    return RepresentingIndices(tuple(values), tuple(deltas), tuple(interim), norming_c=c)


def _verify_pathological(X, F, Ehat, pi_t, eps, tol: ToleranceConfig):
    M = X.shape[0]
    gram = F @ X.T
    defect = float(np.max(np.abs(gram - np.eye(M))))
    if defect > tol.biorth_tol:
        raise ConstructionError(f"biorthogonality defect {defect:.3e} above tolerance")
    # correction budgets
    for n in range(M):
        diff = Ehat[n].copy()
        diff[n] -= 1.0
        if np.linalg.norm(diff) > eps[n] + 1e-15:
            raise ConstructionError(f"correction at step {n + 1} exceeds its budget")
    # prefix vector spans: x_m must sit in the e_hat prefix span, which has
    # full rank by the unit diagonal; one reorthogonalized MGS pass suffices
    basis: list[np.ndarray] = []
    for m in range(M):
        row = Ehat[m].astype(float)
        for b in basis:
            row -= (b @ row) * b
        for b in basis:
            row -= (b @ row) * b
        nrm = np.linalg.norm(row)
        if nrm <= tol.rank_tol:
            raise ConstructionError(f"e_hat prefix rank deficient at {m + 1}")
        basis.append(row / nrm)
        resid = X[m].astype(float)
        scale = np.linalg.norm(resid)
        for b in basis:
            resid -= (b @ resid) * b
        if np.linalg.norm(resid) > tol.span_tol * max(scale, 1.0):
            raise ConstructionError(f"vector prefix span equality fails at {m + 1}")
    # prefix dual spans: exact support containment plus full rank
    covered: set = set()
    for m in range(M):
        covered.add(int(pi_t[m]) - 1)
        support = set(np.nonzero(F[m])[0])
        if not support <= covered:
            raise ConstructionError(f"functional {m + 1} leaves its coordinate span")
