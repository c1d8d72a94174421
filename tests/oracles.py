"""Superseded implementations kept as test oracles.

These are the SVD ``orthonormal_rows`` and the projector ``span_gap``,
which the QR prefix kernel and the sine form replaced, the incremental
Gram-Schmidt ``spanning_indices``, the projector-gap
``classify_perturbation``, the Gram-Schmidt loops of the
representing-index window search and of the pathological-system
verification, the float cascade of the pathological system that calls
that verification, which the exact exponent cascade and its certifier
replaced, and the SVD-per-prefix representing and norming index
builders, which the orthonormal-prefix kernel replaced, and the per-cell
matrix CSV writer, which the once-per-distinct-value writer replaced.
The per-n staircase, permutation, relabelling and permutation-table loops,
the staircase conditions, count identity and overlap sizes checked at every
n, the full-SVD operator T, the dense orthonormalization of the e_hat rows,
the Gram form of T one component at a time, the difference-tensor rough
separation and the per-row distortion bounds follow; array expressions over
the jump points, T and its norms from stacked per-block solves and
eigenvalues, the same QR one stacked call per block group, and a
row-by-row minimum replaced them; the every-n checks gave way to the same
checks where a step function changes, at the jump points and the exact
entries of Phi and pi.
Last come the window table, ``distance_to_span``, ``project``, the
per-row span check of ``flattened_from_duals`` and the ``tail_norms``
distance table as they were when they formed the Q of the QR kernel;
coordinates and distances read off the R factor of one augmented QR
replaced them.
The sphere nets ``unit_net``, which only the tests use, and the per-row
uniform minimality constant, which one inverse of the kernel's R factor
replaced, follow.
Last come definitions no command reaches, which only acceptance
criterion 5 and the tests use: the rough-system chain (``RoughSystem``,
``rough_defect``, the row-by-row ``rough_separation``,
``extract_rough_system``, ``orthonormalized_duals`` and
``greedy_rough_packing``), the set form ``omega_set`` that the cumulative
``PermutationSpec.omega_sizes`` is checked against, and
``block_duality_check``, which cross-checks the block verdicts of
``classify_perturbation`` through complements.
After them come the flattening by plain loops (modified Gram-Schmidt of
each block's functional rows, the anchor first, and a full-width dual
solve), which the per-block QR on the block's own columns replaced, and
the full-width ``verify_flattened``.  Then comes the QR kernel
``_prefix_qr`` as it was when every row went through the Householder QR;
the kernel now keeps each isolated unit row as its own direction and
factors only the coupled rows.  Last are three reads of one number by a
full factorization: the norming constant's SVD of the whole cross matrix,
``project``'s LU solve of all of R11 (``project_lu``) and the span gap's
SVD norm of the residual.  The package drops the unit directions both
factors share, reads the unit coefficients off R12 and solves only the
coupled triangle, and takes sigma_max off the residual's smaller Gram.
After them come the span gaps as they were when they formed a basis of
each span; the package reads the rank of the second span and the distance
to it off one R-only QR of its rows against the first basis.
Then comes the orthonormalization of the e_hat rows as one stacked
Householder QR per group of coordinate components,
``block_gram_schmidt_rows``; the kernel, which keeps each isolated row as
its own direction, replaced it.
Last are two definitions that only the tests read: the block-kind witness
scan of a partition, ``interval_witness``, and the reader of an index table,
``load_indices``.
They are slow (O(n^3)-ish Python loops and a full projector SVD per
prefix) but transparently follow the definitions, so the kernel-based
diagnostics and the writer are required to agree with them exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from mbasis_lab import subspace
from mbasis_lab.biorth import (
    BiorthSystem,
    IntervalFamily,
    PerturbationClass,
)
from mbasis_lab.errors import ArgumentError, ConstructionError
from mbasis_lab.io import _open_text, fmt
from mbasis_lab.pathology import (
    BEYOND_TABLE,
    EPS_SQ_BUDGET,
    PermutationSpec,
    PhiTable,
    TOperator,
    _as_f_table,
    _block_groups,
    _check_eps_budget,
    verify_injective,
)
from mbasis_lab.representing import RepresentingIndices
from mbasis_lab.subspace import (
    ToleranceConfig,
    as_vector,
    directed_span_gap,
    prefix_bases,
    span_matrix,
)
from mbasis_lab.subspace import orthonormal_rows as qr_rows
from mbasis_lab.subspace import span_equal as qr_span_equal
from mbasis_lab.subspace import span_gap as qr_span_gap


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
    the norming property holds at level ``c``; c is admitted against half
    the SVD-pair norming constant ``norming_property_minimum(sys, N, N)``."""
    if depth < 1:
        raise ArgumentError("depth must be at least 1")
    if c <= 0:
        raise ArgumentError("c must be positive")
    const = norming_property_minimum(sys, sys.size, sys.size)
    if c > const / 2.0 + 1e-12:
        raise ArgumentError(
            f"c = {c} exceeds half the measured norming constant {const:.6f}"
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


def build_pathological_system(spec: PermutationSpec, eps_seq, M: int,
                              ambient: int | None = None,
                              tol: ToleranceConfig | None = None):
    """Inductive near-canonical system over the permuted dual coordinates.

    Returns (system, E), E the M x ambient matrix of rows e_hat_n, with,
    for every prefix m: the vectors span exactly the e_hat prefix span,
    the functionals span exactly the permuted canonical coordinates
    pi(1..m), the corrections satisfy ||e_hat_n - e_n|| <= eps_n, and the
    system is biorthogonal.  All four facts are machine-verified before
    returning.

    Permutation values beyond M are relabeled order-preservingly into
    (M, M + count]; ``ambient`` defaults to the top of that range, and an
    explicit value below it is refused.  Corrections use the largest power
    of two at most each eps_n, read off its binary exponent, which makes
    the cascade coefficients exact in floating point.
    """
    tol = tol or ToleranceConfig()
    if M < 1:
        raise ArgumentError("M must be at least 1")
    eps = np.asarray(eps_seq, dtype=float)
    if eps.size < M:
        raise ArgumentError(f"eps sequence of length {eps.size} shorter than M={M}")
    if not np.all(eps >= 0):
        raise ArgumentError("eps entries must be nonnegative")
    _check_eps_budget(eps)
    pi_t = spec.compactified(M, keep_below=M)
    required = int(max(M, pi_t.max()))
    if ambient is None:
        ambient = required
    elif ambient < required:
        raise ArgumentError(
            f"ambient {ambient} too small: the permuted coordinates need "
            f"{required}; pass a larger ambient"
        )

    moved = pi_t != np.arange(1, M + 1)
    starved = np.flatnonzero(moved & (eps[:M] <= 0.0))
    if starved.size:
        n = int(starved[0]) + 1
        raise ConstructionError(
            f"step {n} needs a correction toward coordinate {pi_t[n - 1]} "
            f"but eps_{n} is zero; enlarge the budget"
        )
    # eps_n = m * 2^e with 1/2 <= m < 1 exactly, so 2^(e-1) <= eps_n
    t = np.zeros(M + 1)
    t[1:] = np.where(moved, np.ldexp(1.0, np.frexp(eps[:M])[1] - 1), 0.0)

    preimage = {int(pi_t[k - 1]): k for k in range(1, M + 1)}

    def _guard(value: float, where: str):
        if value == 0.0 or not math.isfinite(value):
            raise ConstructionError(
                f"cascade coefficient degenerate at {where}; enlarge eps or "
                "reduce the truncation"
            )
        if abs(math.frexp(value)[1]) > 980:
            raise ConstructionError(
                f"cascade coefficient exponent overflow at {where}; enlarge eps "
                "or reduce the truncation"
            )

    X = np.zeros((M, ambient))
    F = np.zeros((M, ambient))
    Ehat = np.zeros((M, ambient))

    for n in range(1, M + 1):
        target = int(pi_t[n - 1])
        Ehat[n - 1, n - 1] = 1.0
        if target != n:
            Ehat[n - 1, target - 1] = t[n]

        # functional cascade: start at the new coordinate, push each forced
        # coefficient through the constraints of the earlier corrections
        fcoef = {target: 1.0}
        j = target
        while j < n:
            nxt = int(pi_t[j - 1])
            if nxt == j or nxt in fcoef:
                raise ConstructionError(f"functional cascade degenerates at {j}")
            val = -fcoef[j] / t[j]
            _guard(val, f"f({n}) coordinate {nxt}")
            fcoef[nxt] = val
            j = nxt

        # vector cascade: coefficients on the e_hat prefix, cancelling every
        # coordinate some earlier functional already occupies
        xcoef = {n: 1.0}
        cur = n
        while True:
            k = preimage.get(cur)
            if k is None or k >= n:
                break
            if k in xcoef:
                raise ConstructionError(f"vector cascade degenerates at {k}")
            val = -xcoef[cur] / t[k]
            _guard(val, f"x({n}) basis {k}")
            xcoef[k] = val
            cur = k

        xrow = np.zeros(ambient)
        for k, c in xcoef.items():
            xrow[k - 1] += c
            tk = t[k]
            if tk:
                xrow[int(pi_t[k - 1]) - 1] += c * tk
        frow = np.zeros(ambient)
        for c_idx, c in fcoef.items():
            frow[c_idx - 1] = c

        pairing = float(frow @ xrow)
        _guard(pairing, f"pairing at {n}")
        X[n - 1] = xrow
        F[n - 1] = frow / pairing

    _verify_pathological(X, F, Ehat, pi_t, eps[:M], tol)
    return BiorthSystem(X, F, ambient_dim=ambient, tol=tol).validate(), Ehat


def write_matrix_csv(M: np.ndarray, path: str):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", newline="") as fh:
        for row in M:
            fh.write(",".join(fmt(v) for v in row))
            fh.write("\n")


def build_phi(f, N: int) -> PhiTable:
    """Unit-jump staircase phi below f with doubling plateaus, one threshold
    scan of the whole table per jump."""
    if N < 1:
        raise ArgumentError("table length must be at least 1")
    fv = _as_f_table(f, N)
    if np.any(np.diff(fv) < -1e-12):
        raise ArgumentError("f must be non-decreasing on the table")
    if fv[-1] < 1.0:
        raise ArgumentError("need f(N) >= 1 on the table")
    if N > 1 and fv[-1] <= fv[0]:
        raise ArgumentError("f is constant on the table, not divergent")

    jumps = [1]
    while True:
        k_next = len(jumps) + 1
        threshold = (k_next * k_next) / 4.0
        above = np.nonzero(fv >= threshold)[0]
        if above.size == 0:
            break
        candidate = max(2 * jumps[-1], int(above[0]) + 1)
        if candidate > N:
            break
        jumps.append(candidate)

    values = np.zeros(N, dtype=np.int64)
    for k, n_k in enumerate(jumps, start=1):
        values[n_k - 1:] = k
    table = PhiTable(values, tuple(jumps), fv)
    check_phi_conditions(table)
    return table


# The staircase conditions, the count identity and the overlap sizes at
# every n, moved from the package verbatim except for their names and that
# ``omega_sizes`` is a function of the spec; the package reads them off the
# jump points and the exact entries.


def check_phi_conditions(t: PhiTable):
    v = t.values
    n = np.arange(1, t.N + 1)
    if np.any(v > n):
        raise ConstructionError("phi(n) <= n violated")
    half = t.N // 2
    if half and np.any(v[1:2 * half:2] > 2 * v[:half]):
        raise ConstructionError("phi(2n) <= 2 phi(n) violated")
    diffs = np.diff(v)
    if np.any((diffs != 0) & (diffs != 1)) or v[0] != 1:
        raise ConstructionError("phi must be onto with unit jumps from 1")
    if len(t.jump_points) >= 2:
        n2 = t.jump_points[1]
        tail = slice(n2 - 1, t.N)
        if np.any(v[tail].astype(float) ** 2 > 4.0 * t.f[tail] + 1e-9):
            raise ConstructionError("phi^2 <= 4 f violated beyond the second jump")


def omega_sizes(spec: PermutationSpec, upto: int) -> np.ndarray:
    """|Omega(m)| for m = 1..upto in one cumulative pass.

    An index j contributes to Omega(m) exactly when max(j, pi(j)) <= m;
    sentinel values exceed the table and never contribute.
    """
    if not 1 <= upto <= spec.N:
        raise ArgumentError(f"omega sizes need upto within 1..{spec.N}")
    idx = np.arange(1, upto + 1)
    vals = spec.pi[:upto]
    keys = np.where(vals == BEYOND_TABLE, spec.N + 1, np.maximum(idx, vals))
    counts = np.bincount(np.minimum(keys, upto + 1), minlength=upto + 2)
    return np.cumsum(counts)[1:upto + 1]


def phi_count_identity(spec: PermutationSpec, upto: int) -> bool:
    """Two-point count identity: |{n : Phi(n) <= m}| in {phi(m)-1, phi(m)}.

    Counts use exact Phi entries only; beyond-table entries exceed every
    m <= N and never contribute.
    """
    if not 1 <= upto <= spec.N:
        raise ArgumentError(f"upto must be within 1..{spec.N}")
    vals = spec.Phi[spec.Phi != BEYOND_TABLE]
    vals = vals[vals <= upto]
    counts = np.cumsum(np.bincount(vals, minlength=upto + 1))[1:upto + 1]
    phi = spec.phi[:upto]
    return bool(np.all((counts == phi - 1) | (counts == phi)))


def build_permutation(phi: PhiTable, N: int, exact: bool = False):
    """The permutation by one pass over n = 1..N with a set of used values.

    Returns ``(spec, free_trace)``, the free values in the order the cursor
    handed them out.  Phi values beyond N are stored as exact values, so a
    table longer than N fails the injectivity check.
    """
    if N > phi.N:
        raise ArgumentError(f"phi tabulated to {phi.N} < N = {N}")
    jumps = phi.jump_points
    K = len(jumps)
    Phi = np.full(N, BEYOND_TABLE, dtype=np.int64)
    for n in range(1, N + 1):
        if n + 1 <= K:
            Phi[n - 1] = jumps[n] - 1  # first index of value n+1, minus one
        elif exact:
            raise ArgumentError(
                f"phi table too short to evaluate Phi({n}) exactly; extend the "
                f"table beyond {2 * jumps[-1]} entries"
            )
    gamma = np.array([j for j in jumps if j <= N], dtype=np.int64)
    in_gamma = np.zeros(N + 1, dtype=bool)
    in_gamma[gamma] = True

    pi = np.full(N, BEYOND_TABLE, dtype=np.int64)
    used: set = set()
    free_cursor = 1
    free_trace = []
    for n in range(1, N + 1):
        if in_gamma[n]:
            while free_cursor in used:
                free_cursor += 1
            pi[n - 1] = free_cursor
            used.add(free_cursor)
            free_trace.append(free_cursor)
            free_cursor += 1
        else:
            v = Phi[n - 1]
            if v != BEYOND_TABLE:
                pi[n - 1] = v
                used.add(int(v))

    spec = PermutationSpec(N, phi.f[:N], phi.values[:N], jumps, Phi, gamma, pi)
    report = verify_injective(spec, N)
    if not report:
        raise ConstructionError("constructed permutation failed injectivity checks")
    object.__setattr__(spec, "injective_verified", True)
    return spec, np.array(free_trace, dtype=np.int64)


def compactified(self: PermutationSpec, M: int, keep_below: int | None = None) -> np.ndarray:
    """pi(1..M) with values above ``keep_below`` relabeled just above it,
    one index at a time."""
    if not 1 <= M <= self.N:
        raise ArgumentError(f"need M within 1..{self.N}")
    keep = M if keep_below is None else int(keep_below)
    if keep < M:
        raise ArgumentError("keep_below must not cut into the index range")
    out = np.zeros(M, dtype=np.int64)
    large = []
    for j in range(1, M + 1):
        v = self.pi[j - 1]
        if v != BEYOND_TABLE and v <= keep:
            out[j - 1] = v
        else:
            large.append(j)
    # beyond-keep values are all of counting type and increase with j,
    # so relabeling in j-order preserves their relative order
    for rank, j in enumerate(large, start=1):
        out[j - 1] = keep + rank
    return out


def save_permutation(spec: PermutationSpec, path: str, upto: int | None = None):
    """Text table ``n phi Phi inGamma pi``, one formatted line per n."""
    upto = spec.N if upto is None else min(int(upto), spec.N)
    gamma = set(int(g) for g in spec.Gamma)
    with open(path, "w") as fh:
        fh.write("n phi Phi inGamma pi\n")
        for n in range(1, upto + 1):
            fh.write(
                f"{n} {spec.phi[n - 1]} {spec.Phi[n - 1]} "
                f"{1 if n in gamma else 0} {spec.pi[n - 1]}\n"
            )


def operator_T(e_hats, ambient: int, eps_seq=None,
               rank_tol: float = 1e-10) -> TOperator:
    """T = B A^-1 with A = [E; Q_perp]^T and B = [E_0; Q_perp]^T, the
    complement basis Q_perp taken from a full SVD of E, and both norms read
    off a full SVD of T."""
    E = np.asarray(e_hats, dtype=float)
    if E.ndim != 2:
        raise ArgumentError(f"e_hats must be a row matrix of shape (M, {ambient}), got {E.shape}")
    M, dim = E.shape
    if dim != ambient:
        raise ArgumentError(f"e_hats live in dimension {dim}, expected {ambient}")
    _, s, vt = np.linalg.svd(E, full_matrices=True)
    if s.size < M or s[-1] <= rank_tol * s[0]:
        raise ArgumentError("e_hat vectors are linearly dependent")
    Qperp = vt[M:]
    A = np.vstack([E, Qperp]).T
    B = np.vstack([np.eye(ambient)[:M], Qperp]).T
    T = B @ np.linalg.inv(A)
    sv = np.linalg.svd(T, compute_uv=False)
    norm, norm_inv = float(sv[0]), float(1.0 / sv[-1])
    if eps_seq is not None:
        eps = np.asarray(eps_seq, dtype=float)
        if float(np.sum(eps * eps)) <= EPS_SQ_BUDGET + 1e-15:
            if norm > 2.0 + 1e-9 or norm_inv > 2.0 + 1e-9:
                raise ConstructionError(
                    f"operator norms ({norm:.6f}, {norm_inv:.6f}) exceed 2 "
                    "despite the eps budget"
                )
    return TOperator(T, norm, norm_inv)


def gram_schmidt_rows(X: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal rows with the prefix spans of ``X`` from one dense
    ``prefix_bases`` factorization; refuses dependent rows."""
    Q, _, rank = prefix_bases(X, rank_tol)
    if rank[-1] < X.shape[0]:
        raise ConstructionError("orthonormalization hit a dependent vector")
    return Q.T


def block_gram_form(E: np.ndarray, d: int) -> np.ndarray:
    """The Gram form of T, one connected component at a time: the
    coordinates are linked through each row n's support and its index n,
    found by a search over the nonzero entries, and on each component C
    T_C = I - (E_C - E_0C)^T (E_C E_C^T)^-1 E_C with 2-D numpy calls."""
    M = E.shape[0]
    adjacent = [set() for _ in range(d)]
    for n, j in zip(*np.nonzero(E)):
        adjacent[n].add(j)
        adjacent[j].add(n)
    T = np.eye(d)
    seen = np.zeros(d, dtype=bool)
    for root in range(d):
        if seen[root]:
            continue
        seen[root] = True
        stack, component = [root], []
        while stack:
            c = stack.pop()
            component.append(c)
            for j in adjacent[c]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        C = np.array(sorted(component))
        rows = C[C < M]
        if not rows.size:
            continue
        EC = E[np.ix_(rows, C)]
        T[np.ix_(C, C)] = (np.eye(C.size)
                           - (EC - np.eye(rows.size, C.size)).T @ np.linalg.solve(EC @ EC.T, EC))
    return T


def rough_separation_tensor(rs) -> float:
    """Minimum pairwise distance ||y_i - y_j|| from the full p x p x d
    difference tensor, infinity for size < 2."""
    if rs.size < 2:
        return math.inf
    diffs = rs.ys[:, None, :] - rs.ys[None, :, :]
    d = np.linalg.norm(diffs, axis=2)
    return float(np.min(d[np.triu_indices(rs.size, k=1)]))


def distortion_bounds(Z: np.ndarray, eps_seq) -> np.ndarray:
    """The coefficient-split bounds of ``t_asymptotics_check``, one row at a
    time."""
    dim = Z.shape[1]
    eps = np.zeros(dim)
    eps_in = np.asarray(eps_seq, dtype=float)
    eps[:min(dim, eps_in.size)] = eps_in[:min(dim, eps_in.size)]
    tail_sq = np.concatenate([np.cumsum((eps * eps)[::-1])[::-1], [0.0]])
    tails = np.sqrt(tail_sq)  # tails[k] = sqrt(sum_{i>k} eps_i^2), 0-based k
    bounds = np.empty(Z.shape[0])
    for i, row in enumerate(np.abs(Z)):
        heads = np.concatenate([[0.0], np.cumsum(row)])
        bounds[i] = float(np.min(heads + tails))
    return bounds


# ---------------------------------------------------------------------------
# Q-forming window table, distances, projections and span check.  Copied
# verbatim, except that the QR kernel's ``orthonormal_rows`` is ``qr_rows``
# here (this module's ``orthonormal_rows`` is the SVD one) and the span
# check returns the residual norms it tests.


def _window_table(sys: BiorthSystem, head_end: int):
    """W = QH^T Q and the tail's prefix ranks, from two :func:`prefix_bases`
    factorizations: QH spans the head x_1..x_head_end and the first
    rank[p - head_end] columns of Q span the window x_{head_end+1}..x_p."""
    tol = sys.tol.rank_tol
    QH = prefix_bases(sys.xs[:head_end], tol)[0]
    Q, _, rank = prefix_bases(sys.xs[head_end:], tol)
    return QH.T @ Q, rank


def _head_basis(S, x_dim: int, rank_tol: float) -> np.ndarray:
    M = span_matrix(S, ambient_dim=None)
    if M.shape[0] and M.shape[1] != x_dim:
        raise ArgumentError(
            f"ambient dimension mismatch: vector has {x_dim}, span has {M.shape[1]}"
        )
    return qr_rows(M, rank_tol)


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


def block_span_residuals(sys: BiorthSystem, p, D: np.ndarray) -> list[float]:
    """The per-row span check of ``flattened_from_duals``: the distance of
    each replacement functional to its block's functional span, refused as
    there when one leaves it."""
    tol = sys.tol
    out = []
    for j, blk in enumerate(p.blocks, start=1):
        rows = [n - 1 for n in blk]
        block_f = sys.fs[rows]
        Qf = qr_rows(block_f, tol.rank_tol)
        for n in rows:
            resid = D[n] - Qf.T @ (Qf @ D[n])
            out.append(float(np.linalg.norm(resid)))
            if np.linalg.norm(resid) > tol.span_tol * max(1.0, np.linalg.norm(D[n])):
                raise ArgumentError(
                    f"replacement functional {n + 1} leaves the span of block {j}"
                )
    return out


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


# ---------------------------------------------------------------------------
# Sphere nets and the per-row uniform minimality constant, moved from the
# package verbatim, except that the QR kernel's ``orthonormal_rows`` is
# ``qr_rows`` here.  The package certifies its sphere conditions spectrally,
# which implies the net condition at every resolution, so only the tests
# build nets: the explicit check of the norming step property.  The per-row
# distances are this module's Q-forming ``distance_to_span``; one
# triangular inverse of the QR kernel's R factor replaced the n QRs.


#: default cap on generated net sizes; nets are exponential in dimension
NET_POINT_CAP = 2_000_000


class NetCapError(RuntimeError):
    """Raised when a requested sphere net would exceed the point budget."""

    def __init__(self, requested: int, cap: int):
        super().__init__(
            f"unit net would need {requested} points, cap is {cap}; "
            "lower the resolution demand or the span dimension"
        )
        self.requested = requested
        self.cap = cap


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
    Q = qr_rows(span_matrix(S), rank_tol)
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


def uniform_minimality_constant(sys: BiorthSystem) -> float:
    """min over n of dist(x_n / ||x_n||, span of the other vectors)."""
    if sys.size < 2:
        raise ArgumentError("uniform minimality needs at least 2 vectors")
    dists = []
    for n in range(sys.size):
        others = np.delete(sys.xs, n, axis=0)
        xn = sys.xs[n]
        dists.append(distance_to_span(xn / np.linalg.norm(xn), others, sys.tol.rank_tol))
    return float(min(dists))


# ---------------------------------------------------------------------------
# Roughly biorthogonal systems, Omega(k) as a set and block duality, moved
# from the package verbatim, except that ``rough_defect`` inlines the
# pairing defect, ``omega_set`` is a function of the spec, the QR kernel's
# ``span_equal`` is ``qr_span_equal`` here, and ``block_duality_check``
# inlines the interval coverage test and takes each complement with its
# known dimension.  No command reaches them; acceptance criterion 5 and the
# tests do.


def omega_set(spec: PermutationSpec, k: int) -> set:
    """Omega(k) = {1..k} intersected with {pi(1)..pi(k)} (exact)."""
    if not 1 <= k <= spec.N:
        raise ArgumentError(f"Omega({k}) outside table 1..{spec.N}")
    vals = spec.pi[:k]
    return set(int(v) for v in vals[(vals != BEYOND_TABLE) & (vals <= k)])


@dataclass(frozen=True)
class RoughSystem:
    """Vectors and functionals that are biorthogonal up to ``eps``.

    ``support`` lists the 1-based canonical coordinates the system lives
    on (its effective dimension); ``bound_M`` is the largest functional
    norm, the constant entering the separation bound.
    """

    ys: np.ndarray
    gs: np.ndarray
    eps: float
    bound_M: float
    support: tuple = ()

    @property
    def size(self) -> int:
        return self.ys.shape[0]

    def tail(self, n0: int) -> "RoughSystem":
        """The subsystem with the first n0 pairs dropped."""
        return RoughSystem(self.ys[n0:], self.gs[n0:], self.eps, self.bound_M,
                           self.support)

    def normalized(self) -> "RoughSystem":
        """Pairs rescaled to unit vectors, functionals scaled inversely.

        Keeps the diagonal pairings; off-diagonal entries change by norm
        ratios, so the rough defect of the result is recomputed by callers.
        """
        norms = np.linalg.norm(self.ys, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ArgumentError("cannot normalize a zero vector")
        ys = self.ys / norms
        gs = self.gs * norms
        return RoughSystem(ys, gs, self.eps,
                           float(np.max(np.linalg.norm(gs, axis=1))), self.support)


def rough_defect(rs: RoughSystem) -> float:
    """max over (k, n) of |<g_k, y_n> - delta_{k,n}|."""
    if len(rs.ys) == 0:
        return 0.0
    return float(np.max(np.abs(rs.gs @ rs.ys.T - np.eye(len(rs.ys)))))


def rough_separation(rs: RoughSystem) -> float:
    """Minimum pairwise distance ||y_i - y_j||, infinity for size < 2."""
    if rs.size < 2:
        return math.inf
    ys = rs.ys
    return float(np.min([np.min(np.linalg.norm(ys[i + 1:] - ys[i], axis=1))
                         for i in range(rs.size - 1)]))


def extract_rough_system(zsys: BiorthSystem, xsys: BiorthSystem, T: np.ndarray,
                         spec: PermutationSpec, p_of_m: int, r_of_m: int) -> RoughSystem:
    """Project the first p(m) pairs onto the overlap coordinates Omega(r(m)).

    Requires the support inclusions: the z-vector prefix inside the
    x-vector prefix span up to r, and likewise for the functionals (both
    within span_tol).  The result is bounded by twice the product of the
    operator norm bound and the functional bound of the input; its eps is
    the 1/4 that ``unb_experiment``'s capacities take.
    """
    tol = xsys.tol
    if not 1 <= p_of_m <= zsys.size:
        raise ArgumentError(f"p(m) = {p_of_m} outside 1..{zsys.size}")
    if not 1 <= r_of_m <= xsys.size:
        raise ArgumentError(f"r(m) = {r_of_m} outside 1..{xsys.size}")
    gap_v = directed_span_gap(zsys.xs[:p_of_m], xsys.xs[:r_of_m], tol.rank_tol)
    if gap_v > tol.span_tol:
        raise ArgumentError(
            f"vector support condition fails: prefix gap {gap_v:.3e} at r={r_of_m}"
        )
    gap_f = directed_span_gap(zsys.fs[:p_of_m], xsys.fs[:r_of_m], tol.rank_tol)
    if gap_f > tol.span_tol:
        raise ArgumentError(
            f"functional support condition fails: prefix gap {gap_f:.3e} at r={r_of_m}"
        )
    omega = sorted(omega_set(spec, r_of_m))
    if not omega:
        raise ArgumentError(f"Omega({r_of_m}) is empty; enlarge r")
    keep = np.array([w - 1 for w in omega], dtype=int)
    mask = np.zeros(zsys.ambient_dim, dtype=bool)
    mask[keep] = True
    ys = zsys.xs[:p_of_m] @ T.T
    ys = np.where(mask[None, :], ys, 0.0)
    gs = np.where(mask[None, :], zsys.fs[:p_of_m], 0.0)
    bound_M = float(np.max(np.linalg.norm(gs, axis=1))) if p_of_m else 0.0
    return RoughSystem(ys, gs, 0.25, bound_M, tuple(omega))


def greedy_rough_packing(dim: int, delta: float, trials: int, seed: int) -> np.ndarray:
    """Greedy delta-separated packing of random unit vectors (the oracle).

    Samples ``trials`` unit candidates and keeps each one whose distance
    to every kept point is at least delta; returns the kept points.
    """
    if dim < 1 or trials < 1 or delta <= 0:
        raise ArgumentError("need dim >= 1, trials >= 1, delta > 0")
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    for _ in range(trials):
        v = rng.standard_normal(dim)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            continue
        v /= nrm
        if all(np.linalg.norm(v - w) >= delta for w in kept):
            kept.append(v)
    return np.vstack(kept) if kept else np.zeros((0, dim))


def orthonormalized_duals(system: BiorthSystem, Z: np.ndarray, p: int) -> np.ndarray:
    """First p biorthogonal functionals of the orthonormalized sequence.

    Solved inside the span of the annihilator basis g_j = sum_k
    <x_k, x_j> f_k (j <= p), which is orthogonal to every z_k with k > p
    by construction; only the leading p-by-p pairing is inverted, so the
    conditioning reflects the leading structure alone.
    """
    if not 1 <= p <= system.size:
        raise ArgumentError(f"p must lie in 1..{system.size}")
    gram = system.xs @ system.xs.T
    g = gram[:, :p].T @ system.fs
    pairing = g @ Z[:p].T  # lower triangular: g_j annihilates z_k for k > j
    return np.linalg.solve(pairing, g)


def block_duality_check(zsys: BiorthSystem, xsys: BiorthSystem,
                        intervals: IntervalFamily) -> bool:
    """Check the dual span equalities of a block family through complements.

    For each interval I(m), the functional span over I(m) of a block
    perturbation equals the orthogonal complement, inside the total vector
    span, of the span of the other blocks' vectors.  Both sides are
    computed that way from the vectors alone and compared within span_tol.
    One ``prefix_bases`` call factors the other blocks' rows followed by
    all the rows; the directions past the others' rank span the
    complement, so it has its known dimension whatever the rounding.
    """
    n = zsys.size
    seen = set()
    for lo, hi in intervals.intervals:
        seen.update(range(lo, hi + 1))
    if seen != set(range(1, n + 1)):
        raise ArgumentError(f"interval family does not cover 1..{n}")
    tol = xsys.tol
    ok = True
    for lo, hi in intervals.intervals:
        inside = list(range(lo - 1, hi))
        outside = [i for i in range(n) if not lo - 1 <= i <= hi - 1]
        sides = []
        for sys in (zsys, xsys):
            Q, _, rank = prefix_bases(np.vstack([sys.xs[outside], sys.xs]), tol.rank_tol)
            sides.append(Q[:, rank[len(outside)]:].T)
        ok = ok and qr_span_equal(sides[0], sides[1], tol.span_tol)
        # cross-check against the actual functionals of each system
        for sys, comp in zip((zsys, xsys), sides):
            ok = ok and qr_span_equal(sys.fs[inside], comp, tol.span_tol)
    return bool(ok)


# ---------------------------------------------------------------------------
# The flattening by plain loops, and the full-width verifier.  The package
# factors each block on its own columns with one QR of the anchor-first
# functional rows; here the anchor complement comes from modified
# Gram-Schmidt over all d columns, the rotation is the same seeded draw,
# and the vectors come from one full-width dual solve per block in the SVD
# basis of the block's vectors.  ``verify_flattened`` is the verifier as it
# was when it took both span gaps over all d columns and the slack in a
# Python loop.


def flattened_duals(sys: BiorthSystem, p, seed: int) -> np.ndarray:
    """The replacement functionals of ``construct_flattened``: per block,
    modified Gram-Schmidt of the functional rows with the anchor first,
    its complement of the anchor rotated by ``default_rng([seed, j])``."""
    D = np.array(sys.fs, dtype=float, copy=True)
    for j, (blk, anchor, eps_j) in enumerate(
            zip(p.blocks, p.anchors, p.epsilons), start=1):
        others = [n for n in blk if n != anchor]
        if not others:
            continue
        basis = []
        for n in [anchor] + others:
            v = sys.f(n) / np.linalg.norm(sys.f(n))
            for q in basis:
                v = v - (q @ v) * q
            basis.append(v / np.linalg.norm(v))
        raw = np.random.default_rng([seed, j]).standard_normal((len(others), len(others)))
        Qr, Rr = np.linalg.qr(raw.T)
        rotation = (Qr * np.sign(np.diagonal(Rr))).T
        radius = 0.9 * eps_j / np.linalg.norm(sys.x(anchor))
        for i, n in enumerate(others):
            eta = np.zeros(sys.ambient_dim)
            for k, q in enumerate(basis[1:]):
                eta += rotation[i, k] * q
            D[n - 1] = sys.f(anchor) + radius * eta
    return D


def flattened_vectors(sys: BiorthSystem, p, D: np.ndarray) -> np.ndarray:
    """The vectors of the flattening with functionals ``D``: per block, the
    rows of span(x_n : n in A(j)) biorthogonal to D's rows there, solved
    over all d columns in the SVD basis W of the block's vectors."""
    Z = np.zeros_like(sys.xs)
    for blk in p.blocks:
        rows = [n - 1 for n in blk]
        W = orthonormal_rows(sys.xs[rows], sys.tol.rank_tol)
        Z[rows] = np.linalg.solve((D[rows] @ W.T).T, W)
    return Z


def verify_flattened(zsys: BiorthSystem, xsys: BiorthSystem, p) -> list:
    """Both flattening conditions with the span gaps over all d columns:
    per block, (vector gap, dual gap, worst slack)."""
    tol = xsys.tol
    checks = []
    for blk, anchor, eps_j in zip(p.blocks, p.anchors, p.epsilons):
        rows = [n - 1 for n in blk]
        vec_gap = qr_span_gap(zsys.xs[rows], xsys.xs[rows], tol.rank_tol)
        dual_gap = qr_span_gap(zsys.fs[rows], xsys.fs[rows], tol.rank_tol)
        bound = eps_j / float(np.linalg.norm(xsys.x(anchor)))
        slack = min(
            bound - float(np.linalg.norm(zsys.f(n) - xsys.f(anchor)))
            for n in blk
        )
        checks.append((vec_gap, dual_gap, slack))
    return checks


# ---------------------------------------------------------------------------
# The QR kernel as it was when every row of M went through the Householder
# QR, copied verbatim.  The package splits off the isolated unit rows, each
# its own direction, and factors only the coupled rows on their columns.


def _prefix_qr(M: np.ndarray, V: np.ndarray | None, rank_tol: float):
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
    M = np.asarray(M, dtype=float)
    with np.errstate(over="ignore"):  # a row past 2**511 overflows: its column is zero
        norms = np.linalg.norm(M, axis=1)
    kept = np.flatnonzero(norms > 0)
    while True:
        # built in one piece, so no second copy of the unit rows stays alive
        # through the QR: this bounds the peak memory of a large V
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


# ---------------------------------------------------------------------------
# One number by a full factorization, copied verbatim, except that
# ``project_lu`` (the package's ``project`` under another name, as this
# module has a ``project``) reads the first three outputs of the package's
# split QR kernel, ``subspace._prefix_qr``, and its ``_span_rows``.


def _cross_minimum(QH: np.ndarray, QF: np.ndarray) -> float:
    """Smallest singular value of QF^T QH for orthonormal columns: the worst
    best unit-functional action over the unit sphere of span(QH)."""
    if QH.shape[1] == 0:
        return 1.0
    if QF.shape[1] < QH.shape[1]:
        return 0.0
    return float(np.linalg.svd(QF.T @ QH, compute_uv=False)[-1])


def project_lu(x, S, rank_tol: float = ToleranceConfig.rank_tol) -> tuple[np.ndarray, float]:
    """Orthogonal projection of ``x`` onto span(S) and the residual norm.

    From the QR of :func:`prefix_coordinates`: the kept normalized rows
    factor as S_hat^T = Q R11, so the projection Q R12 is S_hat^T solved
    against the triangular R11, and the residual norm is that of R22.  Q is
    never formed.
    """
    xv = as_vector(x)
    M = subspace._span_rows(S, xv)
    _, R, kept = subspace._prefix_qr(M, xv[None], rank_tol)[:3]
    r = kept.size
    unit = M[kept] / np.linalg.norm(M[kept], axis=1)[:, None]
    return unit.T @ np.linalg.solve(R[:r, :r], R[:r, r]), float(np.linalg.norm(R[r:, r]))


def _residual_norm(Q: np.ndarray, Qs: np.ndarray) -> float:
    """||Q - (Q Qs^T) Qs||_2 for orthonormal rows: the largest distance from
    a unit vector of span(Q) to span(Qs)."""
    return float(np.linalg.norm(Q - (Q @ Qs.T) @ Qs, 2))


# ---------------------------------------------------------------------------
# A full-width read on the represent path, copied verbatim, except for the
# names: the span gaps that formed a basis of each span
# (``span_gap_two_bases``, as this module has a projector ``span_gap``).
# They call the package's ``orthonormal_rows`` and read the residual's
# 2-norm with the package's ``_residual_norm``, the same eigvalsh read of
# the same residual.


def _two_bases_residual_norm(Q: np.ndarray, Qs: np.ndarray) -> float:
    """||Q - (Q Qs^T) Qs||_2 for orthonormal rows, read off the smaller Gram
    matrix of the residual."""
    return subspace._residual_norm(Q - (Q @ Qs.T) @ Qs)


def span_gap_two_bases(S1, S2, rank_tol: float = ToleranceConfig.rank_tol) -> float:
    """Spectral norm of the projector difference between the two spans:
    1 when the ranks differ, exactly 0 for bitwise-equal bases, else
    ||Q1 - (Q1 Q2^T) Q2||_2 on the :func:`orthonormal_rows` of each span."""
    M1 = span_matrix(S1)
    M2 = span_matrix(S2)
    if M1.shape[0] and M2.shape[0] and M1.shape[1] != M2.shape[1]:
        raise ArgumentError("spans live in different ambient dimensions")
    Q1 = qr_rows(M1, rank_tol)
    Q2 = qr_rows(M2, rank_tol)
    if Q1.shape[0] != Q2.shape[0]:
        return 1.0
    if Q1.shape[0] == 0 or np.array_equal(Q1, Q2):
        return 0.0
    return _two_bases_residual_norm(Q1, Q2)


def directed_span_gap_two_bases(S_sub, S_sup, rank_tol: float = ToleranceConfig.rank_tol) -> float:
    """Max distance from a unit vector of span(S_sub) to span(S_sup).

    Zero iff span(S_sub) is contained in span(S_sup) up to rank_tol.
    """
    Msub = span_matrix(S_sub)
    Q = qr_rows(Msub, rank_tol)
    if Q.shape[0] == 0:
        return 0.0
    Qs = qr_rows(span_matrix(S_sup, ambient_dim=Q.shape[1]), rank_tol)
    if Qs.shape[0] == 0:
        return 1.0
    return _two_bases_residual_norm(Q, Qs)


# ---------------------------------------------------------------------------
# The orthonormalization of the e_hat rows as one stacked Householder QR per
# group of coordinate components, copied verbatim under another name (the
# dense ``gram_schmidt_rows`` above is taken).  The package's
# ``_gram_schmidt_rows`` reads the kernel, which splits off the isolated
# rows, each its own direction, and factors only the coupled rows.


def block_gram_schmidt_rows(X: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal rows with the prefix spans of ``X``; refuses dependent rows.

    Rows of different coordinate components (see :func:`operator_T`) have
    disjoint supports, so Gram-Schmidt over all rows splits into one per
    component.  Per group of equal (size, row count) one stacked Householder
    QR of the normalized block rows, transposed, gives the directions; a
    row with |R_jj| <= ``rank_tol``, the distance of the normalized row to
    the span before it, or a zero row, is dependent, as in
    :func:`prefix_bases`.  Signs are fixed so that diag R > 0 and the
    directions are scattered into the rows' coordinates.  Like T, it
    refuses an E with a nonzero entry between two components.  The cost
    is sum_C k_C r_C^2 plus the O(M d) output.
    """
    M, d = X.shape
    norms = np.linalg.norm(X, axis=1)
    if M > d or not np.all(norms > 0):
        raise ConstructionError("orthonormalization hit a dependent vector")
    Z = np.zeros_like(X)
    for C, r in _block_groups(X):
        rows = C[:, :r, None]
        Q, R = np.linalg.qr(np.swapaxes(X[rows, C[:, None, :]] / norms[rows], 1, 2))
        diag = np.diagonal(R, axis1=1, axis2=2)
        if np.any(np.abs(diag) <= rank_tol):
            raise ConstructionError("orthonormalization hit a dependent vector")
        signs = np.where(diag < 0, -1.0, 1.0)[:, None, :]
        Z[rows, C[:, None, :]] = np.swapaxes(Q * signs, 1, 2)
    return Z


# ---------------------------------------------------------------------------
# Definitions only the tests read, moved out of the package verbatim: the
# block-kind witness of a partition (``BlockPartition`` is disjoint by
# construction, so the scan needs only coverage) and the index-table reader.


def interval_witness(p, range_end: int) -> tuple | None:
    """Groups of consecutive block indices j whose unions form successive
    intervals tiling 1..range_end, None when ``p`` is not of block kind.

    The greedy earliest-close scan below finds the maximal refinement
    whenever any witness exists.
    """
    if p.covered != set(range(1, range_end + 1)):
        return None
    witness = None
    groups = []
    start_j = 1
    lo = 1
    acc: set = set()
    for j, blk in enumerate(p.blocks, start=1):
        acc.update(blk)
        hi = lo + len(acc) - 1
        if acc == set(range(lo, hi + 1)):
            groups.append((start_j, j))
            start_j = j + 1
            lo = hi + 1
            acc = set()
    if start_j == p.count + 1 and groups:
        witness = tuple(groups)
    return witness


def load_indices(path: str) -> RepresentingIndices:
    values, interim, deltas = [], [], []
    with _open_text(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != 4:
                raise ArgumentError(f"{path}:{ln}: expected 'm r p delta'")
            try:
                values.append(int(toks[1]))
                interim.append(int(toks[2]))
                deltas.append(float(toks[3]))
            except ValueError as exc:
                raise ArgumentError(f"{path}:{ln}: malformed index line ({exc})")
    return RepresentingIndices(tuple(values), tuple(deltas), tuple(interim))
