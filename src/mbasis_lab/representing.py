"""Representing indices, their norming refinement, and the strong partition.

The representing indices r(1) < r(2) < ... of a system are built so that,
for every unit z in the span of the first r(m) vectors, the distance from
z to the span of the window x_{r(m)+1}..x_{r(m+1)} matches the distance to
the span of the whole remaining tail within a step tolerance delta_m.  The
search certifies the condition for the whole head sphere at once through
the spectral norm of a projector difference restricted to the head; this
implies the same condition for every point of any finite net of the head
sphere, at any resolution.

The norming refinement additionally widens each index until every unit
vector of the interim head admits a unit functional in the corresponding
functional prefix with inner product at least c.

The strong partition iterates the block construction seeded at r(0) = 0:
each round turns the anchor interval (r(m), r(m+1)] into blocks
E(j) = {j} + {r(d_j)+1 .. r(d_j+1)} with d_j = m + j - r(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biorth import BiorthSystem
from .errors import ArgumentError
from .perturbations import BlockPartition, validate_block_partition
from .subspace import as_vector, distance_to_span, prefix_bases, prefix_coordinates, project

__all__ = [
    "RepresentingIndices",
    "StrongPartitionTrace",
    "ReconstructResult",
    "SubseriesTrace",
    "BoundVerdict",
    "StrongnessReport",
    "build_representing_indices",
    "build_norming_indices",
    "window_approximation_defect",
    "norming_property_minimum",
    "reconstruct",
    "subseries_reconstruct",
    "strong_partition",
    "strongness_diagnostic",
]


@dataclass(frozen=True)
class RepresentingIndices:
    """The sequence r(m), 1-based, with per-step tolerances and interim p.

    ``values[i]`` is r(i+1).  ``deltas[i]`` is the step tolerance used
    while constructing r(i+1) (infinity for seeded entries), and
    ``interim_p[i]`` the window end found before the norming widening (in
    the plain construction it equals r(i+1)).  ``norming_c`` is the
    constant of the norming refinement, when one was requested.
    """

    values: tuple
    deltas: tuple
    interim_p: tuple
    norming_c: float | None = None

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        if not vals:
            raise ArgumentError("representing indices cannot be empty")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ArgumentError(f"representing indices must increase strictly: {vals}")
        if len(self.deltas) != len(vals) or len(self.interim_p) != len(vals):
            raise ArgumentError("deltas and interim_p must align with values")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        object.__setattr__(self, "interim_p", tuple(int(p) for p in self.interim_p))

    @property
    def depth(self) -> int:
        return len(self.values)

    def r_at(self, m: int) -> int:
        """r(m) with the convention r(0) = 0."""
        if m == 0:
            return 0
        if not 1 <= m <= len(self.values):
            raise ArgumentError(f"r({m}) not constructed; depth is {len(self.values)}")
        return self.values[m - 1]


def _window_table(sys: BiorthSystem, head_end: int):
    """W = QH^T Q and the tail's prefix ranks: QH (from :func:`prefix_bases`)
    spans the head x_1..x_head_end and the first rank[p - head_end] columns
    of Q span the window x_{head_end+1}..x_p.  W holds the coordinates of
    the head directions on the tail's prefix directions, read off the R
    factor of one :func:`prefix_coordinates` QR, which never forms Q."""
    tol = sys.tol.rank_tol
    QH = prefix_bases(sys.xs[:head_end], tol)[0]
    W, _, rank = prefix_coordinates(sys.xs[head_end:], QH.T, tol)
    return W, rank


def _window_defect(W: np.ndarray, k: int) -> float:
    """sqrt(lambda_max(W W^T - W_k W_k^T)) for W_k the first k columns of W.

    The difference is W[:, k:] W[:, k:]^T, so this is the spectral norm of
    the remaining columns, taken without cancellation; 0 when none remain.
    """
    rest = W[:, k:]
    return float(np.linalg.norm(rest, 2)) if rest.size else 0.0


def window_approximation_defect(sys: BiorthSystem, head_end: int, p: int) -> float:
    """Worst over the head unit sphere of dist(z, window) - dist(z, tail).

    head is span{x_1..x_head_end}, window span{x_{head_end+1}..x_p}, tail
    span{x_{head_end+1}..x_N}.  The difference is nonnegative and its
    supremum is bounded above by the square root of the largest eigenvalue
    of the restricted projector difference, which this returns (0 for an
    empty head and at p = N, where window and tail coincide).
    """
    N = sys.size
    if not 0 <= head_end < p <= N:
        raise ArgumentError(f"need 0 <= head_end < p <= {N}, got ({head_end}, {p})")
    if p == N:
        return 0.0
    W, rank = _window_table(sys, head_end)
    return _window_defect(W, rank[p - head_end])


def _least_window_end(sys: BiorthSystem, head_end: int, delta: float) -> int:
    """Least p > head_end passing the spectral window criterion.

    p = N always passes: there the window equals the tail exactly, so the
    distance difference vanishes identically regardless of delta.  Each
    column norm of W bounds the spectral norm of any column range holding
    it from below, so a candidate whose remaining columns include one
    longer than delta is rejected without computing its defect.
    """
    N = sys.size
    W, rank = _window_table(sys, head_end)
    col_norms = np.append(np.linalg.norm(W, axis=0), 0.0)
    longest_rest = np.maximum.accumulate(col_norms[::-1])[::-1]
    for p in range(head_end + 1, N):
        k = rank[p - head_end]
        if longest_rest[k] <= delta and _window_defect(W, k) <= delta:
            return p
    return N


def _pair_norm_sums(sys: BiorthSystem) -> np.ndarray:
    prods = np.linalg.norm(sys.xs, axis=1) * np.linalg.norm(sys.fs, axis=1)
    return np.concatenate([[0.0], np.cumsum(prods)])


def _cross_minimum(QH: np.ndarray, QF: np.ndarray) -> float:
    """Smallest singular value of QF^T QH for orthonormal columns: the worst
    best unit-functional action over the unit sphere of span(QH)."""
    if QH.shape[1] == 0:
        return 1.0
    if QF.shape[1] < QH.shape[1]:
        return 0.0
    return float(np.linalg.svd(QF.T @ QH, compute_uv=False)[-1])


def _index_search(sys: BiorthSystem, depth: int, c: float | None = None,
                  level=None) -> RepresentingIndices:
    """r(1..depth) from r(0) = 0: r(1) = 1, and each later interim p is the
    least window end within delta_m = 1 / (m * sum_{n <= r(m)} ||f_n|| ||x_n||).

    With ``c`` set, each r is widened from p until ``level(p, r)``, the
    norming property minimum of head x_1..x_p against f_1..f_r, is at
    least c.
    """
    N = sys.size
    sums = _pair_norm_sums(sys)
    steps = []  # (r, delta, interim p) per step
    r_prev = 0
    for m in range(depth):
        if r_prev >= N:
            raise ArgumentError(
                f"truncation exhausted: r({m}) = {r_prev} is the truncation end; "
                f"reachable depth is {m}"
            )
        delta = 1.0 / (m * sums[r_prev]) if m else math.inf
        p = _least_window_end(sys, r_prev, delta) if m else 1
        rho = p
        while c is not None and level(p, rho) < c:
            rho += 1
            if rho > N:
                raise ArgumentError(
                    f"norming property unattainable within the truncation at step {m + 1} "
                    f"(interim p = {p}, c = {c})"
                )
        steps.append((rho, delta, p))
        r_prev = rho
    return RepresentingIndices(*zip(*steps), norming_c=c)


def build_representing_indices(sys: BiorthSystem, depth: int) -> RepresentingIndices:
    """Representing indices r(1..depth) with r(1) = 1.

    Each r(m+1) is the least p > r(m) such that distances from the head
    sphere to the window span match distances to the remaining tail span
    within delta_m = 1 / (m * sum_{n <= r(m)} ||f_n|| ||x_n||).
    """
    if depth < 1:
        raise ArgumentError("depth must be at least 1")
    if sys.size < 1:
        raise ArgumentError("empty system")
    return _index_search(sys, depth)


def norming_property_minimum(sys: BiorthSystem, p: int, rho: int) -> float:
    """min over unit v in span{x_1..x_p} of the best unit-functional action.

    Equals the smallest singular value of the cross matrix between the
    orthonormalized functional prefix f_1..f_rho and the orthonormalized
    head x_1..x_p (the cosine of the largest principal angle; Bjorck &
    Golub 1973); at least c here certifies the norming property for every
    unit v of the head, hence for every point of any net of it.  At
    (N, N) it is the norming constant sigma_min(Q_F^T Q_X) of the system,
    which :func:`build_norming_indices` admits its level against.  Both
    prefixes must lie in 1..N.
    """
    N = sys.size
    if not (1 <= p <= N and 1 <= rho <= N):
        raise ArgumentError(f"need 1 <= p <= {N} and 1 <= rho <= {N}, got ({p}, {rho})")
    tol = sys.tol.rank_tol
    return _cross_minimum(prefix_bases(sys.xs[:p], tol)[0], prefix_bases(sys.fs[:rho], tol)[0])


def build_norming_indices(sys: BiorthSystem, depth: int,
                          c: float | None = None) -> RepresentingIndices:
    """Representing indices whose steps also satisfy the norming property.

    After finding the interim window end p(m+1), the index r(m+1) >= p(m+1)
    is widened until every unit v of span{x_1..x_{p(m+1)}} admits a unit
    functional in span{f_1..f_{r(m+1)}} with action at least ``c``.
    Requires 0 < c <= const/2 + 1e-12 for the norming constant const =
    sigma_min(Q_F^T Q_X), read off the one :func:`prefix_bases`
    factorization per side that also serves every step (bit for bit
    ``norming_property_minimum(sys, N, N)``).  The slack keeps a c derived
    from another rounding of the constant admitted when that rounding reads
    a few ulps high.  c defaults to const/2.
    """
    if depth < 1:
        raise ArgumentError("depth must be at least 1")
    tol = sys.tol.rank_tol
    Qx, _, rank_x = prefix_bases(sys.xs, tol)
    Qf, _, rank_f = prefix_bases(sys.fs, tol)
    const = _cross_minimum(Qx, Qf)
    c = const / 2.0 if c is None else c
    if not c > 0:
        raise ArgumentError(f"c must be positive, got {c}")
    if c > const / 2.0 + 1e-12:
        raise ArgumentError(
            f"c = {c} exceeds half the measured norming constant {const:.6f}"
        )
    full = (rank_x[-1], rank_f[-1])

    def level(p: int, rho: int) -> float:
        # the step bases are column prefixes of the two factorizations; at
        # full ranks they are the factors themselves, whose minimum is const
        ranks = (rank_x[p], rank_f[rho])
        if ranks == full:
            return const
        return _cross_minimum(Qx[:, :ranks[0]], Qf[:, :ranks[1]])

    return _index_search(sys, depth, c, level)


# ---------------------------------------------------------------------------
# reconstruction


@dataclass(frozen=True)
class ReconstructResult:
    approx: np.ndarray
    v: np.ndarray
    error: float


def reconstruct(x, sys: BiorthSystem, r: RepresentingIndices, m: int) -> ReconstructResult:
    """Partial biorthogonal expansion up to r(m) plus the best window corrector.

    approx = sum_{n <= r(m)} <f_n, x> x_n + v with v the orthogonal
    projection of the remainder onto span{x_{r(m)+1}..x_{r(m+1)}}; the
    reported error is the achieved distance.
    """
    if m + 1 > r.depth:
        raise ArgumentError(f"need r({m + 1}); depth is {r.depth}")
    xv = as_vector(x, sys.ambient_dim)
    head_end = r.r_at(m)
    win_end = r.r_at(m + 1)
    if head_end:
        coeffs = sys.fs[:head_end] @ xv
        partial = coeffs @ sys.xs[:head_end]
    else:
        partial = np.zeros_like(xv)
    window = sys.xs[head_end:win_end]
    v, _ = project(xv - partial, window, sys.tol.rank_tol)
    approx = partial + v
    return ReconstructResult(approx, v, float(np.linalg.norm(xv - approx)))


@dataclass(frozen=True)
class SubseriesTrace:
    """Checkpoint partial sums of the expansion along a subsequence of m's.

    checkpoints[k] is r(m_k); residuals[k] the distance from x to the
    partial sum up to that index; window_masses[k] the norm of the
    immediate next window's contribution (the series whose summability the
    hypothesis controls).
    """

    checkpoints: tuple
    residuals: tuple
    window_masses: tuple

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


def subseries_reconstruct(x, sys: BiorthSystem, r: RepresentingIndices,
                          mks) -> SubseriesTrace:
    """Partial sums of the expansion at the checkpoints r(m_k).

    ``mks`` must be strictly increasing with m_k + 1 within depth (the
    window just after each checkpoint is part of the report).
    """
    mks = [int(m) for m in mks]
    if not mks or any(b <= a for a, b in zip(mks, mks[1:])) or mks[0] < 1:
        raise ArgumentError(f"mks must be strictly increasing positive integers: {mks}")
    if mks[-1] + 1 > r.depth:
        raise ArgumentError(f"need r({mks[-1] + 1}); depth is {r.depth}")
    xv = as_vector(x, sys.ambient_dim)
    coeffs = sys.fs @ xv
    checkpoints, residuals, masses = [], [], []
    for mk in mks:
        end = r.r_at(mk)
        partial = coeffs[:end] @ sys.xs[:end]
        nxt = r.r_at(mk + 1)
        window_vec = coeffs[end:nxt] @ sys.xs[end:nxt]
        checkpoints.append(end)
        residuals.append(float(np.linalg.norm(xv - partial)))
        masses.append(float(np.linalg.norm(window_vec)))
    return SubseriesTrace(tuple(checkpoints), tuple(residuals), tuple(masses))


# ---------------------------------------------------------------------------
# the strong partition


@dataclass(frozen=True)
class StrongPartitionTrace:
    """Outcome of the block-partition induction over representing indices.

    ``block_bounds`` are the r-values ending each round; ``round_starts``
    the r-values each round began from (seeded at 0).  ``d_map`` assigns to
    each anchor value j its level d_j, and ``j_of_n`` maps anchors to their
    1-based block index.  ``anchor_intervals`` are the (r(m)+1, r(m+1))
    ranges whose union is exactly the anchor set.
    """

    partition: BlockPartition
    block_bounds: tuple
    round_starts: tuple
    anchor_intervals: tuple
    d_map: dict
    j_of_n: dict


def strong_partition(r: RepresentingIndices, blocks: int, eps=None) -> StrongPartitionTrace:
    """Iterate the partition induction for ``blocks`` rounds.

    Seeded at r(0) = 0 so the first round covers index 1.  Raises when the
    available depth cannot complete a round, reporting the depth needed.
    Default budgets are eps_j = 2**-j.
    """
    if blocks < 1:
        raise ArgumentError("need at least one round")
    blocks_list: list[tuple] = []
    anchors: list[int] = []
    bounds: list[int] = []
    starts: list[int] = []
    intervals: list[tuple] = []
    d_map: dict = {}
    j_of_n: dict = {}
    m = 0
    j0 = 0
    for _ in range(blocks):
        try:
            r_m = r.r_at(m)
            r_m1 = r.r_at(m + 1)
        except ArgumentError:
            raise ArgumentError(
                f"representing indices exhausted mid-round; depth {r.depth} "
                f"given, at least {m + 1} required"
            )
        starts.append(r_m)
        intervals.append((r_m + 1, r_m1))
        last_d = m
        for j in range(r_m + 1, r_m1 + 1):
            d = m + j - r_m
            try:
                tail_lo = r.r_at(d) + 1
                tail_hi = r.r_at(d + 1)
            except ArgumentError:
                raise ArgumentError(
                    f"representing indices exhausted mid-block; depth {r.depth} "
                    f"given, at least {d + 1} required"
                )
            E = (j,) + tuple(range(tail_lo, tail_hi + 1))
            idx = j0 + j - r_m
            assert idx == len(blocks_list) + 1
            blocks_list.append(E)
            anchors.append(j)
            d_map[j] = d
            j_of_n[j] = idx
            last_d = d
        m_next = last_d + 1
        bounds.append(r.r_at(m_next))
        j0 += r_m1 - r_m
        m = m_next

    if eps is None:
        eps = [2.0 ** (-j) for j in range(1, len(blocks_list) + 1)]
    eps = [float(e) for e in eps]
    if len(eps) < len(blocks_list):
        raise ArgumentError(f"need {len(blocks_list)} epsilons, got {len(eps)}")
    partition = BlockPartition(tuple(blocks_list), tuple(anchors),
                               tuple(eps[: len(blocks_list)]))

    # structural guarantees of the induction, verified rather than assumed:
    # disjoint sets tiling 1..r(last bound), tails ordered left to right
    report = validate_block_partition(partition, bounds[-1])
    if not report.valid:
        raise ArgumentError("constructed blocks do not partition an initial segment: "
                            + "; ".join(report.failures))
    for a, b in zip(blocks_list, blocks_list[1:]):
        if max(a) > max(b):
            raise ArgumentError("block tails are not ordered left to right")
    return StrongPartitionTrace(partition, tuple(bounds), tuple(starts),
                                tuple(intervals), d_map, j_of_n)


# ---------------------------------------------------------------------------
# case (A)/(B) diagnostic


@dataclass(frozen=True)
class BoundVerdict:
    bound: int
    case: str
    n0: int | None
    claim_ok: bool | None
    support: tuple | None


@dataclass(frozen=True)
class StrongnessReport:
    verdicts: tuple
    residuals: dict

    @property
    def residual(self) -> float:
        return self.residuals[max(self.residuals)]


def strongness_diagnostic(x, zsys: BiorthSystem, xsys: BiorthSystem,
                          trace: StrongPartitionTrace, eps,
                          prefixes=None) -> StrongnessReport:
    """Per-block-bound case analysis plus the supported-span residual.

    For each round's anchor interval the coefficients of x against the
    reference system either stay below their budgets throughout (case A)
    or a last violator n0 exists with every later index within budget
    (case B); in case B the block containing n0 is checked to carry only
    nonzero z-coefficients of x.  Residuals are distances from x to the
    span of those z_n (n up to each requested prefix, in 1..N) whose
    coefficient is above biorth_tol.
    """
    prefixes = [zsys.size] if prefixes is None else [int(N) for N in prefixes]
    bad = [N for N in prefixes if not 1 <= N <= zsys.size]
    if bad:
        raise ArgumentError(f"prefixes must lie in 1..{zsys.size}, got {bad}")
    eps = [float(e) for e in eps]
    if len(eps) < trace.partition.count:
        raise ArgumentError(f"need {trace.partition.count} epsilons, got {len(eps)}")
    xv = as_vector(x, zsys.ambient_dim)
    nrm = np.linalg.norm(xv)
    if nrm == 0:
        raise ArgumentError("x must be nonzero")
    xv = xv / nrm
    coeff_ref = xsys.fs @ xv
    coeff_z = zsys.fs @ xv
    xnorms = np.linalg.norm(xsys.xs, axis=1)
    btol = xsys.tol.biorth_tol

    verdicts = []
    for bound, (lo, hi) in zip(trace.round_starts, trace.anchor_intervals):
        violators = []
        for n in range(lo, hi + 1):
            term = abs(coeff_ref[n - 1]) * xnorms[n - 1]
            if term > eps[trace.j_of_n[n] - 1]:
                violators.append(n)
        if not violators:
            verdicts.append(BoundVerdict(bound, "A", None, None, None))
            continue
        n0 = max(violators)
        block = trace.partition.blocks[trace.j_of_n[n0] - 1]
        claim_ok = all(abs(coeff_z[n - 1]) > btol for n in block)
        verdicts.append(BoundVerdict(bound, "B", n0, claim_ok, block))

    residuals = {}
    for N in prefixes:
        idx = [n for n in range(1, N + 1) if abs(coeff_z[n - 1]) > btol]
        if idx:
            residuals[N] = distance_to_span(xv, zsys.xs[[i - 1 for i in idx]],
                                            zsys.tol.rank_tol)
        else:
            residuals[N] = 1.0
    return StrongnessReport(tuple(verdicts), residuals)
