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

from .biorth import BiorthSystem, biorthogonality_defect
from .errors import ArgumentError
from .perturbations import (BlockPartition, _require_budget, _require_comparable,
                            _require_cover)
from .subspace import (_isolated_rows, _left_inverse_bound, as_vector, distance_to_span,
                       prefix_bases, prefix_coordinates, project)

__all__ = [
    "RepresentingIndices",
    "StrongPartitionTrace",
    "ReconstructResult",
    "BoundVerdict",
    "StrongnessReport",
    "build_representing_indices",
    "build_norming_indices",
    "norming_property_minimum",
    "reconstruct",
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
    best unit-functional action over the unit sphere of span(QH).

    A signed unit column +-e_j that both factors hold, each with row j
    otherwise zero, spans a direction common to both spans and orthogonal
    to the rest of each: its cosine is exactly 1.  The kernel of
    :func:`prefix_bases` makes one for every isolated unit row.  Such
    columns are the isolated rows of Q^T (``subspace._isolated_rows``) with
    one nonzero, of magnitude exactly 1.  They are dropped, and the value
    is min(1, that of the rest), 1 when nothing is left.  With no shared
    column the SVD runs on QF^T QH as given.
    """
    units = []
    for Q in (QH, QF):
        c, j, _ = _isolated_rows(Q.T)
        one = np.abs(Q[j, c]) == 1
        units.append((c[one], j[one]))
    (ch, jh), (cf, jf) = units
    shared, at_h, at_f = np.intersect1d(jh, jf, return_indices=True)
    QH, QF = np.delete(QH, ch[at_h], axis=1), np.delete(QF, cf[at_f], axis=1)
    if QH.shape[1] == 0:
        return 1.0
    if QF.shape[1] < QH.shape[1]:
        return 0.0
    s = float(np.linalg.svd(QF.T @ QH, compute_uv=False)[-1])
    return min(1.0, s) if shared.size else s


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
    which :func:`build_norming_indices` admits its level against.  The
    unit directions both bases share are read as cosine 1, and only the
    rest goes to the SVD (:func:`_cross_minimum`).  Both prefixes must lie
    in 1..N.
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
    ``norming_property_minimum(sys, N, N)``).  The constant and every step
    take the SVD of the directions the two sides do not share as unit
    columns +-e_j, which on a finite perturbation of the unit-vector basis
    is a small block (:func:`_cross_minimum`).  The slack keeps a c derived
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


# ---------------------------------------------------------------------------
# the strong partition


@dataclass(frozen=True)
class StrongPartitionTrace:
    """Outcome of the block-partition induction over representing indices.

    The round at m (seeded at 0) has the anchor interval (r(m)+1, r(m+1))
    in ``anchor_intervals``, whose union is exactly the anchor set, and
    ends at the bound r(m') in ``block_bounds``, m' = m + r(m+1) - r(m) + 1
    the next round's m.  Its start r(m) is the interval's lower end less
    one; an anchor's block is its position in ``partition.anchors``.
    """

    partition: BlockPartition
    block_bounds: tuple
    anchor_intervals: tuple


def strong_partition(r: RepresentingIndices, blocks: int, eps=None) -> StrongPartitionTrace:
    """Iterate the partition induction for ``blocks`` rounds.

    One pass over rv = (0, r(1), ..., r(depth)): the round at m makes
    E(j) = (j, r(d)+1, ..., r(d+1)) for each j in (r(m), r(m+1)], with
    d = m + j - r(m), and the next round starts at m + r(m+1) - r(m) + 1,
    seeded at r(0) = 0 so the first round covers index 1.  A tail starts
    past r(d) >= r(m+1) >= j, so each anchor is its set's least member.
    Raises when the available depth cannot complete a round, reporting the
    depth the round needs: m + r(m+1) - r(m) + 1, or depth + 1 when the
    round starts at the depth.  Default budgets are eps_j = 2**-j.  The
    blocks form a :class:`BlockPartition`, so they are disjoint or refused
    as they are built; that they cover 1..r(last bound) exactly and that
    their tails run left to right is checked, not assumed.
    """
    if blocks < 1:
        raise ArgumentError("need at least one round")
    rv = (0,) + r.values
    sets, bounds, intervals = [], [], []
    m = 0
    for _ in range(blocks):
        # the round at m reads r up to index m + r(m+1) - r(m) + 1, where the
        # next round starts; one that starts at the depth lacks r(m+1)
        need = r.depth + 1 if m == r.depth else m + rv[m + 1] - rv[m] + 1
        if need > r.depth:
            where = "round" if m == r.depth else "block"
            raise ArgumentError(
                f"representing indices exhausted mid-{where}; depth {r.depth} "
                f"given, at least {need} required"
            )
        lo, hi = rv[m] + 1, rv[m + 1]
        intervals.append((lo, hi))
        for j in range(lo, hi + 1):
            d = m + j - rv[m]
            sets.append((j,) + tuple(range(rv[d] + 1, rv[d + 1] + 1)))
        m = need
        bounds.append(r.r_at(m))

    if eps is None:
        eps = [2.0 ** (-j) for j in range(1, len(sets) + 1)]
    eps = [float(e) for e in eps]
    if len(eps) < len(sets):
        raise ArgumentError(f"need {len(sets)} epsilons, got {len(eps)}")
    partition = BlockPartition(tuple(sets), tuple(E[0] for E in sets), tuple(eps[: len(sets)]))

    # structural guarantees of the induction, verified rather than assumed:
    # the sets tile 1..r(last bound), tails ordered left to right
    _require_cover(partition, bounds[-1],
                   "constructed blocks do not partition an initial segment: ")
    for a, b in zip(sets, sets[1:]):
        if max(a) > max(b):
            raise ArgumentError("block tails are not ordered left to right")
    return StrongPartitionTrace(partition, tuple(bounds), tuple(intervals))


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
    coefficient is above biorth_tol.  Systems of different length or
    ambient dimension, and a partition reaching past them, are refused by
    name, as :func:`~mbasis_lab.perturbations.verify_flattened` refuses them.

    A residual shows how far x lies outside the span of the selected z_n
    up to N; it cannot show strongness.  For a generic x every coefficient
    is selected, so at N = size on a complete truncation the span is the
    whole space and the residual is 0 by completeness, whatever the
    flattening did: every complete biorthogonal system in finite
    dimensions is strong.  Budgets that are not positive and finite are
    refused with :class:`~mbasis_lab.perturbations.BlockPartition`'s text.

    Completeness is certified, not factored.  When a prefix selects k = d
    rows S, d the ambient dimension, the system's own functionals certify
    them: where the cut of ``subspace._left_inverse_bound(F_S, Z_S)``, the
    package's one left-inverse certificate, clears rank_tol, the kernel
    keeps all d rows, R22 is empty, and the residual is 0.0, exactly what
    the QR would return.  That costs one k x k product in place of a QR of
    every selected row, and none where every row of the system is
    selected: the certificate then reads the system's stored
    :func:`~mbasis_lab.biorth.biorthogonality_defect`, the same product's
    value bit for bit.  The QR
    (:func:`~mbasis_lab.subspace.distance_to_span`) still runs for k < d
    and wherever the certificate cannot decide.
    """
    _require_comparable(zsys, xsys, trace.partition)
    prefixes = [zsys.size] if prefixes is None else [int(N) for N in prefixes]
    bad = [N for N in prefixes if not 1 <= N <= zsys.size]
    if bad:
        raise ArgumentError(f"prefixes must lie in 1..{zsys.size}, got {bad}")
    eps = [float(e) for e in eps]
    if len(eps) < trace.partition.count:
        raise ArgumentError(f"need {trace.partition.count} epsilons, got {len(eps)}")
    for j, e in enumerate(eps[: trace.partition.count], start=1):
        _require_budget(j, e)
    xv = as_vector(x, zsys.ambient_dim)
    nrm = np.linalg.norm(xv)
    if nrm == 0:
        raise ArgumentError("x must be nonzero")
    xv = xv / nrm
    coeff_ref = xsys.fs @ xv
    coeff_z = zsys.fs @ xv
    xnorms = np.linalg.norm(xsys.xs, axis=1)
    btol = xsys.tol.biorth_tol

    block_of = {n: k for k, n in enumerate(trace.partition.anchors)}  # 0-based
    verdicts = []
    for lo, hi in trace.anchor_intervals:
        violators = [n for n in range(lo, hi + 1)
                     if abs(coeff_ref[n - 1]) * xnorms[n - 1] > eps[block_of[n]]]
        if not violators:
            verdicts.append(BoundVerdict(lo - 1, "A", None, None, None))
            continue
        n0 = max(violators)
        block = trace.partition.blocks[block_of[n0]]
        claim_ok = all(abs(coeff_z[n - 1]) > btol for n in block)
        verdicts.append(BoundVerdict(lo - 1, "B", n0, claim_ok, block))

    residuals = {}
    tol, selected = zsys.tol.rank_tol, np.abs(coeff_z) > btol
    for N in prefixes:
        rows = np.flatnonzero(selected[:N])
        take = slice(N) if rows.size == N else rows  # views when every row is selected
        # all d rows of the system: its stored defect is this product's value
        full = rows.size == zsys.size == zsys.ambient_dim
        defect = biorthogonality_defect(zsys) if full else None
        complete = (rows.size == zsys.ambient_dim
                    and _left_inverse_bound(zsys.fs[take], zsys.xs[take], defect)[1] > tol)
        if not rows.size:
            residuals[N] = 1.0
        elif complete:
            residuals[N] = 0.0  # the kernel keeps all d rows, so R22 is empty
        else:
            # a C-ordered copy whatever the system's layout: the kernel's
            # row norms round by the layout
            residuals[N] = distance_to_span(xv, zsys.xs[rows], tol)
    return StrongnessReport(tuple(verdicts), residuals)
