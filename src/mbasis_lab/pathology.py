"""Counterexample machinery: permutations, near-canonical systems, packing.

The permutation is assembled from a slowly growing staircase phi: a
counting function Phi, a jump set Gamma, and a minimal-unused cursor
produce an injective map whose prefix overlaps Omega(k) = {1..k} cut with
{pi(1)..pi(k)} stay below 2*phi(k).  Phi grows so fast (doubling plateaus
give Phi(n) ~ 2**n) that values are stored exactly only while they fit the
table; larger entries carry a beyond-table sentinel, which is sound for
every overlap query inside the table.

On top of the permutation sits a biorthogonal system whose functionals
occupy the permuted coordinates while the vectors stay near-canonical.
The inductive construction here uses single-coordinate corrections
e_n + t_n * e_{pi(n)} with t_n = 2**a_n, so its cascade runs exactly on
integer (index, sign, exponent) triples; a certifier checks the spans,
budgets and pairings on them before the dense arrays are written.
Coordinates the permutation would scatter beyond any feasible ambient
dimension are relabeled, order preserved, into the band just above the
probe window; overlap counts below the window are unaffected.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .biorth import BiorthSystem
from .errors import ArgumentError, ConstructionError
from .subspace import ToleranceConfig, prefix_bases

__all__ = [
    "PhiTable",
    "PermutationSpec",
    "RoughCapacity",
    "build_phi",
    "build_permutation",
    "identity_permutation",
    "verify_injective",
    "verify_phi_count_identity",
    "omega_stats",
    "OmegaStats",
    "build_pathological_system",
    "operator_T",
    "TOperator",
    "t_asymptotics_check",
    "DecayTable",
    "default_eps_sequence",
    "rough_capacity",
    "unb_experiment",
    "UnbReport",
    "UnbRun",
    "BEYOND_TABLE",
    "EPS_SQ_BUDGET",
    "OMEGA_GRID_POINTS",
]

#: sentinel for permutation values that lie beyond the tabulated range
BEYOND_TABLE = -1

#: square-sum budget for the near-canonical correction sequence
EPS_SQ_BUDGET = 1.0 / 8.0

#: points of each log grid of :func:`omega_stats` before duplicates merge
OMEGA_GRID_POINTS = 24


# ---------------------------------------------------------------------------
# the staircase phi


@dataclass(frozen=True)
class PhiTable:
    """A non-decreasing onto staircase phi tabulated on 1..N.

    ``values[i]`` is phi(i+1); ``jump_points[k-1]`` is the first index at
    which phi reaches k.  ``f`` is the target function the staircase was
    fitted under.
    """

    values: np.ndarray
    jump_points: tuple
    f: np.ndarray

    @property
    def N(self) -> int:
        return int(self.values.size)


def _table(f, N: int, too_short: str) -> np.ndarray:
    """f(1..N) as floats for a callable ``f``, else the first N entries of
    the table ``f``; a shorter table is refused with ``too_short`` formatted
    with its length and N."""
    if callable(f):
        return np.fromiter(map(float, map(f, range(1, N + 1))), float, N)
    vals = np.asarray(f, dtype=float)
    if vals.size < N:
        raise ArgumentError(too_short.format(vals.size, N))
    return vals[:N]


def _as_f_table(f, N: int) -> np.ndarray:
    vals = _table(f, N, "f table of length {} shorter than N={}")
    if not np.all(np.isfinite(vals)):
        raise ArgumentError("f must be finite on the table")
    return vals


def build_phi(f, N: int) -> PhiTable:
    """Unit-jump staircase phi below f with doubling plateaus.

    Jumps to value k+1 happen at max(2 * previous jump, first n with
    f(n) >= (k+1)^2 / 4).  The doubling keeps phi(n) <= n and
    phi(2n) <= 2 phi(n); the threshold keeps phi(n)^2 <= 4 f(n) from the
    second jump on, so phi/f decays like 4/phi.  For f(n) = n the
    threshold never binds and the staircase is floor(log2 n) + 1.

    Cost: O(N) only to read f (tabulation, finiteness, monotonicity and
    its running maximum) and to write ``values``, one ``np.repeat`` over
    the at most bit_length(N) plateaus; the jumps and the four conditions
    of :func:`_check_phi_conditions` take O(log N) work besides one
    plateau minimum of f.
    """
    if N < 1:
        raise ArgumentError("table length must be at least 1")
    fv = _as_f_table(f, N)
    if np.any(np.diff(fv) < -1e-12):
        raise ArgumentError("f must be non-decreasing on the table")
    if fv[-1] < 1.0:
        raise ArgumentError("need f(N) >= 1 on the table")
    if N > 1 and fv[-1] <= fv[0]:
        raise ArgumentError("f is constant on the table, not divergent")

    # jump k is max(2 * jump k-1, a_k), a_k the first n with f(n) >= k^2/4
    # (a_1 = 1), i.e. 2^k max_{i<=k} a_i / 2^i, exact in float64; the
    # running maximum of f crosses each threshold first where f does
    k = np.arange(1, int(N).bit_length() + 1)
    first = np.searchsorted(np.maximum.accumulate(fv), k * k / 4.0) + 1.0
    first[0] = 1.0
    scale = np.ldexp(1.0, k)
    jumps = (np.maximum.accumulate(first / scale) * scale).astype(np.int64)
    jumps = jumps[jumps <= N]
    _check_phi_conditions(jumps, fv)
    values = np.repeat(np.arange(1, jumps.size + 1), np.diff(jumps, append=N + 1))
    return PhiTable(values, tuple(jumps.tolist()), fv)


def _check_phi_conditions(jumps: np.ndarray, f: np.ndarray):
    """The staircase conditions of phi(n) = #{k : j_k <= n} on 1..N,
    N = f.size, read off the non-decreasing jumps j_k in 1..N.

    Each side of a condition is a step function of n, so it is compared
    only where one side changes; the refusals and their order are those
    of the same conditions checked at every n.
    """
    N = f.size
    k = np.arange(1, jumps.size + 1)
    # phi(j_k) >= k, and any n with phi(n) > n has j_phi(n) <= n < phi(n)
    if np.any(k > jumps):
        raise ConstructionError("phi(n) <= n violated")
    # phi(n) changes at each j_k and phi(2n) at each ceil(j_k / 2); below
    # the least of these both sides are 0
    n = np.concatenate((jumps, (jumps + 1) // 2))
    n = n[n <= N // 2]
    if np.any(np.searchsorted(jumps, 2 * n, side="right")
              > 2 * np.searchsorted(jumps, n, side="right")):
        raise ConstructionError("phi(2n) <= 2 phi(n) violated")
    if jumps.size == 0 or jumps[0] != 1 or np.any(np.diff(jumps) <= 0):
        raise ConstructionError("phi must be onto with unit jumps from 1")
    if jumps.size >= 2:
        # phi is k on [j_k, j_{k+1}); x -> 4x + 1e-9 is monotone in float64,
        # so the least f of each plateau decides it
        low = np.minimum.reduceat(f[jumps[1] - 1:], jumps[1:] - jumps[1])
        if np.any(k[1:].astype(float) ** 2 > 4.0 * low + 1e-9):
            raise ConstructionError("phi^2 <= 4 f violated beyond the second jump")


# ---------------------------------------------------------------------------
# the permutation


@dataclass(frozen=True)
class PermutationSpec:
    """Tabulated permutation data: f, phi, Phi, Gamma and pi on 1..N.

    ``Phi`` and ``pi`` hold exact values where they are at most N and the
    ``BEYOND_TABLE`` sentinel otherwise, whether or not the staircase
    table reaches far enough to know the value; a sentinel value is known
    to exceed N, which keeps every overlap query with bound <= N exact.
    The free values handed out on Gamma are ``pi[Gamma - 1]``.
    """

    N: int
    f: np.ndarray
    phi: np.ndarray
    jump_points: tuple
    Phi: np.ndarray
    Gamma: np.ndarray
    pi: np.ndarray
    injective_verified: bool = False

    def omega_sizes(self, upto: int) -> np.ndarray:
        """|Omega(m)| for m = 1..upto from the exact entries of pi.

        An index j contributes to Omega(m) exactly when max(j, pi(j)) <= m;
        sentinel values exceed the table and never contribute.  The sizes
        are a step function with a unit step at each sorted key
        max(j, pi(j)) <= upto.  Cost: O(upto) only to find the exact entries
        of pi and to write the result; the staircase permutation has at
        most 2 bit_length(N) of them.
        """
        if not 1 <= upto <= self.N:
            raise ArgumentError(f"omega sizes need upto within 1..{self.N}")
        vals = self.pi[:upto]
        j = np.flatnonzero(vals != BEYOND_TABLE)
        keys = np.sort(np.maximum(j + 1, vals[j]))
        keys = keys[:np.searchsorted(keys, upto, side="right")]
        return np.repeat(np.arange(keys.size + 1), np.diff(keys, prepend=1, append=upto + 1))

    def compactified(self, M: int, keep_below: int | None = None) -> np.ndarray:
        """pi(1..M) with values above ``keep_below`` relabeled just above it.

        Values <= keep_below (default M) are kept; larger or beyond-table
        values are renumbered, order preserved, to keep_below+1, +2, ...
        Overlap sets Omega(k) with k <= keep_below are unchanged.  The
        result is an injective int array of length M (1-based values).
        """
        if not 1 <= M <= self.N:
            raise ArgumentError(f"need M within 1..{self.N}")
        keep = M if keep_below is None else int(keep_below)
        if keep < M:
            raise ArgumentError("keep_below must not cut into the index range")
        pi = self.pi[:M]
        large = (pi == BEYOND_TABLE) | (pi > keep)
        # beyond-keep values are all of counting type and increase with j,
        # so relabeling in j-order preserves their relative order
        return np.where(large, keep + np.cumsum(large), pi)


def build_permutation(phi: PhiTable, N: int) -> PermutationSpec:
    """Assemble the permutation on 1..N from the staircase.

    Phi(n) counts the m with phi(m) <= n, which is the index just before
    phi reaches n+1, so Phi is the jump points shifted by one; Gamma is
    the jump set of phi (it meets every prefix {1..m} in at most phi(m)
    points, with equality); off Gamma the permutation is Phi, on Gamma it
    is the minimal unused value.  Phi(n) >= n, so the free value at a
    jump n, which is at most n, can only collide with Phi values already
    assigned: the free values are the least values outside the exact Phi
    image, handed out in order, and only Gamma is walked.  A Phi value
    above N, known or not, is stored as ``BEYOND_TABLE``.
    """
    if N > phi.N:
        raise ArgumentError(f"phi tabulated to {phi.N} < N = {N}")
    jumps = np.asarray(phi.jump_points, dtype=np.int64)
    Phi = np.full(N, BEYOND_TABLE, dtype=np.int64)
    known = jumps[1:N + 1] - 1  # first index of value n+1, minus one
    Phi[:known.size] = np.where(known <= N, known, BEYOND_TABLE)
    gamma = jumps[jumps <= N]

    pi = Phi.copy()
    pi[gamma - 1] = BEYOND_TABLE
    used = set(pi[:known.size].tolist())  # Phi is the sentinel past known
    free_cursor = 1
    for n in gamma.tolist():
        while free_cursor in used:
            free_cursor += 1
        pi[n - 1] = free_cursor
        free_cursor += 1

    spec = PermutationSpec(N, phi.f[:N], phi.values[:N], phi.jump_points, Phi, gamma, pi)
    report = verify_injective(spec, N)
    if not report:
        raise ConstructionError("constructed permutation failed injectivity checks")
    object.__setattr__(spec, "injective_verified", True)
    return spec


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a``: ``np.unique`` by a sort, which
    spares each process the ``numpy.ma`` import a plain ``np.unique`` makes."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def verify_injective(spec: PermutationSpec, upto: int) -> bool:
    """Injectivity of pi on 1..upto, decomposed so sentinels stay sound.

    Exact values must be pairwise distinct; beyond-table values are Phi
    entries, distinct because the jump points increase strictly; and the
    two classes cannot collide since every exact value fits the table
    while beyond-table values exceed it.
    """
    vals = spec.pi[:upto]
    exact = vals[vals != BEYOND_TABLE]
    if _distinct(exact).size != exact.size:
        return False
    if np.any(exact > spec.N):
        return False
    jumps = np.asarray(spec.jump_points)
    if np.any(np.diff(jumps) <= 0):
        return False
    return True


def identity_permutation(N: int) -> PermutationSpec:
    """The identity map dressed as a PermutationSpec (control runs)."""
    idx = np.arange(1, N + 1, dtype=np.int64)
    spec = PermutationSpec(
        N=N,
        f=idx.astype(float),
        phi=idx.copy(),
        jump_points=tuple(range(1, N + 1)),
        Phi=idx.copy(),
        Gamma=idx.copy(),
        pi=idx.copy(),
        injective_verified=True,
    )
    return spec


def verify_phi_count_identity(spec: PermutationSpec, upto: int) -> bool:
    """Two-point count identity: |{n : Phi(n) <= m}| in {phi(m)-1, phi(m)}.

    Counts use exact Phi entries only; beyond-table entries exceed every
    m <= N and never contribute.  Both sides are step functions of m: the
    count changes only at exact Phi values and phi only where
    ``spec.phi`` steps, so the identity is compared at those m and m = 1.
    Cost: O(N) only to find the exact entries of Phi and the steps of phi;
    the staircase permutation has at most bit_length(N) of each.
    """
    if not 1 <= upto <= spec.N:
        raise ArgumentError(f"upto must be within 1..{spec.N}")
    vals = np.sort(spec.Phi[spec.Phi != BEYOND_TABLE])
    phi = spec.phi[:upto]
    m = np.concatenate(([1], np.flatnonzero(phi[1:] != phi[:-1]) + 2,
                        vals[(vals >= 1) & (vals <= upto)]))
    counts = np.searchsorted(vals, m, side="right")
    at = phi[m - 1]
    return bool(np.all((counts == at - 1) | (counts == at)))


@dataclass(frozen=True)
class OmegaStats:
    grid_m: np.ndarray
    omega: np.ndarray
    two_phi: np.ndarray
    ratio_grid: np.ndarray
    ratios: dict


def omega_stats(spec: PermutationSpec, cs, N: int) -> OmegaStats:
    """Overlap growth table: |Omega(m)| on a log grid plus |Omega(cn)|/f(n).

    Both log grids take OMEGA_GRID_POINTS points, merged as integers.
    Requires the spec to cover 1..max(cs)*N and f to be positive on the
    ratio grid; a zero or negative f there is refused by name with its n.
    Raises if the overlap bound |Omega(m)| <= 2 phi(m) fails at any
    tabulated m (it cannot, by construction; a failure indicates corrupted
    data).
    """
    cs = [int(c) for c in cs]
    if not cs:
        raise ArgumentError("grid constants must list at least one entry")
    if min(cs) < 1:
        raise ArgumentError("grid constants must be positive integers")
    limit = max(cs) * N
    if limit > spec.N:
        raise ArgumentError(f"spec covers 1..{spec.N}, need 1..{limit}")
    sizes = spec.omega_sizes(limit)
    ratio_grid = _distinct(np.geomspace(1, N, OMEGA_GRID_POINTS).astype(np.int64))
    f = spec.f[ratio_grid - 1]
    zero = ratio_grid[f == 0]
    if zero.size:
        raise ArgumentError(f"f vanishes at n={zero[0]} on the ratio grid; "
                            "|Omega(cn)|/f(n) is undefined there")
    negative = ratio_grid[f < 0]
    if negative.size:
        raise ArgumentError(f"f is negative at n={negative[0]} on the ratio grid; "
                            "|Omega(cn)|/f(n) is no growth ratio there")
    two_phi_all = 2 * spec.phi[:limit]
    bad = np.nonzero(sizes > two_phi_all)[0]
    if bad.size:
        m = int(bad[0]) + 1
        raise ConstructionError(
            f"overlap bound violated at m={m}: |Omega|={sizes[m - 1]} > {two_phi_all[m - 1]}"
        )
    grid_m = _distinct(np.geomspace(1, limit, OMEGA_GRID_POINTS).astype(np.int64))
    ratios = {c: sizes[c * ratio_grid - 1] / f for c in cs}
    return OmegaStats(grid_m, sizes[grid_m - 1], two_phi_all[grid_m - 1],
                      ratio_grid, ratios)


# ---------------------------------------------------------------------------
# the near-canonical pathological system


def _eps_budget(eps: np.ndarray) -> tuple[float, bool]:
    """sum(eps_i^2) and whether it is within EPS_SQ_BUDGET, 1e-15 allowed
    for the rounding of the sum."""
    total = float(np.sum(eps * eps))
    return total, total <= EPS_SQ_BUDGET + 1e-15


def _check_eps_budget(eps: np.ndarray):
    total, within = _eps_budget(eps)
    if not within:
        raise ArgumentError(
            f"sum(eps_i^2) = {total:.6f} exceeds the budget 1/8; shrink the "
            "correction sequence"
        )


def default_eps_sequence(M: int) -> np.ndarray:
    """The 2**-i / 4 schedule; its square sum is 1/48, within budget."""
    return 0.25 * np.power(2.0, -np.arange(1, M + 1, dtype=float))


def build_pathological_system(spec: PermutationSpec, eps_seq, M: int,
                              ambient: int | None = None,
                              tol: ToleranceConfig | None = None):
    """Inductive near-canonical system over the permuted dual coordinates.

    Returns (system, E), E the M x ambient matrix of rows e_hat_n, with,
    for every prefix m: the vectors span exactly the e_hat prefix span,
    the functionals span exactly the permuted canonical coordinates
    pi(1..m), the corrections satisfy ||e_hat_n - e_n|| <= eps_n, and the
    system is biorthogonal.

    Permutation values beyond M are relabeled order-preservingly into
    (M, M + count]; ``ambient`` defaults to the top of that range, and an
    explicit value below it is refused.  Corrections are the largest power
    of two at most each eps_n, held as its binary exponent: the first three
    facts are certified exactly on exponents, biorthogonality in float64.
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
    # eps_n = m * 2^e with 1/2 <= m < 1 exactly, so t_n = 2^(e-1) <= eps_n
    pi = pi_t.tolist()
    rows = _cascade(pi, (np.frexp(eps[:M])[1] - 1).tolist())
    frows = _certify(rows, pi, eps[:M])
    erows, _, xrows, _ = zip(*rows)
    shape = (M, ambient)
    system = BiorthSystem(_scatter(xrows, shape), _scatter(frows, shape),
                          ambient_dim=ambient, tol=tol)
    return system.validate(), _scatter(erows, shape)


def _check_exponent(e: int, where: str):
    """Refuse a coefficient 2**e whose binary exponent as frexp reads it,
    e + 1, exceeds 980 in size; past 2**1023 it is not even finite."""
    if abs(e + 1) > 980:
        kind = "degenerate" if e > 1023 else "exponent overflow"
        raise ConstructionError(f"cascade coefficient {kind} at {where}; enlarge eps or "
                                "reduce the truncation")


def _cascade(pi: list, a: list) -> list:
    """Per step n of the 1-based ``pi``, with t_k = 2**a_k: e_hat_n, x_n on
    the e_hat rows (its chain), x_n and the unnormalized f_n, as lists of
    (index, sign, exponent) triples for sign * 2**exponent."""
    preimage = {p: k for k, p in enumerate(pi, 1)}
    rows = []
    for n, target in enumerate(pi, 1):
        erow = [(n, 1, 0)] + ([(target, 1, a[n - 1])] if target != n else [])
        # functional cascade: start at the new coordinate, push each forced
        # coefficient through the constraints of the earlier corrections
        frow = [(target, 1, 0)]
        j, s, e = target, 1, 0
        while j < n:
            nxt = pi[j - 1]
            if nxt == j or nxt in [c for c, _, _ in frow]:
                raise ConstructionError(f"functional cascade degenerates at {j}")
            s, e = -s, e - a[j - 1]
            _check_exponent(e, f"f({n}) coordinate {nxt}")
            frow.append((nxt, s, e))
            j = nxt

        # vector cascade: coefficients on the e_hat prefix, cancelling every
        # coordinate some earlier functional already occupies
        chain = [(n, 1, 0)]
        cur, s, e = n, 1, 0
        while (k := preimage.get(cur)) is not None and k < n:
            if k in [i for i, _, _ in chain]:
                raise ConstructionError(f"vector cascade degenerates at {k}")
            s, e = -s, e - a[k - 1]
            _check_exponent(e, f"x({n}) basis {k}")
            chain.append((k, s, e))
            cur = k

        # each correction in the chain cancels the coordinate of the step
        # before it, so x_n = s 2^e e_cur + t_n e_target, and f_n(x_n) is
        # t_n, the last entry of e_hat_n (1 for an unmoved step)
        _check_exponent(erow[-1][2], f"pairing at {n}")
        rows.append((erow, chain, [(cur, s, e)] + erow[1:], frow))
    return rows


def _certify(rows, pi: list, eps: np.ndarray) -> list:
    """Check the cascade's rows by integer comparisons, per step in the
    order the float checks ran, and return the rows f_n / f_n(x_n): the
    pairing f_n(x_n) is one signed power of two; t_n <= eps_n; the chain of
    x_n uses only e_hat_k with k <= n and, expanded, equals x_n term by
    term; f_n lives on the coordinates pi(1..n)."""
    entered = {p: k for k, p in reversed(list(enumerate(pi, 1)))}
    normalized = []
    for n, (erow, chain, xrow, frow) in enumerate(rows, 1):
        pairing = [(s * xs, e + xe) for c, s, e in frow for d, xs, xe in xrow if c == d]
        if len(pairing) != 1:
            raise ConstructionError(f"biorthogonality defect at step {n}: f_{n}(x_{n}) "
                                    "is not a single signed power of two")
        # 2**e <= eps_n = m * 2**E (1/2 <= m < 1) exactly when e < E
        if any(c != n and e >= math.frexp(eps[n - 1])[1] for c, _, e in erow):
            raise ConstructionError(f"correction at step {n} exceeds its budget")
        terms = [(c, -s, e) for c, s, e in xrow] + [
            (c, s * es, e + ee) for k, s, e in chain if k <= n for c, es, ee in rows[k - 1][0]]
        if max(k for k, _, _ in chain) > n or Counter(terms) != Counter(
                (c, -s, e) for c, s, e in terms):
            raise ConstructionError(f"vector prefix span equality fails at {n}")
        if any(entered.get(c, n + 1) > n for c, _, _ in frow):
            raise ConstructionError(f"functional {n} leaves its coordinate span")
        (ps, pe), = pairing
        normalized.append([(c, s * ps, e - pe) for c, s, e in frow])
    return normalized


def _scatter(rows, shape) -> np.ndarray:
    """The dense matrix of the rows of (1-based index, sign, exponent) triples."""
    n, c, s, e = np.array([(n, c - 1, s, e) for n, row in enumerate(rows) for c, s, e in row]).T
    out = np.zeros(shape)
    out[n, c] = np.ldexp(s, e)
    return out


# ---------------------------------------------------------------------------
# the isomorphism


@dataclass(frozen=True)
class TOperator:
    matrix: np.ndarray
    norm: float
    norm_inv: float


def _coordinate_blocks(n: np.ndarray, j: np.ndarray, size: int) -> np.ndarray:
    """A label per coordinate 0..size-1 naming its connected component in
    the graph with the edges (n, j): the nonzeros of a row matrix, which
    link each row n to its support and to its own index n.

    Min-label propagation along the edges with pointer jumping: labels only
    fall, each is a coordinate of its own component, and the fixed point
    is constant on components, so the labels name them.
    """
    label = np.arange(size)
    while True:
        new = label.copy()
        np.minimum.at(new, n, label[j])
        np.minimum.at(new, j, label[n])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _block_groups(E: np.ndarray) -> list:
    """The coordinate components of ``E`` grouped by (size k, row count r):
    per group a (count, k) array of each component's coordinates,
    ascending, so the r coordinates below M, the rows, come first; and r.

    E is refused when a nonzero E[n, j] joins two components, the premise
    every block computation rests on; the check is O(nnz).
    """
    M, d = E.shape
    n, j = np.nonzero(E)
    label = _coordinate_blocks(n, j, d)
    if np.any(label[n] != label[j]):
        raise ConstructionError("E has nonzero entries off its coordinate blocks")
    order = np.argsort(label, kind="stable")
    size = np.bincount(label, minlength=label.size)
    roots = np.flatnonzero(size)
    size = size[roots]
    rows = np.bincount(label[:M], minlength=label.size)[roots]
    start = np.cumsum(size) - size
    key = size * (M + 1) + rows
    return [(order[start[key == k * (M + 1) + r][:, None] + np.arange(k)], int(r))
            for k, r in zip(*np.divmod(_distinct(key), M + 1))]


def operator_T(e_hats, ambient: int, eps_seq=None,
               tol: ToleranceConfig | None = None) -> TOperator:
    """The map sending each row e_hat_n of ``e_hats`` to e_n, identity on
    the complement.

    With E the M x ambient row matrix and E_0 its first M canonical rows,
    T = I - (E - E_0)^T (E E^T)^-1 E: on span E it sends E^T c to E_0^T c,
    and it fixes every vector E annihilates.

    Link each row n to its support and to its own index n; the connected
    components C of that graph on the coordinates make E, E E^T and T
    block diagonal, with blocks E_C (rows n in C, columns C, at most as
    many rows as columns) and T_C = I - (E_C - E_0C)^T (E_C E_C^T)^-1 E_C.
    E is refused when a nonzero E[n, j] joins two components, the premise
    the blocks rest on (an O(nnz) check).  A coordinate no row reaches is a block of its own
    on which T is 1; a dense E is one block.  The rows are refused as
    dependent when the smallest singular value of E, the least over the
    blocks E_C, is within the caller's ``tol.rank_tol`` (the
    ``ToleranceConfig`` default when ``tol`` is None) of the largest.
    The norms come from the eigenvalues of the symmetric T_C^T T_C:
    ||T|| = sqrt(max lambda) and ||T^-1|| = 1 / sqrt(min lambda), and T is
    refused as not invertible when the least eigenvalue is not positive.
    Blocks of equal size and row count share one stacked SVD, solve,
    product and eigvalsh, and the dense T is the T_C scattered into the
    identity.  The cost is sum_C k_C^3 (k_C = |C|) plus the O(d^2)
    assembly of T.

    The eigenvalues of a block are within about k_C u ||T_C||^2 of exact
    (u = 2^-53), so ||T|| is accurate to a few k_C u relative and ||T^-1||
    to about k_C u kappa(T_C)^2 on the block that sets it.  Every T this
    package builds passes the eps-budget check: when the square-sum budget
    of ``eps_seq`` is within 1/8, both norms are asserted to be at most 2,
    which gives kappa(T) <= 4.
    """
    tol = tol or ToleranceConfig()
    E = np.asarray(e_hats, dtype=float)
    if E.ndim != 2:
        raise ArgumentError(f"e_hats must be a row matrix of shape (M, {ambient}), got {E.shape}")
    M, dim = E.shape
    if dim != ambient:
        raise ArgumentError(f"e_hats live in dimension {dim}, expected {ambient}")
    if M == 0:
        raise ArgumentError("e_hats is empty: T needs at least one row")
    if not np.all(np.isfinite(E)):
        raise ArgumentError("e_hats has entries that are not finite")
    if M > dim:
        raise ArgumentError("e_hat vectors are linearly dependent")
    blocks = [(C, r, E[C[:, :r, None], C[:, None, :]]) for C, r in _block_groups(E)]
    s = np.concatenate([np.linalg.svd(EC, compute_uv=False).ravel() for _, _, EC in blocks])
    if s.min() <= tol.rank_tol * s.max():
        raise ArgumentError("e_hat vectors are linearly dependent")
    # a coordinate no row reaches is a 1 x 1 block with r = 0: the empty
    # solve leaves T_C = 1 there, whose eigenvalue 1 the norms must see
    T = np.eye(ambient)
    lam = []
    for C, r, EC in blocks:
        k = C.shape[1]
        ECt = np.swapaxes(EC, 1, 2)
        TC = np.eye(k) - (ECt - np.eye(k, r)) @ np.linalg.solve(EC @ ECt, EC)
        T[C[:, :, None], C[:, None, :]] = TC
        lam.append(np.linalg.eigvalsh(np.swapaxes(TC, 1, 2) @ TC).ravel())
    lam = np.concatenate(lam)
    if not lam.min() > 0.0:
        raise ArgumentError(
            f"T is not invertible: the smallest eigenvalue of T^T T is {lam.min():.3e}, "
            "not positive"
        )
    norm, norm_inv = float(np.sqrt(lam.max())), float(1.0 / np.sqrt(lam.min()))
    if eps_seq is not None and _eps_budget(np.asarray(eps_seq, dtype=float))[1]:
        if norm > 2.0 + 1e-9 or norm_inv > 2.0 + 1e-9:
            raise ConstructionError(
                f"operator norms ({norm:.6f}, {norm_inv:.6f}) exceed 2 "
                "despite the eps budget"
            )
    return TOperator(T, norm, norm_inv)


@dataclass(frozen=True)
class DecayTable:
    measured: np.ndarray
    bounds: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.measured <= 2.0 * self.bounds + 1e-12


def t_asymptotics_check(T: np.ndarray, zs, eps_seq, strict: bool = True) -> DecayTable:
    """||T z_n - z_n|| against the coefficient-split upper bound.

    For z = sum a_i e_i the distortion obeys
    ||z - T^{-1} z|| <= sum_{i<=k} |a_i| + sqrt(sum_{i>k} eps_i^2) for
    every k, and ||T z - z|| <= ||T|| times that; the table reports the
    measured norms next to twice the bound minimized over k. With
    ``strict`` a violation raises.
    """
    Z = np.asarray(zs, dtype=float)
    if Z.ndim != 2:
        raise ArgumentError(f"zs must be a row matrix of shape (count, dim), got {Z.shape}")
    dim = Z.shape[1]
    eps = np.zeros(dim)
    eps_in = np.asarray(eps_seq, dtype=float)
    eps[:min(dim, eps_in.size)] = eps_in[:min(dim, eps_in.size)]
    tail_sq = np.concatenate([np.cumsum((eps * eps)[::-1])[::-1], [0.0]])
    tails = np.sqrt(tail_sq)  # tails[k] = sqrt(sum_{i>k} eps_i^2), 0-based k
    measured = np.linalg.norm(Z @ T.T - Z, axis=1)
    heads = np.zeros((Z.shape[0], dim + 1))  # heads[:, k] = sum_{i<=k} |a_i|
    np.cumsum(np.abs(Z), axis=1, out=heads[:, 1:])
    bounds = np.min(heads + tails, axis=1)
    table = DecayTable(measured, bounds)
    if strict and not bool(np.all(table.ok)):
        worst = int(np.argmax(measured - 2.0 * bounds))
        raise ConstructionError(
            f"distortion bound violated at row {worst}: {measured[worst]:.3e} "
            f"> 2 * {bounds[worst]:.3e}"
        )
    return table


# ---------------------------------------------------------------------------
# roughly biorthogonal systems


@dataclass(frozen=True)
class RoughCapacity:
    delta: float
    p_max: float
    c1: float


def rough_capacity(k: int, eps: float, M: float) -> RoughCapacity:
    """Packing limits for eps-roughly biorthogonal M-bounded systems.

    delta = (1 - 2 eps)/M separates the normalized vectors pairwise; the
    volume comparison caps the size at (1 + 2/delta)**k in dimension k and
    inverts to dimension >= c1 log(size) with c1 = 1/log(1 + 2/delta).
    """
    if not 0.0 < eps < 0.5:
        raise ArgumentError(f"eps must lie in (0, 1/2), got {eps}")
    if not math.isfinite(M):
        raise ArgumentError(f"M must be finite, got {M}")
    if M < 1.0:
        raise ArgumentError("M must be at least 1")
    if k < 1:
        raise ArgumentError("dimension must be at least 1")
    delta = (1.0 - 2.0 * eps) / M
    p_max = (1.0 + 2.0 / delta) ** k
    c1 = 1.0 / math.log(1.0 + 2.0 / delta)
    return RoughCapacity(delta, p_max, c1)


# ---------------------------------------------------------------------------
# the full experiment


@dataclass(frozen=True)
class UnbRun:
    truncation: int
    rows: tuple  # (m, q, lambda, ratio, omega, two_phi, c1log)
    n0: int
    first_jump: int | None
    jump_ms: tuple
    window_end: int
    ratio_monotone: bool
    bracket_ok: bool
    capacity_ok: bool


@dataclass(frozen=True)
class UnbReport:
    runs: tuple
    control_ok: bool
    columns: tuple = ("m", "q", "lambda", "ratio", "omega", "two_phi", "c1log")


def _gram_schmidt_rows(X: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal rows with the prefix spans of ``X``, the transposed Q of
    :func:`prefix_bases`; refuses a row that adds no direction.  On the
    cascade system all but the rows of a few small coordinate components
    are isolated rows, each its own normalized direction, so one small
    Householder QR factors the rest.
    """
    Q, _, rank = prefix_bases(X, rank_tol)
    if rank[-1] < X.shape[0]:
        raise ConstructionError("orthonormalization hit a dependent vector")
    return Q.T


def _prefix_dual_spanning(X: np.ndarray) -> np.ndarray:
    """Exact spanning indices of the orthonormalized system, dual side.

    Inside the functional span, the prefix dual span of the
    orthonormalized sequence is the annihilator of the later vectors,
    and it carries the explicit basis g_j = sum_k <x_k, x_j> f_k
    (j <= m): each g_j annihilates everything orthogonal to the vector
    prefix span, and there are m independent ones.  Hence q(m) is the
    largest functional index carrying a nonzero Gram coefficient over
    the first m columns.  The Gram entries of the cascade construction
    are sums of a few exact powers of two, so the nonzero pattern is
    exact and no tolerance enters.
    """
    M = X.shape[0]
    nonzero = (X @ X.T) != 0
    reach = np.where(nonzero.any(axis=0), M - np.argmax(nonzero[::-1], axis=0), 0)
    return np.maximum(np.maximum.accumulate(reach), np.arange(1, M + 1))


def _lambda_table(lambdas, N: int) -> np.ndarray:
    lam = _table(lambdas, N, "lambda table of length {} shorter than {}")
    if not np.all(np.isfinite(lam) & (lam > 0)) or np.any(np.diff(lam) < 0):
        raise ArgumentError("lambda schedule must be finite, positive and non-decreasing")
    return lam


def unb_experiment(lambdas, M_bound: float, sizes, seed: int,
                   tol: ToleranceConfig | None = None) -> UnbReport:
    """Spanning-index growth of orthonormalized spanned systems.

    For each truncation N: build the permutation from f coupled to the
    lambda schedule (f(n) counts, on a log scale, how many lambda values
    sit below n, so the overlap ratios the argument needs are visible on
    the grid), build the near-canonical system, orthonormalize its vectors
    (a pile perturbation with exact prefix spans), measure the spanning
    indices q(m) from the dual side, and tabulate q(m)/lambda_m next to
    the two overlap brackets.  A control run with the identity permutation
    must give q(m) = m.  ``M_bound`` must be finite and at least 1: it is
    the functional bound of the capacities and sets the decay threshold
    1 / (4 M_bound).  ``seed`` is not read: the construction is
    deterministic, and the parameter stays because the benchmark harness
    (``perfbench``) passes it.
    """
    tol = tol or ToleranceConfig()
    if not 1 <= M_bound < math.inf:
        raise ArgumentError(f"M must be finite and at least 1, got M_bound = {M_bound}")
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ArgumentError("sizes must list at least one truncation")
    if min(sizes) < 4:
        raise ArgumentError("truncations must be at least 4")
    cap = rough_capacity(1, 0.25, M_bound)
    runs = []
    for N in sizes:
        lam = _lambda_table(lambdas, N)
        L = 2 * N
        counts = np.searchsorted(lam, np.arange(1, L + 1), side="right")
        f_vals = np.log2(1.0 + counts.astype(float))
        phi = build_phi(f_vals, L)
        spec = build_permutation(phi, L)
        eps = default_eps_sequence(N)
        system, E = build_pathological_system(spec, eps, N, tol=tol)
        top = operator_T(E, system.ambient_dim, eps_seq=eps, tol=tol)
        # orthonormalize the e_hat rows: they carry the same prefix spans as
        # the vectors (a pile perturbation) but are numerically tame, while
        # the raw vectors mix scales across hundreds of binary orders
        Z = _gram_schmidt_rows(E, tol.rank_tol)
        decay = t_asymptotics_check(top.matrix, Z, eps, strict=True)
        threshold = 1.0 / (4.0 * M_bound)
        above = np.nonzero(decay.measured >= threshold)[0]
        n0 = int(above[-1]) + 1 if above.size else 0
        m = np.arange(1, N + 1)
        q = _prefix_dual_spanning(system.xs)
        ratio = q / lam
        omega = spec.omega_sizes(N)[q - 1]
        two_phi = 2 * spec.phi[q - 1]
        size_pm = np.maximum(m - n0, 0).tolist()
        # math.log, not np.log: the report prints c1log to 12 digits
        c1log = [cap.c1 * math.log(s) if s >= 1 else 0.0 for s in size_pm]
        rows = tuple(zip(m.tolist(), q.tolist(), lam.tolist(), ratio.tolist(),
                         omega.tolist(), two_phi.tolist(), c1log))
        first_jump = int(m[q > m][0]) if np.any(q > m) else None
        window_end = int(m[q < N][-1]) if np.any(q < N) else 0
        # the growth trend lives on the coverage jumps: between jumps the
        # ratio falls mechanically (the denominator grows every step while
        # q is an integer staircase), at any truncation and already for the
        # untruncated object, so monotonicity is asserted along the jumps
        jump_ms = m[(q > m) & (q > np.concatenate(([0], q[:-1])))]
        jump_ratios = ratio[jump_ms - 1]
        monotone = bool(np.all(jump_ratios[1:] >= jump_ratios[:-1] - 1e-12))
        bracket_ok = bool(np.all(omega <= two_phi))
        # cap.p_max ** k is rough_capacity(k, 0.25, M_bound).p_max bit for bit
        capacity_ok = all(s <= cap.p_max ** k
                          for s, k in zip(size_pm, np.maximum(omega, 1).tolist()))
        runs.append(UnbRun(N, rows, n0, first_jump, tuple(jump_ms.tolist()),
                           window_end, monotone, bracket_ok, capacity_ok))

    # identity control at the smallest truncation
    N0 = min(sizes)
    ident = identity_permutation(2 * N0)
    eps0 = default_eps_sequence(N0)
    sys0, _ = build_pathological_system(ident, eps0, N0, tol=tol)
    q0 = _prefix_dual_spanning(sys0.xs)
    control_ok = bool(np.all(q0 == np.arange(1, N0 + 1)))
    return UnbReport(tuple(runs), control_ok)
