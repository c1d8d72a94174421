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
e_n + t_n * e_{pi(n)} with power-of-two budgets t_n, which makes every
required cancellation exact in floating point: the returned system is
exactly biorthogonal and all prefix span equalities hold to rank scale.
Coordinates the permutation would scatter beyond any feasible ambient
dimension are relabeled, order preserved, into the band just above the
probe window; overlap counts below the window are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biorth import BiorthSystem
from .errors import ArgumentError, ConstructionError
from .subspace import ToleranceConfig, directed_span_gap, prefix_bases, tail_norms

__all__ = [
    "PhiTable",
    "PermutationSpec",
    "RoughSystem",
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
    "extract_rough_system",
    "rough_defect",
    "rough_separation",
    "rough_capacity",
    "greedy_rough_packing",
    "unb_experiment",
    "UnbReport",
    "UnbRun",
    "EPS_SQ_BUDGET",
]

#: sentinel for permutation values that lie beyond the tabulated range
BEYOND_TABLE = -1

#: square-sum budget for the near-canonical correction sequence
EPS_SQ_BUDGET = 1.0 / 8.0


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

    def at(self, n: int) -> int:
        if not 1 <= n <= self.N:
            raise ArgumentError(f"phi({n}) outside table 1..{self.N}")
        return int(self.values[n - 1])


def _as_f_table(f, N: int) -> np.ndarray:
    if callable(f):
        vals = np.array([float(f(n)) for n in range(1, N + 1)])
    else:
        vals = np.asarray(f, dtype=float)
        if vals.size < N:
            raise ArgumentError(f"f table of length {vals.size} shorter than N={N}")
        vals = vals[:N]
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
    _check_phi_conditions(table)
    return table


def _check_phi_conditions(t: PhiTable):
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


# ---------------------------------------------------------------------------
# the permutation


@dataclass(frozen=True)
class PermutationSpec:
    """Tabulated permutation data: f, phi, Phi, Gamma, pi and the free trace.

    ``Phi`` and ``pi`` hold exact values where they fit inside the table
    and the ``BEYOND_TABLE`` sentinel otherwise; a sentinel value is known
    to exceed N, which keeps every overlap query with bound <= N exact.
    """

    N: int
    f: np.ndarray
    phi: np.ndarray
    jump_points: tuple
    Phi: np.ndarray
    Gamma: np.ndarray
    pi: np.ndarray
    free_values: np.ndarray
    injective_verified: bool = False

    def pi_value(self, n: int) -> int | None:
        """Exact pi(n), or None when it lies beyond the table."""
        if not 1 <= n <= self.N:
            raise ArgumentError(f"pi({n}) outside table 1..{self.N}")
        v = int(self.pi[n - 1])
        return None if v == BEYOND_TABLE else v

    def omega_set(self, k: int) -> set:
        """Omega(k) = {1..k} intersected with {pi(1)..pi(k)} (exact)."""
        if not 1 <= k <= self.N:
            raise ArgumentError(f"Omega({k}) outside table 1..{self.N}")
        vals = self.pi[:k]
        return set(int(v) for v in vals[(vals != BEYOND_TABLE) & (vals <= k)])

    def omega_sizes(self, upto: int) -> np.ndarray:
        """|Omega(m)| for m = 1..upto in one cumulative pass.

        An index j contributes to Omega(m) exactly when max(j, pi(j)) <= m;
        sentinel values exceed the table and never contribute.
        """
        if not 1 <= upto <= self.N:
            raise ArgumentError(f"omega sizes need upto within 1..{self.N}")
        idx = np.arange(1, upto + 1)
        vals = self.pi[:upto]
        keys = np.where(vals == BEYOND_TABLE, self.N + 1, np.maximum(idx, vals))
        counts = np.bincount(np.minimum(keys, upto + 1), minlength=upto + 2)
        return np.cumsum(counts)[1:upto + 1]

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


def build_permutation(phi: PhiTable, N: int, exact: bool = False) -> PermutationSpec:
    """Assemble the permutation from the staircase.

    Phi(n) counts the m with phi(m) <= n, which is the index just before
    phi reaches n+1; Gamma is the jump set of phi (it meets every prefix
    {1..m} in at most phi(m) points, with equality); off Gamma the
    permutation is Phi, on Gamma it is the minimal unused value.  With
    ``exact`` set, a Phi value that cannot be evaluated inside the table
    raises instead of saturating, naming the extension required.
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

    spec = PermutationSpec(N, phi.f[:N], phi.values[:N], jumps, Phi, gamma, pi,
                           np.array(free_trace, dtype=np.int64))
    report = verify_injective(spec, N)
    if not report:
        raise ConstructionError("constructed permutation failed injectivity checks")
    object.__setattr__(spec, "injective_verified", True)
    return spec


def verify_injective(spec: PermutationSpec, upto: int) -> bool:
    """Injectivity of pi on 1..upto, decomposed so sentinels stay sound.

    Exact values must be pairwise distinct; beyond-table values are Phi
    entries, distinct because the jump points increase strictly; and the
    two classes cannot collide since every exact value fits the table
    while beyond-table values exceed it.
    """
    vals = spec.pi[:upto]
    exact = vals[vals != BEYOND_TABLE]
    if np.unique(exact).size != exact.size:
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
        free_values=idx.copy(),
        injective_verified=True,
    )
    return spec


def verify_phi_count_identity(spec: PermutationSpec, upto: int) -> bool:
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


@dataclass(frozen=True)
class OmegaStats:
    grid_m: np.ndarray
    omega: np.ndarray
    two_phi: np.ndarray
    ratio_grid: np.ndarray
    ratios: dict


def omega_stats(spec: PermutationSpec, cs, N: int, grid_points: int = 24) -> OmegaStats:
    """Overlap growth table: |Omega(m)| on a log grid plus |Omega(cn)|/f(n).

    Requires the spec to cover 1..max(cs)*N.  Raises if the overlap bound
    |Omega(m)| <= 2 phi(m) fails at any tabulated m (it cannot, by
    construction; a failure indicates corrupted data).
    """
    cs = [int(c) for c in cs]
    if min(cs) < 1:
        raise ArgumentError("grid constants must be positive integers")
    limit = max(cs) * N
    if limit > spec.N:
        raise ArgumentError(f"spec covers 1..{spec.N}, need 1..{limit}")
    sizes = spec.omega_sizes(limit)
    two_phi_all = 2 * spec.phi[:limit]
    bad = np.nonzero(sizes > two_phi_all)[0]
    if bad.size:
        m = int(bad[0]) + 1
        raise ConstructionError(
            f"overlap bound violated at m={m}: |Omega|={sizes[m - 1]} > {two_phi_all[m - 1]}"
        )
    grid_m = np.unique(np.geomspace(1, limit, grid_points).astype(np.int64))
    ratio_grid = np.unique(np.geomspace(1, N, grid_points).astype(np.int64))
    ratios = {
        c: sizes[c * ratio_grid - 1] / spec.f[ratio_grid - 1]
        for c in cs
    }
    return OmegaStats(grid_m, sizes[grid_m - 1], two_phi_all[grid_m - 1],
                      ratio_grid, ratios)


# ---------------------------------------------------------------------------
# the near-canonical pathological system


def _power_of_two_at_most(x: float) -> float:
    if x <= 0:
        raise ArgumentError("budget must be positive")
    return 2.0 ** math.floor(math.log2(x))


def _check_eps_budget(eps: np.ndarray):
    total = float(np.sum(eps * eps))
    if total > EPS_SQ_BUDGET + 1e-15:
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
    system is biorthogonal.  All four facts are machine-verified before
    returning.

    Permutation values beyond M are relabeled order-preservingly into
    (M, M + count]; ``ambient`` defaults to the top of that range, and an
    explicit value below it is refused.  Corrections use the largest power
    of two below each eps_n, which makes the cascade coefficients exact in
    floating point.
    """
    tol = tol or ToleranceConfig()
    if M < 1:
        raise ArgumentError("M must be at least 1")
    eps = np.asarray(eps_seq, dtype=float)
    if eps.size < M:
        raise ArgumentError(f"eps sequence of length {eps.size} shorter than M={M}")
    if np.any(eps < 0):
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

    t = np.zeros(M + 1)
    for n in range(1, M + 1):
        if pi_t[n - 1] == n:
            continue
        if eps[n - 1] <= 0.0:
            raise ConstructionError(
                f"step {n} needs a correction toward coordinate {pi_t[n - 1]} "
                f"but eps_{n} is zero; enlarge the budget"
            )
        t[n] = _power_of_two_at_most(float(eps[n - 1]))

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


def _verify_pathological(X, F, Ehat, pi_t, eps, tol: ToleranceConfig):
    M = X.shape[0]
    gram = F @ X.T
    defect = float(np.max(np.abs(gram - np.eye(M))))
    if defect > tol.biorth_tol:
        raise ConstructionError(f"biorthogonality defect {defect:.3e} above tolerance")
    # correction budgets
    over = np.flatnonzero(np.linalg.norm(Ehat - np.eye(M, Ehat.shape[1]), axis=1) > eps + 1e-15)
    if over.size:
        raise ConstructionError(f"correction at step {over[0] + 1} exceeds its budget")
    # prefix vector spans: x_m must sit in the e_hat prefix span, which has
    # full rank by the unit diagonal
    Q, _, rank = prefix_bases(Ehat, tol.rank_tol)
    full = int(np.sum(rank[1:] == np.arange(1, M + 1)))
    resid = tail_norms(X[:full], Q)[np.arange(full), np.arange(1, full + 1)]
    scale = np.maximum(np.linalg.norm(X[:full], axis=1), 1.0)
    off = np.flatnonzero(resid > tol.span_tol * scale)
    if off.size:
        raise ConstructionError(f"vector prefix span equality fails at {off[0] + 1}")
    if full < M:
        raise ConstructionError(f"e_hat prefix rank deficient at {full + 1}")
    # prefix dual spans: exact support containment plus full rank; f_m may
    # only use coordinates pi(k) - 1 with k <= m
    entered = np.full(F.shape[1], M)
    np.minimum.at(entered, pi_t[:M] - 1, np.arange(M))
    rows, cols = np.nonzero(F)
    leaving = rows[entered[cols] > rows]
    if leaving.size:
        raise ConstructionError(f"functional {leaving.min() + 1} leaves its coordinate span")


# ---------------------------------------------------------------------------
# the isomorphism


@dataclass(frozen=True)
class TOperator:
    matrix: np.ndarray
    norm: float
    norm_inv: float


def operator_T(e_hats, ambient: int, eps_seq=None,
               rank_tol: float = 1e-10) -> TOperator:
    """The map sending each row e_hat_n of ``e_hats`` to e_n, identity on
    the complement.

    When the square-sum budget of ``eps_seq`` is within 1/8, both operator
    norms are asserted to be at most 2.
    """
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
    bounds = np.empty(Z.shape[0])
    for i, row in enumerate(np.abs(Z)):
        heads = np.concatenate([[0.0], np.cumsum(row)])
        bounds[i] = float(np.min(heads + tails))
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

    @property
    def dim(self) -> int:
        return len(self.support) if self.support else self.ys.shape[1]

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
    if rs.size == 0:
        return 0.0
    gram = rs.gs @ rs.ys.T
    return float(np.max(np.abs(gram - np.eye(rs.size))))


def rough_separation(rs: RoughSystem) -> float:
    """Minimum pairwise distance ||y_i - y_j||, infinity for size < 2."""
    if rs.size < 2:
        return math.inf
    diffs = rs.ys[:, None, :] - rs.ys[None, :, :]
    d = np.linalg.norm(diffs, axis=2)
    return float(np.min(d[np.triu_indices(rs.size, k=1)]))


def extract_rough_system(zsys: BiorthSystem, xsys: BiorthSystem, T: np.ndarray,
                         spec: PermutationSpec, m: int, p_of_m: int,
                         r_of_m: int, eps: float = 0.25) -> RoughSystem:
    """Project the first p pairs onto the overlap coordinates Omega(r).

    Requires the support inclusions: the z-vector prefix inside the
    x-vector prefix span up to r, and likewise for the functionals (both
    within span_tol).  The result is bounded by twice the product of the
    operator norm bound and the functional bound of the input.
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
    omega = sorted(spec.omega_set(r_of_m))
    if not omega:
        raise ArgumentError(f"Omega({r_of_m}) is empty; enlarge r")
    keep = np.array([w - 1 for w in omega], dtype=int)
    mask = np.zeros(zsys.ambient_dim, dtype=bool)
    mask[keep] = True
    ys = zsys.xs[:p_of_m] @ T.T
    ys = np.where(mask[None, :], ys, 0.0)
    gs = np.where(mask[None, :], zsys.fs[:p_of_m], 0.0)
    bound_M = float(np.max(np.linalg.norm(gs, axis=1))) if p_of_m else 0.0
    return RoughSystem(ys, gs, eps, bound_M, tuple(omega))


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
    if M < 1.0:
        raise ArgumentError("M must be at least 1")
    if k < 1:
        raise ArgumentError("dimension must be at least 1")
    delta = (1.0 - 2.0 * eps) / M
    p_max = (1.0 + 2.0 / delta) ** k
    c1 = 1.0 / math.log(1.0 + 2.0 / delta)
    return RoughCapacity(delta, p_max, c1)


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
    """Orthonormal rows with the prefix spans of ``X``; refuses dependent rows."""
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


def _lambda_table(lambdas, N: int) -> np.ndarray:
    if callable(lambdas):
        lam = np.array([float(lambdas(m)) for m in range(1, N + 1)])
    else:
        lam = np.asarray(lambdas, dtype=float)
        if lam.size < N:
            raise ArgumentError(f"lambda table of length {lam.size} shorter than {N}")
        lam = lam[:N]
    if np.any(lam <= 0) or np.any(np.diff(lam) < 0):
        raise ArgumentError("lambda schedule must be positive and non-decreasing")
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
    must give q(m) = m.
    """
    tol = tol or ToleranceConfig()
    sizes = [int(s) for s in sizes]
    if min(sizes) < 4:
        raise ArgumentError("truncations must be at least 4")
    cap = rough_capacity(1, 0.25, max(M_bound, 1.0))
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
        top = operator_T(E, system.ambient_dim, eps_seq=eps)
        # orthonormalize the e_hat rows: they carry the same prefix spans as
        # the vectors (a pile perturbation) but are numerically tame, while
        # the raw vectors mix scales across hundreds of binary orders
        Z = _gram_schmidt_rows(E, tol.rank_tol)
        decay = t_asymptotics_check(top.matrix, Z, eps, strict=True)
        threshold = 1.0 / (4.0 * M_bound)
        above = np.nonzero(decay.measured >= threshold)[0]
        n0 = int(above[-1]) + 1 if above.size else 0
        q_vals = _prefix_dual_spanning(system.xs)
        omega_sizes = spec.omega_sizes(N)
        rows = []
        for m in range(1, N + 1):
            q = int(q_vals[m - 1])
            omega_q = int(omega_sizes[q - 1])
            two_phi = int(2 * spec.phi[q - 1])
            size_pm = max(m - n0, 0)
            c1log = cap.c1 * math.log(size_pm) if size_pm >= 1 else 0.0
            rows.append((m, q, float(lam[m - 1]), q / float(lam[m - 1]),
                         omega_q, two_phi, c1log))
        first_jump = next((m for m, q, *_ in rows if q > m), None)
        window_end = max((m for m, q, *_ in rows if q < N), default=0)
        # the growth trend lives on the coverage jumps: between jumps the
        # ratio falls mechanically (the denominator grows every step while
        # q is an integer staircase), at any truncation and already for the
        # untruncated object, so monotonicity is asserted along the jumps
        jump_ms = []
        prev_q = 0
        for m, q, *_ in rows:
            if q > m and q > prev_q:
                jump_ms.append(m)
            prev_q = q
        jump_ratios = [rows[m - 1][3] for m in jump_ms]
        monotone = all(b >= a - 1e-12 for a, b in zip(jump_ratios, jump_ratios[1:]))
        bracket_ok = all(r[4] <= r[5] for r in rows)
        capacity_ok = all(
            max(r[0] - n0, 0) <= rough_capacity(max(r[4], 1), 0.25,
                                                max(M_bound, 1.0)).p_max
            for r in rows
        )
        runs.append(UnbRun(N, tuple(rows), n0, first_jump, tuple(jump_ms),
                           window_end, monotone, bracket_ok, capacity_ok))

    # identity control at the smallest truncation
    N0 = min(sizes)
    ident = identity_permutation(2 * N0)
    eps0 = default_eps_sequence(N0)
    sys0, _ = build_pathological_system(ident, eps0, N0, tol=tol)
    q0 = _prefix_dual_spanning(sys0.xs)
    control_ok = bool(np.all(q0 == np.arange(1, N0 + 1)))
    return UnbReport(tuple(runs), control_ok)
