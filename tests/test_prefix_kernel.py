"""The orthonormal-prefix kernel and the diagnostics built on it.

The superseded Gram-Schmidt, projector-gap and SVD-per-prefix
implementations in ``oracles`` define the expected outputs: on every input
below the kernel-based ``spanning_indices``, ``classify_perturbation`` and
representing and norming index searches must return the same values, or
raise the same exception type, and the sine-form ``span_gap`` must give
the projector gap's verdicts and agree with its values to a rounding floor.
"""

import math
from time import perf_counter

import numpy as np
import pytest

import mbasis_lab
import oracles
from mbasis_lab import biorth, representing
from mbasis_lab.biorth import (
    BiorthSystem,
    classify_perturbation,
    norming_constant_estimate,
    spanning_indices,
)
from mbasis_lab.errors import ArgumentError, ConstructionError
from mbasis_lab.pathology import (
    _cascade,
    _certify,
    build_pathological_system,
    build_permutation,
    build_phi,
    default_eps_sequence,
)
from mbasis_lab.perturbations import BlockPartition, construct_flattened
from mbasis_lab.representing import (
    build_norming_indices,
    build_representing_indices,
    norming_property_minimum,
    strong_partition,
)
from mbasis_lab.subspace import (
    ToleranceConfig,
    directed_span_gap,
    distance_to_span,
    orthonormal_rows,
    prefix_bases,
    prefix_coordinates,
    span_gap,
)
from test_representing import widening_system, window_defect

#: forward couplings of acceptance criterion 6; the last target is the size n
STAGED_PAIRS = ((2, 7), (3, 15), (8, 30), (16, 60), (31, 100))


def staged_system(n):
    X = np.eye(n)
    F = np.eye(n)
    for s, t in STAGED_PAIRS + ((61, n),):
        X[s - 1, t - 1] = 0.9
        F[t - 1, s - 1] = -0.9
    return BiorthSystem.from_pairs(X, F)


def flattened_staged(n, seed=7):
    base = staged_system(n)
    trace = strong_partition(build_representing_indices(base, 8), 2)
    return construct_flattened(base, trace.partition, seed=seed), base


def coupled_system(n, seed, couplings=3):
    rng = np.random.default_rng(seed)
    A = np.eye(n)
    for _ in range(couplings):
        src = int(rng.integers(1, n - 1))
        A[src - 1, int(rng.integers(src + 1, n + 1)) - 1] += rng.uniform(0.3, 0.8)
    return BiorthSystem.from_pairs(A, np.linalg.inv(A).T)


def flattened_random(seed):
    """A seeded flattening over a random consecutive partition."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 20))
    base = BiorthSystem.canonical(n) if seed % 2 else coupled_system(n, seed)
    cuts = sorted(rng.choice(np.arange(2, n), size=int(rng.integers(1, 4)),
                             replace=False).tolist())
    bounds = [0] + cuts + [n]
    blocks = [tuple(range(lo + 1, hi + 1)) for lo, hi in zip(bounds, bounds[1:])]
    partition = BlockPartition(tuple(blocks),
                               tuple(int(rng.choice(b)) for b in blocks),
                               tuple(float(rng.uniform(0.05, 0.4)) for _ in blocks))
    return construct_flattened(base, partition, seed=seed), base


def pile_case(n=10, agree=3):
    """Functionals leave the vector span after ``agree`` steps: a pile
    whose prefixes 1..agree agree on both sides, with no block witness."""
    x = BiorthSystem.canonical(n, ambient_dim=n + 1)
    F = x.fs.copy()
    F[agree:, n] = np.linspace(0.5, 1.0, n - agree)
    return BiorthSystem.from_pairs(x.xs, F), x


def triangular_case(n=12):
    """z_n recombines x_1..x_n (lower-triangular L); the duals follow."""
    x = coupled_system(n, 11)
    L = np.tril(np.random.default_rng(12).uniform(-0.5, 0.5, (n, n))) + np.eye(n)
    return BiorthSystem.from_pairs(L @ x.xs, np.linalg.inv(L).T @ x.fs), x


def neither_case(n=10):
    """A dense 1e-3 perturbation in a larger ambient space."""
    x = BiorthSystem.canonical(n, ambient_dim=n + 4)
    Z = x.xs + 1e-3 * np.random.default_rng(5).standard_normal(x.xs.shape)
    return BiorthSystem.from_pairs(Z, np.linalg.solve(Z @ Z.T, Z)), x


def near_tolerance_case(aligned, gap=0.8e-8):
    """Directions tilted by 0.8 * span_tol, into one shared or two separate
    outside coordinates: every column of the cross-matrix block is within
    tol while its Frobenius norm is not, so the exact 2-norm decides."""
    Z = np.eye(5)[:3].copy()
    Z[0, 3] = Z[1, 3 if aligned else 4] = gap
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    return BiorthSystem(Z, Z.copy()), BiorthSystem.canonical(3, ambient_dim=5)


def pathological_build(N):
    """(system, e_hat rows, compactified permutation, eps) at truncation N."""
    phi = build_phi(lambda n: float(n), 4 * N)
    spec = build_permutation(phi, 4 * N)
    eps = default_eps_sequence(N)
    system, E = build_pathological_system(spec, eps, N)
    return system, E, spec.compactified(N, keep_below=N), eps


def pathological_pair(N, reverse):
    p = pathological_build(N)[0]
    c = BiorthSystem.canonical(N, ambient_dim=p.ambient_dim)
    return (c, p) if reverse else (p, c)


CASES = {
    "staged-128": lambda: flattened_staged(128),
    "staged-192": lambda: flattened_staged(192),
    **{f"flattened-seed{s}": (lambda s=s: flattened_random(s)) for s in range(6)},
    "self": lambda: (coupled_system(24, 3),) * 2,
    "pile": pile_case,
    "triangular": triangular_case,
    "neither": neither_case,
    "near-tolerance-apart": lambda: near_tolerance_case(False),
    "near-tolerance-aligned": lambda: near_tolerance_case(True),
    **{f"pathological-{N}-vs-canonical": (lambda N=N: pathological_pair(N, False))
       for N in (16, 40, 64)},
    **{f"canonical-vs-pathological-{N}": (lambda N=N: pathological_pair(N, True))
       for N in (16, 40, 64)},
}


def outcome(fn, *args):
    """The return value, or the type of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("case", CASES)
def test_diagnostics_match_oracles(case):
    z, x = CASES[case]()
    expected = outcome(oracles.classify_perturbation, z, x)
    assert outcome(classify_perturbation, z, x) == expected
    assert outcome(spanning_indices, z, x) == outcome(oracles.spanning_indices, z, x)
    if case in ("pile", "neither"):
        assert expected.kind == case
    if case.startswith("near-tolerance"):
        assert expected.pile_prefixes == ((1,) if case.endswith("aligned") else (1, 2, 3))
    if case.startswith("pathological") or case.startswith("canonical"):
        # the rank tests bite here: only the first two prefixes agree
        assert expected.kind == "pile" and expected.pile_prefixes == (1, 2)


@pytest.mark.parametrize("case", ["staged-128", "staged-192", "flattened-seed0",
                                  "flattened-seed2", "self"])
def test_representing_indices_match_oracle(case, monkeypatch):
    _, x = CASES[case]()
    depth = 8 if case.startswith("staged") else 4
    plain = outcome(build_representing_indices, x, depth)
    norming = outcome(build_norming_indices, x, 3, 0.4)
    monkeypatch.setattr(representing, "_least_window_end", oracles._least_window_end)
    assert plain == outcome(build_representing_indices, x, depth)
    assert norming == outcome(build_norming_indices, x, 3, 0.4)


def tilted_system(n=100, seed=1):
    """Functionals tilted into an extra coordinate: the sampled norming
    estimate falls as the sample grows (0.960 at 128 samples, 0.953 at 200)."""
    X = np.eye(n + 1)[:n]
    F = X.copy()
    F[:, n] = np.random.default_rng(seed).uniform(0.2, 0.6, n)
    return BiorthSystem.from_pairs(X, F)


INDEX_CASES = {
    **{f"{case}-{side}": (lambda make=make, i=i: make()[i])
       for case, make in CASES.items() for i, side in enumerate(("z", "x"))
       if not (case == "self" and side == "z")},
    "staged-384": lambda: staged_system(384),
    "staged-512": lambda: staged_system(512),
    "widening": widening_system,
    "tilted": tilted_system,
}


@pytest.mark.parametrize("case", INDEX_CASES)
def test_index_searches_match_svd_oracles(case):
    x = INDEX_CASES[case]()
    depth = 2 if case == "widening" else 8
    plain = outcome(build_representing_indices, x, depth)
    assert plain == outcome(oracles.build_representing_indices, x, depth)
    est = norming_constant_estimate(x)
    for c in (est / 2, est / 4, 0.4):
        r = outcome(build_norming_indices, x, depth, c)
        assert r == outcome(oracles.build_norming_indices, x, depth, c)
        if isinstance(r, type):
            continue
        for p, rho in zip(r.interim_p, r.values):
            assert norming_property_minimum(x, p, rho) == pytest.approx(
                oracles.norming_property_minimum(x, p, rho), abs=1e-12)
    if isinstance(plain, type):
        return
    # the oracle's eigenvalues of a projector difference carry cancellation
    # of order sqrt(float64 eps) near a zero defect
    for head, p in zip(plain.values, plain.values[1:]):
        for q in {p - 1, p} - {head}:
            assert window_defect(x, head, q) == pytest.approx(
                oracles.window_approximation_defect(x, head, q), abs=1e-7)


@pytest.mark.parametrize("case", INDEX_CASES)
def test_norming_estimate_never_understates(case):
    # the norming constant is an infimum over unit functionals and the
    # estimate a minimum over sampled ones, so it can only read above the
    # exact value; 4 d u absorbs rounding (at most 3 ulps measured)
    x = INDEX_CASES[case]()
    exact = norming_property_minimum(x, x.size, x.size)
    assert exact <= norming_constant_estimate(x) + 4 * x.ambient_dim * np.finfo(float).eps / 2


@pytest.mark.parametrize("case", INDEX_CASES)
def test_default_c_is_half_the_norming_constant(case):
    # the builder reads the constant off the factorizations its widening
    # uses, the same calls norming_property_minimum makes at (N, N)
    x = INDEX_CASES[case]()
    assert build_norming_indices(x, 1).norming_c == norming_property_minimum(
        x, x.size, x.size) / 2


def test_norming_admits_against_the_exact_constant():
    # the sampled estimate reads 0.953 on the tilted system and 0.226 on the
    # pathological pair, against exact constants 0.231 and 3.5e-18
    with pytest.raises(ArgumentError, match="exceeds half the measured norming constant 0.231007"):
        build_norming_indices(tilted_system(), 8, 0.3)
    assert build_norming_indices(tilted_system(), 8).norming_c == pytest.approx(
        0.11550326142000820, abs=1e-15)
    x = INDEX_CASES["pathological-40-vs-canonical-z"]()
    assert build_norming_indices(x, 2).norming_c <= 1.8e-18


def test_norming_indices_take_no_sampled_estimate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("norming_constant_estimate called")

    for module in (biorth, representing, mbasis_lab):
        monkeypatch.setattr(module, "norming_constant_estimate", refuse, raising=False)
    for case in ("tilted", "widening", "staged-384"):
        x = INDEX_CASES[case]()
        assert build_norming_indices(x, 2).norming_c > 0


def test_staged_512_known_answer():
    z, x = flattened_staged(512)
    cls = classify_perturbation(z, x)
    assert cls.kind == "block"
    assert cls.intervals.intervals == ((1, 2), (3, 512))
    assert cls.pile_prefixes == (2, 512)
    q = spanning_indices(z, x)
    assert q[:7] == [2, 2, 15, 30, 60, 100, 512]
    assert q[7:] == [512] * 505


def test_prefix_bases_follow_gram_schmidt():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((9, 6))
    rows[2] = 3.0 * rows[0] - rows[1]                        # exactly dependent
    rows[4] = 0.0                                            # zero row
    rows[5] = rows[3] + 1e-12 * rng.standard_normal(6)       # within rank_tol
    rows[6] *= 1e8                                           # scale is irrelevant
    Q, R, rank = prefix_bases(rows, 1e-10)
    mgs = oracles._PrefixSpan(rows, 1e-10)
    ranks = [0]
    for _ in rows:
        mgs.grow()
        ranks.append(len(mgs.basis))
    assert rank.tolist() == ranks == [0, 1, 2, 2, 3, 3, 3, 4, 5, 6]
    assert np.allclose(Q.T, np.vstack(mgs.basis), rtol=0, atol=1e-12)
    assert np.all(np.diagonal(R) > 0)
    kept = [0, 1, 3, 6, 7, 8]
    unit = rows[kept] / np.linalg.norm(rows[kept], axis=1, keepdims=True)
    assert np.allclose(Q @ R, unit.T, rtol=0, atol=1e-12)


#: sine form against projector form: both err by a few units of rounding
#: per ambient coordinate (Higham, Accuracy and Stability, Thm 19.4), so
#: they may differ by GAP_FLOOR_C * d * u; measured at most 1.6 d u here
GAP_FLOOR_C = 4.0


def _prefix_lengths(n):
    return sorted({*range(1, min(n, 16) + 1), *np.linspace(1, n, 12).astype(int).tolist()})


def _assert_gap_matches_oracle(S1, S2, tol=ToleranceConfig().span_tol):
    gap, expected = span_gap(S1, S2), oracles.span_gap(S1, S2)
    assert (gap <= tol) == (expected <= tol)
    d = np.shape(S1)[1]
    assert abs(gap - expected) <= GAP_FLOOR_C * d * np.finfo(float).eps / 2


@pytest.mark.parametrize("case", CASES)
def test_span_gap_matches_projector_oracle(case):
    z, x = CASES[case]()
    for Z, X in ((z.xs, x.xs), (z.fs, x.fs)):
        for k in _prefix_lengths(z.size):
            _assert_gap_matches_oracle(Z[:k], X[:k])


@pytest.mark.parametrize("aligned", [False, True])
@pytest.mark.parametrize("gap", [0.9e-8, 0.999e-8, 1.001e-8, 1.1e-8])
def test_span_gap_near_tolerance_matches_projector_oracle(aligned, gap):
    z, x = near_tolerance_case(aligned, gap)
    for k in (1, 2, 3):
        _assert_gap_matches_oracle(z.xs[:k], x.xs[:k])


def test_span_gap_is_one_when_ranks_differ():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((2, 5))
    assert span_gap(np.eye(4)[:2], np.eye(4)[:3]) == 1.0
    assert span_gap([a, 2.0 * a], [a, b]) == 1.0
    assert span_gap([a, a + 1e-12 * b], [a, b]) == 1.0
    assert span_gap([a, b], [a + 1e-12 * b]) == 1.0


@pytest.mark.parametrize("case", CASES)
def test_span_gap_shares_the_directed_core(case):
    # past its exact 1.0 (ranks differ) and 0.0 (bitwise-equal bases),
    # span_gap is directed_span_gap's residual norm, bit for bit
    z, x = CASES[case]()
    for Z, X in ((z.xs, x.xs), (z.fs, x.fs)):
        for k in _prefix_lengths(z.size):
            Q1, Q2 = orthonormal_rows(Z[:k]), orthonormal_rows(X[:k])
            gap = span_gap(Z[:k], X[:k])
            if Q1.shape[0] != Q2.shape[0]:
                assert gap == 1.0
            elif np.array_equal(Q1, Q2):
                assert gap == 0.0
            else:
                assert gap == directed_span_gap(Z[:k], X[:k])


def test_prefix_bases_keep_rows_after_a_dropped_one():
    # a + eps b is dropped, but b is not within rank_tol of span{a}
    a, b = np.eye(3)[:2]
    for eps in (1e-11, 0.9e-10):
        rows = np.vstack([a, a + eps * b, b])
        Q, _, rank = prefix_bases(rows, 1e-10)
        assert rank.tolist() == [0, 1, 1, 2]
        assert distance_to_span(b, Q.T) <= 1e-15
        assert orthonormal_rows(rows).shape == (2, 3)


def test_prefix_bases_low_rank_is_fast():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((512, 128)) @ rng.standard_normal((128, 512))
    started = perf_counter()
    Q, R, rank = prefix_bases(M)
    assert perf_counter() - started < 1.0
    assert Q.shape == (512, 128) and R.shape == (128, 128)
    assert rank.tolist() == list(range(129)) + [128] * 384


def test_norming_estimate_golden():
    # recorded at the SVD-basis implementation; its seeded draws are
    # defined in that basis, which a QR basis would move to 0.9337536
    assert norming_constant_estimate(tilted_system()) == pytest.approx(
        0.9533434091959724, abs=1e-12)


def test_prefix_bases_empty_and_zero():
    Q, R, rank = prefix_bases(np.zeros((3, 4)))
    assert Q.shape == (4, 0) and R.shape == (0, 0) and rank.tolist() == [0, 0, 0, 0]


def test_tail_norms_are_prefix_distances():
    rng = np.random.default_rng(1)
    basis_rows = rng.standard_normal((4, 7))
    V = rng.standard_normal((3, 7))
    T = prefix_coordinates(basis_rows, V)[1]
    for i, v in enumerate(V):
        for j in range(5):
            assert T[i, j] == pytest.approx(distance_to_span(v, basis_rows[:j]), abs=1e-12)


def _corrupt(kind):
    """The cascade rows of the truncation-40 system, with the invariant
    ``kind`` names broken at step 4, its permutation and eps."""
    N, step = 40, 3
    spec = build_permutation(build_phi(lambda n: float(n), 4 * N), 4 * N)
    eps = default_eps_sequence(N)
    pi = spec.compactified(N, keep_below=N).tolist()
    rows = [tuple(list(part) for part in row)
            for row in _cascade(pi, (np.frexp(eps)[1] - 1).tolist())]
    erow, _, xrow, frow = rows[step]
    if kind == "budget":
        # t_4 doubled past eps_4
        erow[1] = (erow[1][0], 1, erow[1][2] + 1)
    elif kind == "vector-span":
        # a coordinate no functional and no e_hat prefix row touches keeps
        # the system biorthogonal but leaves the prefix span
        free = max(set(range(1, max(pi) + 1)) - set(pi) - set(range(1, step + 2)))
        xrow.append((free, 1, -10))
    elif kind == "dual-support":
        frow.append((pi[step + 1], 1, -66))
    elif kind == "defect":
        frow.append((pi[step], 1, -20))
    return rows, pi, eps


def _dense(rows):
    """X, F and e_hat of the rows in float64, each f_n divided by f_n(x_n)."""
    width = max(c for row in rows for part in row for c, _, _ in part)
    X, F, E = (np.zeros((len(rows), width)) for _ in range(3))
    for n, (erow, _, xrow, frow) in enumerate(rows):
        for out, part in ((E, erow), (X, xrow), (F, frow)):
            for c, s, e in part:
                out[n, c - 1] += math.ldexp(s, e)
    return X, F / np.sum(F * X, axis=1, keepdims=True), E


def _message(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


#: corruption kind -> the start of the refusal both verifiers give
PATHOLOGICAL_INVARIANTS = {
    "valid": None,
    "budget": "correction at step 4 exceeds its budget",
    "vector-span": "vector prefix span equality fails at 4",
    "dual-support": "functional 4 leaves its coordinate span",
    "defect": "biorthogonality defect",
}


@pytest.mark.parametrize("kind", list(PATHOLOGICAL_INVARIANTS))
def test_pathological_verification_matches_oracle(kind):
    # the exact certifier on the cascade's triples against the float
    # verifier on their dense image
    rows, pi, eps = _corrupt(kind)
    expected = _message(oracles._verify_pathological, *_dense(rows), np.array(pi), eps,
                        ToleranceConfig())
    got = _message(_certify, rows, pi, eps)
    invariant = PATHOLOGICAL_INVARIANTS[kind]
    if invariant is None:
        assert expected is None and got is None
    else:
        for outcome in (expected, got):
            assert outcome[0] is ConstructionError and outcome[1].startswith(invariant)
