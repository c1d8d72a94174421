"""The orthonormal-prefix kernel and the diagnostics built on it.

The superseded Gram-Schmidt and projector-gap implementations in
``oracles`` define the expected outputs: on every input below the
kernel-based ``spanning_indices``, ``classify_perturbation`` and
representing-index search must return the same values, or raise the same
exception type.
"""

import numpy as np
import pytest

import oracles
from mbasis_lab import representing
from mbasis_lab.biorth import BiorthSystem, classify_perturbation, spanning_indices
from mbasis_lab.pathology import (
    _verify_pathological,
    build_pathological_system,
    build_permutation,
    build_phi,
    default_eps_sequence,
)
from mbasis_lab.perturbations import BlockPartition, construct_flattened
from mbasis_lab.representing import (
    build_norming_indices,
    build_representing_indices,
    strong_partition,
)
from mbasis_lab.subspace import ToleranceConfig, distance_to_span, prefix_bases, tail_norms

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


def test_prefix_bases_empty_and_zero():
    Q, R, rank = prefix_bases(np.zeros((3, 4)))
    assert Q.shape == (4, 0) and R.shape == (0, 0) and rank.tolist() == [0, 0, 0, 0]


def test_tail_norms_are_prefix_distances():
    rng = np.random.default_rng(1)
    basis_rows = rng.standard_normal((4, 7))
    V = rng.standard_normal((3, 7))
    Q, _, _ = prefix_bases(basis_rows)
    T = tail_norms(V, Q)
    for i, v in enumerate(V):
        for j in range(5):
            assert T[i, j] == pytest.approx(distance_to_span(v, basis_rows[:j]), abs=1e-12)


def _corrupt(kind):
    system, Ehat, pi_t, eps = pathological_build(40)
    X, F = system.xs.copy(), system.fs.copy()
    step = 3
    if kind == "budget":
        Ehat[step, -1] = 0.5
    elif kind == "vector-span":
        # a coordinate no functional and no e_hat prefix row touches keeps
        # the system biorthogonal but leaves the prefix span
        free = sorted(set(range(X.shape[1])) - set(pi_t - 1) - set(range(step + 1)))
        X[step, free[-1]] = 1e-3
    elif kind == "dual-support":
        F[step, pi_t[step + 1] - 1] = 1e-20
    elif kind == "defect":
        F[step, step] += 1e-6
    return X, F, Ehat, pi_t, eps


def _message(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("kind", ["valid", "budget", "vector-span", "dual-support", "defect"])
def test_pathological_verification_matches_oracle(kind):
    args = _corrupt(kind) + (ToleranceConfig(),)
    expected = _message(oracles._verify_pathological, *args)
    assert _message(_verify_pathological, *args) == expected
    assert (expected is None) == (kind == "valid")
