"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from mbasis_lab.biorth import (
    BiorthSystem,
    biorthogonality_defect,
    boundedness_constant,
    norming_constant_estimate,
    uniform_minimality_constant,
)
from mbasis_lab.pathology import (
    build_pathological_system,
    build_permutation,
    build_phi,
    default_eps_sequence,
    operator_T,
    rough_capacity,
    t_asymptotics_check,
    unb_experiment,
    verify_injective,
    verify_phi_count_identity,
    _gram_schmidt_rows,
    _prefix_dual_spanning,
)
from mbasis_lab.perturbations import construct_flattened, flattened_from_duals, verify_flattened, BlockPartition
from mbasis_lab.representing import (
    build_norming_indices,
    build_representing_indices,
    norming_property_minimum,
    reconstruct,
    strong_partition,
    strongness_diagnostic,
)
from mbasis_lab.biorth import classify_perturbation
from mbasis_lab.subspace import orthonormal_rows
from oracles import (
    RoughSystem,
    extract_rough_system,
    greedy_rough_packing,
    orthonormalized_duals,
    rough_defect,
    rough_separation,
    unit_net,
)


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def pathological_200():
    N = 200
    phi = build_phi(lambda n: float(n), 4 * N)
    spec = build_permutation(phi, 4 * N)
    eps = default_eps_sequence(N)
    system, e_hats = build_pathological_system(spec, eps, N)
    return spec, system, e_hats, eps


def test_criterion_1_biorthogonality():
    started = time.time()
    spec, system, E, eps = pathological_200()
    defect = biorthogonality_defect(system)
    span_tol = 1e-8

    # prefix vector spans at every m: x_m sits in the e_hat prefix span
    # (relative residual) and the e_hat prefix has full rank with a unit
    # diagonal, which carries the converse inclusion exactly
    spans_ok = True
    basis = []
    for m in range(system.size):
        row = E[m].copy()
        for b in basis:
            row -= (b @ row) * b
        nrm = np.linalg.norm(row)
        spans_ok = spans_ok and nrm > 0.5
        basis.append(row / nrm)
        resid = system.xs[m].copy()
        scale = np.linalg.norm(resid)
        for b in basis:
            resid -= (b @ resid) * b
        for b in basis:
            resid -= (b @ resid) * b
        spans_ok = spans_ok and np.linalg.norm(resid) <= span_tol * max(scale, 1.0)

    # prefix dual spans at every m: exact coordinate support containment
    pi_t = spec.compactified(system.size, keep_below=system.size)
    covered = set()
    duals_ok = True
    for m in range(system.size):
        covered.add(int(pi_t[m]) - 1)
        duals_ok = duals_ok and set(np.nonzero(system.fs[m])[0]) <= covered

    budgets_ok = all(
        np.linalg.norm(E[i] - np.eye(system.ambient_dim)[i]) <= eps[i]
        for i in range(system.size)
    )
    elapsed = time.time() - started
    verdict(
        1,
        defect <= 1e-8 and spans_ok and duals_ok and budgets_ok and elapsed < 30.0,
        f"defect {defect:.2e} <= 1e-08, prefix spans at 1e-08, corrections "
        f"within budget, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_2_operator_norms():
    spec, system, e_hats, eps = pathological_200()
    tail_ok = float(np.sum(eps * eps)) <= 1.0 / 8.0 + 1e-15
    top = operator_T(e_hats, system.ambient_dim, eps_seq=eps)
    ok = tail_ok and top.norm <= 2.0 + 1e-9 and top.norm_inv <= 2.0 + 1e-9
    verdict(2, ok,
            f"||T|| = {top.norm:.6f} and ||T^-1|| = {top.norm_inv:.6f}, "
            "both <= 2 + 1e-09 with the square-sum budget verified")


def test_criterion_3_distortion_decay():
    spec, system, e_hats, eps = pathological_200()
    top = operator_T(e_hats, system.ambient_dim, eps_seq=eps)
    Z = _gram_schmidt_rows(e_hats, 1e-10)
    table = t_asymptotics_check(top.matrix, Z, eps, strict=False)
    bound_ok = bool(np.all(table.measured <= 2.0 * table.bounds + 1e-12))
    m = table.measured
    smooth = np.array([np.median(m[i:i + 5]) for i in range(len(m) - 4)])
    mono_ok = bool(np.all(np.diff(smooth) <= 1e-12))
    end_ok = smooth[-1] < 0.05 and m[-1] < 0.05
    verdict(3, bound_ok and mono_ok and end_ok,
            f"distortion below twice the split bound for all n <= 200, "
            f"median-5 smoothed table non-increasing, ends at {m[-1]:.2e} < 0.05")


def test_criterion_4_permutation_lemma():
    started = time.time()
    N = 100_000
    cs = (1, 2, 4)
    table_len = max(cs) * N
    phi = build_phi(lambda n: float(n), table_len)
    spec = build_permutation(phi, table_len)
    inj = verify_injective(spec, N)
    sizes = spec.omega_sizes(table_len)
    bracket = bool(np.all(sizes <= 2 * spec.phi[:table_len]))
    fi_ok = verify_phi_count_identity(spec, N)
    grid = np.unique(np.geomspace(1_000, N, 16).astype(np.int64))
    ratios_ok = True
    for c in cs:
        r = sizes[c * grid - 1] / spec.f[grid - 1]
        ratios_ok = ratios_ok and bool(np.all(np.diff(r) <= 1e-15))
    elapsed = time.time() - started
    verdict(4, inj and bracket and fi_ok and ratios_ok and elapsed < 10.0,
            f"pi injective on 1..1e5, overlap bound everywhere, two-point "
            f"count identity, ratios monotone on 1e3..1e5, {elapsed:.1f}s < 10s")


def test_criterion_5_rough_capacity():
    caps_ok = True
    for k in (1, 2, 3, 5):
        cap = rough_capacity(k, 0.25, 2.0)
        caps_ok = caps_ok and cap.delta == 0.25
        caps_ok = caps_ok and abs(cap.p_max - 9.0 ** k) <= 1e-6 * 9.0 ** k
        caps_ok = caps_ok and abs(cap.c1 - 1.0 / math.log(9.0)) <= 1e-12
    packing_ok = True
    for k in (1, 2, 3):
        cap = rough_capacity(k, 0.25, 2.0)
        pts = greedy_rough_packing(k, cap.delta, trials=10_000, seed=k)
        packing_ok = packing_ok and pts.shape[0] <= cap.p_max

    # every certified quarter-rough 2-bounded system observed here keeps
    # the pairwise separation of at least (1 - 2 eps)/M = 0.25
    systems = []
    N = 40
    phif = build_phi(lambda n: float(n), 4 * N)
    spec = build_permutation(phif, 4 * N)
    eps = default_eps_sequence(N)
    system, e_hats = build_pathological_system(spec, eps, N)
    top = operator_T(e_hats, system.ambient_dim, eps_seq=eps)
    Z = _gram_schmidt_rows(e_hats, 1e-10)
    p = 5
    q = _prefix_dual_spanning(system.xs)
    duals = orthonormalized_duals(system, Z, p)
    zsys = BiorthSystem(Z[:p], duals, ambient_dim=system.ambient_dim).validate()
    systems.append(extract_rough_system(zsys, system, top.matrix, spec,
                                        p_of_m=p, r_of_m=int(q[p - 1])))
    ident = BiorthSystem.canonical(6)
    systems.append(RoughSystem(ident.xs, ident.fs, 0.25, 1.0,
                               tuple(range(1, 7))))
    sep_ok = True
    for rs in systems:
        certified = rough_defect(rs) <= 0.25 and rs.bound_M <= 2.0
        sep_ok = sep_ok and certified
        sep_ok = sep_ok and rough_separation(rs) >= 0.25 - 1e-9
    verdict(5, caps_ok and packing_ok and sep_ok,
            "capacity constants exact to 1e-12, seeded packings within 9^k "
            "for k = 1..3, certified systems separated by 0.25 - 1e-09")


def staged_coupling_system(n=128):
    """Truncation-128 system whose depth-8 indices tile the whole range.

    Forward couplings x_s = e_s + 0.9 e_T enter the head exactly at their
    step, so each step's window search must run to the next target:
    r = (1, 2, 7, 15, 30, 60, 100, 128).
    """
    pairs = [(2, 7), (3, 15), (8, 30), (16, 60), (31, 100), (61, 128)]
    X = np.eye(n)
    F = np.eye(n)
    for s, t in pairs:
        X[s - 1] = np.eye(n)[s - 1] + 0.9 * np.eye(n)[t - 1]
        F[t - 1] = np.eye(n)[t - 1] - 0.9 * np.eye(n)[s - 1]
    return BiorthSystem.from_pairs(X, F)


def test_criterion_6_flattening_pipeline():
    sys128 = staged_coupling_system()
    r = build_representing_indices(sys128, 8)
    assert r.values == (1, 2, 7, 15, 30, 60, 100, 128)
    trace = strong_partition(r, 2)
    assert max(trace.partition.covered) == 128
    z = construct_flattened(sys128, trace.partition, seed=7)
    report = verify_flattened(z, sys128, trace.partition)
    cls = classify_perturbation(z, sys128)
    eps = list(trace.partition.epsilons)
    rng = np.random.default_rng(2026)
    residual_ok = True
    for _ in range(20):
        x = rng.standard_normal(128)
        x /= np.linalg.norm(x)
        diag = strongness_diagnostic(x, z, sys128, trace, eps,
                                     prefixes=[32, 64, 128])
        res = [diag.residuals[N] for N in (32, 64, 128)]
        residual_ok = residual_ok and all(b <= a + 1e-12 for a, b in zip(res, res[1:]))
        residual_ok = residual_ok and diag.residuals[128] <= 10 * 0.25
    verdict(6, report.passed and cls.kind == "block" and residual_ok,
            "flattening verified exactly over the depth-8 partition of the "
            "truncation-128 system, classified as block, residuals "
            "non-increasing over 32/64/128 and at most 2.5")


def test_criterion_7_reconstruct_and_norming():
    # reconstruct against the least-squares oracle over the same spans
    sys128 = staged_coupling_system()
    r = build_representing_indices(sys128, 8)
    rng = np.random.default_rng(5)
    oracle_ok = True
    for seed in range(5):
        x = np.random.default_rng(seed).standard_normal(128)
        x /= np.linalg.norm(x)
        for m in range(1, 8):
            res = reconstruct(x, sys128, r, m)
            head_end, win_end = r.r_at(m), r.r_at(m + 1)
            partial = (sys128.fs[:head_end] @ x) @ sys128.xs[:head_end]
            window = sys128.xs[head_end:win_end]
            coef, *_ = np.linalg.lstsq(window.T, x - partial, rcond=None)
            oracle = np.linalg.norm(x - partial - coef @ window)
            oracle_ok = oracle_ok and abs(res.error - oracle) <= 1e-10

    # norming refinement with c at half the measured constant, the step
    # property checked over explicit nets of every interim head
    X = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.3, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    F = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0 / 0.3, 0.0],
        [0.0, 1.0, -1.0 / 0.3, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    sysw = BiorthSystem.from_pairs(X, F)
    c = norming_constant_estimate(sysw, samples=max(64, 2 * sysw.size), seed=0) / 2.0
    rw = build_norming_indices(sysw, 3, c=c)
    nets_ok = rw.values[1] > rw.interim_p[1]  # the rotated step must widen
    for m in range(1, rw.depth + 1):
        p = rw.interim_p[m - 1]
        rho = rw.r_at(m)
        nets_ok = nets_ok and norming_property_minimum(sysw, p, rho) >= c
        QF = orthonormal_rows(sysw.fs[:rho])
        for v in unit_net(sysw.xs[:p], 0.25):
            nets_ok = nets_ok and float(np.linalg.norm(QF @ v)) >= c
    verdict(7, oracle_ok and nets_ok,
            "reconstruction errors match the least-squares oracle to 1e-10 "
            "at every step; the norming step property holds on every step net "
            "at half the measured constant")


def test_criterion_8_worked_micro_example():
    sys2 = BiorthSystem.canonical(2)
    p = BlockPartition(((1, 2),), (1,), (0.1,))
    duals = np.array([[1.0, 0.0], [1.0, 0.1]])
    z = flattened_from_duals(sys2, p, duals)
    exact_ok = (np.max(np.abs(z.xs[0] - np.array([1.0, -10.0]))) <= 1e-12
                and np.max(np.abs(z.xs[1] - np.array([0.0, 10.0]))) <= 1e-12)
    C = boundedness_constant(z)
    mu = uniform_minimality_constant(z)
    flat_ok = verify_flattened(z, sys2, p).passed
    verdict(8, exact_ok and flat_ok
            and abs(C - 10.0499) <= 1e-3 and abs(mu - 0.0995) <= 1e-3,
            f"z1 = e1 - 10 e2 and z2 = 10 e2 exactly; boundedness {C:.4f} "
            f"and uniform minimality {mu:.4f}: flattening trades uniform "
            "minimality for the strong structure")


def test_criterion_9_unb_pipeline():
    started = time.time()
    report = unb_experiment(lambda m: float(m), 2.0, [64, 128, 256], seed=0)
    runs_ok = all(r.ratio_monotone and r.bracket_ok and r.capacity_ok
                  for r in report.runs)
    jumps_ok = all(len(r.jump_ms) >= 2 for r in report.runs)
    elapsed = time.time() - started
    verdict(9, runs_ok and jumps_ok and report.control_ok and elapsed < 120.0,
            f"growth ratios non-decreasing along the coverage jumps, overlap "
            f"and capacity brackets hold at every m, identity control gives "
            f"q(m) = m, runtime {elapsed:.1f}s < 120s")
