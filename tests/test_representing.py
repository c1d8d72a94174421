import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbasis_lab.biorth import BiorthSystem, norming_constant_estimate
from mbasis_lab import representing
from mbasis_lab.errors import ArgumentError
from mbasis_lab.perturbations import verify_flattened
from mbasis_lab.representing import (
    build_norming_indices,
    build_representing_indices,
    norming_property_minimum,
    reconstruct,
    strong_partition,
    strongness_diagnostic,
    RepresentingIndices,
)
from mbasis_lab.subspace import orthonormal_rows
import oracles
from oracles import interval_witness, unit_net


def window_defect(sys, head_end, p):
    """The certificate the window search accepts p by, for head_end >= 1:
    read through the two helpers ``_least_window_end`` calls."""
    W, rank = representing._window_table(sys, head_end)
    return representing._window_defect(W, rank[p - head_end])


def e(i, n):
    v = np.zeros(n)
    v[i - 1] = 1.0
    return v


def jump_system():
    """dim-6 canonical except x3 = e3 + 0.9 e5 (couples past the next index)."""
    X = np.eye(6)
    X[2] = e(3, 6) + 0.9 * e(5, 6)
    F = np.eye(6)
    F[4] = e(5, 6) - 0.9 * e(3, 6)  # f5 must kill the coupled x3
    return BiorthSystem.from_pairs(X, F)


def sampled_window_defect(sys, head_end, p, samples=4000, seed=0):
    """Independent oracle: max over sampled head-sphere points of the
    distance difference, each distance from a least-squares residual."""
    rng = np.random.default_rng(seed)
    H = sys.xs[:head_end]
    mid = sys.xs[head_end:p]
    tail = sys.xs[head_end:]
    QH = orthonormal_rows(H)
    worst = 0.0
    for _ in range(samples):
        z = rng.standard_normal(QH.shape[0]) @ QH
        z /= np.linalg.norm(z)
        d_mid = np.linalg.norm(z - np.linalg.lstsq(mid.T, z, rcond=None)[0] @ mid) \
            if mid.size else np.linalg.norm(z)
        d_tail = np.linalg.norm(z - np.linalg.lstsq(tail.T, z, rcond=None)[0] @ tail)
        worst = max(worst, d_mid - d_tail)
    return worst


class TestRepresentingIndices:
    def test_canonical_consecutive(self):
        sys = BiorthSystem.canonical(10)
        r = build_representing_indices(sys, 5)
        assert r.values == (1, 2, 3, 4, 5)
        assert r.interim_p == r.values

    def test_jump_system(self):
        sys = jump_system()
        r = build_representing_indices(sys, 5)
        assert r.values == (1, 2, 3, 5, 6)

    def test_jump_matches_bruteforce(self):
        # brute-force scan over p with sampled exact distances at the step
        # that has to jump: head x1..x3, delta = 1/(3 * sum of norm products)
        sys = jump_system()
        sums = 2.0 + math.sqrt(1.81)
        delta = 1.0 / (3.0 * sums)
        d4 = sampled_window_defect(sys, 3, 4)
        d5 = sampled_window_defect(sys, 3, 5)
        assert d4 > delta  # p = 4 must be rejected
        assert d5 <= delta  # p = 5 is the least feasible
        # and the implementation's certificate brackets the sampled maxima
        assert window_defect(sys, 3, 4) >= d4 - 1e-9
        assert window_defect(sys, 3, 5) <= delta

    def test_depth_exceeding_truncation(self):
        sys = BiorthSystem.canonical(3)
        with pytest.raises(ArgumentError, match="reachable depth"):
            build_representing_indices(sys, 5)

    def test_delta_invariant(self):
        sys = jump_system()
        r = build_representing_indices(sys, 4)
        prods = np.linalg.norm(sys.xs, axis=1) * np.linalg.norm(sys.fs, axis=1)
        for m in range(1, r.depth):
            bound = 1.0 / (m * np.sum(prods[: r.r_at(m)]))
            assert r.deltas[m] <= bound + 1e-15

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ArgumentError):
            RepresentingIndices((1, 1), (math.inf, 1.0), (1, 1))


def widening_system(D=0.3):
    """Functionals rotated out of the vector prefix: the norming property
    fails at the interim step and the index must widen."""
    X = np.array([e(1, 3), e(2, 3) + D * e(3, 3), e(2, 3)])
    F = np.array([e(1, 3), e(3, 3) / D, e(2, 3) - e(3, 3) / D])
    return BiorthSystem.from_pairs(X, F)


class TestNormingIndices:
    def test_canonical_no_widening(self):
        sys = BiorthSystem.canonical(8)
        r = build_norming_indices(sys, 5, c=0.5)
        assert r.values == (1, 2, 3, 4, 5)
        assert r.interim_p == r.values
        assert r.norming_c == 0.5

    def test_widening_triggers(self):
        sys = widening_system()
        est = norming_constant_estimate(sys, samples=64, seed=0)
        assert est == pytest.approx(1.0, abs=1e-6)  # both spans are full
        r = build_norming_indices(sys, 2, c=0.4)
        assert r.interim_p == (1, 2)
        assert r.values == (1, 3)  # widened past the interim index

    def test_property_verified_over_step_nets(self):
        sys = widening_system()
        c = 0.4
        r = build_norming_indices(sys, 2, c=c)
        for m in range(1, r.depth + 1):
            p = r.interim_p[m - 1]
            rho = r.r_at(m)
            assert norming_property_minimum(sys, p, rho) >= c
            # the net-level check: every net point of the interim head
            # admits a functional witness at level c
            QF = orthonormal_rows(sys.fs[:rho])
            for v in unit_net(sys.xs[:p], 0.2):
                assert np.linalg.norm(QF @ v) >= c

    def test_default_c_is_half_the_norming_constant(self):
        sys = widening_system()
        c = norming_property_minimum(sys, sys.size, sys.size) / 2.0
        r = build_norming_indices(sys, 2)
        assert r.norming_c == c
        assert r == build_norming_indices(sys, 2, c)

    def test_c_out_of_range(self):
        sys = widening_system()
        with pytest.raises(ArgumentError, match="half the measured"):
            build_norming_indices(sys, 2, c=0.99)

    def test_unattainable_inside_truncation(self):
        # the last functional tilted almost wholly out of the ambient the
        # vectors see puts the norming constant near 1e-13; a c inside the
        # 1e-12 admission slack but above the constant passes the up-front
        # check, and the widening scan must run out of prefix at the last step
        n = 12
        X = np.eye(n + 1)[:n]
        F = np.eye(n + 1)[:n].copy()
        F[n - 1] = X[n - 1] + 1e13 * np.eye(n + 1)[n]
        sys = BiorthSystem.from_pairs(X, F)
        const = norming_property_minimum(sys, n, n)
        assert const < 2e-12
        c = const / 2.0 + 0.5e-12
        assert const < c <= const / 2.0 + 1e-12
        with pytest.raises(ArgumentError, match=f"unattainable.*step {n} "):
            build_norming_indices(sys, n, c=c)

    @pytest.mark.parametrize("c", [float("nan"), -0.1, 0.0])
    def test_non_positive_or_nan_c_refused(self, c):
        with pytest.raises(ArgumentError, match="c must be positive"):
            build_norming_indices(BiorthSystem.canonical(8), 4, c)


class TestReconstruct:
    def test_canonical_tail_norm(self):
        sys = BiorthSystem.canonical(10)
        r = build_representing_indices(sys, 6)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(10)
        errors = []
        for m in range(1, 6):
            res = reconstruct(x, sys, r, m)
            expected = np.linalg.norm(x[r.r_at(m + 1):])
            assert res.error == pytest.approx(expected, abs=1e-12)
            errors.append(res.error)
        # the error sequence trends down as the windows advance
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_system_vector_exact(self):
        sys = jump_system()
        r = build_representing_indices(sys, 4)
        for m in range(1, 4):
            res = reconstruct(sys.x(1), sys, r, m)
            assert res.error <= 1e-12

    def test_matches_lstsq_oracle(self):
        # banded coupling keeps the representing indices inside the truncation
        A = np.eye(20) + 0.25 * np.diag(np.ones(19), -1)
        X = A @ np.eye(20)
        F = np.linalg.inv(A).T
        sys = BiorthSystem.from_pairs(X, F)
        r = build_representing_indices(sys, 8)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(20)
        x /= np.linalg.norm(x)
        for m in range(1, 8):
            res = reconstruct(x, sys, r, m)
            head_end, win_end = r.r_at(m), r.r_at(m + 1)
            partial = (sys.fs[:head_end] @ x) @ sys.xs[:head_end]
            window = sys.xs[head_end:win_end]
            coef, *_ = np.linalg.lstsq(window.T, x - partial, rcond=None)
            oracle = np.linalg.norm(x - partial - coef @ window)
            assert res.error == pytest.approx(oracle, abs=1e-10)

    def test_membership_case_error_zero(self):
        sys = jump_system()
        r = build_representing_indices(sys, 4)
        m = 2
        head_end, win_end = r.r_at(m), r.r_at(m + 1)
        x = 0.5 * sys.xs[:head_end].sum(axis=0) + 1.5 * sys.xs[head_end:win_end].sum(axis=0)
        res = reconstruct(x, sys, r, m)
        assert res.error <= 1e-10

    def test_multiplicative_slack_bound(self):
        # error is between the exact distance to the combined span and that
        # distance inflated by the head coefficient mass
        A = np.eye(12) + 0.2 * np.diag(np.ones(11), -1)
        sys = BiorthSystem.from_pairs(A, np.linalg.inv(A).T)
        r = build_representing_indices(sys, 6)
        prods = np.linalg.norm(sys.xs, axis=1) * np.linalg.norm(sys.fs, axis=1)
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal(12)
            x /= np.linalg.norm(x)
            for m in range(1, 6):
                res = reconstruct(x, sys, r, m)
                span = sys.xs[: r.r_at(m + 1)]
                coef, *_ = np.linalg.lstsq(span.T, x, rcond=None)
                d_true = np.linalg.norm(x - coef @ span)
                S_m = np.sum(prods[: r.r_at(m)])
                assert d_true - 1e-12 <= res.error <= d_true * (1.0 + S_m) + 1e-12


class TestStrongPartition:
    def test_worked_example(self):
        r = RepresentingIndices(
            (1, 3, 6, 10, 15, 21, 28),
            tuple([math.inf] * 7),
            (1, 3, 6, 10, 15, 21, 28),
        )
        trace = strong_partition(r, 2)
        p = trace.partition
        assert p.blocks[0] == (1, 2, 3)
        assert p.blocks[1] == (4, 7, 8, 9, 10)
        assert p.blocks[2] == (5, 11, 12, 13, 14, 15)
        assert p.blocks[3] == (6, 16, 17, 18, 19, 20, 21)
        assert p.anchors == (1, 4, 5, 6)
        assert trace.block_bounds == (3, 21)
        assert trace.anchor_intervals == ((1, 1), (4, 6))
        # each anchor's block is its position among the anchors
        assert [p.blocks[p.anchors.index(n)][0] for n in (1, 4, 5, 6)] == [1, 4, 5, 6]

    def test_anchor_set_identity(self):
        r = RepresentingIndices(
            (1, 3, 6, 10, 15, 21, 28),
            tuple([math.inf] * 7),
            (1, 3, 6, 10, 15, 21, 28),
        )
        trace = strong_partition(r, 2)
        anchors = set(trace.partition.anchors)
        expected = set()
        for lo, hi in trace.anchor_intervals:
            expected.update(range(lo, hi + 1))
        assert anchors == expected == {1, 4, 5, 6}

    def test_block_kind_witness(self):
        r = RepresentingIndices(
            (1, 3, 6, 10, 15, 21, 28),
            tuple([math.inf] * 7),
            (1, 3, 6, 10, 15, 21, 28),
        )
        trace = strong_partition(r, 2)
        assert interval_witness(trace.partition, trace.block_bounds[-1]) is not None

    def test_exhaustion_names_needed_depth(self):
        r = RepresentingIndices((1, 3), (math.inf, math.inf), (1, 3))
        with pytest.raises(ArgumentError, match="at least"):
            strong_partition(r, 2)

    def test_d_map_levels(self):
        r = RepresentingIndices(
            (1, 3, 6, 10, 15, 21, 28),
            tuple([math.inf] * 7),
            (1, 3, 6, 10, 15, 21, 28),
        )
        trace = strong_partition(r, 2)
        anchors = trace.partition.anchors
        assert {n: anchors.index(n) + 1 for n in (1, 4, 5, 6)} == {1: 1, 4: 2, 5: 3, 6: 4}


@st.composite
def increasing_indices(draw):
    """Strictly increasing r of depth 1..9 with values below 60."""
    values = draw(st.lists(st.integers(1, 59), min_size=1, max_size=9, unique=True))
    return RepresentingIndices(tuple(sorted(values)), (math.inf,) * len(values),
                               tuple(sorted(values)))


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # compared by type and text
        return type(exc), str(exc)


def needed_depth(r, blocks):
    """The depth the first round that cannot complete needs, and where it
    stops: the round at m reads r up to index m + r(m+1) - r(m) + 1, and
    one that starts at the depth lacks r(m+1) itself."""
    rv, m = (0,) + r.values, 0
    for _ in range(blocks):
        if m == r.depth:
            return m + 1, "round"
        need = m + rv[m + 1] - rv[m] + 1
        if need > r.depth:
            return need, "block"
        m = need
    return None


@settings(max_examples=400, deadline=None)
@given(increasing_indices(), st.integers(1, 4))
def test_strong_partition_matches_the_elementwise_induction(r, blocks):
    got = outcome(strong_partition, r, blocks)
    want = outcome(oracles.strong_partition, r, blocks)
    if isinstance(want, tuple):  # a refusal
        # the oracle reports the first index it lacks, depth + 1; the
        # refusal names the depth the round needs
        need, where = needed_depth(r, blocks)
        assert got[0] is want[0]
        assert f"mid-{where};" in want[1]
        assert got[1] == (f"representing indices exhausted mid-{where}; depth "
                          f"{r.depth} given, at least {need} required")
        return
    assert needed_depth(r, blocks) is None
    assert got.partition == want.partition
    assert got.block_bounds == want.block_bounds
    assert got.anchor_intervals == want.anchor_intervals
    # the retired fields are what the trace still determines
    assert tuple(lo - 1 for lo, _ in got.anchor_intervals) == want.round_starts
    assert {n: k for k, n in enumerate(got.partition.anchors, start=1)} == want.j_of_n


@pytest.mark.parametrize("values", [(1, 3, 6), (1, 3, 6, 10), (1, 3, 6, 10, 15)])
def test_mid_block_refusal_names_the_depth_the_round_needs(values):
    # the second round starts at m = 2 and reads r up to 2 + 6 - 3 + 1 = 6
    r = RepresentingIndices(values, (math.inf,) * len(values), values)
    with pytest.raises(ArgumentError, match=(
            rf"exhausted mid-block; depth {len(values)} given, at least 6 required$")):
        strong_partition(r, 2)


class TestStrongnessDiagnostic:
    def _setup(self, depth=5, blocks=2, dim=32):
        from mbasis_lab.perturbations import construct_flattened

        sys = BiorthSystem.canonical(dim)
        r = build_representing_indices(sys, depth)
        trace = strong_partition(r, blocks)
        covered = max(trace.partition.covered)
        sub = sys.prefix(covered)
        z = construct_flattened(sub, trace.partition, seed=2)
        return sub, z, trace

    def test_basis_vector_case_a_beyond_first(self):
        sub, z, trace = self._setup()
        eps = [2.0 ** (-j) for j in range(1, trace.partition.count + 1)]
        report = strongness_diagnostic(e(1, sub.ambient_dim), z, sub, trace, eps)
        # the unit coefficient at n = 1 exceeds eps_1 = 1/2, so the first
        # bound is a (B) case with its block fully supported; every later
        # bound sees vanished coefficients and is an (A) witness
        first = report.verdicts[0]
        assert first.case == "B" and first.n0 == 1 and first.claim_ok
        assert all(v.case == "A" for v in report.verdicts[1:])
        assert report.residual <= 1e-10

    def test_large_coefficient_case_b(self):
        sub, z, trace = self._setup()
        n0 = trace.partition.anchors[1]
        eps = [1e-6] * trace.partition.count
        x = sub.x(n0) / np.linalg.norm(sub.x(n0))
        report = strongness_diagnostic(x, z, sub, trace, eps)
        verdict = report.verdicts[1]
        assert verdict.case == "B"
        assert verdict.n0 == n0
        assert verdict.claim_ok
        assert verdict.support == trace.partition.blocks[trace.partition.anchors.index(n0)]

    def test_full_rank_residual_small(self):
        sub, z, trace = self._setup()
        eps = [2.0 ** (-j) for j in range(1, trace.partition.count + 1)]
        rng = np.random.default_rng(0)
        x = rng.standard_normal(sub.ambient_dim)
        x[: sub.size] += 1.0  # keep every z-coefficient visibly nonzero
        x /= np.linalg.norm(x)
        coeffs = z.fs @ x
        assert np.all(np.abs(coeffs) > sub.tol.biorth_tol)
        report = strongness_diagnostic(x, z, sub, trace, eps,
                                       prefixes=[sub.size])
        assert report.residual <= 10 * 0.25


@pytest.mark.parametrize("call", ["reconstruct", "strongness_diagnostic"])
@pytest.mark.parametrize("x,match", [
    (np.where(np.arange(16) == 3, np.nan, 1.0), "finite"),
    (np.ones(15), "dimension mismatch"),
], ids=["nan", "short"])
def test_invalid_input_vector_refused(call, x, match):
    sys = BiorthSystem.canonical(16)
    r = build_representing_indices(sys, 6)
    trace = strong_partition(r, 2)
    run = {
        "reconstruct": lambda: reconstruct(x, sys, r, 2),
        "strongness_diagnostic": lambda: strongness_diagnostic(
            x, sys, sys, trace, trace.partition.epsilons),
    }[call]
    with pytest.raises(ArgumentError, match=match):
        run()


@pytest.mark.parametrize("p,rho", [(9, 8), (12, 4), (-3, 4), (0, 4), (4, 9), (4, -2), (4, 0)])
def test_norming_minimum_refuses_prefixes_out_of_range(p, rho):
    # p > N or p < 0 sliced from the end and read 0.0; p = 0 read 1.0
    sys = BiorthSystem.canonical(8)
    with pytest.raises(ArgumentError, match=r"need 1 <= p <= 8 and 1 <= rho <= 8"):
        norming_property_minimum(sys, p, rho)


@pytest.mark.parametrize("prefixes", [[129], [0], [-5], [64, 129]])
def test_strongness_diagnostic_refuses_prefixes_out_of_range(prefixes):
    # 129 raised a bare IndexError; 0 and -5 silently read residual 1.0
    sys = BiorthSystem.canonical(128)
    trace = strong_partition(build_representing_indices(sys, 6), 2)
    with pytest.raises(ArgumentError, match=r"prefixes must lie in 1\.\.128"):
        strongness_diagnostic(e(1, 128), sys, sys, trace, trace.partition.epsilons,
                              prefixes=prefixes)


@pytest.mark.parametrize("zsys,xsys,match", [
    (BiorthSystem.canonical(10), BiorthSystem.canonical(10),
     r"^partition reaches index 21 beyond the systems$"),
    (BiorthSystem.canonical(30), BiorthSystem.canonical(30, 31),
     r"^systems must have equal ambient dimension, got 30 and 31$"),
    (BiorthSystem.canonical(30), BiorthSystem.canonical(21, 30),
     r"^systems must have equal length$"),
], ids=["partition-beyond", "ambient", "length"])
def test_strongness_diagnostic_refuses_what_verify_flattened_refuses(zsys, xsys, match):
    # before: a bare IndexError, a bare ValueError from matmul, and verdicts
    # returned silently over 21 reference pairs against 30 flattened ones
    values = (1, 3, 6, 10, 15, 21, 28)
    trace = strong_partition(RepresentingIndices(values, (math.inf,) * 7, values), 2)
    assert trace.block_bounds[-1] == 21
    with pytest.raises(ArgumentError, match=match):
        strongness_diagnostic(e(1, zsys.ambient_dim), zsys, xsys, trace,
                              trace.partition.epsilons)
    with pytest.raises(ArgumentError, match=match):
        verify_flattened(zsys, xsys, trace.partition)
