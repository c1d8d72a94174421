import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mbasis_lab import biorth, representing, subspace
from mbasis_lab.biorth import (
    BiorthSystem,
    IntervalFamily,
    biorthogonality_defect,
    boundedness_constant,
    classify_perturbation,
    norming_constant_estimate,
    spanning_indices,
    uniform_minimality_constant,
)
from mbasis_lab.errors import ArgumentError
from mbasis_lab.perturbations import construct_flattened
from mbasis_lab.representing import build_representing_indices, strong_partition
from mbasis_lab.subspace import ToleranceConfig, dual_solve
from oracles import block_duality_check
from test_acceptance import staged_coupling_system


def e(i, n):
    v = np.zeros(n)
    v[i - 1] = 1.0
    return v


def worked_flattening():
    """The worked dim-2 flattening: z1 = e1 - 10 e2, z2 = 10 e2."""
    Z = np.array([[1.0, -10.0], [0.0, 10.0]])
    Zd = np.array([[1.0, 0.0], [1.0, 0.1]])
    return BiorthSystem.from_pairs(Z, Zd)


@pytest.fixture
def flattened_pair():
    return worked_flattening()


def perturbed_system(n=5, seed=7, scale=0.3):
    V = np.eye(n) + scale * np.random.default_rng(seed).standard_normal((n, n))
    return BiorthSystem(V, dual_solve(V, V))


def assert_uniform_minimality_matches_oracle(sys):
    """The one-factorization constant against the per-row oracle, within
    4 d u kappa of the normalized rows: both err by rounding amplified by
    their conditioning."""
    unit = sys.xs / np.linalg.norm(sys.xs, axis=1, keepdims=True)
    floor = 4 * sys.ambient_dim * np.finfo(float).eps / 2 * np.linalg.cond(unit)
    mu = uniform_minimality_constant(sys)
    assert abs(mu - oracles.uniform_minimality_constant(sys)) <= floor
    return mu


class TestDefect:
    def test_canonical(self):
        sys = BiorthSystem.canonical(10)
        assert biorthogonality_defect(sys) == 0.0

    def test_scaled_dual(self):
        F = np.eye(4).copy()
        F[0] *= 2.0
        sys = BiorthSystem(np.eye(4), F)
        assert biorthogonality_defect(sys) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            BiorthSystem(np.eye(3), np.eye(4)[:3, :])  # differing widths


class TestBoundedness:
    def test_canonical(self):
        assert boundedness_constant(BiorthSystem.canonical(5)) == pytest.approx(1.0)

    def test_hand_norms(self, flattened_pair):
        assert boundedness_constant(flattened_pair) == pytest.approx(math.sqrt(101))

    def test_scale_invariance(self, flattened_pair):
        scaled = BiorthSystem(2.0 * flattened_pair.xs, 0.5 * flattened_pair.fs)
        assert boundedness_constant(scaled) == pytest.approx(
            boundedness_constant(flattened_pair))

    def test_at_least_one(self):
        rng = np.random.default_rng(0)
        V = rng.standard_normal((4, 6))
        F = dual_solve(V, V)
        sys = BiorthSystem(V, F)
        assert boundedness_constant(sys) >= 1.0 - 1e-12


class TestUniformMinimality:
    def test_canonical(self):
        assert uniform_minimality_constant(BiorthSystem.canonical(10)) == pytest.approx(1.0)

    def test_hand_projection(self, flattened_pair):
        expected = 1.0 / math.sqrt(101)
        assert uniform_minimality_constant(flattened_pair) == pytest.approx(expected)

    def test_duality_inequality(self):
        sys = perturbed_system()
        mu = uniform_minimality_constant(sys)
        C = boundedness_constant(sys)
        assert 1.0 / C - 1e-10 <= mu <= 1.0 + 1e-10

    def test_needs_two(self):
        with pytest.raises(ArgumentError):
            uniform_minimality_constant(BiorthSystem.canonical(1))

    @pytest.mark.parametrize("make", [
        lambda: BiorthSystem.canonical(10),
        worked_flattening,
        perturbed_system,
        lambda: perturbed_system(40, seed=3, scale=0.1),
        lambda: BiorthSystem.canonical(6, ambient_dim=9),
    ], ids=["canonical", "worked-flattening", "perturbed-5", "perturbed-40", "canonical-in-9"])
    def test_matches_per_row_oracle(self, make):
        assert_uniform_minimality_matches_oracle(make())

    def test_rank_deficient_reads_zero(self):
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
        sys = BiorthSystem(X, X)
        assert uniform_minimality_constant(sys) == 0.0
        assert oracles.uniform_minimality_constant(sys) <= 1e-15


class TestNormingEstimate:
    def test_canonical_full(self):
        sys = BiorthSystem.canonical(6)
        assert norming_constant_estimate(sys, samples=32, seed=1) == pytest.approx(1.0)

    def test_angled_singleton(self):
        xs = np.array([e(1, 2)])
        fs = np.array([(e(1, 2) + e(2, 2)) / math.sqrt(2)])
        sys = BiorthSystem(xs, fs)
        est = norming_constant_estimate(sys, samples=16, seed=0)
        assert est == pytest.approx(1 / math.sqrt(2))

    def test_nested_samples_read_no_higher(self):
        # at one seed the first k of 2k draws are the k draws, so the
        # minimum over 2k can only be at or below the minimum over k
        rng = np.random.default_rng(2)
        V = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
        F = dual_solve(V, V)
        sys = BiorthSystem(V, F)
        reads = [norming_constant_estimate(sys, samples=k, seed=5) for k in (1, 2, 4, 8, 16, 32, 64)]
        assert all(b <= a for a, b in zip(reads, reads[1:])), reads
        assert reads[-1] < reads[0]

    def test_zero_samples(self):
        with pytest.raises(ArgumentError):
            norming_constant_estimate(BiorthSystem.canonical(3), samples=0)

    def test_deterministic(self):
        sys = BiorthSystem.canonical(4)
        a = norming_constant_estimate(sys, samples=16, seed=42)
        b = norming_constant_estimate(sys, samples=16, seed=42)
        assert a == b


class TestSpanningIndices:
    def test_identity(self):
        sys = BiorthSystem.canonical(6)
        assert spanning_indices(sys, sys) == [1, 2, 3, 4, 5, 6]

    def test_swap(self):
        x = BiorthSystem.canonical(4)
        perm = [1, 0, 2, 3]
        z = BiorthSystem(x.xs[perm], x.fs[perm])
        assert spanning_indices(z, x) == [2, 2, 3, 4]

    def test_shifted_first(self):
        x = BiorthSystem.canonical(4)
        z = BiorthSystem(x.xs[[2]], x.fs[[2]])
        assert spanning_indices(z, x) == [3]

    def test_order_sensitivity(self):
        x = BiorthSystem.canonical(3)
        z = BiorthSystem(x.xs[::-1].copy(), x.fs[::-1].copy())
        assert spanning_indices(z, x) == [3, 3, 3]

    def test_exhausted(self):
        x = BiorthSystem.canonical(2, ambient_dim=3)
        z = BiorthSystem(np.array([e(3, 3)]), np.array([e(3, 3)]))
        with pytest.raises(ArgumentError, match="first 1"):
            spanning_indices(z, x)

    def test_non_decreasing_and_lower_bound(self):
        rng = np.random.default_rng(9)
        A = np.tril(rng.standard_normal((5, 5))) + 2 * np.eye(5)
        x = BiorthSystem.canonical(5)
        Z = A @ x.xs
        F = dual_solve(Z, np.eye(5))
        z = BiorthSystem(Z, F)
        q = spanning_indices(z, x)
        assert all(b >= a for a, b in zip(q, q[1:]))
        assert all(qm >= m for m, qm in enumerate(q, start=1))


def classify_checked(z, x):
    """``classify_perturbation``, with a block verdict cross-checked by the
    dual span equalities taken through complements."""
    res = classify_perturbation(z, x)
    if res.kind == "block":
        assert block_duality_check(z, x, res.intervals)
    return res


class TestClassify:
    def test_identity_is_block_singletons(self):
        sys = BiorthSystem.canonical(4)
        res = classify_checked(sys, sys)
        assert res.kind == "block"
        assert res.intervals.intervals == ((1, 1), (2, 2), (3, 3), (4, 4))
        assert res.pile_prefixes == (1, 2, 3, 4)

    def test_block_implies_pile(self):
        x = BiorthSystem.canonical(4)
        mix = np.array([[1.0, 1.0], [1.0, -1.0]])
        Z = x.xs.copy()
        Z[0:2] = mix @ x.xs[0:2]
        F = dual_solve(Z, np.eye(4))
        z = BiorthSystem(Z, F)
        res = classify_checked(z, x)
        assert res.kind == "block"
        assert res.intervals.intervals[0] == (1, 2)
        assert res.pile_prefixes  # pile predicate holds

    def test_orthonormalized_prefix_spans(self):
        # non-orthogonal system whose GS keeps every prefix span
        X = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        Fm = dual_solve(X, np.eye(3))
        x = BiorthSystem(X, Fm)
        Q = []
        for row in X:
            r = row.copy()
            for b in Q:
                r -= (b @ r) * b
            Q.append(r / np.linalg.norm(r))
        Z = np.vstack(Q)
        z = BiorthSystem(Z, Z.copy())
        res = classify_checked(z, x)
        assert res.pile_prefixes == (3,)
        assert res.kind in ("block", "pile")

    def test_unequal_ambient_dimensions_refused_by_name(self):
        # spanning_indices' text, where a bare IndexError came through before
        z, x = BiorthSystem.canonical(3, 5), BiorthSystem.canonical(3, 4)
        for fn in (classify_perturbation, spanning_indices):
            with pytest.raises(ArgumentError,
                               match="^systems live in different ambient dimensions$"):
                fn(z, x)

    def test_neither(self):
        x = BiorthSystem.canonical(2, ambient_dim=3)
        z = BiorthSystem(np.array([e(3, 3), e(1, 3)]), np.array([e(3, 3), e(1, 3)]))
        assert classify_perturbation(z, x).kind == "neither"

    def test_configured_rank_tol_reaches_every_rank_test(self, monkeypatch):
        # the normalized rows (1, 1, 0) and (0, 1, 1) keep 0.71 and 0.82 of
        # their norm off the earlier rows, so rank_tol = 0.75 drops the
        # second as dependent and span_equal decides the prefixes past it
        X = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        x = BiorthSystem(X, dual_solve(X, np.eye(3)), tol=ToleranceConfig(rank_tol=0.75))
        seen = {}
        for name in ("prefix_bases", "prefix_coordinates", "span_equal"):
            def spy(*args, fn=getattr(biorth, name), name=name, **kwargs):
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                seen.setdefault(name, []).append(bound.arguments["rank_tol"])
                return fn(*args, **kwargs)
            monkeypatch.setattr(biorth, name, spy)
        classify_perturbation(BiorthSystem.canonical(3), x)
        assert sorted(seen) == ["prefix_coordinates", "span_equal"]
        assert {tol for calls in seen.values() for tol in calls} == {0.75}
        # the certificate's cut reads it too: as zsys, X's pairing bounds
        # sigma_min of its unit rows by 0.58 at k = 1 and 0.29 at k = 3, so
        # at 0.75 no prefix is certified, where at the default all three are
        certify, cuts = biorth._certified_prefixes, []

        def spy_cut(Z, G, rank_tol, S=None):
            out = certify(Z, G, rank_tol, S)
            cuts.append((rank_tol, out[0][1]))
            return out

        monkeypatch.setattr(biorth, "_certified_prefixes", spy_cut)
        for rank_tol, certified in ((0.75, 0), (ToleranceConfig.rank_tol, 3)):
            cuts.clear()
            classify_perturbation(BiorthSystem(X, x.fs),
                                  BiorthSystem.canonical(3, tol=ToleranceConfig(rank_tol=rank_tol)))
            assert cuts[0] == (rank_tol, certified)

    def test_no_window_opens_past_the_last_interval(self, monkeypatch):
        # the last interval closes at n; an agreement scan from n + 1 would
        # factor two empty row blocks, one per side
        x = staged_coupling_system()
        partition = strong_partition(build_representing_indices(x, 8), 2).partition
        z = construct_flattened(x, partition, seed=0)
        rows, agreement = [], biorth._prefix_agreement

        def spy(Z, X, *args):
            rows.append(len(Z))
            return agreement(Z, X, *args)

        monkeypatch.setattr(biorth, "_prefix_agreement", spy)
        assert classify_perturbation(z, x).intervals.intervals == ((1, 2), (3, 128))
        assert rows and min(rows) > 0, rows

    @pytest.mark.parametrize("seed", range(5))
    def test_flattened_staged_block_verdict(self, seed):
        # acceptance criterion 6's flattening of the staged truncation-128
        # system; rounding-level residual rows used to inflate the
        # complement of block (1, 2) to 39 rows
        x = staged_coupling_system()
        partition = strong_partition(build_representing_indices(x, 8), 2).partition
        z = construct_flattened(x, partition, seed=seed)
        assert classify_checked(z, x).intervals.intervals == ((1, 2), (3, 128))


def test_stored_defect_is_the_certificates_own(monkeypatch):
    # validate() forms the defect once; the left-inverse certificate of all
    # rows forms the same product, so its value is the stored one bit for
    # bit, and strongness_diagnostic hands it over instead of forming it
    x = staged_coupling_system()
    trace = strong_partition(build_representing_indices(x, 8), 2)
    z = construct_flattened(x, trace.partition, seed=0)
    assert "_defect" in vars(z)
    stored = biorthogonality_defect(z)
    formed = subspace._left_inverse_bound(z.fs, z.xs)
    assert formed[2] == stored
    assert subspace._left_inverse_bound(z.fs, z.xs, stored) == formed
    passed, certify = [], representing._left_inverse_bound

    def spy(F, Z, defect=None):
        passed.append(defect)
        return certify(F, Z, defect)

    monkeypatch.setattr(representing, "_left_inverse_bound", spy)
    v = np.random.default_rng(2).standard_normal(z.ambient_dim)
    report = representing.strongness_diagnostic(v, z, x, trace, trace.partition.epsilons)
    assert report.residuals == {z.size: 0.0} and passed == [stored]


class TestBlockDuality:
    def test_identity(self):
        sys = BiorthSystem.canonical(4)
        fam = IntervalFamily(((1, 2), (3, 4)))
        assert block_duality_check(sys, sys, fam)

    def test_blockwise_recombination(self):
        x = BiorthSystem.canonical(4)
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        Z = x.xs.copy()
        Z[2:4] = A @ x.xs[2:4]
        F = dual_solve(Z, np.eye(4))
        z = BiorthSystem(Z, F)
        assert block_duality_check(z, x, IntervalFamily(((1, 2), (3, 4))))

    def test_cross_block_mix_fails(self):
        x = BiorthSystem.canonical(4)
        Z = x.xs.copy()
        Z[0] = x.xs[0] + x.xs[3]
        F = dual_solve(Z, np.eye(4))
        z = BiorthSystem(Z, F)
        assert not block_duality_check(z, x, IntervalFamily(((1, 2), (3, 4))))

    def test_not_covering(self):
        sys = BiorthSystem.canonical(4)
        with pytest.raises(ArgumentError):
            block_duality_check(sys, sys, IntervalFamily(((1, 2),)))


class TestReorderInvariance:
    def test_defect_and_boundedness(self):
        rng = np.random.default_rng(6)
        V = np.eye(5) + 0.2 * rng.standard_normal((5, 5))
        F = dual_solve(V, V)
        sys = BiorthSystem(V, F)
        perm = rng.permutation(5)
        reordered = BiorthSystem(V[perm], F[perm])
        assert biorthogonality_defect(reordered) == pytest.approx(
            biorthogonality_defect(sys), abs=1e-12)
        assert boundedness_constant(reordered) == pytest.approx(
            boundedness_constant(sys))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 1_000))
def test_boundedness_lower_bound_property(n, seed):
    rng = np.random.default_rng(seed)
    V = np.eye(n) + 0.4 * rng.standard_normal((n, n))
    if np.linalg.matrix_rank(V) < n:
        return
    F = dual_solve(V, np.eye(n))
    sys = BiorthSystem(V, F)
    assert boundedness_constant(sys) >= 1.0 - 1e-10
    mu = assert_uniform_minimality_matches_oracle(sys)
    assert mu >= 1.0 / boundedness_constant(sys) - 1e-8
    assert mu <= 1.0 + 1e-10
