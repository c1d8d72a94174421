import math

import numpy as np
import pytest

from mbasis_lab.biorth import (
    BiorthSystem,
    biorthogonality_defect,
    boundedness_constant,
    classify_perturbation,
    uniform_minimality_constant,
)
from mbasis_lab.errors import ArgumentError, ConstructionError
from mbasis_lab.perturbations import (
    BlockPartition,
    construct_flattened,
    flattened_from_duals,
    verify_flattened,
)
from mbasis_lab.subspace import ToleranceConfig
from oracles import interval_witness


def singleton_partition(n, eps=0.5):
    return BlockPartition(
        tuple((j,) for j in range(1, n + 1)),
        tuple(range(1, n + 1)),
        tuple(eps for _ in range(n)),
    )


class TestBlockPartitionType:
    def test_anchor_membership(self):
        with pytest.raises(ArgumentError):
            BlockPartition(((1, 2),), (3,), (0.5,))

    def test_positive_eps(self):
        with pytest.raises(ArgumentError):
            BlockPartition(((1,),), (1,), (0.0,))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_eps_refused_by_name(self, bad):
        # before, inf and NaN passed and the flattening failed later on
        # non-finite spanning vectors
        with pytest.raises(ArgumentError, match=r"^eps_2 must be positive and finite$"):
            BlockPartition(((1,), (2, 3)), (1, 2), (0.5, bad))

    def test_overlap_refused(self):
        # every partition is disjoint: the type refuses a shared index
        with pytest.raises(ArgumentError, match=r"^block 2 overlaps earlier blocks at \[2\]$"):
            BlockPartition(((1, 2), (2, 3)), (1, 2), (0.5, 0.5))

    def test_repeat_within_a_block_refused(self):
        # a set lists each index once: a repeat would leave the block with
        # fewer distinct vectors than the flattening counts
        with pytest.raises(ArgumentError, match=r"^block 1 repeats index \[1\]$"):
            BlockPartition(((1, 1, 2), (3,)), (1, 3), (0.5, 0.5))
        with pytest.raises(ArgumentError, match=r"^block 2 repeats index \[4, 5\]$"):
            BlockPartition(((1,), (5, 4, 5, 4, 6)), (1, 4), (0.5, 0.5))


class TestValidatePartition:
    def test_singletons(self):
        witness = interval_witness(singleton_partition(4), 4)
        assert witness == ((1, 1), (2, 2), (3, 3), (4, 4))

    def test_interleaved_blocks(self):
        # the partition produced by two rounds of the strong construction
        p = BlockPartition(
            ((1, 2, 3), (4, 7, 8, 9, 10), (5, 11, 12, 13, 14, 15),
             (6, 16, 17, 18, 19, 20, 21)),
            (1, 4, 5, 6),
            (0.5, 0.25, 0.125, 0.0625),
        )
        assert interval_witness(p, 21) == ((1, 1), (2, 4))

    def test_witness_grouping(self):
        p = BlockPartition(((1, 3), (2,)), (1, 2), (0.5, 0.5))
        assert interval_witness(p, 3) == ((1, 2),)

    def test_coverage_failure_reported(self):
        p = BlockPartition(((1,), (3,)), (1, 3), (0.5, 0.5))
        with pytest.raises(ArgumentError,
                           match=r"coverage failure: missing \[2\], extraneous \[\]"):
            construct_flattened(BiorthSystem.canonical(3), p, seed=0)

    def test_overlap_reported(self):
        # the refusal names every index shared with any earlier block
        with pytest.raises(ArgumentError, match=r"^block 3 overlaps earlier blocks at \[3, 4\]$"):
            BlockPartition(((1, 2, 3), (4,), (5, 4, 3)), (1, 4, 5), (0.5, 0.5, 0.5))


class TestWorkedMicroExample:
    """The dim-2 flattening with the explicit dual choice."""

    def setup_method(self):
        self.x = BiorthSystem.canonical(2)
        self.p = BlockPartition(((1, 2),), (1,), (0.1,))
        duals = np.array([[1.0, 0.0], [1.0, 0.1]])
        self.z = flattened_from_duals(self.x, self.p, duals)

    def test_exact_vectors(self):
        assert np.max(np.abs(self.z.xs[0] - np.array([1.0, -10.0]))) <= 1e-12
        assert np.max(np.abs(self.z.xs[1] - np.array([0.0, 10.0]))) <= 1e-12

    def test_verification_passes(self):
        report = verify_flattened(self.z, self.x, self.p)
        assert report.passed

    def test_boundedness_blowup(self):
        assert boundedness_constant(self.z) == pytest.approx(math.sqrt(101))
        assert uniform_minimality_constant(self.z) == pytest.approx(1 / math.sqrt(101))


class TestConstructFlattened:
    def test_singleton_partition_is_identity(self):
        sys = BiorthSystem.canonical(5)
        z = construct_flattened(sys, singleton_partition(5), seed=3)
        assert np.array_equal(z.xs, sys.xs)
        assert np.array_equal(z.fs, sys.fs)

    def test_blocks_verify(self):
        sys = BiorthSystem.canonical(8)
        p = BlockPartition(((1, 2, 3), (4, 5, 6, 7, 8)), (1, 4), (0.2, 0.1))
        z = construct_flattened(sys, p, seed=0)
        assert biorthogonality_defect(z) <= sys.tol.biorth_tol
        report = verify_flattened(z, sys, p)
        assert report.passed
        # anchor functionals are kept exactly
        assert np.array_equal(z.fs[0], sys.fs[0])
        assert np.array_equal(z.fs[3], sys.fs[3])
        # flattening trades uniform minimality away
        assert boundedness_constant(z) > 3.0

    def test_classified_as_block(self):
        sys = BiorthSystem.canonical(6)
        p = BlockPartition(((1, 2), (3, 4, 5, 6)), (1, 3), (0.3, 0.15))
        z = construct_flattened(sys, p, seed=1)
        res = classify_perturbation(z, sys)
        assert res.kind == "block"
        assert res.intervals.intervals == ((1, 2), (3, 6))

    def test_determinism(self):
        sys = BiorthSystem.canonical(7)
        p = BlockPartition(((1, 2, 3, 4), (5, 6, 7)), (2, 5), (0.2, 0.2))
        z1 = construct_flattened(sys, p, seed=11)
        z2 = construct_flattened(sys, p, seed=11)
        assert np.array_equal(z1.xs, z2.xs) and np.array_equal(z1.fs, z2.fs)
        z3 = construct_flattened(sys, p, seed=12)
        assert not np.array_equal(z3.fs, z1.fs)

    def test_seed_reaches_two_row_blocks(self):
        # a 1 x 1 draw's Householder Q is [[1]] whatever its sign; the Haar
        # rotation Q diag(sign(diag R)) is the sign of the draw
        sys = BiorthSystem.canonical(8).prefix(4)
        p = BlockPartition(((1, 2), (3, 4)), (1, 3), (0.5, 0.5))
        draws = [np.random.default_rng([seed, 1]).standard_normal((1, 1))[0, 0]
                 for seed in (3, 4)]
        assert draws[0] > 0 > draws[1]
        z3, z4 = (construct_flattened(sys, p, seed=seed) for seed in (3, 4))
        assert not np.array_equal(z3.fs, z4.fs)
        assert np.array_equal(z3.fs[1] - sys.fs[0], sys.fs[0] - z4.fs[1])

    def test_partition_must_cover(self):
        sys = BiorthSystem.canonical(4)
        with pytest.raises(ArgumentError, match="coverage failure: missing"):
            construct_flattened(sys, singleton_partition(3), seed=0)

    def test_overlapping_partition_refused_by_name(self):
        # {1, 2} and {2, 3, 4} cover 1..4, so a coverage check alone lets
        # them through to a misleading dual-span refusal; the partition
        # itself refuses them
        with pytest.raises(ArgumentError, match=r"block 2 overlaps earlier blocks at \[2\]"):
            p = BlockPartition(((1, 2), (2, 3, 4)), (1, 3), (0.5, 0.5))
            construct_flattened(BiorthSystem.canonical(4), p, seed=0)

    def test_near_parallel_functionals_refused_at_configured_rank_tol(self):
        # the normalized f_2 = f_1 + 0.1 e_2 lies 0.0995 from span(f_1), below rank_tol
        X = np.array([[1.0, -10.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 1.0]])
        F = np.array([[1.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.0, 0.0, 1.0]])
        sys = BiorthSystem(X, F, tol=ToleranceConfig(rank_tol=0.75)).validate()
        p = BlockPartition(((1, 2), (3,)), (1, 3), (0.5, 0.5))
        with pytest.raises(ConstructionError,
                           match="^functional span of block 1 is rank deficient$"):
            construct_flattened(sys, p, seed=0)

    def test_closeness_bound_strict(self):
        sys = BiorthSystem.canonical(6)
        p = BlockPartition(((1, 2, 3), (4, 5, 6)), (1, 4), (0.25, 0.25))
        z = construct_flattened(sys, p, seed=5)
        for j, blk in enumerate(p.blocks):
            anchor = p.anchors[j]
            bound = p.epsilons[j] / np.linalg.norm(sys.x(anchor))
            for n in blk:
                assert np.linalg.norm(z.f(n) - sys.f(anchor)) <= 0.9 * bound + 1e-12


class TestVerifyFlattened:
    def test_identity_with_generous_eps(self):
        sys = BiorthSystem.canonical(4)
        # eps_j at least the worst in-block functional spread
        p = BlockPartition(((1, 2), (3, 4)), (1, 3), (1.5, 1.5))
        report = verify_flattened(sys, sys, p)
        assert report.passed

    def test_tiny_eps_fails_closeness(self):
        sys = BiorthSystem.canonical(4)
        # ||f_2 - f_1|| = sqrt(2) well above eps/||x_1|| = 0.01
        p = BlockPartition(((1, 2), (3, 4)), (1, 3), (0.01, 0.01))
        report = verify_flattened(sys, sys, p)
        assert not report.passed
        assert report.blocks[0].worst_slack < 0

    def test_span_mismatch_detected(self):
        sys = BiorthSystem.canonical(4)
        z = BiorthSystem(sys.xs[[0, 1, 3, 2]], sys.fs[[0, 1, 3, 2]])
        p = BlockPartition(((1, 2), (3, 4)), (1, 3), (1.5, 1.5))
        # blocks {3,4} swapped between systems still span the same block
        assert verify_flattened(z, sys, p).passed
        z2 = BiorthSystem(sys.xs[[0, 2, 1, 3]], sys.fs[[0, 2, 1, 3]])
        report = verify_flattened(z2, sys, p)
        assert not report.passed
        assert report.blocks[0].vector_gap > sys.tol.span_tol

    def test_different_ambient_dimensions_refused_by_name(self):
        p = BlockPartition(((1, 2), (3, 4)), (1, 3), (1.5, 1.5))
        with pytest.raises(ArgumentError,
                           match="^systems must have equal ambient dimension, got 4 and 5$"):
            verify_flattened(BiorthSystem.canonical(4),
                             BiorthSystem.canonical(4, ambient_dim=5), p)

    def test_leak_outside_the_block_columns_detected(self):
        # x rows 1, 2 touch only columns 1, 2; z_2 leaks 1e-6 into column 4
        sys = BiorthSystem.canonical(4)
        p = BlockPartition(((1, 2), (3, 4)), (1, 3), (1.5, 1.5))
        X = np.array(sys.xs, copy=True)
        X[1, 3] = 1e-6
        z = BiorthSystem(X, sys.fs)
        report = verify_flattened(z, sys, p)
        assert not report.passed
        assert report.blocks[0].vector_gap > sys.tol.span_tol


class TestFlattenedFromDuals:
    def test_rejects_dual_outside_block_span(self):
        sys = BiorthSystem.canonical(4)
        p = BlockPartition(((1, 2), (3, 4)), (1, 3), (0.5, 0.5))
        D = np.array(sys.fs, copy=True)
        D[0] = sys.fs[0] + sys.fs[2]  # leaks into the other block
        with pytest.raises(ArgumentError):
            flattened_from_duals(sys, p, D)
