"""The flattening on each block's own columns, against full-width oracles.

``construct_flattened`` takes each block's anchor complement from one QR of
its functional rows, the anchor first, on the columns where they are
nonzero, and ``flattened_from_duals`` and ``verify_flattened`` work on the
columns of the block's rows too.  ``oracles.flattened_duals`` and
``oracles.flattened_vectors`` redo the draw by modified Gram-Schmidt and a
dual solve over all d columns, and ``oracles.verify_flattened`` takes the
span gaps over all d columns.  Both sides are roundings of one exact
construction, so they agree within 4·d·u·κ.
"""

import numpy as np
import pytest

import oracles
from mbasis_lab import perturbations
from mbasis_lab.biorth import BiorthSystem
from mbasis_lab.perturbations import BlockPartition, construct_flattened, verify_flattened
from mbasis_lab.representing import build_representing_indices, strong_partition
from test_crosschecks import random_partition
from test_prefix_kernel import coupled_system, staged_system

U = 2.0 ** -53


def canonical_case():
    p = BlockPartition(((1, 2, 3), (4, 5, 6, 7, 8)), (1, 4), (0.2, 0.1))
    return BiorthSystem.canonical(8), p, 0


def inner_anchor_case():
    p = BlockPartition(((1, 2, 3, 4), (5, 6, 7)), (2, 5), (0.2, 0.2))
    return BiorthSystem.canonical(7), p, 11


def staged_case(n):
    base = staged_system(n)
    return base, strong_partition(build_representing_indices(base, 8), 2).partition, 7


def random_case(seed, coupled):
    """``test_crosschecks.random_partition`` over a canonical system, or over
    one whose couplings reach across the blocks, so that a block's columns
    are not its indices."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 14))
    base = coupled_system(n, seed) if coupled else BiorthSystem.canonical(n)
    return base, random_partition(n, rng), seed


CASES = {
    "canonical-8": canonical_case,
    "canonical-7-inner-anchors": inner_anchor_case,
    "staged-128": lambda: staged_case(128),
    "staged-192": lambda: staged_case(192),
    **{f"random-partition-{s}": (lambda s=s: random_case(s, False)) for s in range(8)},
    **{f"coupled-random-partition-{s}": (lambda s=s: random_case(s, True)) for s in range(8)},
}


def cond_normalized(*row_sets):
    """The larger condition number of the given row sets, rows normalized."""
    out = 1.0
    for M in row_sets:
        s = np.linalg.svd(M / np.linalg.norm(M, axis=1, keepdims=True), compute_uv=False)
        out = max(out, s[0] / s[-1])
    return out


@pytest.mark.parametrize("case", CASES)
def test_draw_matches_gram_schmidt_oracle(case):
    base, p, seed = CASES[case]()
    z = construct_flattened(base, p, seed)
    D = oracles.flattened_duals(base, p, seed)
    Z = oracles.flattened_vectors(base, p, D)
    floor = 4 * base.ambient_dim * U
    for blk in p.blocks:
        rows = [n - 1 for n in blk]
        kappa = cond_normalized(base.fs[rows])
        Dj, Zj = z.fs[rows], z.xs[rows]
        assert np.max(np.abs(Dj - D[rows])) <= floor * kappa * np.linalg.norm(Dj, 2)
        # the dual solve adds the condition of the pairing Z_j D_j^T = I
        pairing = np.linalg.norm(Zj, 2) * np.linalg.norm(Dj, 2)
        assert np.max(np.abs(Zj - Z[rows])) <= floor * kappa * pairing * np.linalg.norm(Zj, 2)


@pytest.mark.parametrize("case", CASES)
def test_block_gaps_match_full_width_oracle(case):
    base, p, seed = CASES[case]()
    z = construct_flattened(base, p, seed)
    report = verify_flattened(z, base, p)
    floor = 4 * base.ambient_dim * U
    for blk, check, (vec_gap, dual_gap, slack) in zip(
            p.blocks, report.blocks, oracles.verify_flattened(z, base, p)):
        rows = [n - 1 for n in blk]
        assert abs(check.vector_gap - vec_gap) <= floor * cond_normalized(z.xs[rows], base.xs[rows])
        assert abs(check.dual_gap - dual_gap) <= floor * cond_normalized(z.fs[rows], base.fs[rows])
        assert abs(check.worst_slack - slack) <= floor * max(1.0, abs(slack))
    assert report.passed


def test_kernels_see_only_the_block_columns(monkeypatch):
    """Every matrix a kernel receives from the flattening is at most as wide
    as the columns where the block's rows are nonzero on either side, which
    on staged 128 is fewer than d for every block."""
    base, p, seed = staged_case(128)
    widths = []

    def spy(name):
        kernel = getattr(perturbations, name)

        def wrapped(M, *args, **kwargs):
            widths.append((name, *np.shape(M)))
            return kernel(M, *args, **kwargs)
        monkeypatch.setattr(perturbations, name, wrapped)

    for name in ("prefix_bases", "prefix_coordinates", "dual_solve", "span_gap"):
        spy(name)
    z = construct_flattened(base, p, seed)
    verify_flattened(z, base, p)
    support = {}
    for blk in p.blocks:
        rows = [n - 1 for n in blk]
        block = np.concatenate([base.xs[rows], base.fs[rows], z.xs[rows], z.fs[rows]])
        support[len(rows)] = int(np.count_nonzero(np.any(block != 0, axis=0)))
    assert len(support) == p.count and max(support.values()) < base.ambient_dim
    seen = {name for name, *_ in widths}
    assert seen == {"prefix_bases", "prefix_coordinates", "dual_solve", "span_gap"}
    for name, b, width in widths:
        assert width <= support[b], (name, b, width)
