"""Block partitions and the flattened-perturbation constructor/verifier.

A flattened perturbation of a biorthogonal system, with respect to data
(A(j), n(j), eps_j), replaces the functionals inside each set A(j) by
vectors close to the anchor functional f_{n(j)} (within eps_j / ||x_{n(j)}||)
while keeping both span equalities over A(j); the vectors are then
recovered blockwise by a dual solve.  Flattening deliberately trades
uniform minimality away: the recovered vectors can have large norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biorth import BiorthSystem
from .errors import ArgumentError, ConstructionError, SingularGramError
from .subspace import dual_solve, orthonormal_rows, span_gap

__all__ = [
    "BlockPartition",
    "PartitionReport",
    "FlatteningReport",
    "validate_block_partition",
    "construct_flattened",
    "flattened_from_duals",
    "verify_flattened",
]


@dataclass(frozen=True)
class BlockPartition:
    """Finite sets A(j) with anchors n(j) in A(j) and budgets eps_j > 0.

    Indices are 1-based.  The sets must be pairwise disjoint; their union
    is expected to be an initial segment {1..K} (checked by
    :func:`validate_block_partition`).
    """

    blocks: tuple
    anchors: tuple
    epsilons: tuple

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(i) for i in blk)) for blk in self.blocks)
        anchors = tuple(int(a) for a in self.anchors)
        eps = tuple(float(e) for e in self.epsilons)
        if not (len(blocks) == len(anchors) == len(eps)):
            raise ArgumentError("blocks, anchors and epsilons must have equal length")
        for j, (blk, a, e) in enumerate(zip(blocks, anchors, eps), start=1):
            if not blk:
                raise ArgumentError(f"block {j} is empty")
            if a not in blk:
                raise ArgumentError(f"anchor {a} is not a member of block {j}")
            if e <= 0:
                raise ArgumentError(f"eps_{j} must be positive")
            if min(blk) < 1:
                raise ArgumentError(f"block {j} contains an index below 1")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "epsilons", eps)

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def covered(self) -> set:
        out: set = set()
        for blk in self.blocks:
            out.update(blk)
        return out

    @property
    def eps_sum(self) -> float:
        """Partial sum of the eps_j over the truncation (recorded invariant)."""
        return float(sum(self.epsilons))


@dataclass(frozen=True)
class PartitionReport:
    disjoint: bool
    covers: bool
    anchors_ok: bool
    block_kind: bool
    #: groups of block indices j whose unions form successive intervals
    interval_witness: tuple | None
    failures: tuple

    @property
    def valid(self) -> bool:
        return self.disjoint and self.covers and self.anchors_ok


def validate_block_partition(p: BlockPartition, range_end: int) -> PartitionReport:
    """Report disjointness, coverage of 1..range_end, anchors and block-kind.

    The block-kind witness groups consecutive j's so that the union of
    each group's sets is a successive interval of integers; the greedy
    earliest-close scan below finds the maximal refinement whenever any
    witness exists.
    """
    failures = []
    seen: set = set()
    disjoint = True
    for j, blk in enumerate(p.blocks, start=1):
        overlap = seen.intersection(blk)
        if overlap:
            disjoint = False
            failures.append(f"block {j} overlaps earlier blocks at {sorted(overlap)}")
        seen.update(blk)
    covers = seen == set(range(1, range_end + 1))
    if not covers:
        missing = sorted(set(range(1, range_end + 1)) - seen)[:8]
        extra = sorted(seen - set(range(1, range_end + 1)))[:8]
        failures.append(f"coverage failure: missing {missing}, extraneous {extra}")
    anchors_ok = all(a in blk for a, blk in zip(p.anchors, p.blocks))

    witness = None
    if disjoint and covers:
        groups = []
        start_j = 1
        lo = 1
        acc: set = set()
        for j, blk in enumerate(p.blocks, start=1):
            acc.update(blk)
            hi = lo + len(acc) - 1
            if acc == set(range(lo, hi + 1)):
                groups.append((start_j, j))
                start_j = j + 1
                lo = hi + 1
                acc = set()
        if start_j == p.count + 1 and groups:
            witness = tuple(groups)
    block_kind = witness is not None
    return PartitionReport(disjoint, covers, anchors_ok, block_kind, witness,
                           tuple(failures))


def flattened_from_duals(sys: BiorthSystem, p: BlockPartition,
                         new_duals: np.ndarray) -> BiorthSystem:
    """Build the system whose functionals are ``new_duals``, blockwise.

    ``new_duals`` rows replace the f_n; each row must stay inside its
    block's functional span (checked).  The vectors are recovered by a
    dual solve inside each block's vector span, which enforces both span
    equalities of a block perturbation on every A(j).
    """
    D = np.asarray(new_duals, dtype=float)
    if D.shape != sys.fs.shape:
        raise ArgumentError(f"dual matrix shape {D.shape} != {sys.fs.shape}")
    tol = sys.tol
    Z = np.zeros_like(sys.xs)
    for j, blk in enumerate(p.blocks, start=1):
        rows = [n - 1 for n in blk]
        block_f = sys.fs[rows]
        block_x = sys.xs[rows]
        Qf = orthonormal_rows(block_f, tol.rank_tol)
        for n in rows:
            resid = D[n] - Qf.T @ (Qf @ D[n])
            if np.linalg.norm(resid) > tol.span_tol * max(1.0, np.linalg.norm(D[n])):
                raise ArgumentError(
                    f"replacement functional {n + 1} leaves the span of block {j}"
                )
        try:
            zs = dual_solve(D[rows], block_x, tol.rank_tol, tol.biorth_tol)
        except SingularGramError as exc:
            raise ConstructionError(
                f"block {j} cross-Gram is singular; use a smaller block or a "
                f"larger eps_{j}"
            ) from exc
        for i, n in enumerate(rows):
            Z[n] = zs[i].coords
    return BiorthSystem(Z, D, tol=tol).validate()


def construct_flattened(sys: BiorthSystem, p: BlockPartition, seed: int) -> BiorthSystem:
    """Flattened perturbation of ``sys`` with respect to the partition.

    Within each block the anchor functional is kept exactly and the other
    functionals become f_{n(j)} + eta_n with the eta_n drawn from a seeded
    per-block substream, orthonormalized inside the block's functional
    span orthogonally to the anchor, and scaled to 0.9 * eps_j /
    ||x_{n(j)}|| (strict inequality leaves tolerance headroom).  The
    vectors are recovered by blockwise dual solves.  Deterministic given
    (sys, p, seed), independent of block processing order.
    """
    covered = p.covered
    if covered != set(range(1, sys.size + 1)):
        raise ArgumentError("partition must cover 1..|sys| exactly")
    tol = sys.tol
    D = np.array(sys.fs, dtype=float, copy=True)
    for j, (blk, anchor, eps_j) in enumerate(
            zip(p.blocks, p.anchors, p.epsilons), start=1):
        rows = [n - 1 for n in blk]
        b = len(rows)
        anchor_f = sys.f(anchor)
        anchor_x_norm = float(np.linalg.norm(sys.x(anchor)))
        radius = 0.9 * eps_j / anchor_x_norm
        D[anchor - 1] = anchor_f
        if b == 1:
            continue
        Qf = orthonormal_rows(sys.fs[rows], tol.rank_tol)
        if Qf.shape[0] < b:
            raise ConstructionError(f"functional span of block {j} is rank deficient")
        # orthonormal complement of the anchor inside the block dual span;
        # the basis row parallel to the anchor projects to noise and is
        # dropped before orthonormalizing
        a_unit = anchor_f / np.linalg.norm(anchor_f)
        proj = Qf - np.outer(Qf @ a_unit, a_unit)
        keep = np.linalg.norm(proj, axis=1) > tol.span_tol
        comp = orthonormal_rows(proj[keep], tol.rank_tol)
        if comp.shape[0] < b - 1:
            raise ConstructionError(
                f"anchor complement of block {j} is rank deficient"
            )
        rng = np.random.default_rng([seed, j])
        directions = None
        scale = 1.0
        for _ in range(8):
            raw = rng.standard_normal((b - 1, comp.shape[0]))
            q, r = np.linalg.qr(raw.T)
            if np.min(np.abs(np.diag(r))) > tol.rank_tol * max(1.0, np.max(np.abs(r))):
                directions = (q.T * scale) @ comp
                break
            scale *= 0.5
        if directions is None:
            raise ConstructionError(
                f"could not draw independent perturbation directions for block {j}; "
                f"use a smaller block or a larger eps_{j}"
            )
        others = [n for n in blk if n != anchor]
        for i, n in enumerate(others):
            D[n - 1] = anchor_f + radius * directions[i]
    return flattened_from_duals(sys, p, D)


@dataclass(frozen=True)
class BlockCheck:
    j: int
    vector_gap: float
    dual_gap: float
    #: min over n in A(j) of eps_j/||x_{n(j)}|| - ||z_n* - f_{n(j)}||
    worst_slack: float


@dataclass(frozen=True)
class FlatteningReport:
    blocks: tuple
    span_tol: float
    slack_tol: float = 1e-12

    @property
    def passed(self) -> bool:
        return all(
            b.vector_gap <= self.span_tol
            and b.dual_gap <= self.span_tol
            and b.worst_slack >= -self.slack_tol
            for b in self.blocks
        )


def verify_flattened(zsys: BiorthSystem, xsys: BiorthSystem,
                     p: BlockPartition) -> FlatteningReport:
    """Check both flattening conditions block by block.

    Reports, per block, the span-equality defects for vectors and
    functionals and the worst slack of the anchor-closeness inequality.
    Passing means every defect is within span_tol and no slack is
    negative (up to a 1e-12 headroom for exactly tight budgets).
    """
    if zsys.size != xsys.size:
        raise ArgumentError("systems must have equal length")
    if p.covered and max(p.covered) > zsys.size:
        raise ArgumentError(
            f"partition reaches index {max(p.covered)} beyond the systems"
        )
    tol = xsys.tol
    checks = []
    for j, (blk, anchor, eps_j) in enumerate(
            zip(p.blocks, p.anchors, p.epsilons), start=1):
        rows = [n - 1 for n in blk]
        vec_gap = span_gap(zsys.xs[rows], xsys.xs[rows], tol.rank_tol)
        dual_gap = span_gap(zsys.fs[rows], xsys.fs[rows], tol.rank_tol)
        bound = eps_j / float(np.linalg.norm(xsys.x(anchor)))
        slack = min(
            bound - float(np.linalg.norm(zsys.f(n) - xsys.f(anchor)))
            for n in blk
        )
        checks.append(BlockCheck(j, vec_gap, dual_gap, slack))
    return FlatteningReport(tuple(checks), tol.span_tol)
