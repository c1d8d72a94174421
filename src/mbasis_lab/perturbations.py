"""Block partitions and the flattened-perturbation constructor/verifier.

A flattened perturbation of a biorthogonal system, with respect to data
(A(j), n(j), eps_j), replaces the functionals inside each set A(j) by
vectors close to the anchor functional f_{n(j)} (within eps_j / ||x_{n(j)}||)
while keeping both span equalities over A(j); the vectors are then
recovered blockwise by a dual solve.  Flattening deliberately trades
uniform minimality away: the recovered vectors can have large norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biorth import BiorthSystem
from .errors import ArgumentError, ConstructionError, SingularGramError
from .subspace import dual_solve, prefix_bases, prefix_coordinates, span_gap

__all__ = [
    "BlockPartition",
    "FlatteningReport",
    "construct_flattened",
    "flattened_from_duals",
    "verify_flattened",
]


@dataclass(frozen=True)
class BlockPartition:
    """Finite sets A(j) with anchors n(j) in A(j) and finite budgets eps_j > 0.

    Indices are 1-based.  The sets are pairwise disjoint: a set that
    repeats an index, or meets an earlier set, is refused by name.  Whether their union is
    exactly 1..n is a question of the system they are applied to, which
    :func:`construct_flattened` asks.
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
            _require_budget(j, e)
            if min(blk) < 1:
                raise ArgumentError(f"block {j} contains an index below 1")
            repeats = sorted({i for i, k in zip(blk, blk[1:]) if i == k})
            if repeats:
                raise ArgumentError(f"block {j} repeats index {repeats}")
        seen: set = set()
        for j, blk in enumerate(blocks, start=1):
            overlap = seen.intersection(blk)
            if overlap:
                raise ArgumentError(f"block {j} overlaps earlier blocks at {sorted(overlap)}")
            seen.update(blk)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "epsilons", eps)

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def covered(self) -> set:
        return set().union(*self.blocks)


def _require_budget(j: int, eps_j: float):
    """Refuse a budget eps_j that is not positive and finite, NaN too."""
    if not 0 < eps_j < math.inf:
        raise ArgumentError(f"eps_{j} must be positive and finite")


def _require_cover(p: BlockPartition, n: int, context: str):
    """Refuse ``p`` unless its sets cover 1..n exactly, led by ``context``."""
    have, want = p.covered, set(range(1, n + 1))
    if have != want:
        raise ArgumentError(f"{context}coverage failure: missing {sorted(want - have)[:8]}, "
                            f"extraneous {sorted(have - want)[:8]}")


def _require_comparable(zsys: BiorthSystem, xsys: BiorthSystem, p: BlockPartition):
    """Refuse two systems of different length or ambient dimension, or a
    partition reaching an index beyond them."""
    if zsys.size != xsys.size:
        raise ArgumentError("systems must have equal length")
    if zsys.ambient_dim != xsys.ambient_dim:
        raise ArgumentError(
            f"systems must have equal ambient dimension, got {zsys.ambient_dim} "
            f"and {xsys.ambient_dim}"
        )
    if p.covered and max(p.covered) > zsys.size:
        raise ArgumentError(
            f"partition reaches index {max(p.covered)} beyond the systems"
        )


def _block_rows(rows: list, *matrices):
    """The columns S where any of ``rows`` of the given matrices is
    nonzero, and those rows of each matrix restricted to S: ``(S, *rows)``.

    Rows that vanish off S have the spans, gaps, distances and dual solves
    of their restrictions to S, so a block is worked on S and its results
    are scattered back into the zero columns.  A dense block's S is all d
    columns.  Each matrix's rows are gathered once; S is an OR of one
    ``any`` reduction per gather, and the restrictions are taken off the
    gathers, which are freed on return.  ``numpy.take`` keeps them
    C-ordered, as ``numpy.ix_`` made them; ``G[:, S]`` would not be, and
    BLAS rounds another layout differently.
    """
    gathers = [M[rows] for M in matrices]
    touched = np.zeros(gathers[0].shape[1], dtype=bool)
    for G in gathers:
        touched |= np.any(G != 0, axis=0)
    cols = np.flatnonzero(touched)
    return (cols, *(np.take(G, cols, axis=1) for G in gathers))


def flattened_from_duals(sys: BiorthSystem, p: BlockPartition,
                         new_duals: np.ndarray) -> BiorthSystem:
    """Build the system whose functionals are ``new_duals``, blockwise.

    ``new_duals`` rows replace the f_n; each row must stay inside its
    block's functional span (checked).  The vectors are recovered by a
    dual solve inside each block's vector span, which enforces both span
    equalities of a block perturbation on every A(j).  Block j's span
    check and dual solve run on the columns S_j where its f, replacement
    and x rows are nonzero, so a block of b rows costs O(|S_j| b^2), not
    O(d b^2).
    """
    D = np.asarray(new_duals, dtype=float)
    if D.shape != sys.fs.shape:
        raise ArgumentError(f"dual matrix shape {D.shape} != {sys.fs.shape}")
    tol = sys.tol
    Z = np.zeros_like(sys.xs)
    for j, blk in enumerate(p.blocks, start=1):
        rows = [n - 1 for n in blk]
        cols, Fj, Dj, Xj = _block_rows(rows, sys.fs, D, sys.xs)
        outside = prefix_coordinates(Fj, Dj, tol.rank_tol)[1][:, -1]
        del Fj  # not held through the dual solve, which sets the peak memory
        leaving = outside > tol.span_tol * np.maximum(1.0, np.linalg.norm(Dj, axis=1))
        if leaving.any():
            raise ArgumentError(
                f"replacement functional {rows[np.argmax(leaving)] + 1} leaves the span "
                f"of block {j}"
            )
        try:
            Z[np.ix_(rows, cols)] = dual_solve(Dj, Xj, tol.rank_tol, tol.biorth_tol)
        except SingularGramError as exc:
            advice = {"rank": f"a larger eps_{j}", "cross-Gram": f"a smaller eps_{j}"}
            raise ConstructionError(f"block {j} dual solve: {exc}; use "
                                    f"{advice.get(exc.test, 'a smaller block')}") from exc
    return BiorthSystem(Z, D, tol=tol).validate()


def _rotation(seed: int, j: int, k: int) -> np.ndarray:
    """The seeded k x k rotation of block j (:func:`construct_flattened`),
    orthogonal whatever the draw; a function, so the draw and its factors
    are freed before the blocks' dual solves."""
    Q, R = np.linalg.qr(np.random.default_rng([seed, j]).standard_normal((k, k)).T)
    return Q * np.where(np.diagonal(R) < 0, -1.0, 1.0)


def construct_flattened(sys: BiorthSystem, p: BlockPartition, seed: int) -> BiorthSystem:
    """Flattened perturbation of ``sys`` with respect to the partition.

    Within each block the anchor functional is kept exactly and the other
    functionals become f_{n(j)} + radius * eta_n, radius = 0.9 * eps_j /
    ||x_{n(j)}|| (strict inequality leaves tolerance headroom).  The eta_n
    are defined as follows.  One :func:`prefix_bases` QR factors the
    block's functional rows, anchor first and the others in index order,
    on the columns S_j where they are nonzero; since a QR with positive
    diagonal is unique, its directions Q[:, 1:] are the Gram-Schmidt
    complement of the anchor inside the block's functional span, a
    function of the ordered rows.  A seeded draw ``default_rng([seed,
    j]).standard_normal((b - 1, b - 1))`` rotates them: with raw^T = Q_r R_r
    its Householder QR, the rotation is Q_r diag(sign(diag R_r)), the
    Haar-distributed orthogonal matrix at every block size (Mezzadri,
    *Notices AMS* 54, 2007), so a 2-row block's rotation is the sign of its
    1 x 1 draw; eta = rotation^T @ Q[:, 1:].T, one unit row per non-anchor
    index in order.  The vectors are recovered by blockwise dual solves
    (:func:`flattened_from_duals`).  Deterministic given (sys, p, seed),
    independent of block processing order.  Refuses a partition whose
    sets do not cover 1..|sys| exactly (an overlap :class:`BlockPartition`
    refused already), and a block whose functional rows have rank below b
    under the rank test.
    """
    _require_cover(p, sys.size, f"partition of 1..{sys.size} is invalid: ")
    tol = sys.tol
    D = np.array(sys.fs, dtype=float, copy=True)
    for j, (blk, anchor, eps_j) in enumerate(
            zip(p.blocks, p.anchors, p.epsilons), start=1):
        others = [n - 1 for n in blk if n != anchor]
        if not others:
            continue
        rows = [anchor - 1] + others
        cols, Fj = _block_rows(rows, sys.fs)
        radius = 0.9 * eps_j / float(np.linalg.norm(sys.x(anchor)))
        Q, _, rank = prefix_bases(Fj, tol.rank_tol)
        del Fj  # not held through the rotation's draw and QR, which set the peak memory
        if rank[-1] < len(rows):
            raise ConstructionError(f"functional span of block {j} is rank deficient")
        directions = _rotation(seed, j, len(others)).T @ Q[:, 1:].T
        D[np.ix_(others, cols)] = sys.fs[anchor - 1, cols] + radius * directions
    return flattened_from_duals(sys, p, D)


@dataclass(frozen=True)
class BlockCheck:
    j: int
    vector_gap: float
    dual_gap: float
    #: min over n in A(j) of eps_j/||x_{n(j)}|| - ||z_n* - f_{n(j)}||
    worst_slack: float


#: headroom below zero a block's worst slack may read and still pass, for
#: budgets that are exactly tight
_SLACK_TOL = 1e-12


@dataclass(frozen=True)
class FlatteningReport:
    blocks: tuple
    span_tol: float

    @property
    def passed(self) -> bool:
        return all(
            b.vector_gap <= self.span_tol
            and b.dual_gap <= self.span_tol
            and b.worst_slack >= -_SLACK_TOL
            for b in self.blocks
        )


def verify_flattened(zsys: BiorthSystem, xsys: BiorthSystem,
                     p: BlockPartition) -> FlatteningReport:
    """Check both flattening conditions block by block.

    Reports, per block, the span-equality defects for vectors and
    functionals and the worst slack of the anchor-closeness inequality.
    Passing means every defect is within span_tol and no slack is
    negative (up to a 1e-12 headroom for exactly tight budgets).  Both
    gaps of block j are taken on the columns where any of its four row
    sets (z and x vectors, z and x functionals) is nonzero, which leaves
    them unchanged: a z row that leaks outside the x rows' columns is
    still inside them.  Systems of different length or ambient dimension
    are refused by name.
    """
    _require_comparable(zsys, xsys, p)
    tol = xsys.tol
    checks = []
    for j, (blk, anchor, eps_j) in enumerate(
            zip(p.blocks, p.anchors, p.epsilons), start=1):
        rows = [n - 1 for n in blk]
        cols, zx, xx, zf, xf = _block_rows(rows, zsys.xs, xsys.xs, zsys.fs, xsys.fs)
        vec_gap = span_gap(zx, xx, tol.rank_tol)
        del zx, xx  # not held through the second gap, which sets the peak memory
        dual_gap = span_gap(zf, xf, tol.rank_tol)
        bound = eps_j / float(np.linalg.norm(xsys.x(anchor)))
        spread = np.linalg.norm(zf - xsys.fs[anchor - 1, cols], axis=1)
        checks.append(BlockCheck(j, vec_gap, dual_gap, bound - float(np.max(spread))))
    return FlatteningReport(tuple(checks), tol.span_tol)
