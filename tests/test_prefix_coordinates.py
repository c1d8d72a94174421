"""Coordinates, distances and projections read off the R factor of one QR.

The Q-forming window table, ``distance_to_span``, ``project``, span check
and ``tail_norms`` distance table in ``oracles`` define the expected
outputs.  On every input below ``prefix_coordinates`` must keep the same
rows as ``prefix_bases`` (so the same prefix ranks), its coordinates,
prefix distances and out-of-span norms must agree with the Q-forming ones
to COORD_FLOOR_C * d * u, and the representing-index searches and span
checks built on it must return the same values, or refuse with the same
exception and message.
"""

import numpy as np
import pytest

import oracles
from mbasis_lab import representing
from mbasis_lab.biorth import BiorthSystem
from mbasis_lab.errors import ArgumentError
from mbasis_lab.perturbations import BlockPartition, flattened_from_duals
from mbasis_lab.representing import (
    build_norming_indices,
    build_representing_indices,
    reconstruct,
)
from mbasis_lab.subspace import distance_to_span, prefix_bases, prefix_coordinates, project
from test_prefix_kernel import CASES, INDEX_CASES, outcome, staged_system

#: both forms err by a few units of rounding per ambient coordinate
#: (Higham, Accuracy and Stability, Thm 19.4)
COORD_FLOOR_C = 4.0
U = np.finfo(float).eps / 2
RANK_TOL = 1e-10


def floor(d):
    return COORD_FLOOR_C * d * U


def unit_rows(M):
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    return np.divide(M, norms, out=np.zeros_like(M), where=norms > 0)


def assert_matches_q_form(M, V):
    """prefix_coordinates(M, V) against the Q of prefix_bases(M): its
    coordinates, its distance table and the table's last column."""
    Q, _, rank = prefix_bases(M, RANK_TOL)
    C, dist, rank_c = prefix_coordinates(M, V, RANK_TOL)
    outside = dist[:, -1]
    assert rank_c.tolist() == rank.tolist()
    assert C.shape == (V.shape[0], Q.shape[1]) and dist.shape == (V.shape[0], Q.shape[1] + 1)
    d = M.shape[1]
    scale = np.maximum(1.0, np.linalg.norm(V, axis=1))
    assert np.all(np.abs(C - V @ Q) <= floor(d) * scale[:, None])
    assert np.all(np.abs(dist - oracles.tail_norms(V, Q)) <= floor(d) * scale[:, None])
    expected = [oracles.distance_to_span(v, M, RANK_TOL) for v in V]
    assert np.all(np.abs(outside - expected) <= floor(d) * scale)


def case_spans(case):
    """(M, V) pairs of a CASES pair: each side's prefixes against the other
    side's unit rows, plus seeded unit vectors."""
    z, x = CASES[case]()
    rng = np.random.default_rng(len(case))
    for A, B in ((z.xs, x.xs), (z.fs, x.fs), (x.xs, z.xs)):
        n, d = A.shape
        for k in sorted({1, n // 3, n // 2, n - 1, n} - {0}):
            V = np.vstack([unit_rows(B[: min(k + 2, n)]),
                           unit_rows(rng.standard_normal((3, d)))])
            yield A[:k], V


@pytest.mark.parametrize("case", CASES)
def test_coordinates_match_q_form(case):
    for M, V in case_spans(case):
        assert_matches_q_form(M, V)


def tilted_rows(tilt):
    """a, a + tilt * b, b: the middle row is kept iff tilt > rank_tol."""
    a, b = np.eye(4)[:2]
    return np.vstack([a, a + tilt * b, b, np.eye(4)[2]])


def special_inputs():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 9))
    interleaved = np.repeat(B, 2, axis=0)
    interleaved[1::2] *= -2.0
    return {
        "zero-rows": np.vstack([np.zeros((2, 5)), rng.standard_normal((2, 5)), np.zeros((1, 5))]),
        "all-zero": np.zeros((3, 5)),
        "no-rows": np.zeros((0, 5)),
        "more-rows-than-dimension": rng.standard_normal((9, 6)),
        "full-space": np.eye(6)[::-1],
        "interleaved-dependent": interleaved,
        "tilt-0.9": tilted_rows(0.9 * RANK_TOL),
        "tilt-1.1": tilted_rows(1.1 * RANK_TOL),
    }


@pytest.mark.parametrize("name", list(special_inputs()))
def test_special_inputs_match_q_form(name):
    M = special_inputs()[name]
    d = M.shape[1]
    V = unit_rows(np.random.default_rng(4).standard_normal((4, d)))
    for W in (V, V[:0], np.vstack([V, M[:2]])):
        assert_matches_q_form(M, W)


def test_tilts_around_rank_tol_decide_the_rank():
    assert prefix_coordinates(tilted_rows(0.9 * RANK_TOL), np.eye(4)[:0])[2].tolist() == [0, 1, 1, 2, 3]
    assert prefix_coordinates(tilted_rows(1.1 * RANK_TOL), np.eye(4)[:0])[2].tolist() == [0, 1, 2, 2, 3]


def test_whole_space_distance_is_exactly_zero():
    M = np.random.default_rng(5).standard_normal((7, 7))
    x = np.random.default_rng(6).standard_normal(7)
    assert distance_to_span(x, M) == 0.0
    assert project(x, M)[1] == 0.0
    assert np.allclose(project(x, M)[0], x, rtol=0, atol=floor(7) * np.linalg.norm(x) * 10)


@pytest.mark.parametrize("name", list(special_inputs()))
def test_distance_and_projection_match_q_form(name):
    """Distances agree to the floor.  The projection solves against R11, so
    its error is the floor times the condition number of R11 (Higham,
    Accuracy and Stability, Thm 8.5); at a tilt of 1.1 rank_tol that is
    about 1e10."""
    M = special_inputs()[name]
    d = M.shape[1]
    R = prefix_bases(M)[1]
    kappa = np.linalg.cond(R) if R.size else 1.0
    for x in np.random.default_rng(7).standard_normal((3, d)):
        bound = floor(d) * np.linalg.norm(x)
        assert abs(distance_to_span(x, M) - oracles.distance_to_span(x, M)) <= bound
        proj, resid = project(x, M)
        proj_o, resid_o = oracles.project(x, M)
        assert np.all(np.abs(proj - proj_o) <= bound * kappa)
        assert abs(resid - resid_o) <= bound


def test_distance_and_projection_refusals_match():
    for x, S in (([1.0, 0.0], [[1.0, 0.0, 0.0]]), ([np.inf, 0.0], [[1.0, 0.0]]),
                 ([1.0, 0.0], [[np.nan, 0.0]])):
        for new, old in ((distance_to_span, oracles.distance_to_span),
                         (project, oracles.project)):
            assert outcome(new, x, S) == outcome(old, x, S) == ArgumentError
    for S in ([], np.zeros((0, 3)), np.zeros((2, 3))):
        x = np.array([3.0, 4.0, 12.0])
        assert distance_to_span(x, S) == oracles.distance_to_span(x, S) == 13.0
        assert project(x, S)[1] == 13.0 and not np.any(project(x, S)[0])


def window_heads(x):
    n = x.size
    return sorted({1, 2, n // 3, n // 2, n - 2} & set(range(1, n)))


@pytest.mark.parametrize("case", ["staged-128", "flattened-seed1", "triangular", "neither",
                                  "pathological-40-vs-canonical", "tilted", "widening"])
def test_window_table_matches_q_form(case):
    x = INDEX_CASES[f"{case}-x"]() if f"{case}-x" in INDEX_CASES else INDEX_CASES[case]()
    for head in window_heads(x):
        W, rank = representing._window_table(x, head)
        W_o, rank_o = oracles._window_table(x, head)
        assert rank.tolist() == rank_o.tolist()
        assert W.shape == W_o.shape
        assert np.all(np.abs(W - W_o) <= floor(x.ambient_dim))


@pytest.mark.parametrize("case", INDEX_CASES)
def test_index_searches_match_q_form_window_table(case, monkeypatch):
    x = INDEX_CASES[case]()
    depth = 2 if case == "widening" else 8
    plain = outcome(build_representing_indices, x, depth)
    norming = outcome(build_norming_indices, x, depth, 0.4)
    monkeypatch.setattr(representing, "_window_table", oracles._window_table)
    assert plain == outcome(build_representing_indices, x, depth)
    assert norming == outcome(build_norming_indices, x, depth, 0.4)


@pytest.mark.parametrize("n", [128, 512])
def test_reconstruct_matches_q_form_projection(n, monkeypatch):
    x = staged_system(n)
    r = build_representing_indices(x, 8)
    vectors = unit_rows(np.random.default_rng(n).standard_normal((3, n)))
    new = [reconstruct(v, x, r, m) for v in vectors for m in range(1, 8)]
    monkeypatch.setattr(representing, "project", oracles.project)
    old = [reconstruct(v, x, r, m) for v in vectors for m in range(1, 8)]
    for a, b in zip(new, old):
        assert abs(a.error - b.error) <= floor(n)
        assert np.all(np.abs(a.approx - b.approx) <= floor(n))


def span_check_outcome(fn, *args):
    try:
        fn(*args)
    except ArgumentError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("tilt", [0.0, 0.9, 1.1, 10.0])
def test_span_check_matches_per_row_check(tilt):
    """A replacement functional pushed out of its block's span by ``tilt``
    times span_tol is refused by both forms, or by neither."""
    base = BiorthSystem.canonical(12, ambient_dim=14)
    p = BlockPartition(((1, 2, 3), (4, 5, 6, 7, 8), tuple(range(9, 13))),
                       (1, 5, 9), (0.1, 0.1, 0.1))
    D = base.fs.copy()
    D[5] = 0.8 * base.fs[5] + 0.1 * base.fs[3]
    D[6, 13] = tilt * base.tol.span_tol
    D[10, 12] = 2 * tilt * base.tol.span_tol
    expected = span_check_outcome(oracles.block_span_residuals, base, p, D)
    if tilt == 1.1:
        assert expected == "replacement functional 7 leaves the span of block 2"
    if expected is None:
        rows = [[n - 1 for n in blk] for blk in p.blocks]
        outside = [prefix_coordinates(base.fs[r], D[r])[1][:, -1] for r in rows]
        assert np.allclose(np.concatenate(outside), oracles.block_span_residuals(base, p, D),
                           rtol=0, atol=floor(14))
        assert flattened_from_duals(base, p, D).size == 12
    else:
        assert span_check_outcome(flattened_from_duals, base, p, D) == expected
