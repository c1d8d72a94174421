"""The QR kernel's split of isolated rows.

An isolated row is a nonzero row none of whose columns another row
touches; an isolated unit row is one with a single nonzero, a multiple of
some e_j.  The kernel keeps each isolated row as its own direction, the
row normalized, which is sign * e_j for a unit row, and runs the
Householder QR only on the other rows and columns; given V, V's part on a
wide row's support outside its direction joins the QR in the coordinates
of a reflector.  The kernel as it was before the split,
``oracles._prefix_qr``, defines the expected output:
the same kept rows and rank tables, and Q, R, coordinates and distances
within 4 d u kappa, where kappa is the condition number of the kept
normalized rows.  R22 is unique only up to an orthogonal factor on the
left, so it is compared through its Gram matrix R22^T R22, which fixes the
column norms the callers read.  A matrix with nothing to split off must
give the old kernel's output bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mbasis_lab import subspace
from mbasis_lab.representing import build_norming_indices, build_representing_indices
from mbasis_lab.subspace import prefix_bases, prefix_coordinates
from test_prefix_kernel import staged_system

U = np.finfo(float).eps / 2
KINDS = ("unit", "shared", "zero", "dense", "dependent", "wide")
SCALES = (1.0, -1.0, 3.5, -0.25, 1e-3, -7e4)


def isolated_rows(M, wide):
    """Nonzero rows of M none of whose columns another row touches, by a
    loop over the rows; with ``wide`` false only those with one nonzero,
    the isolated unit rows."""
    per_column = np.count_nonzero(M, axis=0)
    rows = []
    for i, row in enumerate(M):
        support = np.flatnonzero(row)
        if support.size and (wide or support.size == 1) and np.all(per_column[support] == 1):
            rows.append(i)
    return rows


@st.composite
def mixed_matrices(draw):
    """Rows that mix isolated unit rows (scaled, negative), unit rows that
    share a column, zero rows, dense rows on random supports, integer
    combinations of earlier rows and wide rows on two or more columns no
    earlier row touches, which a later row may touch."""
    d = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = np.zeros((len(kinds), d))
    for i, kind in enumerate(kinds):
        if kind == "unit":
            M[i, draw(st.integers(0, d - 1))] = draw(st.sampled_from(SCALES))
        elif kind == "shared":
            used = np.flatnonzero(np.count_nonzero(M[:i], axis=0) == 1)
            col = int(rng.choice(used)) if used.size else int(rng.integers(d))
            M[i, col] = draw(st.sampled_from(SCALES))
        elif kind == "dense":
            support = rng.random(d) < 0.6
            M[i, support] = rng.uniform(-2.0, 2.0, int(support.sum()))
        elif kind == "dependent" and i:
            M[i] = rng.integers(-2, 3, i) @ M[:i]
        elif kind == "wide":
            fresh = np.flatnonzero(~M[:i].any(axis=0))
            if fresh.size >= 2:
                support = rng.choice(fresh, draw(st.integers(2, fresh.size)), replace=False)
                M[i, support] = rng.uniform(-2.0, 2.0, support.size) * draw(st.sampled_from(SCALES))
    return M


def v_choices(M, rng):
    """V as None, dense, supported only on the columns of the isolated unit
    rows, and empty."""
    d = M.shape[1]
    on_units = np.zeros((2, d))
    cols = [np.flatnonzero(M[i])[0] for i in isolated_rows(M, False)]
    on_units[:, cols] = rng.standard_normal((2, len(cols)))
    return [None, rng.standard_normal((3, d)), on_units, np.zeros((0, d))]


def floor(M, kept):
    """4 d u kappa of the kept normalized rows."""
    rows = M[kept] / np.linalg.norm(M[kept], axis=1, keepdims=True)
    s = np.linalg.svd(rows, compute_uv=False) if kept.size else np.ones(1)
    return 4 * M.shape[1] * U * s[0] / s[-1]


def old_coordinates(M, V):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subspace, "_prefix_qr",
                   lambda M, V, rank_tol: (*oracles._prefix_qr(M, V, rank_tol), None))
        return prefix_coordinates(M, V)


@settings(max_examples=300, deadline=None)
@given(mixed_matrices(), st.integers(0, 2**32 - 1))
def test_split_matches_the_whole_matrix_kernel(M, seed):
    split = isolated_rows(M, True)
    for V in v_choices(M, np.random.default_rng(seed)):
        Q, R, kept, pu = subspace._prefix_qr(M, V, 1e-10)
        Q0, R0, kept0 = oracles._prefix_qr(M, V, 1e-10)
        assert np.array_equal(kept, kept0)
        assert kept[pu].tolist() == split
        assert R.shape == R0.shape
        if not split:
            assert np.array_equal(R, R0)
            assert Q is Q0 is None or np.array_equal(Q, Q0)
            continue
        r = kept.size
        scale = 1.0 if V is None or not V.size else max(1.0, np.max(np.linalg.norm(V, axis=1)))
        tol = floor(M, kept) * scale
        assert np.max(np.abs(R[:r] - R0[:r]), initial=0.0) <= tol
        gram, gram0 = R[r:].T @ R[r:], R0[r:].T @ R0[r:]
        assert np.max(np.abs(gram - gram0), initial=0.0) <= tol * scale
        if V is None:
            assert np.max(np.abs(Q - Q0), initial=0.0) <= tol
    for V in v_choices(M, np.random.default_rng(seed))[1:]:
        C, dist, rank = prefix_coordinates(M, V)
        C0, dist0, rank0 = old_coordinates(M, V)
        assert np.array_equal(rank, rank0)
        if not split:
            assert np.array_equal(C, C0) and np.array_equal(dist, dist0)
        else:
            scale = max(1.0, np.max(np.linalg.norm(V, axis=1), initial=0.0))
            tol = floor(M, np.flatnonzero(np.diff(rank))) * scale
            assert np.max(np.abs(C - C0), initial=0.0) <= tol
            assert np.max(np.abs(dist - dist0), initial=0.0) <= tol


def test_unit_rows_are_exact_directions():
    # rows 0 and 3 are isolated; rows 1 and 2 share column 1, row 4 is dense
    M = np.array([[0.0, 0.0, 0.0, -2.5, 0.0],
                  [0.0, 3.0, 0.0, 0.0, 0.0],
                  [0.0, -1.0, 0.0, 0.0, 0.0],
                  [4.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 1.0, 2.0, 0.0, 2.0]])
    assert isolated_rows(M, False) == [0, 3]
    Q, R, rank = prefix_bases(M)
    assert rank.tolist() == [0, 1, 2, 2, 3, 4]
    assert np.array_equal(Q[:, 0], [0.0, 0.0, 0.0, -1.0, 0.0])
    assert np.array_equal(Q[:, 2], [1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(R[:, [0, 2]], np.eye(4)[:, [0, 2]])
    V = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    C, dist, _ = prefix_coordinates(M, V)
    assert C[0, 0] == -4.0 and C[0, 2] == 1.0


def test_rank_tol_at_least_one_drops_unit_rows_as_before():
    M = np.eye(3)
    for rank_tol in (1.0, 2.0):
        Q, R, kept, pu = subspace._prefix_qr(M, None, rank_tol)
        Q0, R0, kept0 = oracles._prefix_qr(M, None, rank_tol)
        assert np.array_equal(kept, kept0) and not pu.size
        assert np.array_equal(Q, Q0) and np.array_equal(R, R0)


def test_wide_rows_are_their_normalized_directions():
    # rows 1 and 3 are isolated wide rows, row 0 an isolated unit row;
    # rows 2 and 4 share column 5
    M = np.array([[0.0, 0.0, 0.0, -3.0, 0.0, 0.0, 0.0],
                  [1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
                  [0.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.25],
                  [0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0]])
    assert isolated_rows(M, True) == [0, 1, 3] and isolated_rows(M, False) == [0]
    Q, R, kept, pu = subspace._prefix_qr(M, None, 1e-10)
    assert kept[pu].tolist() == [0, 1, 3]
    assert np.array_equal(Q[:, 0], -np.eye(7)[3])
    for k in (1, 3):
        assert np.array_equal(Q[:, k], M[k] / np.linalg.norm(M[k]))
    assert np.array_equal(R[:, [0, 1, 3]], np.eye(5)[:, [0, 1, 3]])
    # given V, its coordinates on the wide directions are the products
    V = np.arange(14.0).reshape(2, 7)
    _, R, kept, pu = subspace._prefix_qr(M, V, 1e-10)
    assert kept[pu].tolist() == [0, 1, 3]
    assert R.shape == oracles._prefix_qr(M, V, 1e-10)[1].shape == (7, 7)
    assert np.max(np.abs(R[[0, 1, 3], 5:] - (V @ Q[:, [0, 1, 3]]).T)) <= 4 * 7 * U * 13.0
    assert np.array_equal(R[0, 5:], -V[:, 3])


def test_wide_row_without_a_float_norm_stays_with_the_others():
    # the squared norms of rows 0 and 1 underflow and overflow: the whole
    # matrix kernel reads both as zero rows, and so does the split; row 4's
    # squares are subnormal, so its norm is off by about 1e-5, and it stays
    # with the QR, which keeps its direction orthonormal as the whole
    # matrix kernel does; a unit row is its own direction sign * e_j at any
    # scale, as row 3 is here, where the whole matrix kernel squares it to
    # zero
    M = np.array([[1e-170, -1e-170, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 1e160, 1e160, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0, -1e-200, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-160, 1e-160]])
    Q, R, kept, pu = subspace._prefix_qr(M, None, 1e-10)
    Q0, R0, kept0 = oracles._prefix_qr(M, None, 1e-10)
    assert kept0.tolist() == [2, 4] and kept.tolist() == [2, 3, 4]
    assert kept[pu].tolist() == [2, 3]
    assert np.array_equal(Q[:, :2], -np.eye(8)[:, [4, 5]] * [-1.0, 1.0])
    assert np.array_equal(R[:, :2], np.eye(3)[:, :2]) and not R[:2, 2].any()
    assert np.max(np.abs(Q.T @ Q - np.eye(3))) <= 4 * 8 * U
    assert np.max(np.abs(Q[:, [0, 2]] - Q0)) <= 4 * 8 * U


def test_pathological_qr_sees_only_the_coupled_rows(monkeypatch):
    """On the pathological system at N = 509 (``build-system``), all but 16
    rows of E and of X are isolated rows, so the kernel's one QR sees 21
    coordinates, where the whole-matrix QR saw 1,003."""
    from test_io import pathological_matrices

    heights, qr = [], np.linalg.qr

    def spy(A, *args, **kwargs):
        heights.append(A.shape[0])
        return qr(A, *args, **kwargs)

    mats = pathological_matrices(509)
    monkeypatch.setattr(np.linalg, "qr", spy)
    for key in ("E", "X"):
        heights.clear()
        prefix_bases(mats[key])
        assert heights and max(heights) <= 21, (key, heights)


@pytest.fixture(scope="module")
def staged_512():
    return staged_system(512)


@pytest.mark.parametrize("build", [
    lambda s: build_representing_indices(s, 8),
    lambda s: build_norming_indices(s, 8),
], ids=["representing", "norming"])
def test_qr_sees_only_the_coupled_columns(build, staged_512, monkeypatch):
    """Every array the dense QR receives has at most d - u rows, u the
    number of isolated unit rows of the matrix the kernel factors."""
    factored, widths = [], []
    kernel, qr = subspace._prefix_qr, np.linalg.qr

    def spy_kernel(M, V, rank_tol):
        factored.append(np.asarray(M, dtype=float))
        try:
            return kernel(M, V, rank_tol)
        finally:
            factored.pop()

    def spy_qr(A, *args, **kwargs):
        assert factored, "a dense QR ran outside the kernel"
        M = factored[-1]
        widths.append((A.shape[0], M.shape[1] - len(isolated_rows(M, False))))
        return qr(A, *args, **kwargs)

    monkeypatch.setattr(subspace, "_prefix_qr", spy_kernel)
    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    build(staged_512)
    assert widths
    assert all(rows <= bound for rows, bound in widths), [w for w in widths if w[0] > w[1]][:3]
    assert min(bound for _, bound in widths) < 512
