"""The estimator's SVD basis and the span gap through the kernel's unit split.

- ``svd_basis`` keeps each isolated unit row of the normalized rows as its
  own right singular vector sign * e_j, singular value exactly 1, and takes
  the SVD of the other rows on the other columns only;
- ``span_gap`` and ``directed_span_gap`` form the basis Q1 of the first span
  only, and read the rank of the second span and the distance of span(Q1)
  to it off R22 of one R-only QR of its rows against Q1.

The forms that factored the whole matrix and formed both bases,
``oracles.svd_basis``, ``oracles.span_gap_two_bases`` and
``oracles.directed_span_gap_two_bases``, define the expected values: the
same rank and row space within 4 d u kappa, the same gap within
4 d u kappa, and bit for bit where nothing is split off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mbasis_lab import perturbations
from mbasis_lab.biorth import norming_constant_estimate
from mbasis_lab.perturbations import construct_flattened, verify_flattened
from mbasis_lab.representing import build_representing_indices, strong_partition
from mbasis_lab.subspace import directed_span_gap, orthonormal_rows, span_gap, svd_basis
from test_prefix_kernel import staged_system
from test_unit_rows import SCALES, isolated_rows, mixed_matrices

U = np.finfo(float).eps / 2
RANK_TOLS = (1e-10, 0.5, 1.0)


def normalized(M):
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    return np.divide(M, norms, out=np.zeros_like(M), where=norms > 0)


def projector_gap(A, B):
    """||A^T A - B^T B||_2 for two row matrices of orthonormal rows."""
    return float(np.linalg.norm(A.T @ A - B.T @ B, 2))


@st.composite
def split_matrices(draw):
    """Unit rows of both signs and several scales, each on its own column,
    followed by coupled rows: dense rows on the other columns, rows that
    also touch a unit row's column (so that row is no longer isolated),
    zero rows and integer combinations of earlier rows; the rows and the
    columns are shuffled."""
    d = draw(st.integers(2, 10))
    units = draw(st.integers(1, d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = np.zeros((units, d))
    M[np.arange(units), np.arange(units)] = draw(
        st.lists(st.sampled_from(SCALES), min_size=units, max_size=units))
    for kind in draw(st.lists(st.sampled_from(("dense", "touch", "zero", "dependent")),
                              min_size=1, max_size=8)):
        row = np.zeros(d)
        if kind in ("dense", "touch"):
            support = units + np.flatnonzero(rng.random(d - units) < 0.7)
            row[support] = rng.uniform(-2.0, 2.0, support.size)
            if kind == "touch":
                row[rng.integers(units)] = rng.uniform(-2.0, 2.0)
        elif kind == "dependent":
            row = rng.integers(-2, 3, len(M)) @ M
        M = np.vstack([M, row])
    return M[rng.permutation(len(M))][:, rng.permutation(d)]


MATRICES = st.one_of(split_matrices(), mixed_matrices())


# ---------------------------------------------------------------------------
# svd_basis


@settings(max_examples=400, deadline=None)
@given(MATRICES, st.sampled_from(RANK_TOLS))
def test_svd_basis_matches_the_whole_matrix_svd(M, rank_tol):
    new, old = svd_basis(M, rank_tol), oracles.svd_basis(M, rank_tol)
    d = M.shape[1]
    if not isolated_rows(M, False) or rank_tol >= 1:
        assert new.shape == old.shape and np.array_equal(new, old)
        return
    assert np.max(np.abs(new @ new.T - np.eye(len(new))), initial=0.0) <= 4 * d * U
    s = np.linalg.svd(normalized(M), compute_uv=False)
    cut = rank_tol * s[0]
    # a singular value within rounding of the cut may fall on either side
    if np.any(np.abs(s - cut) <= 4 * d * U * s[0]):
        return
    assert len(new) == len(old)
    r = len(old)
    if r:
        # the kept subspace is stable to u sigma_max over the gap at the cut
        kappa = s[0] / (s[r - 1] - (s[r] if r < s.size else 0.0))
        assert projector_gap(new, old) <= 4 * d * U * kappa


def test_svd_basis_puts_the_unit_rows_first_as_exact_directions():
    M = np.array([[0.0, -3.0, 0.0, 0.0, 0.0],
                  [1.0, 0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.25],
                  [1.0, 0.0, -1.0, 0.0, 0.0]])
    B = svd_basis(M)
    assert B.shape == (4, 5)
    assert np.array_equal(B[:2], [[0.0, -1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]])
    assert np.array_equal(B[2:, [1, 3, 4]], np.zeros((2, 3)))
    assert projector_gap(B, oracles.svd_basis(M)) <= 4 * 5 * U


def test_svd_basis_cut_is_relative_to_the_largest_value():
    # the four equal coupled rows have sigma_max 2, so at rank_tol 0.6 the
    # unit row's exact 1 is below the cut, as the whole-matrix SVD says
    M = np.zeros((5, 3))
    M[:4, :2] = 1.0
    M[4, 2] = -1.0
    assert svd_basis(M, 0.6).shape == oracles.svd_basis(M, 0.6).shape == (1, 3)
    assert svd_basis(M, 0.4).shape == oracles.svd_basis(M, 0.4).shape == (2, 3)
    assert np.array_equal(svd_basis(M, 0.4)[0], [0.0, 0.0, -1.0])


@pytest.fixture(scope="module")
def staged_512():
    return staged_system(512)


def test_estimate_takes_no_svd_wider_than_the_coupled_rows(staged_512, monkeypatch):
    """500 of the 512 functional rows of staged 512 are isolated unit rows,
    so the estimator's one SVD is of the 12 coupled rows; the estimate, and
    so the benchmark's c, reads as before."""
    shapes, svd = [], np.linalg.svd

    def spy(A, *args, **kwargs):
        shapes.append(A.shape)
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    est = norming_constant_estimate(staged_512, samples=1024, seed=0)
    assert shapes and max(max(s) for s in shapes) <= 12, shapes
    assert est == 0.9999999999999998


# ---------------------------------------------------------------------------
# span_gap and directed_span_gap


@st.composite
def span_pairs(draw):
    """(M1, M2) of one width: M1 with some entries scaled by 1 + 1e-9 or by
    rounding (so that the isolated unit rows stay such rows), M1 with its
    rows reversed and rescaled, another mixed matrix, or a copy of M1."""
    M1 = draw(MATRICES.filter(len))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    how = draw(st.sampled_from(("nudge", "round", "rescale", "other", "copy")))
    M2 = M1.copy()
    if how in ("nudge", "round"):
        moved = rng.random(M1.shape) < 0.5
        M2[moved] *= 1 + (1e-9 if how == "nudge" else 4 * U) * rng.standard_normal(int(moved.sum()))
    elif how == "rescale":
        M2 = M1[::-1] * rng.choice([-2.0, 0.5, 3.0], (len(M1), 1))
    elif how == "other":
        M2 = draw(mixed_matrices())
        M2 = np.resize(M2, (len(M2), M1.shape[1])) if M2.size else np.zeros((0, M1.shape[1]))
    return M1, M2


def kappa(*Ms):
    """The larger condition number of the kept normalized rows."""
    out = 1.0
    for M in Ms:
        rows = normalized(M)
        rows = rows[np.any(rows != 0, axis=1)]
        if rows.size:
            s = np.linalg.svd(rows, compute_uv=False)
            s = s[s > 1e-10 * s[0]]
            out = max(out, s[0] / s[-1])
    return out


@settings(max_examples=400, deadline=None)
@given(span_pairs())
def test_span_gap_matches_the_two_bases_form(pair):
    M1, M2 = pair
    d = M1.shape[1]
    bound = 4 * d * U * kappa(M1, M2)
    for A, B in ((M1, M2), (M2, M1)):
        gap = span_gap(A, B)
        assert 0.0 <= gap <= 1.0 + bound
        assert abs(gap - oracles.span_gap_two_bases(A, B)) <= bound
        assert abs(directed_span_gap(A, B) - oracles.directed_span_gap_two_bases(A, B)) <= bound
        if np.array_equal(A, B):
            assert gap == 0.0
        elif orthonormal_rows(A).shape[0] != orthonormal_rows(B).shape[0]:
            assert gap == 1.0
        else:
            # past the exact 1 and 0, one core
            assert gap == directed_span_gap(A, B)


def test_directed_gap_to_a_span_of_lower_rank_is_exactly_one():
    rng = np.random.default_rng(3)
    S = rng.standard_normal((3, 6))
    for sup in (S[:2], S[1:], S[:0], np.zeros((2, 6))):
        assert directed_span_gap(S, sup) == 1.0
    assert directed_span_gap(S[:2], S) <= 4 * 6 * U * kappa(S)
    assert directed_span_gap(S[:0], S) == 0.0


def test_span_gap_of_the_zero_subspace():
    e = np.eye(3)
    assert span_gap([], e[:1]) == span_gap(e[:1], []) == 1.0
    assert span_gap(np.zeros((2, 3)), e[:1]) == span_gap(e[:1], np.zeros((2, 3))) == 1.0
    assert span_gap(np.zeros((2, 3)), np.zeros((1, 3))) == 0.0
    assert span_gap([], []) == 0.0


def test_verify_forms_one_basis_per_gap(monkeypatch):
    """On staged 512 each span gap forms one Q, of the flattened side, and
    on the 413-row block the residual's Gram matrix is 2 x 2: 413 of the
    base side's vectors and 411 of its functionals are isolated unit rows
    on the block's columns, which never meet the QR."""
    base = staged_system(512)
    partition = strong_partition(build_representing_indices(base, 8), 2).partition
    z = construct_flattened(base, partition, seed=7)
    calls, qr, eigvalsh = [], np.linalg.qr, np.linalg.eigvalsh

    def qr_spy(A, mode="reduced"):
        calls[-1]["q"] += mode != "r"
        return qr(A, mode=mode)

    def eigvalsh_spy(G, *args, **kwargs):
        calls[-1]["gram"].append(G.shape)
        return eigvalsh(G, *args, **kwargs)

    def gap_spy(S1, S2, rank_tol):
        calls.append({"rows": np.shape(S1)[0], "q": 0, "gram": []})
        return gap(S1, S2, rank_tol)

    gap = perturbations.span_gap
    monkeypatch.setattr(perturbations, "span_gap", gap_spy)
    monkeypatch.setattr(np.linalg, "qr", qr_spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
    report = verify_flattened(z, base, partition)
    assert report.passed
    assert len(calls) == 2 * len(partition.blocks)
    assert all(c["q"] == 1 for c in calls), calls
    big = [c for c in calls if c["rows"] == 413]
    assert len(big) == 2
    assert all(c["gram"] and max(max(s) for s in c["gram"]) <= 2 for c in big), big
