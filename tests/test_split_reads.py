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
same rank, the same row space within the sum of two SVDs' rounding over
the gap at the cut, the same gap within 4 (m + d) u kappa of the rows the
kernel keeps, and bit for bit where nothing is split off.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mbasis_lab import perturbations
from mbasis_lab.biorth import norming_constant_estimate
from mbasis_lab.perturbations import construct_flattened, verify_flattened
from mbasis_lab.representing import build_representing_indices, strong_partition
from mbasis_lab.subspace import (directed_span_gap, orthonormal_rows, prefix_bases, span_gap,
                                 svd_basis)
from test_prefix_kernel import staged_system
from test_unit_rows import SCALES, isolated_rows, mixed_matrices

U = np.finfo(float).eps / 2
RANK_TOLS = (1e-10, 0.5, 1.0)
#: the bidiagonal QR of LAPACK's SVD (dbdsqr, as dlasdq calls it) sets an
#: off-diagonal entry to zero once it is below tol = max(10, min(100,
#: u^(-1/8))) u relative to its neighbours: about 98.7 u in float64
LAPACK_TOL = max(10.0, min(100.0, U ** (-1 / 8)))


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

#: the matrix of the example that failed at --hypothesis-seed 3 (rank_tol 1e-10)
SVD_EXAMPLE = np.array([
    [0, 0, 1.6871559179418458, 0, -2.291268830652684, 3.849091986886209, -2.0,
     1.290248959682705, 2.9020549273477467],
    [0, -0.25675937031256035, -1.9462583717907402, 0, 0, 0, 0.3925804821322556, 0,
     -0.27903219421802206],
    [0, 0, 0, 0, 0, 0, 1.0, 0, 0],
    [0, 0, -0.8435779589709229, 0, 1.145634415326342, -1.9245459934431044, 0,
     -0.6451244798413525, -1.4510274636738734],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1.0, 0, 0, 0, 0, 0],
])

#: the pair of the example that failed at --hypothesis-seed 2
GAP_EXAMPLE_2 = (
    np.array([
        [0, 1.5980956329448182, -0.1270012724517442, -0.6050529073753013, 1.0919940088323719,
         -0.33060226394131265, 0.49586397760963097, -1.6445025332495384, -1.8961289622176212, 0],
        [0, -0.5538900682770258, 1.0569079335967397, 0, 0, 1.1334153906554962,
         0.3511519608539957, 0, -1.005803362029872, 1.2005546000518867],
        [-2.0, -4.361393167398428, 1.4008305287257694, -0.44091507259888196, -3.532970900687145,
         1.1334153906554962, -2.399168401257812, -2.2517282221762454, -1.005803362029872,
         70005.05394804505],
        [1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, -70000.0],
        [0, 1.9037515495607011, -0.17196129756451484, 0.22045753629944098, 1.7664854503435725,
         0, 1.3751601810559038, 1.1258641110881227, 0, -1.9266967224995608],
    ]),
    np.array([
        [0, 1.5980956329448177, -0.1270012724517441, -0.6050529073753017, 1.0919940088323719,
         -0.33060226394131265, 0.49586397760963097, -1.6445025332495384, -1.8961289622176212, 0],
        [0, -0.5538900682770257, 1.0569079335967397, 0, 0, 1.133415390655496,
         0.3511519608539957, 0, -1.0058033620298727, 1.2005546000518876],
        [-2.0000000000000004, -4.361393167398424, 1.4008305287257694, -0.44091507259888196,
         -3.532970900687145, 1.1334153906554962, -2.399168401257812, -2.2517282221762454,
         -1.005803362029872, 70005.05394804505],
        [1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, -70000.0],
        [0, 1.9037515495607005, -0.17196129756451484, 0.22045753629944093, 1.7664854503435716,
         0, 1.375160181055904, 1.1258641110881227, 0, -1.9266967224995621],
    ]),
)

#: the pair of the example that failed at --hypothesis-seed 7
GAP_EXAMPLE_7 = (
    np.array([
        [-0.37383040929785416, 0.3737740710236248, 0, -0.24725533536350008, 1.4484719396305126,
         0, 0.0663127764999869, 0, 0],
        [0, -0.7274135975385025, 0, 0, -0.11636045833696995, 1.6968675860272966,
         1.1022557698907578, 0, 0.7750353688089202],
        [0, 0, 1.0, 0, 0, 0, 0, 0.002, 0],
        [-1.7794134906677272, 0, 0, -1.3997509467786555, 0.249062651121712, 0.6297320595023703,
         -0.9001225283758476, -0.2694768367808513, 0],
        [-4.306487799931163, 2.2023753371242547, 2.0, -3.294012564284311, 3.627790098178389,
         -2.1342710530498525, -3.872131043533237, -0.5369536735617026, -1.5500707376178404],
        [0, 0, 0, 0, 0, 0, 0, 0.001, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1.0, 0, 0, 0, 0, 0, 0],
    ]),
    np.array([
        [-0.37383040929785416, 0.373774071023625, 0, -0.2472553353635003, 1.4484719396305126, 0,
         0.0663127764999869, 0, 0],
        [0, -0.7274135975385025, 0, 0, -0.11636045833696991, 1.6968675860272966,
         1.1022557698907582, 0, 0.7750353688089202],
        [0, 0, 1.0, 0, 0, 0, 0, 0.0019999999999999996, 0],
        [-1.7794134906677272, 0, 0, -1.3997509467786555, 0.2490626511217119, 0.62973205950237,
         -0.9001225283758476, -0.2694768367808513, 0],
        [-4.306487799931164, 2.2023753371242547, 2.0, -3.2940125642843134, 3.627790098178389,
         -2.1342710530498517, -3.872131043533237, -0.536953673561703, -1.5500707376178402],
        [0, 0, 0, 0, 0, 0, 0, 0.001, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1.0, 0, 0, 0, 0, 0, 0],
    ]),
)


#: a pair of unit rows at the scales 1, 1e-3 and -7e4 and one integer
#: combination of four of them; the kernel keeps all seven rows of the
#: first matrix, though its rank is six, so no rounding floor exists
GAP_EXAMPLE_DEPENDENT = (
    np.array([
        [1.0, -140000.0, 0, 0, 0, -0.001, 70000.0],
        [1.0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, -70000.0],
        [0, -70000.0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0.001, 0],
        [0, 0, 0, 1.0, 0, 0, 0],
        [0, 0, 1.0, 0, 0, 0, 0],
    ]),
    np.array([
        [1.0, -140000.00018411453, 0, 0, 0, -0.001, 70000.0],
        [1.0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, -70000.000048723],
        [0, -70000.0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0.001, 0],
        [0, 0, 0, 1.0, 0, 0, 0],
        [0, 0, 1.000000001320361, 0, 0, 0, 0],
    ]),
)


# ---------------------------------------------------------------------------
# svd_basis


@settings(max_examples=400, deadline=None)
@given(MATRICES, st.sampled_from(RANK_TOLS))
@example(SVD_EXAMPLE, 1e-10)
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
        # each SVD's kept subspace is within ||E|| / gap of the exact one
        # (Wedin, BIT 12, 1972), for E its backward error: 4 d u sigma_max
        # for the Householder reductions plus the bidiagonal QR's deflation
        # threshold, LAPACK_TOL u sigma_max.  The two paths are rounded
        # apart, so they differ by at most the sum of two such errors
        kappa = s[0] / (s[r - 1] - (s[r] if r < s.size else 0.0))
        assert projector_gap(new, old) <= 2 * (4 * d + LAPACK_TOL) * U * kappa


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
    """The larger condition number of the normalized rows that the kernel's
    rank test keeps, whose spans both gaps compare.  Where a near-dependent
    row is kept and a later one dropped, these rows are worse conditioned
    than the SVD of all rows says; where a kept row is dependent to working
    precision, the rank itself rests on rounding and no floor exists."""
    out = 1.0
    for M in Ms:
        kept = np.flatnonzero(np.diff(prefix_bases(M)[2]))
        if kept.size:
            s = np.linalg.svd(normalized(M)[kept], compute_uv=False)
            out = max(out, s[0] / s[-1] if s[-1] > 0 else np.inf)
    return out


@settings(max_examples=400, deadline=None)
@given(span_pairs())
@example(GAP_EXAMPLE_2)
@example(GAP_EXAMPLE_7)
@example(GAP_EXAMPLE_DEPENDENT)
def test_span_gap_matches_the_two_bases_form(pair):
    M1, M2 = pair
    # one Householder reflection per row, each on vectors of length d
    bound = 4 * (max(len(M1), len(M2)) + M1.shape[1]) * U * kappa(M1, M2)
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
