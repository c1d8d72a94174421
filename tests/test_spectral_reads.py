"""One number read without a full factorization.

Three reads of a single number take no full SVD or LU of a matrix that is
mostly unit directions:

- the norming constant sigma_min(Q_F^T Q_X) drops the signed unit columns
  +-e_j that both factors hold, with row j otherwise zero in each: such a
  column is a direction common to both spans, orthogonal to the rest of
  each, with cosine exactly 1;
- ``project`` reads the coefficients of the isolated unit rows off R12,
  where R11 is the identity, and solves only the triangle of the coupled
  rows; the unit positions come from the QR kernel's split, never from
  R11's nonzero pattern, which the last coupled row shares;
- the span gap takes sigma_max of the residual as the square root of the
  largest eigenvalue of its smaller Gram matrix.

The old forms, ``oracles._cross_minimum``, ``oracles.project_lu`` and
``oracles._residual_norm``, define the expected values: within 4 d u kappa,
and bit for bit where nothing is split off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mbasis_lab import representing, subspace
from mbasis_lab.biorth import BiorthSystem
from mbasis_lab.representing import (
    build_norming_indices,
    build_representing_indices,
    norming_property_minimum,
    reconstruct,
)
from mbasis_lab.subspace import prefix_bases, project, span_gap
from test_prefix_kernel import staged_system
from test_unit_rows import isolated_rows, mixed_matrices

U = np.finfo(float).eps / 2
ROLES = ("shared", "opposite", "touched", "only-h", "only-f", "dense", "zero")


def unit_columns(Q):
    """{j: k} for each column k of Q that is exactly +-e_j with row j of Q
    otherwise zero, by a loop over the columns."""
    out = {}
    for k in range(Q.shape[1]):
        support = np.flatnonzero(Q[:, k])
        if (support.size == 1 and abs(Q[support[0], k]) == 1
                and np.count_nonzero(Q[support[0]]) == 1):
            out[int(support[0])] = k
    return out


def orthonormal_on(rows, count, d, rng):
    """A d x count matrix of orthonormal columns supported on ``rows``."""
    Q = np.zeros((d, count))
    if count:
        Q[rows] = np.linalg.qr(rng.standard_normal((len(rows), count)))[0]
    return Q


@st.composite
def factor_pairs(draw):
    """(QH, QF): per coordinate j, a signed e_j in both factors (with equal
    or opposite signs, or with F's dense columns touching row j at rounding
    level), in one factor only (the other's dense columns cover row j), a
    coordinate of the dense columns, or a coordinate neither touches.  Each
    factor may carry one zero column, and the columns are shuffled."""
    d = draw(st.integers(1, 10))
    roles = draw(st.lists(st.sampled_from(ROLES), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    at = {role: [j for j, r in enumerate(roles) if r == role] for role in ROLES}
    h_rows = at["dense"] + at["only-f"]
    f_rows = at["dense"] + at["only-h"]
    QH = orthonormal_on(h_rows, draw(st.integers(0, len(h_rows))), d, rng)
    QF = orthonormal_on(f_rows, draw(st.integers(0, len(f_rows))), d, rng)
    # the touched rows hold e_j in both factors, and F's dense columns
    # touch them at rounding level, as a computed Q may
    QF[at["touched"]] = 1e-17 * rng.choice([-1.0, 1.0], (len(at["touched"]), QF.shape[1]))
    units_h, units_f = [], []
    for j, role in enumerate(roles):
        sign = float(rng.choice([-1.0, 1.0]))
        if role in ("shared", "opposite", "touched", "only-h"):
            units_h.append((j, sign))
        if role in ("shared", "touched", "only-f"):
            units_f.append((j, sign))
        elif role == "opposite":
            units_f.append((j, -sign))
    parts = []
    for Q, units in ((QH, units_h), (QF, units_f)):
        E = np.zeros((d, len(units)))
        for k, (j, sign) in enumerate(units):
            E[j, k] = sign
        Q = np.hstack([Q, E, np.zeros((d, draw(st.integers(0, 1))))])
        parts.append(Q[:, rng.permutation(Q.shape[1])])
    return tuple(parts)


def kappa(*factors):
    """The larger condition number of the factors' nonzero columns."""
    out = 1.0
    for Q in factors:
        Q = Q[:, np.any(Q != 0, axis=0)]
        if Q.size:
            s = np.linalg.svd(Q, compute_uv=False)
            out = max(out, s[0] / s[-1])
    return out


@settings(max_examples=400, deadline=None)
@given(factor_pairs())
def test_shared_unit_drop_matches_the_full_svd(pair):
    QH, QF = pair
    new, old = representing._cross_minimum(QH, QF), oracles._cross_minimum(QH, QF)
    shared = unit_columns(QH).keys() & unit_columns(QF).keys()
    if not shared:
        assert new.hex() == old.hex()
    elif len(shared) == QH.shape[1]:
        assert new == 1.0
    assert 0.0 <= new <= 1.0 or not shared
    assert abs(new - old) <= 4 * QH.shape[0] * U * kappa(QH, QF)
    # swapping the roles drops the same directions
    back = representing._cross_minimum(QF, QH)
    assert abs(back - oracles._cross_minimum(QF, QH)) <= 4 * QH.shape[0] * U * kappa(QH, QF)


def test_every_column_shared_reads_exactly_one():
    d = 6
    QH = np.eye(d)[:, [4, 0, 2]] * [1.0, -1.0, 1.0]
    QF = np.eye(d)[:, [0, 2, 3, 4]] * [1.0, 1.0, -1.0, -1.0]
    assert representing._cross_minimum(QH, QF) == 1.0
    assert representing._cross_minimum(QF, QH) == 0.0  # 4 columns against 3


def test_touched_row_is_not_shared():
    # e_0 is a column of both, but QF's other column touches row 0, so the
    # structural test keeps it and the SVD sees the whole matrix
    QH = np.eye(3)[:, [0]]
    QF = np.array([[1.0, 0.1], [0.0, np.sqrt(0.99)], [0.0, 0.0]])
    assert unit_columns(QF) == {}
    assert representing._cross_minimum(QH, QF) == oracles._cross_minimum(QH, QF) > 1.0


def test_shared_units_cap_the_rest_at_one():
    # the dense parts span one plane, so the rest's sigma_min is 1 and
    # rounds to 1 + 2u; the shared e_0 makes the minimum exactly 1
    rng = np.random.default_rng(2)
    A = np.linalg.qr(rng.standard_normal((4, 3)))[0]
    B = A @ np.linalg.qr(rng.standard_normal((3, 3)))[0]
    assert oracles._cross_minimum(A, B) > 1.0
    QH, QF = np.zeros((5, 4)), np.zeros((5, 4))
    QH[0, 0], QF[0, 3] = 1.0, -1.0
    QH[1:, 1:], QF[1:, :3] = A, B
    assert representing._cross_minimum(QH, QF) == 1.0


@pytest.fixture(scope="module")
def staged_512():
    return staged_system(512)


def test_norming_search_svds_see_only_the_unshared_columns(staged_512, monkeypatch):
    """On staged 512 the 500 isolated unit rows of X and F are shared unit
    directions, so no SVD of the norming search is wider than 12 columns."""
    shapes, svd = [], np.linalg.svd

    def spy(A, *args, **kwargs):
        shapes.append(A.shape)
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    r = build_norming_indices(staged_512, 8)
    assert r.norming_c == 0.5
    assert shapes and max(max(s) for s in shapes) <= 12, shapes


def test_shared_units_are_read_off_the_kernel_scan(staged_512, monkeypatch):
    """The shared unit columns come from the kernel's isolated-row scan of
    each Q^T, the one structural test of a row that is its own direction.
    On staged 512, 500 columns of Q_X are +-e_j, and every column of Q_F,
    whose coupled rows e_t - 0.9 e_s orthogonalize to e_t exactly."""
    seen, scan = [], subspace._isolated_rows

    def spy(M):
        units, cols, wide = scan(M)
        seen.append((M.shape, units.size))
        return units, cols, wide

    monkeypatch.setattr(representing, "_isolated_rows", spy)
    x = staged_512
    assert norming_property_minimum(x, x.size, x.size) == 1.0
    assert seen == [((512, 512), 500), ((512, 512), 512)]


def test_norming_constant_matches_the_full_svd(staged_512):
    x = staged_512
    Qx, Qf = prefix_bases(x.xs)[0], prefix_bases(x.fs)[0]
    const = norming_property_minimum(x, x.size, x.size)
    assert const == representing._cross_minimum(Qx, Qf) <= 1.0
    assert abs(const - oracles._cross_minimum(Qx, Qf)) <= 4 * x.size * U
    assert build_norming_indices(x, 1).norming_c == const / 2


# ---------------------------------------------------------------------------
# project


def interleaved_window():
    """Unit rows 0, 2, 4, 6 interleaved with coupled rows 1, 3, 5, the last
    of which has only its diagonal in R11; column 8 is outside the span."""
    M = np.zeros((7, 9))
    M[0, 0] = 2.0
    M[1, [1, 2]] = [1.0, 1.0]
    M[2, 3] = -1.0
    M[3, [1, 4]] = [1.0, 3.0]
    M[4, 5] = 5.0
    M[5, [2, 4, 6]] = [-1.0, 1.0, 0.5]
    M[6, 7] = -0.3
    return M


def test_project_split_on_a_last_coupled_row_with_only_its_diagonal():
    M = interleaved_window()
    for x in np.random.default_rng(11).standard_normal((4, 9)):
        _, R, kept, pu = subspace._prefix_qr(M, x[None], 1e-10)
        r = kept.size
        assert kept[pu].tolist() == isolated_rows(M, False) == [0, 2, 4, 6]
        # the premise: R11 row 5 holds its diagonal alone, and it is not 1
        assert np.flatnonzero(R[5, :r]).tolist() == [5] and R[5, 5] != 1.0
        proj, resid = project(x, M)
        proj_lu, resid_lu = oracles.project_lu(x, M)
        coef = np.linalg.lstsq(M.T, x, rcond=None)[0]
        assert np.max(np.abs(proj - proj_lu)) <= 1e-12
        assert np.max(np.abs(proj - M.T @ coef)) <= 1e-12
        assert resid == resid_lu
        assert abs(resid - np.linalg.norm(x - M.T @ coef)) <= 1e-12
        # the unit coordinates of the projection are x's own, exactly
        assert np.array_equal(proj[[0, 3, 5, 7]], x[[0, 3, 5, 7]])


@settings(max_examples=300, deadline=None)
@given(mixed_matrices(), st.integers(0, 2**32 - 1))
def test_project_matches_the_lu_form(M, seed):
    """Within 4 d u kappa(R11) |x|, the bound of a triangular solve
    (Higham, Accuracy and Stability, Thm 8.5), and bit for bit when no row
    is isolated, unit or wide: the kernel splits both.  The residual is
    exact either way."""
    x = np.random.default_rng(seed).standard_normal(M.shape[1])
    proj, resid = project(x, M)
    proj_lu, resid_lu = oracles.project_lu(x, M)
    assert resid == resid_lu
    if not isolated_rows(M, True):
        assert np.array_equal(proj, proj_lu)
        return
    R = prefix_bases(M)[1]
    bound = 4 * M.shape[1] * U * np.linalg.cond(R) * np.linalg.norm(x)
    assert np.max(np.abs(proj - proj_lu)) <= bound


def test_reconstruct_solves_only_the_coupled_triangle(staged_512, monkeypatch):
    r = build_representing_indices(staged_512, 8)
    x = np.random.default_rng(5).standard_normal(512)
    sizes, solve = [], np.linalg.solve

    def spy(A, b):
        sizes.append(A.shape[0])
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    for m in range(1, 8):
        reconstruct(x, staged_512, r, m)
    # the staged windows hold at most 12 coupled rows
    assert sizes and max(sizes) <= 12, sizes


# ---------------------------------------------------------------------------
# the residual norm of span_gap


GAPS = [1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0]


def rotated_pair(k, d, gap, seed):
    """Q with k orthonormal rows and Qs = cos(t) Q + sin(t) P for orthonormal
    rows P orthogonal to Q, with sin(t) = gap: the residual is k x d."""
    B = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, 2 * k)))[0].T
    Q, P = B[:k], B[k:]
    return Q, np.sqrt(1.0 - gap * gap) * Q + gap * P


def tall_pair(k, d, gap, seed):
    """A k x d Q, k > d, whose part outside span(Qs) is gap times a
    matrix of unit spectral norm: the residual is tall."""
    rng = np.random.default_rng(seed)
    B = np.linalg.qr(rng.standard_normal((d, d)))[0].T
    Qs, P = B[:2], B[2:]
    out = rng.standard_normal((k, d - 2))
    out /= np.linalg.norm(out, 2)
    return rng.standard_normal((k, 2)) @ Qs + gap * out @ P, Qs


@pytest.mark.parametrize("gap", GAPS)
@pytest.mark.parametrize("make,k,d", [(rotated_pair, 1, 7), (rotated_pair, 3, 12),
                                      (rotated_pair, 6, 12), (tall_pair, 12, 5),
                                      (tall_pair, 20, 9)],
                         ids=["wide-1x7", "wide-3x12", "wide-6x12", "tall-12x5", "tall-20x9"])
def test_residual_norm_matches_the_svd_form(make, k, d, gap):
    """Relative agreement within 4 max(k, d) u: both forms read sigma_max of
    the same computed residual, one by its SVD, one by eigvalsh of its
    smaller Gram matrix, whose error is about k u lambda_max."""
    for seed in range(3):
        Q, Qs = make(k, d, gap, seed)
        new, old = subspace._residual_norm(Q - (Q @ Qs.T) @ Qs), oracles._residual_norm(Q, Qs)
        assert np.isfinite(new) and new >= 0.0
        assert abs(new - old) <= 4 * max(k, d) * U * old
        if gap >= 1e-6:
            assert abs(new - gap) <= 1e-6 * gap


def test_residual_norm_of_a_zero_residual_is_plus_zero():
    Q = np.eye(5)[:2]
    for Qs in (np.eye(5)[:3], np.eye(5)[:2]):
        value = subspace._residual_norm(Q - (Q @ Qs.T) @ Qs)
        assert value == 0.0 and np.copysign(1.0, value) == 1.0


def test_span_gap_exact_cases_unchanged():
    rng = np.random.default_rng(8)
    S = rng.standard_normal((3, 7))
    assert span_gap(S, S.copy()) == 0.0
    assert span_gap(S, S[:2]) == 1.0
    assert span_gap(S[:2], S) == 1.0


def test_canonical_norming_takes_no_svd(monkeypatch):
    """Every direction of the canonical system is a shared unit column, so
    the constant is exactly 1 and no step runs an SVD."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    r = build_norming_indices(BiorthSystem.canonical(512), 6)
    assert r.norming_c == 0.5 and r.values[-1] == 6 and not calls
