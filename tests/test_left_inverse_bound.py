"""The one left-inverse certificate is sound wherever it certifies.

``subspace._left_inverse_bound(F, Z)`` bounds every Gram-Schmidt residual
of the normalized rows of Z from F Z^T = I up to its defect, and
``subspace._ratio_bound`` bounds sigma_min / sigma_max of a dual solve's
cross-Gram matrix G = V W^T from the same delta.  Wherever delta < 1, each
cut, its bound less its rounding floor, must lie at or below what it
bounds as ``numpy.linalg.svd`` reads it: the smallest singular value of
Z's normalized rows, and the ratio of G's extreme singular values.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mbasis_lab import subspace


def unit_rows(Z):
    return Z / np.linalg.norm(Z, axis=1)[:, None]


def rank_value(Z):
    """sigma_min of Z's rows normalized as the kernel normalizes them."""
    return np.linalg.svd(unit_rows(Z), compute_uv=False)[-1]


def ratio_value(G):
    s = np.linalg.svd(G, compute_uv=False)
    return s[-1] / s[0]


def weakest_aligned(Z, t):
    """F = (I - t u u^T) Z^-T for u Z's weakest left singular vector: F Z^T
    - I is -t u u^T, whose spectral norm t is up to k times its largest
    entry, and sigma_min(F Z^T) = 1 - t sits on Z's weakest direction."""
    u = np.linalg.svd(Z)[0][:, -1]
    return (np.eye(len(Z)) - t * np.outer(u, u)) @ np.linalg.inv(Z).T


@st.composite
def solves(draw):
    """(F, V, G, A, W) as ``dual_solve`` forms them for k vectors in
    dimension d >= k: well-conditioned pairs, cross-Gram matrices with
    singular values down to 1e-12, vectors reaching outside span(W), and
    rows scaled by 1e-100 to 1e100."""
    k = draw(st.integers(1, 8))
    d = draw(st.integers(k, k + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    within = rng.standard_normal((k, d))
    V = rng.standard_normal((k, d))
    kind = draw(st.sampled_from(["well", "ratio", "scaled"]))
    if kind == "ratio":
        within = np.linalg.qr(rng.standard_normal((d, k)))[0].T
        s = np.geomspace(1.0, 10.0 ** draw(st.floats(-12, -1)), k)
        V = np.linalg.qr(rng.standard_normal((k, k)))[0] @ (s[:, None] * within)
        if d > k:
            V += draw(st.sampled_from([0.0, 1e-6, 1.0, 1e3])) * rng.standard_normal((k, d))
    elif kind == "scaled":
        V *= 10.0 ** rng.integers(-100, 101, k).astype(float)[:, None]
    W = subspace.orthonormal_rows(within)
    assume(W.shape[0] == k)
    G = V @ W.T
    with np.errstate(all="ignore"):
        try:
            A = np.linalg.solve(G, np.eye(k))
        except np.linalg.LinAlgError:
            assume(False)
        F = A.T @ W
    assume(np.all(np.isfinite(F)))
    return F, V, G, A, W


@st.composite
def square_pairs(draw):
    """(F, Z), k = d: complete systems, F the inverse transpose of Z;
    near-singular ones, one row 1e-12 to 1e-2 from the others' span; and
    unvalidated ones, F off the inverse transpose by -t u u^T Z^-T on Z's
    weakest direction, by (1 - t) overall, or no inverse at all.  Z's rows
    unit, Gaussian, or scaled by 1e-100 to 1e100."""
    d = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = rng.standard_normal((d, d))
    if draw(st.booleans()):
        i = draw(st.integers(0, d - 1))
        gap = 10.0 ** draw(st.floats(-12, -2))
        Z[i] = rng.standard_normal(d - 1) @ np.delete(Z, i, axis=0) + gap * rng.standard_normal(d)
    rows = draw(st.sampled_from(["unit", "gaussian", "scaled"]))
    if rows == "unit":
        Z = unit_rows(Z)
    elif rows == "scaled":
        Z *= 10.0 ** rng.integers(-100, 101, d).astype(float)[:, None]
    t = draw(st.floats(0.0, 0.99)) / d  # delta < 1 for every F but the loose ones
    how = draw(st.sampled_from(["inverse", "aligned", "shrunk", "loose"]))
    if how == "loose":
        F = draw(st.sampled_from([1e-3, 1.0])) * rng.standard_normal((d, d))
    elif how == "aligned":
        F = weakest_aligned(Z, t)
    else:
        F = (1 - t if how == "shrunk" else 1.0) * np.linalg.inv(Z).T
    assume(np.all(np.isfinite(F)))
    return F, Z


def certified(out):
    """Whether a certificate reads delta < 1 and a cut that is a number."""
    _, cut, _, delta = out
    return delta < 1 and not math.isnan(cut)


@settings(max_examples=300, deadline=None)
@given(solves())
def test_dual_solve_cuts_are_sound(case):
    F, V, G, A, W = case
    out = subspace._left_inverse_bound(F, V)
    assume(certified(out))
    assert out[1] <= rank_value(V)
    bound, cut = subspace._ratio_bound(G, A, W, V, out[3])
    assert cut <= bound
    assert cut <= ratio_value(G)


@settings(max_examples=300, deadline=None)
@given(square_pairs())
def test_square_cut_is_sound(case):
    F, Z = case
    out = subspace._left_inverse_bound(F, Z)
    assume(certified(out))
    assert out[1] <= rank_value(Z)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("t", [0.1, 0.3])
def test_an_aligned_defect_meets_its_bound(seed, t):
    # unit rows with one weak direction, and F Z^T = I - t u u^T on it:
    # the bound is within a small factor of sigma_min, so a bound that
    # dropped (1 - delta), or took delta as the largest entry of the
    # defect without its factor k, would read above sigma_min
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((5, 5))
    Z[-1] = rng.standard_normal(4) @ Z[:-1] + 1e-4 * rng.standard_normal(5)
    Z = unit_rows(Z)
    bound, cut, defect, delta = subspace._left_inverse_bound(weakest_aligned(Z, t), Z)
    assert delta < 1
    assert cut <= rank_value(Z) and bound > rank_value(Z) / 10
