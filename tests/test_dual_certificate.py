"""The dual solve certifies its own conditioning.

``subspace.dual_solve`` solves G = V W^T first and reads two lower bounds
off the solve's residual: one on sigma_min / sigma_max of G, one on every
Gram-Schmidt residual of V's normalized rows.  Only where a bound, less
its rounding floor, fails to clear rank_tol do the rank QR of V and the
singular values of G run.  The result must equal the reference dual
solve's, which always ran both, bit for bit, or raise its exception type
and text; the exact tests must run only where the bounds cannot decide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mbasis_lab import perturbations, subspace
from mbasis_lab.biorth import BiorthSystem
from mbasis_lab.errors import ConstructionError, SingularGramError
from mbasis_lab.perturbations import BlockPartition, construct_flattened, verify_flattened
from mbasis_lab.subspace import dual_solve
from test_prefix_kernel import flattened_staged

RANK_TEXT = "input vectors are linearly dependent above rank_tol"
GRAM_TEXT = ("cross-Gram matrix is singular above rank_tol: "
             "the vectors are not minimal relative to the given span")


def outcome(fn, *args):
    """The bytes of fn's result, or its exception type and text."""
    try:
        F = fn(*args)
    except Exception as exc:  # the comparison is of the refusal itself
        return type(exc), str(exc)
    return F.shape, F.tobytes()


def reference(*args):
    with np.errstate(all="ignore"):  # the reference solves outside errstate
        return outcome(oracles.dual_solve_reference, *args)


def orthonormal(rng, k, d):
    return np.linalg.qr(rng.standard_normal((d, k)))[0].T


@st.composite
def pairs(draw):
    """(vectors, within, rank_tol): well-conditioned pairs, cross-Gram
    ratios around rank_tol, integer-combination and zero rows, row norms
    from 1e-150 to 1e150 and exactly singular cross-Gram matrices."""
    kind = draw(st.sampled_from(["well", "ratio", "integer", "zero", "scaled", "singular"]))
    k = draw(st.integers(2 if kind in ("ratio", "singular") else 1, 8))
    d = draw(st.integers(k + (kind == "singular"), k + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    within = rng.standard_normal((k, d))
    V = rng.standard_normal((k, d))
    if kind == "ratio":
        # G = V W^T has the singular values s, whatever V adds outside span(W)
        Z = orthonormal(rng, d, d)
        within = Z[:k]
        ratio = 10.0 ** draw(st.floats(-12, -8))
        s = np.geomspace(1.0, ratio, k)
        V = orthonormal(rng, k, k) @ (s[:, None] * within)
        if d > k and draw(st.booleans()):
            V += draw(st.sampled_from([1e-6, 1.0, 1e3])) * rng.standard_normal((k, d - k)) @ Z[k:]
    elif kind == "integer":
        V = rng.integers(-3, 4, (k, d)).astype(float)
        if k > 1:
            V[-1] = rng.integers(-2, 3, k - 1) @ V[:-1]
    elif kind == "zero":
        V[draw(st.integers(0, k - 1))] = 0.0
    elif kind == "scaled":
        exps = draw(st.lists(st.integers(-150, 150), min_size=k, max_size=k))
        V *= 10.0 ** np.array(exps, dtype=float)[:, None]
    elif kind == "singular":
        # a row orthogonal to span(within), or a repeated row: G has an
        # exactly zero or repeated row, and the LU meets an exact zero pivot
        within = np.eye(d)[:k]
        if draw(st.booleans()):
            V[draw(st.integers(0, k - 1)), :k] = 0.0
        else:
            V[1] = V[0]
    rank_tol = draw(st.sampled_from([subspace.ToleranceConfig.rank_tol, 1e-11, 0.5]))
    return V, within, rank_tol


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_dual_solve_matches_the_reference(pair):
    assert outcome(dual_solve, *pair) == reference(*pair)


def exact_test_calls(monkeypatch):
    """The SVDs and R-only QRs every ``dual_solve`` call of the package
    makes, one list per call."""
    calls, svd, qr = [], np.linalg.svd, np.linalg.qr
    inside = []

    def spy_svd(*args, **kwargs):
        if inside:
            calls[-1].append("svd")
        return svd(*args, **kwargs)

    def spy_qr(A, mode="reduced"):
        if inside and mode == "r":
            calls[-1].append("qr")
        return qr(A, mode=mode)

    def spy_solve(*args, **kwargs):
        calls.append([])
        inside.append(True)
        try:
            return dual_solve(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    monkeypatch.setattr(perturbations, "dual_solve", spy_solve)
    return calls, spy_solve


def test_staged_flattening_runs_no_exact_test(monkeypatch):
    # every block of staged 512 is certified: kappa_2(G) is at most 2.9e4
    # and every residual at least 3.6e-4, decades from rank_tol
    calls, _ = exact_test_calls(monkeypatch)
    flattened_staged(512, seed=3)
    assert len(calls) == 6 and calls == [[]] * 6


def near_threshold(ratio):
    """Four vectors whose cross-Gram matrix has singular values from 1 down
    to ``ratio``, geometrically."""
    rng = np.random.default_rng(11)
    W = orthonormal(rng, 4, 6)
    return orthonormal(rng, 4, 4) @ (np.geomspace(1.0, ratio, 4)[:, None] * W), W


def test_near_threshold_runs_both_exact_tests(monkeypatch):
    # the ratio 2e-3 clears rank_tol = 1.99e-3, but the Frobenius norms of
    # the bound read it as 1.97e-3: the solve cannot certify it, both exact
    # tests run, and both pass
    calls, spy_solve = exact_test_calls(monkeypatch)
    V, W = near_threshold(2e-3)
    F = spy_solve(V, W, 1.99e-3)
    assert calls == [["qr", "svd"]]
    assert F.tobytes() == oracles.dual_solve_reference(V, W, 1.99e-3).tobytes()


@pytest.mark.parametrize("which", ["cross-Gram", "rank"])
def test_floor_band_is_undecided(which, monkeypatch):
    # a rank_tol 1e-13 below a bound, relatively, lies inside its floor
    # (4e-12 of the bound here, from Higham's gamma constants), so the
    # solve cannot certify it, and the exact tests run and pass
    rng = np.random.default_rng(5)
    W = orthonormal(rng, 3, 8)
    V = rng.standard_normal((3, 3)) @ W
    if which == "rank":
        # rows far outside span(W): the residual bound binds, not the ratio's
        Z = orthonormal(rng, 8, 8)
        W = Z[:3]
        V = Z[:3] + 100 * Z[3:6]
    Q = subspace.orthonormal_rows(W)
    G = V @ Q.T
    A = np.linalg.solve(G, np.eye(3))
    residual, _, _, delta = subspace._left_inverse_bound(A.T @ Q, V)
    ratio = subspace._ratio_bound(G, A, Q, V, delta)[0]
    bound = ratio if which == "cross-Gram" else residual
    assert bound == min(ratio, residual)
    calls, spy_solve = exact_test_calls(monkeypatch)
    F = spy_solve(V, W, bound * (1 - 1e-13))
    assert calls == [["qr", "svd"]]
    assert F.tobytes() == oracles.dual_solve_reference(V, W, bound * (1 - 1e-13)).tobytes()
    calls.clear()
    spy_solve(V, W, bound * 0.5)
    assert calls == [[]]


def test_a_wrong_solve_certifies_nothing(monkeypatch):
    # dependent vectors, and a solve that returns its right-hand side: the
    # residual G A - I exceeds 1, so nothing is certified and the rank test
    # refuses as the reference does under the same solve
    monkeypatch.setattr(np.linalg, "solve", lambda G, B: B)
    V, W = np.array([[1.0, 0, 0], [2.0, 0, 0]]), np.eye(3)[:2]
    with pytest.raises(SingularGramError, match=RANK_TEXT):
        dual_solve(V, W)
    assert outcome(dual_solve, V, W) == reference(V, W)


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_rows_outside_the_normal_range_decide_nothing(scale):
    # the rows' squares underflow or overflow, so the rank test's
    # normalization loses them and it refuses two orthogonal rows; the
    # certificate, whose floors assume normal floats, leaves them to it
    V = scale * np.array([[1.0, 1.0], [1.0, -1.0]])
    assert outcome(dual_solve, V, np.eye(2)) == reference(V, np.eye(2))
    assert outcome(dual_solve, V, np.eye(2)) == (SingularGramError, RANK_TEXT)


def test_a_failed_solve_is_raised_after_both_tests(monkeypatch):
    # a LinAlgError decides nothing: both exact tests pass on this pair,
    # so the solve's own error is raised, as the reference raises it
    def singular(G, B):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    V = np.array([[1.0, 0.5], [0.0, 1.0]])
    assert outcome(dual_solve, V, np.eye(2)) == (np.linalg.LinAlgError, "Singular matrix")
    assert outcome(dual_solve, V, np.eye(2)) == reference(V, np.eye(2))


def test_refusal_test_is_named():
    # orthogonal rows of norms 1e12 and 1, and two equal rows
    with pytest.raises(SingularGramError) as info:
        dual_solve(np.diag([1e12, 1.0]), np.eye(2))
    assert info.value.test == "cross-Gram" and str(info.value) == GRAM_TEXT
    with pytest.raises(SingularGramError) as info:
        dual_solve(np.array([[1.0, 0], [1.0, 0]]), np.eye(2))
    assert info.value.test == "rank" and str(info.value) == RANK_TEXT


def canonical_partition(eps_1):
    return BlockPartition(((1, 2, 3), (4, 5, 6)), (1, 4), (eps_1, 0.5))


@pytest.mark.parametrize("eps_1, text, advice", [
    (1e-12, RANK_TEXT, "a larger eps_1"),
    (1e12, GRAM_TEXT, "a smaller eps_1"),
])
def test_flattening_refusal_names_its_cause(eps_1, text, advice):
    # at 1e-12 the replacements collapse onto f_1 and fail the rank test;
    # at 1e12 they sit at radius 9e11 against ||f_1|| = 1 and fail the
    # sigma_max-relative test, which a larger budget only makes worse
    with pytest.raises(ConstructionError) as info:
        construct_flattened(BiorthSystem.canonical(6), canonical_partition(eps_1), seed=3)
    assert str(info.value) == f"block 1 dual solve: {text}; use {advice}"


@pytest.mark.parametrize("eps_1", [1e-9, 1e-3, 1.0, 1e5, 1e10])
def test_flattening_between_the_refusals(eps_1):
    base, p = BiorthSystem.canonical(6), canonical_partition(eps_1)
    assert verify_flattened(construct_flattened(base, p, seed=3), base, p).passed
