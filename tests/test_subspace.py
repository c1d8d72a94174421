import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbasis_lab.errors import ArgumentError, SingularGramError
from mbasis_lab.subspace import (
    ToleranceConfig,
    as_vector,
    distance_to_span,
    dual_solve,
    project,
    span_equal,
    span_gap,
)
from oracles import NetCapError, unit_net


def e(i, n):
    v = np.zeros(n)
    v[i - 1] = 1.0
    return v


class TestTruncatedVector:
    """A point of a finite l2 truncation, as validated by ``as_vector``."""

    def test_rejects_nan(self):
        with pytest.raises(ArgumentError):
            as_vector(np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            as_vector(np.array([]))

    def test_dim_mismatch(self):
        with pytest.raises(ArgumentError):
            as_vector(np.array([1.0, 2.0]), ambient_dim=3)


class TestDistance:
    def test_orthogonal_case(self):
        assert distance_to_span(e(1, 2), [e(2, 2)]) == pytest.approx(1.0)

    def test_membership(self):
        assert distance_to_span(e(1, 2), [e(1, 2)]) == pytest.approx(0.0, abs=1e-14)

    def test_hand_projection(self):
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        assert distance_to_span(x, [e(1, 2)]) == pytest.approx(1 / math.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            distance_to_span(e(1, 2), [e(1, 3)])

    def test_nonfinite_input(self):
        with pytest.raises(ArgumentError):
            distance_to_span([np.inf, 0.0], [e(1, 2)])


class TestProject:
    def test_hand_computation(self):
        proj, resid = project(np.array([3.0, 4.0]), [e(1, 2)])
        assert np.allclose(proj, [3.0, 0.0])
        assert resid == pytest.approx(4.0)

    def test_full_space_identity(self):
        x = np.array([0.3, -1.2, 2.0])
        proj, resid = project(x, np.eye(3))
        assert np.allclose(proj, x)
        assert resid == pytest.approx(0.0, abs=1e-14)

    def test_zero_subspace(self):
        x = np.array([3.0, 4.0])
        proj, resid = project(x, np.zeros((0, 2)))
        assert np.allclose(proj, 0.0)
        assert resid == pytest.approx(5.0)


class TestSpanEqual:
    def test_same_two_dim_span(self):
        s1 = [e(1, 3), e(2, 3)]
        s2 = [e(1, 3) + e(2, 3), e(1, 3) - e(2, 3)]
        assert span_equal(s1, s2, 1e-10)

    def test_different_lines(self):
        assert not span_equal([e(1, 2)], [e(2, 2)], 1e-6)

    def test_principal_angle_case(self):
        # angle atan(0.5): projector gap is sin of it, well above 1e-6
        s2 = [e(1, 2) + 0.5 * e(2, 2)]
        assert not span_equal([e(1, 2)], s2, 1e-6)
        assert span_gap([e(1, 2)], s2) == pytest.approx(math.sin(math.atan(0.5)))

    def test_equivalence_relation(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 4))
        b = np.array([[2.0, 1.0], [1.0, 1.0]]) @ a
        c = np.array([[1.0, -1.0], [0.0, 3.0]]) @ b
        assert span_equal(a, a, 0.0)
        assert span_equal(a, b, 1e-10) and span_equal(b, a, 1e-10)
        assert span_equal(b, c, 1e-10)
        assert span_equal(a, c, 3e-10)


class TestUnitNet:
    def test_one_dim(self):
        pts = unit_net([np.array([3.0, 4.0])], 0.3)
        assert len(pts) == 2
        assert np.allclose(pts[0], -pts[1])

    def test_circle_bound(self):
        pts = unit_net(np.eye(2), 0.5)
        assert len(pts) <= 26

    def test_resolution_out_of_range(self):
        with pytest.raises(ArgumentError):
            unit_net(np.eye(2), 1.5)

    def test_zero_subspace(self):
        with pytest.raises(ArgumentError):
            unit_net(np.zeros((0, 3)), 0.5)

    def test_cap(self):
        with pytest.raises(NetCapError):
            unit_net(np.eye(6), 0.05, max_points=1000)

    def test_unit_norms(self):
        pts = unit_net(np.eye(3), 0.4)
        for p in pts:
            assert abs(np.linalg.norm(p) - 1.0) <= 1e-12

    @pytest.mark.parametrize("dim,res", [(2, 0.3), (3, 0.5)])
    def test_covering_probes(self, dim, res):
        rng = np.random.default_rng(11)
        basis = rng.standard_normal((dim, 6))
        pts = unit_net(basis, res)
        from mbasis_lab.subspace import orthonormal_rows

        Q = orthonormal_rows(basis)
        for _ in range(200):
            v = rng.standard_normal(dim) @ Q
            v /= np.linalg.norm(v)
            assert np.min(np.linalg.norm(pts - v, axis=1)) <= res


class TestDualSolve:
    def test_orthonormal_self_duality(self):
        fs = dual_solve([e(1, 2), e(2, 2)], np.eye(2))
        assert np.allclose(fs[0], e(1, 2))
        assert np.allclose(fs[1], e(2, 2))

    def test_two_by_two_inverse(self):
        fs = dual_solve([e(1, 2), e(1, 2) + e(2, 2)], np.eye(2))
        assert np.allclose(fs[0], e(1, 2) - e(2, 2))
        assert np.allclose(fs[1], e(2, 2))

    def test_orthogonal_cross_gram(self):
        with pytest.raises(SingularGramError):
            dual_solve([e(1, 2)], [e(2, 2)])

    def test_count_mismatch(self):
        with pytest.raises(ArgumentError):
            dual_solve([e(1, 3)], np.eye(3))

    def test_cross_gram_identity(self):
        rng = np.random.default_rng(5)
        V = rng.standard_normal((4, 7))
        F = dual_solve(V, V)
        assert np.max(np.abs(F @ V.T - np.eye(4))) <= 1e-8

    def test_no_vectors_gives_empty_rows(self):
        F = dual_solve(np.zeros((0, 3)), np.eye(3))
        assert isinstance(F, np.ndarray) and F.shape == (0, 3)

    def test_empty_list_gives_empty_rows(self):
        # an empty list is the zero subspace too; the rows live where within does
        assert dual_solve([], np.eye(3)).shape == (0, 3)
        assert distance_to_span(e(1, 3), []) == 1.0
        assert span_gap([], [e(1, 3)]) == 1.0

    def test_non_finite_solution_refused(self, monkeypatch):
        # a NaN pairing defect must fail the biorthogonality check
        monkeypatch.setattr(np.linalg, "solve", lambda G, B: np.full_like(B, np.nan))
        with pytest.raises(SingularGramError, match="defect nan"):
            dual_solve(np.eye(2), np.eye(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 10_000))
def test_pythagoras(n, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    S = rng.standard_normal((min(k, n), n))
    proj, resid = project(x, S)
    lhs = resid ** 2 + np.linalg.norm(proj) ** 2
    assert lhs == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-10)


def test_tolerance_config_validation():
    for f in fields(ToleranceConfig):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ArgumentError, match=f"{f.name} must be strictly positive"):
                ToleranceConfig(**{f.name: bad})


@pytest.mark.parametrize("bad", [1.0, 2.0, math.inf])
def test_rank_tol_must_be_below_one(bad):
    # a normalized row's residual is at most 1: such a value drops every row
    with pytest.raises(ArgumentError, match=r"^rank_tol must be below 1, got "):
        ToleranceConfig(rank_tol=bad)
