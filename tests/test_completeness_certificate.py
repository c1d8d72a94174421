"""The strongness residual certifies completeness before it factors.

``representing.strongness_diagnostic`` reads the distance from x to the
span of the selected z rows.  When the selection has as many rows as the
ambient dimension, ``subspace._left_inverse_bound`` bounds every
Gram-Schmidt residual of those rows from the system's own functionals,
F Z^T = I up to its defect; where the bound less its rounding floor clears
rank_tol, the kernel keeps every row, R22 is empty, and the residual is
0.0 without the QR.  Every residual must equal ``distance_to_span`` on the
same selection, bit for bit, and the QR must run only where the bound
cannot decide.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbasis_lab import subspace
from mbasis_lab.biorth import BiorthSystem
from mbasis_lab.errors import ArgumentError
from mbasis_lab.perturbations import construct_flattened
from mbasis_lab.representing import (
    RepresentingIndices,
    build_representing_indices,
    strong_partition,
    strongness_diagnostic,
)
from mbasis_lab.subspace import ToleranceConfig, distance_to_span
from test_prefix_kernel import flattened_random, flattened_staged

#: one round over r = (1, 2, 3): the block {1, 2}, for any system of size >= 2
SMALL_TRACE = strong_partition(RepresentingIndices((1, 2, 3), (math.inf,) * 3, (1, 2, 3)), 1)


def reference_residuals(x, zsys, prefixes):
    """The residuals as ``distance_to_span`` reads them on the selection:
    the z rows up to N whose coefficient of x is above biorth_tol."""
    xv = x / np.linalg.norm(x)
    coeff = zsys.fs @ xv
    out = {}
    for N in prefixes:
        idx = [n for n in range(N) if abs(coeff[n]) > zsys.tol.biorth_tol]
        out[N] = distance_to_span(xv, zsys.xs[idx], zsys.tol.rank_tol) if idx else 1.0
    return out


def diagnose(x, zsys, prefixes=None):
    xsys = BiorthSystem.canonical(zsys.size, zsys.ambient_dim, tol=zsys.tol)
    return strongness_diagnostic(x, zsys, xsys, SMALL_TRACE, SMALL_TRACE.partition.epsilons,
                                 prefixes)


def hexed(residuals):
    return {N: float(v).hex() for N, v in residuals.items()}


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


@st.composite
def diagnostic_inputs(draw):
    """(x, zsys, prefixes): flattened complete systems; square Gaussian Z
    and F its inverse transpose, as drawn or with one row of Z within
    1e-12 to 1e-8 of the others' span; unvalidated pairs whose F is no
    left inverse of Z, Z singular or not; rows of Z scaled to 1e-154,
    1e-170 or 1e170 against F's rows scaled back, with every nonzero
    coefficient selected; Z in C or Fortran order; x generic, with zero
    coordinates, or a combination of a few z rows; rank_tol 1e-10, 1e-11
    or 0.5."""
    kind = draw(st.sampled_from(["flattened", "inverse", "near", "loose", "scaled"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rank_tol = draw(st.sampled_from([ToleranceConfig.rank_tol, 1e-11, 0.5]))
    tol = ToleranceConfig(rank_tol=rank_tol, biorth_tol=1e-300 if kind == "scaled" else 1e-8)
    if kind == "flattened":
        z, _ = flattened_random(seed)
        Z, F = z.xs, z.fs
    else:
        d = draw(st.integers(2, 12))
        Z = rng.standard_normal((d, d))
        F = None
        if kind == "near":
            i = draw(st.integers(0, d - 1))
            gap = 10.0 ** draw(st.floats(-12, -8))
            Z[i] = rng.standard_normal(d - 1) @ np.delete(Z, i, axis=0) + gap * unit(rng, d)
        elif kind == "loose":
            if draw(st.booleans()):
                Z[-1] = rng.standard_normal(d - 1) @ Z[:-1]  # singular: ||F Z^T - I|| >= 1
            F = draw(st.sampled_from([1e-6, 1.0, 1e3])) * (
                Z if draw(st.booleans()) else rng.standard_normal((d, d)))
        if F is None:
            F = np.linalg.inv(Z).T
        if kind == "scaled":
            rows = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
            scale = draw(st.sampled_from([1e-154, 1e-170, 1e170]))
            Z[rows] *= scale
            F[rows] /= scale
    if draw(st.booleans()):
        Z = np.asfortranarray(Z)  # a layout the selection must not pass on
    zsys = BiorthSystem(Z, F, tol=tol)
    d = zsys.ambient_dim
    how = draw(st.sampled_from(["generic", "zeros", "few rows"] if kind != "scaled"
                               else ["generic"]))
    x = rng.standard_normal(d)
    if how == "zeros":
        x[rng.random(d) < 0.5] = 0.0
    elif how == "few rows":
        few = rng.choice(zsys.size, size=int(rng.integers(1, zsys.size)), replace=False)
        x = rng.standard_normal(few.size) @ Z[few]
    if not np.any(x):
        x[0] = 1.0
    prefixes = draw(st.none() | st.lists(st.integers(1, zsys.size), min_size=1, max_size=3,
                                         unique=True))
    return x, zsys, prefixes


@settings(max_examples=300, deadline=None)
@given(diagnostic_inputs())
def test_residuals_match_distance_to_span(case):
    x, zsys, prefixes = case
    report = diagnose(x, zsys, prefixes)
    expected = reference_residuals(x, zsys, prefixes or [zsys.size])
    assert hexed(report.residuals) == hexed(expected)


def qr_calls(monkeypatch):
    """The ``numpy.linalg.qr`` calls made from now on, by shape."""
    calls, qr = [], np.linalg.qr

    def spy(A, *args, **kwargs):
        calls.append(np.shape(A))
        return qr(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return calls


def test_staged_diagnostic_runs_no_qr(monkeypatch):
    # the benchmark's four calls on staged 512: each selects all 512 rows,
    # and the bound reads at least 2.4e-5 against a floor of 1.1e-8
    z, base = flattened_staged(512, seed=3)
    trace = strong_partition(build_representing_indices(base, 8), 2)
    rng = np.random.default_rng(3)
    vectors = [unit(rng, 512) for _ in range(4)]
    calls = qr_calls(monkeypatch)
    reports = [strongness_diagnostic(x, z, base, trace, trace.partition.epsilons)
               for x in vectors]
    assert calls == []
    assert [r.residuals for r in reports] == [{512: 0.0}] * 4
    calls.clear()
    expected = [reference_residuals(x, z, [512]) for x in vectors]
    assert len(calls) == 4 and [hexed(r.residuals) for r in reports] == list(map(hexed, expected))


def near_singular(gap, d=6, seed=11):
    """A square pair whose last vector lies ``gap`` from the others' span,
    with F the inverse transpose."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((d, d))
    Z[-1] = rng.standard_normal(d - 1) @ Z[:-1] + gap * unit(rng, d)
    return Z, np.linalg.inv(Z).T


def test_near_singular_draw_reaches_the_qr(monkeypatch):
    # at gap 1e-11 the rank test drops the last row; the bound, below
    # rank_tol, cannot say so, and the QR, run again without that row,
    # reads the nonzero distance
    Z, F = near_singular(1e-11)
    zsys = BiorthSystem(Z, F)
    x = np.random.default_rng(5).standard_normal(6)
    calls = qr_calls(monkeypatch)
    report = diagnose(x, zsys)
    assert calls and report.residual > 0.0
    assert hexed(report.residuals) == hexed(reference_residuals(x, zsys, [6]))


def test_floor_band_is_undecided(monkeypatch):
    # a rank_tol 1e-13 below the bound, relatively, lies inside its floor
    # (about 4.5e-13 of the bound here), so the QR runs; at half the bound
    # it does not, and both read 0.0
    Z, F = near_singular(0.3)
    bound = subspace._left_inverse_bound(F, Z)[0]
    assert 0 < bound < 1
    x = np.random.default_rng(5).standard_normal(6)
    calls = qr_calls(monkeypatch)
    for rank_tol, qrs in ((bound * (1 - 1e-13), 1), (bound * 0.5, 0)):
        calls.clear()
        zsys = BiorthSystem(Z, F, tol=ToleranceConfig(rank_tol=rank_tol))
        assert diagnose(x, zsys).residuals == {6: 0.0}
        assert len(calls) == qrs


def test_no_left_inverse_certifies_nothing(monkeypatch):
    # a singular Z has ||F Z^T - I|| >= 1 whatever F is; with F = 1e-6 Z
    # the bound without its (1 - delta) would read 1e5 and certify
    Z = np.random.default_rng(2).standard_normal((5, 5))
    Z[-1] = Z[0] + Z[1]
    zsys = BiorthSystem(Z, 1e-6 * Z, tol=ToleranceConfig(biorth_tol=1e-12))
    assert subspace._left_inverse_bound(zsys.fs, Z)[1] < 0
    x = np.random.default_rng(4).standard_normal(5)
    calls = qr_calls(monkeypatch)
    report = diagnose(x, zsys)
    assert calls and report.residual > 0.1


@pytest.mark.parametrize("scale", [1e-154, 1e-170, 1e170])
def test_rows_outside_the_normal_range_decide_nothing(scale):
    # the rows' sums of squares are subnormal, zero or infinite, so the
    # kernel's normalization may lose digits or the rows; the bound, whose
    # floor assumes normal sums, leaves them to it.  At 1e-154 F stays
    # finite and the bound would otherwise read about 0.7
    Z = scale * np.array([[1.0, 1.0], [1.0, -1.0]])
    F = np.linalg.inv(Z).T
    assert math.isnan(subspace._left_inverse_bound(F, Z)[1])
    zsys = BiorthSystem(Z, F, tol=ToleranceConfig(biorth_tol=1e-300))
    x = np.array([0.6, 0.8])
    assert hexed(diagnose(x, zsys).residuals) == hexed(reference_residuals(x, zsys, [2]))


def budget_case():
    sys = BiorthSystem.canonical(32)
    trace = strong_partition(build_representing_indices(sys, 4), 2)
    sub = sys.prefix(max(trace.partition.covered))
    z = construct_flattened(sub, trace.partition, seed=2)
    return sub, z, trace, np.eye(32)[0]


@pytest.mark.parametrize("eps, j", [
    ([math.nan, 0.25], 1), ([0.5, math.inf], 2), ([-1.0, -1.0], 1), ([0.5, 0.0], 2),
])
def test_budgets_must_be_positive_and_finite(eps, j):
    # before, NaN or inf budgets read case A everywhere, -1 case B
    # everywhere and 0 passed silently; each is refused with
    # BlockPartition's text
    sub, z, trace, x = budget_case()
    with pytest.raises(ArgumentError, match=rf"^eps_{j} must be positive and finite$"):
        strongness_diagnostic(x, z, sub, trace, eps)


def test_a_finite_budget_reads_its_cases():
    sub, z, trace, x = budget_case()
    report = strongness_diagnostic(x, z, sub, trace, [0.5, 0.5])
    assert [v.case for v in report.verdicts] == ["B", "A"]
