"""The block verdict read off the start-1 factorization.

``classify_perturbation`` decides each later interval [p + 1, b] by a
lower and an upper bound on its gap, computed from the start-1 distance
tables and the pairing defects, and runs the window search of
``biorth._agreements`` only where the bounds leave an end undecided.
The bounds must bracket the gap the window search computes, the verdicts
must equal the oracle's window-by-window classification, and the window
search must run only where the bounds cannot decide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mbasis_lab import biorth
from mbasis_lab.biorth import BiorthSystem, classify_perturbation
from mbasis_lab.subspace import ToleranceConfig, span_gap
from test_prefix_kernel import CASES, flattened_staged, near_tolerance_case, outcome
from mbasis_lab import subspace
from mbasis_lab.subspace import dual_solve, prefix_bases, prefix_coordinates

TOL = ToleranceConfig().span_tol


def start_tables(z, x):
    """The start-1 agreements, gap tables and pairing tables."""
    hits, low, high = biorth._agreements(z, x, 1, TOL, width=z.size)
    return hits, low, high, biorth._pairing_tables(z, x)


def spy_starts(monkeypatch):
    """The starts of every window search ``classify_perturbation`` runs."""
    starts, agreements = [], biorth._agreements

    def spy(zsys, xsys, start, *args, **kwargs):
        starts.append(start)
        return agreements(zsys, xsys, start, *args, **kwargs)

    monkeypatch.setattr(biorth, "_agreements", spy)
    return starts


@pytest.mark.parametrize("case", CASES)
def test_interval_bounds_bracket_the_window_gap(case):
    # lower <= gap <= upper for every start after a pile prefix and every
    # end the tables reach, with the gap of the two windows as span_gap
    # computes it, up to the floors the decision allows
    z, x = CASES[case]()
    hits, low, high, tables = start_tables(z, x)
    floor = 4 * z.ambient_dim * np.finfo(float).eps / 2
    checked = 0
    for p in (hits + 1).tolist():
        if p >= low.size:
            continue
        lower, upper = biorth._interval_bounds(p, low, high, tables)
        for b, lo, hi in zip(range(p + 1, low.size + 1), lower, upper):
            gap = max(span_gap(z.xs[p:b], x.xs[p:b]), span_gap(z.fs[p:b], x.fs[p:b]))
            phi = floor * np.sqrt(b)
            assert lo - 2 * phi <= gap <= hi + (2 + 2 * tables[0][p]) * phi, (p, b)
            checked += 1
    if case.startswith(("staged", "flattened")):
        assert checked


def test_staged_bounds_decide_every_end():
    # the cross-block defects of both pairings are exact zeros; every end
    # before n is far apart and the end n agrees with room to spare
    z, x = flattened_staged(128)
    _, low, high, tables = start_tables(z, x)
    for S in tables[2]:
        assert S[2, 128] == S[128, 2] == S[2, 2]
    lower, upper = biorth._interval_bounds(2, low, high, tables)
    assert lower[:-1].min() > 1e-3
    assert upper[-1] < 1e-3 * TOL


def defect_case(s=0.9e-8):
    """z_2 = e_2 + s e_1 against the canonical system, the functionals
    canonical on both sides, at span_tol 1e-9: every prefix span is exact,
    but the interval [2, 2] has gap s, which only the pairing defect
    g_1(z_2) = s reveals."""
    tol = ToleranceConfig(span_tol=1e-9)
    Z = np.eye(3)
    Z[1, 0] = s
    return (BiorthSystem.from_pairs(Z, np.eye(3), tol=tol),
            BiorthSystem.from_pairs(np.eye(3), np.eye(3), tol=tol))


def test_pairing_defect_alone_separates_an_interval():
    z, x = defect_case()
    hits, low, high = biorth._agreements(z, x, 1, x.tol.span_tol, width=3)
    assert hits.tolist() == [0, 1, 2] and high.max() == 0.0
    lower, upper = biorth._interval_bounds(1, low, high, biorth._pairing_tables(z, x))
    assert lower[0] <= span_gap(z.xs[1:2], x.xs[1:2]) <= upper[0]
    cls = classify_perturbation(z, x)
    assert cls == oracles.classify_perturbation(z, x)
    assert cls.kind == "pile" and cls.pile_prefixes == (1, 2, 3)


def test_tables_past_the_float64_range_decide_nothing(monkeypatch):
    # x_1 = e_1 + t e_2 and f_2 = e_2 - t e_1 pair exactly, but the
    # product of their prefix norms overflows: no bound decides, every
    # later start goes to the window search, and no warning is raised
    t = 1e154
    X, F = np.eye(3), np.eye(3)
    X[0, 1], F[1, 0] = t, -t
    x = BiorthSystem.from_pairs(X, F)
    assert not np.isfinite(biorth._pairing_tables(x, x)[0][2])
    starts = spy_starts(monkeypatch)
    cls = classify_perturbation(x, x)
    assert cls == oracles.classify_perturbation(x, x)
    assert cls.intervals.intervals == ((1, 1), (2, 2), (3, 3)) and starts == [1, 2, 3]


def block_draw(draw, n, d):
    """A forward-coupled base system in dimension d and its perturbation
    by an invertible mix inside each block of a drawn consecutive partition."""
    A = np.eye(n)
    for _ in range(draw(st.integers(0, 3))):
        s = draw(st.integers(0, n - 2))
        A[s, draw(st.integers(s + 1, n - 1))] += draw(st.floats(0.2, 0.9))
    X, F = np.zeros((n, d)), np.zeros((n, d))
    X[:, :n], F[:, :n] = A, np.linalg.inv(A).T
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4)))
    Z, G = X.copy(), F.copy()
    seed = draw(st.integers(0, 2**16))
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        M = np.eye(hi - lo) + np.random.default_rng([seed, lo]).uniform(-0.4, 0.4, (hi - lo,) * 2)
        Z[lo:hi], G[lo:hi] = M @ X[lo:hi], np.linalg.inv(M).T @ F[lo:hi]
    return X, F, Z, G


@st.composite
def small_systems(draw):
    """Block, pile and near-tolerance perturbations with n <= 24 pairs.

    A pile moves the functionals from a drawn index on into a coordinate
    no vector touches, so biorthogonality holds and the later functional
    prefixes leave span F; a near-tolerance draw tilts some vectors by a
    multiple of span_tol near 1 into one or two such coordinates, which
    the functionals never touch either."""
    kind = draw(st.sampled_from(["block", "pile", "near"]))
    n = draw(st.integers(2, 24))
    X, F, Z, G = block_draw(draw, n, n + 2)
    if kind == "pile":
        k = draw(st.integers(1, n - 1))
        G[k:, n] = np.linspace(0.5, 1.0, n - k)
    elif kind == "near":
        rows = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4)))
        scale = draw(st.sampled_from([0.3, 0.8, 0.95, 1.05, 1.3, 3.0]))
        aligned = draw(st.booleans())
        for i, row in enumerate(sorted(rows)):
            Z[row, n + (0 if aligned else i % 2)] = scale * TOL * np.linalg.norm(Z[row])
    return BiorthSystem.from_pairs(Z, G), BiorthSystem.from_pairs(X, F)


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_classifier_matches_the_window_oracle(systems):
    z, x = systems
    assert outcome(classify_perturbation, z, x) == outcome(oracles.classify_perturbation, z, x)


@pytest.mark.parametrize("n", [128, 192])
@pytest.mark.parametrize("seed", range(3))
def test_staged_later_interval_needs_no_window(n, seed, monkeypatch):
    z, x = flattened_staged(n, seed=seed)
    starts = spy_starts(monkeypatch)
    assert classify_perturbation(z, x).intervals.intervals == ((1, 2), (3, n))
    assert starts == [1]


def test_near_tolerance_falls_back_to_the_window_search(monkeypatch):
    # singleton blocks within span_tol whose prefix gaps add up past it:
    # the bounds cannot decide, and the window search keeps the verdict
    z, x = near_tolerance_case(True)
    starts = spy_starts(monkeypatch)
    cls = classify_perturbation(z, x)
    assert cls.intervals.intervals == ((1, 1), (2, 2), (3, 3))
    assert cls.pile_prefixes == (1,)
    assert len(starts) > 1 and starts[0] == 1


# The start-1 bracket: for each prefix k <= K the unit rows' distances to
# span X_k bound the gap from below, and their 2-norm over sigma_k, the
# left-inverse certificate of the first k pairs, from above.


def assert_start_bracket(z, x):
    """low - phi <= max(vector gap, functional gap) <= high + slack for
    every start-1 prefix k <= K, each gap as span_gap computes it and
    (phi, slack) the prefix's floors; returns K."""
    _, low, high = biorth._agreements(z, x, 1, x.tol.span_tol, width=z.size)
    certs = biorth._pairing_tables(z, x)[3]
    phi, slack = biorth._floors(z.ambient_dim, *(sigma[:low.size] for sigma, _ in certs))
    for k in range(1, low.size + 1):
        gap = max(span_gap(z.xs[:k], x.xs[:k], x.tol.rank_tol),
                  span_gap(z.fs[:k], x.fs[:k], x.tol.rank_tol))
        assert low[k - 1] - phi[k - 1] <= gap <= high[k - 1] + slack[k - 1], \
            (k, low[k - 1], gap, high[k - 1])
    return low.size


def tilted_pair(eps, scale=10.0, s=0.6):
    """Two rows z_1 = scale e_1 and z_2 = scale (e_1 + eps e_2), and their
    functionals, against a base system whose vector span is span(e_1,
    c e_2 + s e_4) and functional span span(c e_1 + s e_3, e_2), c^2 + s^2 = 1.
    Both gaps at k = 2 are s, but every unit row of either side lies within
    eps s of the other side's span: only the 1 / sigma_k of high, with
    sigma_k about eps / sqrt(2), sees the gap.  ``scale`` keeps both
    sigma_k's max-row-norm factors far from 1."""
    c = np.sqrt(1 - s * s)
    Z = scale * np.array([[1.0, 0.0, 0.0, 0.0], [1.0, eps, 0.0, 0.0]])
    G = np.array([[1.0, -1 / eps, 0.0, 0.0], [0.0, 1 / eps, 0.0, 0.0]]) / scale
    X = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, c, 0.0, s]])
    F = dual_solve(X, np.array([[c, 0.0, s, 0.0], [0.0, 1.0, 0.0, 0.0]]))
    return BiorthSystem.from_pairs(Z, G), BiorthSystem.from_pairs(X, F)


@pytest.mark.parametrize("case", CASES)
def test_start_bracket_holds_on_every_certified_prefix(case):
    K = assert_start_bracket(*CASES[case]())
    if case.startswith(("staged", "flattened")):
        assert K


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_start_bracket_holds_on_drawn_systems(systems):
    assert_start_bracket(*systems)


def test_start_bracket_reads_the_unit_rows_conditioning():
    # eps = 1e-3: the rows' distances read 6e-4 against the gap 0.6, and
    # high reaches it only through 1 / sigma_k
    z, x = tilted_pair(1e-3)
    assert assert_start_bracket(z, x) == 2
    _, low, high = biorth._agreements(z, x, 1, x.tol.span_tol, width=2)
    assert low[1] < 1e-3 < 0.5 < high[1]
    # eps = 1e-11: the second row is within rank_tol of the first, so the
    # kernel drops it, span_gap reads 1, and no certificate covers k = 2
    z, x = tilted_pair(1e-11, scale=1.0)
    assert assert_start_bracket(z, x) < 2
    assert span_gap(z.xs, x.xs) == 1.0


@pytest.mark.parametrize("eps,deferred", [(1e-7, [1, 2]), (1e-6, [])])
def test_start_bracket_defers_within_its_floor(eps, deferred, monkeypatch):
    # both unit rows lie exactly in span X, so high reads 0; at eps = 1e-7
    # sigma_k is near 1e-7, high's rounding floor s_k = phi_k / sigma_k
    # exceeds span_tol, and span_equal decides each prefix instead
    Z = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, eps, 0.0, 0.0]])
    G = np.array([[1.0, -1 / eps, 0.0, 0.0], [0.0, 1 / eps, 0.0, 0.0]])
    tol = ToleranceConfig()
    (sigma, K), _ = biorth._certified_prefixes(Z, G, tol.rank_tol)
    calls, span_equal = [], biorth.span_equal
    monkeypatch.setattr(biorth, "span_equal",
                        lambda A, *args: calls.append(len(A)) or span_equal(A, *args))
    equal, _, high = biorth._prefix_agreement(Z, np.eye(4)[:2], sigma, K, tol.span_tol,
                                              tol.rank_tol)
    assert K == 2 and equal.all() and not high.any() and calls == deferred


@pytest.mark.parametrize("n", [128, 192])
@pytest.mark.parametrize("seed", range(3))
def test_staged_classifier_forms_no_q(n, seed, monkeypatch):
    # no prefix_bases under either name, and one R-only QR per side, of
    # all n rows, at start 1
    z, x = flattened_staged(n, seed=seed)
    bases, coords = [], []

    def no_bases(*args, **kwargs):
        bases.append(args)
        return prefix_bases(*args, **kwargs)

    def count_coords(M, *args, **kwargs):
        coords.append(len(M))
        return prefix_coordinates(M, *args, **kwargs)

    for module in (biorth, subspace):
        monkeypatch.setattr(module, "prefix_bases", no_bases)
    monkeypatch.setattr(biorth, "prefix_coordinates", count_coords)
    starts = spy_starts(monkeypatch)
    assert classify_perturbation(z, x).intervals.intervals == ((1, 2), (3, n))
    assert not bases and coords == [n, n] and starts == [1]
