"""The staircase lemma read off its jump points against the every-n oracles.

``build_phi`` checks its four conditions on the jumps, and the count
identity and the overlap sizes are read where a step function changes.
Each must agree with the every-n versions in ``oracles`` exactly: equal
arrays and dtypes, equal booleans, and the same refusal, on staircases of
random non-decreasing f, on hand-built specs and on corrupted jump sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mbasis_lab.errors import ArgumentError, ConstructionError
from mbasis_lab.pathology import (
    BEYOND_TABLE,
    PermutationSpec,
    PhiTable,
    build_permutation,
    build_phi,
    identity_permutation,
    verify_injective,
    verify_phi_count_identity,
    _check_phi_conditions,
)


def outcome(fn, *args):
    """(result, None), or (None, (type, message)) for a refusal."""
    try:
        return fn(*args), None
    except (ArgumentError, ConstructionError) as exc:
        return None, (type(exc), str(exc))


def assert_same_array(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


def assert_steps_match(spec, uptos):
    for upto in uptos:
        assert verify_phi_count_identity(spec, upto) == oracles.phi_count_identity(spec, upto)
        assert_same_array(spec.omega_sizes(upto), oracles.omega_sizes(spec, upto))


def count_function(jumps, N):
    """phi(n) = #{k : j_k <= n} on 1..N."""
    return np.searchsorted(np.sort(jumps), np.arange(1, N + 1), side="right")


@st.composite
def f_tables(draw):
    """Non-decreasing f on 1..N with flat stretches, f(1) = 0 unless
    offset, and dips of up to 1e-12 (a dip rounded past 1e-12 is refused,
    by both sides alike)."""
    N = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.exponential(size=N) * (rng.uniform(size=N) >= draw(st.floats(0.0, 0.99)))
    f = np.cumsum(steps) - steps[0]
    f *= draw(st.floats(0.5, 3.0 * N)) / max(f[-1], 1e-300)
    f += draw(st.sampled_from([0.0, 0.0, 0.25, 1.0]))
    dip = draw(st.sampled_from([0.0, 1e-13, 5e-13, 1e-12]))
    f -= dip * (rng.uniform(size=N) < 0.3)
    return f, N


@settings(max_examples=60, deadline=None)
@given(f_tables())
def test_staircase_matches_every_n_oracles(table):
    f, N = table
    phi, refusal = outcome(build_phi, f, N)
    old_phi, old_refusal = outcome(oracles.build_phi, f, N)
    assert refusal == old_refusal
    if refusal:
        return
    assert_same_array(phi.values, old_phi.values)
    assert_same_array(phi.f, old_phi.f)
    assert phi.jump_points == old_phi.jump_points
    spec = build_permutation(phi, N)
    old_spec, _ = oracles.build_permutation(old_phi, N)
    for name in ("Phi", "Gamma", "pi"):
        assert_same_array(getattr(spec, name), getattr(old_spec, name))
    assert verify_injective(spec, N)
    assert_steps_match(spec, sorted({1, max(N // 2, 1), N}))


@pytest.mark.parametrize("f", [lambda n: n.astype(float), lambda n: np.log2(1.0 + n)],
                         ids=["n", "log2(1+n)"])
def test_staircase_matches_every_n_oracles_at_a_million(f):
    N = 10**6
    fv = f(np.arange(1, N + 1))
    phi = build_phi(fv, N)
    old_phi = oracles.build_phi(fv, N)
    assert_same_array(phi.values, old_phi.values)
    assert phi.jump_points == old_phi.jump_points
    spec = build_permutation(phi, N)
    old_spec, _ = oracles.build_permutation(old_phi, N)
    for name in ("Phi", "Gamma", "pi"):
        assert_same_array(getattr(spec, name), getattr(old_spec, name))
    assert verify_phi_count_identity(spec, N) and oracles.phi_count_identity(spec, N)
    assert_same_array(spec.omega_sizes(N), oracles.omega_sizes(spec, N))


@st.composite
def hand_specs(draw):
    """The identity, or a spec whose phi is no staircase: phi is the count
    of random exact Phi values, either plus 0 or 1 at each m or held over
    blocks of s, corrupted at a few places, and Phi and pi mix exact
    entries (some beyond N) with BEYOND_TABLE."""
    N = draw(st.integers(1, 400))
    if draw(st.integers(0, 4)) == 0:
        return identity_permutation(N)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exact = rng.uniform(size=N) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    Phi = np.where(exact, rng.integers(1, 2 * N + 1, size=N), BEYOND_TABLE)
    m = np.arange(1, N + 1)
    counts = np.searchsorted(np.sort(Phi[exact]), m, side="right")
    if draw(st.booleans()):
        phi = counts + rng.integers(0, 2, size=N)
    else:  # steps only at multiples of s, so the count moves inside them
        s = draw(st.integers(2, 10))
        phi = counts[np.maximum(m // s * s, 1) - 1]
    bad = rng.uniform(size=N) < draw(st.sampled_from([0.0, 0.0, 0.01, 0.2]))
    phi = np.where(bad, phi + rng.integers(-2, 3, size=N), phi)
    exact = rng.uniform(size=N) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    pi = np.where(exact, rng.integers(1, 2 * N + 1, size=N), BEYOND_TABLE)
    return PermutationSpec(N, m.astype(float), phi, (1,), Phi, m[:1], pi)


@settings(max_examples=150, deadline=None)
@given(hand_specs(), st.data())
def test_hand_built_specs_match_every_n_oracles(spec, data):
    uptos = data.draw(st.lists(st.integers(1, spec.N), min_size=1, max_size=3))
    assert_steps_match(spec, uptos + [spec.N])


@st.composite
def jump_sets(draw):
    """A sorted jump multiset in 1..N, taken either from build_phi or
    from doubling jumps, then shifted, duplicated, dropped or drawn at
    random, with f either the fitted table or one scaled below it."""
    N = draw(st.integers(1, 600))
    n = np.arange(1, N + 1, dtype=float)
    f = draw(st.sampled_from([n, np.log2(1.0 + n), np.sqrt(n), np.full(N, 0.5)]))
    fitted, refusal = outcome(build_phi, f, N)
    doubling = [2**i for i in range(N.bit_length())]
    jumps = doubling if refusal or draw(st.booleans()) else list(fitted.jump_points)
    edit = draw(st.sampled_from(["none", "shift", "duplicate", "drop", "insert", "random"]))
    i = draw(st.integers(0, len(jumps) - 1))
    if edit == "shift":
        jumps[i] += draw(st.integers(-3, 3))
    elif edit == "duplicate":
        jumps.insert(i, jumps[i])
    elif edit == "drop":
        del jumps[i]
    elif edit == "insert":
        jumps.append(draw(st.integers(1, N)))
    elif edit == "random":
        jumps = draw(st.lists(st.integers(1, N), max_size=12))
    jumps = np.sort(np.clip(np.array(jumps, dtype=np.int64), 1, N))
    return jumps, f * draw(st.sampled_from([1.0, 1.0, 0.5, 0.1]))


def compare_checks(jumps, f):
    """The jump-point check against the every-n check of the same phi."""
    table = PhiTable(count_function(jumps, f.size), tuple(jumps.tolist()), f)
    _, refusal = outcome(_check_phi_conditions, jumps, f)
    _, old_refusal = outcome(oracles.check_phi_conditions, table)
    assert refusal == old_refusal
    return refusal


@settings(max_examples=300, deadline=None)
@given(jump_sets())
def test_corrupted_jump_sets_refused_as_every_n(case):
    compare_checks(*case)


# one jump set per condition, each failing it first; (1, 3, 4) breaks
# phi(2n) <= 2 phi(n) only at n = 2 = ceil(3 / 2), which is no jump
@pytest.mark.parametrize("jumps, f, message", [
    ((1, 1), np.full(4, 9.0), "phi(n) <= n violated"),
    ((2, 3, 4), np.full(8, 9.0), "phi(2n) <= 2 phi(n) violated"),
    ((1, 3, 4), np.full(4, 9.0), "phi(2n) <= 2 phi(n) violated"),
    ((3,), np.full(3, 9.0), "phi must be onto with unit jumps from 1"),
    ((1, 2, 4, 4), np.full(8, 9.0), "phi must be onto with unit jumps from 1"),
    ((), np.full(1, 9.0), "phi must be onto with unit jumps from 1"),
    ((1, 2, 4, 8), np.full(8, 0.5), "phi^2 <= 4 f violated beyond the second jump"),
    ((1, 2, 4, 8), np.r_[np.full(7, 9.0), 3.9], "phi^2 <= 4 f violated beyond the second jump"),
    ((1, 2, 4, 8), np.r_[np.full(5, 9.0), 2.0, 9.0, 9.0], "phi^2 <= 4 f violated beyond the second jump"),
])
def test_each_condition_refused_as_every_n(jumps, f, message):
    refusal = compare_checks(np.array(jumps, dtype=np.int64), f)
    assert refusal == (ConstructionError, message)


def test_valid_jump_set_passes():
    # phi^2 = 4 f on every plateau past the second jump
    f = np.r_[1.0, 1.0, 1.0, np.full(4, 2.25), 4.0]
    assert compare_checks(np.array([1, 2, 4, 8]), f) is None
