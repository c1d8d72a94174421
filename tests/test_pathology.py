import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from mbasis_lab.biorth import BiorthSystem, biorthogonality_defect
from mbasis_lab.errors import ArgumentError, ConstructionError
from mbasis_lab.pathology import (
    BEYOND_TABLE,
    PermutationSpec,
    build_pathological_system,
    build_permutation,
    build_phi,
    default_eps_sequence,
    identity_permutation,
    omega_stats,
    operator_T,
    rough_capacity,
    t_asymptotics_check,
    unb_experiment,
    verify_injective,
    verify_phi_count_identity,
    _gram_schmidt_rows,
    _prefix_dual_spanning,
)
from mbasis_lab.subspace import directed_span_gap
from oracles import (
    RoughSystem,
    extract_rough_system,
    greedy_rough_packing,
    omega_set,
    orthonormalized_duals,
    rough_defect,
    rough_separation,
)


def make_spec(N, table_factor=4):
    phi = build_phi(lambda n: float(n), table_factor * N)
    return build_permutation(phi, table_factor * N)


def build_small(N, eps=None, spec=None):
    spec = spec or make_spec(N)
    eps = default_eps_sequence(N) if eps is None else np.asarray(eps, dtype=float)
    system, e_hats = build_pathological_system(spec, eps, N)
    return spec, system, e_hats, eps


class TestBuildPhi:
    def test_linear_target_gives_log_staircase(self):
        t = build_phi(lambda n: float(n), 512)
        expected = np.floor(np.log2(np.arange(1, 513))).astype(int) + 1
        assert np.array_equal(t.values, expected)
        # condition (iii) spot checks straight from the table
        phi = t.values
        assert phi[0] == 1 and phi[1] == 2 and phi[3] == 3
        assert phi[1] <= 2  # tight at n = 2

    def test_doubling_inequality(self):
        t = build_phi(lambda n: float(n), 300)
        for n in range(1, 150):
            assert t.values[2 * n - 1] <= 2 * t.values[n - 1]
            assert t.values[n - 1] <= n

    def test_constant_f_rejected(self):
        with pytest.raises(ArgumentError, match="constant"):
            build_phi(lambda n: 5.0, 100)

    def test_decreasing_f_rejected(self):
        with pytest.raises(ArgumentError, match="non-decreasing"):
            build_phi(lambda n: -float(n), 10)

    def test_slow_target_envelope(self):
        t = build_phi(lambda n: math.log2(1 + n), 4000)
        n2 = t.jump_points[1]
        vals = t.values[n2 - 1:]
        f = t.f[n2 - 1:]
        assert np.all(vals.astype(float) ** 2 <= 4.0 * f + 1e-9)
        # divergence on the table
        assert t.values[-1] > t.values[0]


class TestBuildPermutation:
    def test_prefix_values(self):
        spec = make_spec(64)
        prefix = spec.pi[:8].tolist()
        assert prefix == [1, 2, 7, 3, 31, 63, 127, 4]
        assert len(set(prefix)) == 8
        assert set(prefix) == {1, 2, 3, 4, 7, 31, 63, 127}

    def test_gamma_is_jump_set(self):
        spec = make_spec(64)
        assert list(spec.Gamma[:6]) == [1, 2, 4, 8, 16, 32]

    def test_injectivity_verified(self):
        spec = make_spec(256)
        assert spec.injective_verified
        assert verify_injective(spec, spec.N)

    def test_identity_excluded(self):
        # the permutation moves some index whenever phi(m) < m somewhere
        spec = make_spec(64)
        moved = [n for n in range(1, 65) if spec.pi[n - 1] != n]
        assert moved

    def test_beyond_table_semantics(self):
        spec = make_spec(64)
        sentinel = np.nonzero(spec.pi == BEYOND_TABLE)[0]
        assert sentinel.size  # saturation does occur at this size
        # a sentinel value is known to exceed the table length: it sits off
        # Gamma, where pi is Phi, and Phi is beyond the table there too
        assert spec.Phi[sentinel[0]] == BEYOND_TABLE
        assert int(sentinel[0]) + 1 not in spec.Gamma

    def test_longer_staircase_table_stores_large_phi_as_sentinel(self):
        # Phi(6) = 63 is known from a table of 64 but exceeds N = 32; it is
        # stored as the sentinel, exactly as a table of 32 leaves it
        long = build_permutation(build_phi(lambda n: float(n), 64), 32)
        short = build_permutation(build_phi(lambda n: float(n), 32), 32)
        assert long.Phi[5] == BEYOND_TABLE
        for name in ("pi", "Phi", "Gamma"):
            assert np.array_equal(getattr(long, name), getattr(short, name))

    def test_image_covers_initial_segments(self):
        # the minimal-unused cursor makes the image swallow 1..g after the
        # g-th jump-set element has been processed
        spec = make_spec(256)
        image = set(int(v) for v in spec.pi if v != BEYOND_TABLE)
        g = len(spec.Gamma)
        assert set(range(1, g + 1)) <= image


class TestOmega:
    def test_small_sets(self):
        spec = make_spec(64)
        assert omega_set(spec, 3) == {1, 2}
        assert omega_set(spec, 4) == {1, 2, 3}

    def test_sizes_match_sets(self):
        spec = make_spec(64)
        sizes = spec.omega_sizes(64)
        for k in (1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
            assert sizes[k - 1] == len(omega_set(spec, k))

    def test_overlap_bound(self):
        spec = make_spec(256)
        sizes = spec.omega_sizes(spec.N)
        assert np.all(sizes <= 2 * spec.phi[: spec.N])

    def test_phi_count_identity(self):
        spec = make_spec(256)
        assert verify_phi_count_identity(spec, 256)

    def test_omega_stats_ratios_decrease(self):
        spec = make_spec(1024)
        stats = omega_stats(spec, [1, 2, 4], 1024)
        for c, ratios in stats.ratios.items():
            tail = ratios[stats.ratio_grid >= 16]
            assert np.all(np.diff(tail) <= 1e-12)
            # strictly below the doubling bound 2 * 2**k * phi(n) / f(n)
            k = math.ceil(math.log2(c)) if c > 1 else 0
            grid = stats.ratio_grid[stats.ratio_grid >= 16]
            phi_over_f = spec.phi[grid - 1] / spec.f[grid - 1]
            assert np.all(tail < 2.0 * 2 ** k * phi_over_f + 1e-12)

    def test_omega_stats_range_check(self):
        spec = make_spec(64)
        with pytest.raises(ArgumentError, match="need"):
            omega_stats(spec, [1, 2, 4], 128)

    def test_omega_stats_refuses_vanishing_f_on_the_ratio_grid(self):
        # build_phi accepts f(n) = log2 n, which vanishes at n = 1
        phi = build_phi(lambda n: math.log2(n), 32)
        with pytest.raises(ArgumentError, match=r"^f vanishes at n=1 on the ratio grid"):
            omega_stats(build_permutation(phi, 32), [1, 2], 16)

    def test_omega_stats_refuses_negative_f_on_the_ratio_grid(self):
        # build_phi accepts f(n) = log2 n - 1.5, which is negative at n = 1, 2
        phi = build_phi(lambda n: math.log2(n) - 1.5, 32)
        with pytest.raises(ArgumentError, match=r"^f is negative at n=1 on the ratio grid"):
            omega_stats(build_permutation(phi, 32), [1, 2], 16)

    def test_omega_stats_needs_grid_constants(self):
        with pytest.raises(ArgumentError, match="^grid constants must list at least one entry$"):
            omega_stats(make_spec(64), [], 16)


class TestPathologicalSystem:
    def test_identity_fixed_point(self):
        spec = identity_permutation(16)
        system, e_hats = build_pathological_system(
            spec, np.zeros(8), 8, 8)
        assert np.array_equal(system.xs, np.eye(8))
        assert np.array_equal(system.fs, np.eye(8))
        assert np.array_equal(e_hats, np.eye(8))

    def test_prefix_spans_and_defect(self):
        spec, system, E, eps = build_small(50)
        assert biorthogonality_defect(system) <= 1e-8
        # one direction is verified vector by vector at relative scale; the
        # converse holds because the expansion of x_m over the e_hat prefix
        # is triangular with unit diagonal and the e_hat prefix has full
        # rank, certified below
        basis: list = []
        for m in range(50):
            assert directed_span_gap(system.xs[: m + 1], E[: m + 1]) <= 1e-8
            row = E[m].copy()
            for b in basis:
                row -= (b @ row) * b
            nrm = np.linalg.norm(row)
            assert nrm > 0.5  # unit diagonal keeps the prefix full rank
            basis.append(row / nrm)
            resid = system.xs[m].copy()
            for b in basis:
                resid -= (b @ resid) * b
            assert np.linalg.norm(resid) <= 1e-8 * max(
                1.0, np.linalg.norm(system.xs[m]))

    def test_correction_budgets(self):
        spec, system, e_hats, eps = build_small(50)
        amb = system.ambient_dim
        for i, v in enumerate(e_hats):
            assert np.linalg.norm(v - np.eye(amb)[i]) <= eps[i]

    def test_dual_supports(self):
        spec, system, e_hats, eps = build_small(40)
        pi_t = spec.compactified(40, keep_below=40)
        covered = set()
        for n in range(40):
            covered.add(int(pi_t[n]) - 1)
            assert set(np.nonzero(system.fs[n])[0]) <= covered

    def test_eps_budget_checked(self):
        spec = make_spec(16)
        bad = np.full(16, 0.2)  # sum of squares 0.64 > 1/8
        with pytest.raises(ArgumentError, match="1/8"):
            build_pathological_system(spec, bad, 16, 64)

    @pytest.mark.parametrize("N", [16, 64, 400])
    def test_corrections_within_budget_without_slack(self, N):
        # eps_n just below a power of two: t_n must be the next power down
        spec = make_spec(N)
        eps = np.nextafter(default_eps_sequence(N), 0)
        system, e_hats = build_pathological_system(spec, eps, N)
        lengths = np.linalg.norm(e_hats - np.eye(N, system.ambient_dim), axis=1)
        assert np.all(lengths <= eps)

    def test_nan_eps_refused(self):
        spec = make_spec(16)
        eps = default_eps_sequence(16)
        eps[2] = np.nan
        with pytest.raises(ArgumentError, match="nonnegative"):
            build_pathological_system(spec, eps, 16)

    def test_zero_eps_where_needed_fails(self):
        spec = make_spec(16)
        eps = default_eps_sequence(16)
        eps[2] = 0.0  # step 3 must pull coordinate 7
        with pytest.raises(ConstructionError, match="enlarge"):
            build_pathological_system(spec, eps, 16, 64)

    @pytest.mark.parametrize("N,identity", [(16, False), (40, False), (64, False),
                                            (16, True)])
    def test_derived_ambient_matches_explicit(self, N, identity):
        spec = identity_permutation(2 * N) if identity else make_spec(N)
        eps = default_eps_sequence(N)
        pi_t = spec.compactified(N, keep_below=N)
        explicit, E_explicit = build_pathological_system(
            spec, eps, N, int(max(N, pi_t.max())))
        derived, E = build_pathological_system(spec, eps, N)
        assert derived.ambient_dim == explicit.ambient_dim
        assert isinstance(E, np.ndarray) and E.shape == (N, derived.ambient_dim)
        assert np.array_equal(derived.xs, explicit.xs)
        assert np.array_equal(derived.fs, explicit.fs)
        assert np.array_equal(E, E_explicit)

    def test_ambient_too_small(self):
        spec = make_spec(16)
        with pytest.raises(ArgumentError, match="ambient"):
            build_pathological_system(spec, default_eps_sequence(16), 16, 16)

    def test_cyclic_permutation_refused(self):
        # a 3-cycle closes the vector cascade on the coordinate it started
        # from, so f_3(x_3) = t_3 + 2**7 is no power of two and the
        # functional cannot be normalized exactly
        idx = np.arange(1, 5)
        spec = PermutationSpec(4, idx.astype(float), idx, (1, 2, 3, 4), idx, idx,
                               np.array([2, 3, 1, 4]))
        with pytest.raises(ConstructionError,
                           match=r"^biorthogonality defect at step 3: f_3\(x_3\)"):
            build_pathological_system(spec, default_eps_sequence(3), 3)


def _degenerate_case():
    # x_7's chain runs through e_hat_3 and e_hat_4: 2**951 / 2**-101 is
    # past the float64 range, where the float cascade met an inf
    eps = default_eps_sequence(16)
    eps[2], eps[3] = 2.0 ** -950, 2.0 ** -100
    return make_spec(16), eps, 16


def _default_case(N):
    return lambda: (make_spec(N), default_eps_sequence(N), N)


#: name -> (arguments, the start of the refusal text or None for a build)
ORACLE_CASES = {
    **{f"N{N}": (_default_case(N), None) for N in (16, 64, 200, 400, 509)},
    **{f"N{N}-below-powers": (lambda N=N: (make_spec(N),
                                           np.nextafter(default_eps_sequence(N), 0), N), None)
       for N in (16, 64, 400)},
    "identity": (lambda: (identity_permutation(32), default_eps_sequence(16), 16), None),
    "N510": (_default_case(510), "1 row norms are not finite"),
    "N520": (_default_case(520), "11 row norms are not finite"),
    "N600": (_default_case(600), "91 row norms are not finite"),
    "N1000": (_default_case(1000), "cascade coefficient exponent overflow at pairing at 980;"),
    "N1100": (_default_case(1100), "step 1073 needs a correction toward coordinate 2156 "
                                   "but eps_1073 is zero"),
    "degenerate": (_degenerate_case, "cascade coefficient degenerate at x(7) basis 4;"),
}


def _build_outcome(build, spec, eps, N):
    try:
        system, E = build(spec, eps, N)
    except Exception as exc:
        return type(exc), str(exc)
    return system.xs, system.fs, E, system.ambient_dim


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_build_matches_float_cascade_oracle(case):
    make_args, refusal = ORACLE_CASES[case]
    args = make_args()
    new = _build_outcome(build_pathological_system, *args)
    # the float cascade reaches the degenerate case through an overflow,
    # which it reports as a warning before refusing
    with np.errstate(over="ignore"):
        old = _build_outcome(oracles.build_pathological_system, *args)
    if refusal:
        assert new == old and new[1].startswith(refusal)
    else:
        assert len(new) == 4 and new[3] == old[3]
        assert all(np.array_equal(a, b) for a, b in zip(new[:3], old[:3]))


class TestOperatorT:
    def test_identity(self):
        e_hats = [np.eye(3)[i] for i in range(3)]
        top = operator_T(e_hats, 3)
        assert np.allclose(top.matrix, np.eye(3))
        assert top.norm == pytest.approx(1.0)
        assert top.norm_inv == pytest.approx(1.0)

    def test_two_by_two(self):
        e_hats = [np.array([1.0, 0.25]), np.array([0.0, 1.0])]
        top = operator_T(e_hats, 2)
        assert np.allclose(top.matrix, [[1.0, 0.0], [-0.25, 1.0]])
        assert top.norm <= 1.2808
        # hand singular value of [[1,0],[-0.25,1]]
        lam = (2.0625 + math.sqrt(2.0625 ** 2 - 4)) / 2
        assert top.norm == pytest.approx(math.sqrt(lam))

    def test_norm_bound_from_budget(self):
        spec, system, e_hats, eps = build_small(60)
        top = operator_T(e_hats, system.ambient_dim, eps_seq=eps)
        assert top.norm <= 2.0 + 1e-9
        assert top.norm_inv <= 2.0 + 1e-9
        assert top.norm * top.norm_inv >= 1.0 - 1e-12

    def test_dependent_rows_rejected(self):
        with pytest.raises(ArgumentError, match="dependent"):
            operator_T([np.array([1.0, 0.0]), np.array([2.0, 0.0])], 2)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ArgumentError, match=r"row matrix of shape \(M, 3\), got \(3,\)"):
            operator_T(np.ones(3), 3)

    @pytest.mark.parametrize("e_hats,ambient,match", [
        (np.zeros((0, 3)), 3, "^e_hats is empty"),
        ([[np.nan, 1.0]], 2, "^e_hats has entries that are not finite"),
        ([[np.inf, 1.0]], 2, "^e_hats has entries that are not finite"),
    ], ids=["empty", "nan", "inf"])
    def test_empty_or_non_finite_refused(self, e_hats, ambient, match):
        with pytest.raises(ArgumentError, match=match):
            operator_T(e_hats, ambient)

    def test_singular_T_refused(self):
        # e_1 is orthogonal to e_hat_1 = e_2, so T fixes it and also sends
        # e_2 to it: T = [[1, 1], [0, 0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError,
                               match=r"not invertible: .* T\^T T is 0\.000e\+00"):
                operator_T([[0.0, 1.0]], 2)


class TestDecay:
    def test_identity_zeroes(self):
        table = t_asymptotics_check(np.eye(4), np.eye(4), np.zeros(4))
        assert np.allclose(table.measured, 0.0)

    def test_two_by_two_direct(self):
        e_hats = [np.array([1.0, 0.25]), np.array([0.0, 1.0])]
        top = operator_T(e_hats, 2)
        table = t_asymptotics_check(top.matrix, np.eye(2), [0.25, 0.0])
        assert table.measured[0] == pytest.approx(0.25)
        assert bool(np.all(table.ok))

    def test_pipeline_decay(self):
        spec, system, e_hats, eps = build_small(60)
        top = operator_T(e_hats, system.ambient_dim, eps_seq=eps)
        Z = _gram_schmidt_rows(e_hats, 1e-10)
        table = t_asymptotics_check(top.matrix, Z, eps, strict=True)
        assert table.measured[-1] < 0.05
        # window-5 median smoothing irons out the isolated spikes at the
        # pulled coordinates (they sit orders below the decay threshold)
        m = table.measured
        smooth = np.array([np.median(m[i:i + 5]) for i in range(len(m) - 4)])
        assert np.all(np.diff(smooth) <= 1e-12)
        assert smooth[-1] < 0.05

    def test_strict_violation_raises(self):
        with pytest.raises(ConstructionError):
            t_asymptotics_check(3.0 * np.eye(2), np.eye(2), np.zeros(2), strict=True)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ArgumentError, match=r"row matrix of shape \(count, dim\), got \(3,\)"):
            t_asymptotics_check(np.eye(3), np.ones(3), np.zeros(3))


class TestRoughSystems:
    def test_defect_examples(self):
        rs = RoughSystem(np.eye(2), np.eye(2), 0.25, 1.0)
        assert rough_defect(rs) == 0.0
        gs = np.array([[1.0, 0.2], [0.0, 1.0]])
        rs2 = RoughSystem(np.eye(2), gs, 0.25, float(np.linalg.norm(gs[0])))
        assert rough_defect(rs2) == pytest.approx(0.2)

    def test_normalize_on_demand(self):
        ys = np.array([[2.0, 0.0], [0.0, 0.5]])
        gs = np.array([[0.5, 0.0], [0.0, 2.0]])
        rs = RoughSystem(ys, gs, 0.25, 2.0).normalized()
        assert np.allclose(np.linalg.norm(rs.ys, axis=1), 1.0)
        assert rough_defect(rs) == pytest.approx(0.0, abs=1e-15)

    def test_extract_identity_control(self):
        N = 12
        spec = identity_permutation(N)
        system, e_hats = build_pathological_system(spec, np.zeros(N), N, N)
        top = operator_T(e_hats, N)
        rs = extract_rough_system(system, system, top.matrix, spec,
                                  p_of_m=6, r_of_m=8)
        assert rough_defect(rs) <= 1e-12
        assert rs.support == tuple(range(1, 9))

    def test_extract_pipeline_quarter_rough(self):
        # at small prefix length the orthonormalized system is still
        # modestly bounded and the quarter-rough window is nonempty; the
        # norms explode further out, which is the phenomenon under study
        spec, system, e_hats, eps = build_small(40)
        top = operator_T(e_hats, system.ambient_dim, eps_seq=eps)
        Z = _gram_schmidt_rows(e_hats, 1e-10)
        p = 5
        q = _prefix_dual_spanning(system.xs)
        r = int(q[p - 1])
        duals = orthonormalized_duals(system, Z, p)
        zsys = BiorthSystem(Z[:p], duals, ambient_dim=system.ambient_dim).validate()
        M_bound = float(np.max(np.linalg.norm(duals, axis=1)))
        assert M_bound <= 2.0
        table = t_asymptotics_check(top.matrix, Z, eps, strict=True)
        thresh = 1.0 / (4 * M_bound)
        above = np.nonzero(table.measured[:p] >= thresh)[0]
        n0 = int(above[-1]) + 1 if above.size else 0
        assert n0 < p
        rs = extract_rough_system(zsys, system, top.matrix, spec,
                                  p_of_m=p, r_of_m=r)
        tail = rs.tail(n0)
        assert rough_defect(tail) <= 0.25 + 1e-12
        assert rs.support  # Omega(r) nonempty

    def test_empty_omega_rejected(self):
        # an artificial spec whose prefix never overlaps: pi shifts by N
        N = 8
        spec = identity_permutation(2 * N)
        shifted = np.concatenate([np.arange(N + 1, 2 * N + 1),
                                  np.arange(1, N + 1)]).astype(np.int64)
        object.__setattr__(spec, "pi", shifted)
        system, e_hats = build_pathological_system(identity_permutation(N),
                                                   np.zeros(N), N, N)
        top = operator_T(e_hats, N)
        with pytest.raises(ArgumentError, match="empty"):
            extract_rough_system(system, system, top.matrix, spec,
                                 p_of_m=4, r_of_m=4)

    def test_separation_bound(self):
        spec, system, e_hats, eps = build_small(30)
        top = operator_T(e_hats, system.ambient_dim, eps_seq=eps)
        Z = _gram_schmidt_rows(e_hats, 1e-10)
        p = 5
        q = _prefix_dual_spanning(system.xs)
        r = int(q[p - 1])
        duals = orthonormalized_duals(system, Z, p)
        zsys = BiorthSystem(Z[:p], duals, ambient_dim=system.ambient_dim).validate()
        rs = extract_rough_system(zsys, system, top.matrix, spec,
                                  p_of_m=p, r_of_m=r)
        defect = rough_defect(rs)
        assert defect < 0.5
        expected = (1.0 - 2.0 * defect) / rs.bound_M
        assert rough_separation(rs) >= expected - 1e-9

    @pytest.mark.parametrize("ys", [
        np.zeros((0, 3)),
        np.ones((1, 3)),
        np.array([[0.0, 0.0], [3.0, 4.0]]),
        np.array([[1.0, 2.0], [0.5, 0.5], [1.0, 2.0]]),
        np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0]]),
        np.random.default_rng(5).standard_normal((60, 40)),
        np.random.default_rng(6).standard_normal((80, 50)) * 2.0**-30,
    ], ids=["empty", "single", "pair", "duplicate", "nan", "random", "tiny"])
    def test_separation_matches_oracle(self, ys):
        rs = RoughSystem(ys, ys, 0.25, 1.0)
        new, old = rough_separation(rs), oracles.rough_separation_tensor(rs)
        assert new == old or (math.isnan(new) and math.isnan(old))

    def test_separation_memory_is_one_row_of_differences(self):
        # the p x p x d difference tensor alone would take 256 MB here
        rs = RoughSystem(np.random.default_rng(7).standard_normal((200, 400)),
                         np.eye(200, 400), 0.25, 1.0)
        tracemalloc.start()
        try:
            rough_separation(rs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestRoughCapacity:
    def test_quarter_two(self):
        cap = rough_capacity(3, 0.25, 2.0)
        assert cap.delta == pytest.approx(0.25)
        assert cap.p_max == pytest.approx(9.0 ** 3)
        assert cap.c1 == pytest.approx(1.0 / math.log(9.0), abs=1e-12)

    def test_limit_eps_zero(self):
        cap = rough_capacity(2, 1e-12, 1.0)
        assert cap.p_max == pytest.approx(3.0 ** 2, rel=1e-9)

    def test_eps_range(self):
        with pytest.raises(ArgumentError):
            rough_capacity(2, 0.5, 2.0)
        with pytest.raises(ArgumentError):
            rough_capacity(2, -0.1, 2.0)

    @pytest.mark.parametrize("M", [math.nan, math.inf])
    def test_non_finite_M_refused(self, M):
        with pytest.raises(ArgumentError, match=f"^M must be finite, got {M}$"):
            rough_capacity(2, 0.25, M)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_packing_never_exceeds_capacity(self, dim):
        cap = rough_capacity(dim, 0.25, 2.0)
        pts = greedy_rough_packing(dim, cap.delta, trials=10_000, seed=dim)
        assert pts.shape[0] <= cap.p_max
        if pts.shape[0] >= 2:
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            iu = np.triu_indices(pts.shape[0], k=1)
            assert np.min(d[iu]) >= cap.delta - 1e-12


class TestUnbExperiment:
    def test_single_truncation(self):
        rep = unb_experiment(lambda m: float(m), 2.0, [64], seed=0)
        assert rep.control_ok
        run = rep.runs[0]
        assert run.bracket_ok and run.capacity_ok and run.ratio_monotone
        assert run.rows[0][:2] == (1, 1)
        qs = [row[1] for row in run.rows]
        assert all(b >= a for a, b in zip(qs, qs[1:]))
        assert all(q >= m for m, q in enumerate(qs, start=1))

    def test_observed_jumps(self):
        rep = unb_experiment(lambda m: float(m), 2.0, [128], seed=0)
        run = rep.runs[0]
        ratios = [run.rows[m - 1][3] for m in run.jump_ms]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert run.jump_ms  # the pathology does produce jumps

    def test_lambda_validation(self):
        with pytest.raises(ArgumentError):
            unb_experiment([1.0, 0.5], 2.0, [8], seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lambda_refused(self, bad):
        lam = np.arange(1.0, 9.0)
        lam[5:] = bad
        with pytest.raises(ArgumentError, match="lambda schedule must be finite, positive"):
            unb_experiment(lam, 2.0, [8], seed=0)

    def test_no_sizes_refused(self):
        with pytest.raises(ArgumentError, match="^sizes must list at least one truncation$"):
            unb_experiment(lambda m: float(m), 2.0, [], seed=0)

    @pytest.mark.parametrize("M_bound", [math.nan, math.inf])
    def test_non_finite_M_bound_refused(self, M_bound):
        with pytest.raises(ArgumentError, match="^M must be finite"):
            unb_experiment(lambda m: float(m), M_bound, [8], seed=0)

    @pytest.mark.parametrize("M_bound", [0.5, math.nan, math.inf])
    def test_M_bound_below_one_or_non_finite_refused(self, M_bound):
        # the capacities and the decay threshold 1 / (4 M_bound) read one M
        with pytest.raises(ArgumentError, match=rf"^M must be finite and at least 1, "
                                                rf"got M_bound = {M_bound}$"):
            unb_experiment(lambda m: float(m), M_bound, [8], seed=0)


class TestSpanningExactOracle:
    def test_matches_explicit_duals_small(self):
        # the Gram-support route must agree with explicitly solved duals
        spec, system, e_hats, eps = build_small(10)
        q = _prefix_dual_spanning(system.xs)
        Fn = system.fs / np.linalg.norm(system.fs, axis=1, keepdims=True)
        from mbasis_lab.subspace import orthonormal_rows

        Z = _gram_schmidt_rows(e_hats, 1e-10)
        Qf = orthonormal_rows(Fn, 1e-10)
        G = Z @ Qf.T
        duals = np.linalg.inv(G).T @ Qf
        tolv = 1e-8
        expected = []
        reach = 0
        for m in range(1, 11):
            for qq in range(max(reach, m), 11):
                ok = True
                for n in range(m):
                    u = duals[n] / np.linalg.norm(duals[n])
                    Qpre = orthonormal_rows(Fn[:qq], 1e-10)
                    resid = u - Qpre.T @ (Qpre @ u)
                    if np.linalg.norm(resid) > tolv:
                        ok = False
                        break
                if ok:
                    reach = qq
                    break
            expected.append(reach)
        assert list(q) == expected
