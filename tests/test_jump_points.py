"""The pathology layer against the per-n and full-SVD implementations in
``oracles``: the staircase, the permutation, its relabelling and its table
must come out exactly equal (refusals identical), operator T and its norms
within rounding and the distortion bounds exactly equal."""

import math

import numpy as np
import pytest

import oracles
from mbasis_lab import io as mio
from mbasis_lab import pathology
from mbasis_lab.errors import ArgumentError, ConstructionError
from mbasis_lab.pathology import (
    build_pathological_system,
    build_permutation,
    build_phi,
    default_eps_sequence,
    operator_T,
    t_asymptotics_check,
    unb_experiment,
    _coordinate_blocks,
    _gram_schmidt_rows,
)

SIZES = [1, 2, 3, 5, 16, 64, 257, 2048, 10**4]


def unb_table(N):
    """f as ``unb_experiment`` tabulates it for lambda_m = m and truncation
    N / 2: log2 of one plus the count of lambda values up to n."""
    return np.log2(1.0 + np.minimum(np.arange(1, N + 1), max(N // 2, 1)))


def uniform_cumsum(N):
    return np.cumsum(np.random.default_rng(7).uniform(size=N))


def dipping(N):
    """Plateaus at q/4 whose middle entry pokes 1e-13 above the level and
    whose last entry dips back below it, within the input check's slack."""
    n = np.arange(1, N + 1)
    return (n // 3) / 4.0 - 1e-13 + 2e-13 * (n % 3 == 1)


TARGETS = {
    "n": lambda N: (lambda n: float(n)),
    "unb": unb_table,
    "3sqrt": lambda N: (lambda n: 3.0 * math.sqrt(n)),
    "uniform": uniform_cumsum,
    "dipping": dipping,
}


def outcome(fn, *args):
    """(result, None), or (None, (type, message)) for a refusal."""
    try:
        return fn(*args), None
    except (ArgumentError, ConstructionError) as exc:
        return None, (type(exc), str(exc))


def assert_same_array(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("target", TARGETS)
def test_permutation_matches_per_n_oracle(target, N, tmp_path):
    f = TARGETS[target](N)
    phi, refusal = outcome(build_phi, f, N)
    old_phi, old_refusal = outcome(oracles.build_phi, f, N)
    assert refusal == old_refusal
    if refusal:
        return
    assert_same_array(phi.values, old_phi.values)
    assert_same_array(phi.f, old_phi.f)
    assert phi.jump_points == old_phi.jump_points

    spec, refusal = outcome(build_permutation, phi, N)
    old, old_refusal = outcome(oracles.build_permutation, old_phi, N)
    assert refusal == old_refusal
    old_spec, free_trace = old
    for name in ("f", "phi", "Phi", "Gamma", "pi"):
        assert_same_array(getattr(spec, name), getattr(old_spec, name))
    assert spec.jump_points == old_spec.jump_points
    assert spec.injective_verified
    assert_same_array(spec.pi[spec.Gamma - 1], free_trace)

    for M in sorted({1, max(N // 3, 1), N}):
        for keep in (None, M, N, 2 * N):
            assert_same_array(spec.compactified(M, keep),
                              oracles.compactified(spec, M, keep))
    for upto in (None, max(N // 2, 1)):
        mio.save_permutation(spec, str(tmp_path / "new.txt"), upto)
        oracles.save_permutation(spec, str(tmp_path / "old.txt"), upto)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


@pytest.mark.parametrize("N", [64, 200, 400])
def test_operator_T_matches_full_svd_oracle(N):
    spec = build_permutation(build_phi(lambda n: float(n), 4 * N), 4 * N)
    eps = default_eps_sequence(N)
    system, E = build_pathological_system(spec, eps, N)
    d = system.ambient_dim
    new = operator_T(E, d, eps_seq=eps)
    old = oracles.operator_T(E, d, eps_seq=eps)
    assert np.max(np.abs(new.matrix - old.matrix)) <= 4 * d * 2.0**-53
    for a, b in ((new.norm, old.norm), (new.norm_inv, old.norm_inv)):
        assert abs(a - b) <= 1e-12 * abs(b)
    Z = _gram_schmidt_rows(E, system.tol.rank_tol)
    bounds = t_asymptotics_check(new.matrix, Z, eps, strict=True).bounds
    assert_same_array(bounds, oracles.distortion_bounds(Z, eps))


U = 2.0**-53


def gram_form(E: np.ndarray, d: int) -> np.ndarray:
    """T as ``operator_T`` forms it: I - (E - E_0)^T (E E^T)^-1 E."""
    M = E.shape[0]
    return np.eye(d) - (E - np.eye(M, d)).T @ np.linalg.solve(E @ E.T, E)


def assert_norms_within_rounding(new, E, d):
    """||T|| within 4 d u, ||T^-1|| within 4 d u kappa(T)^2, of an SVD of
    the Gram-form T, which the block T of ``operator_T`` matches to
    k_max u max(1, max|T|) entrywise; the oracle's T = B inv(A) is another
    rounding of T, about u kappa(A) away."""
    s = np.linalg.svd(gram_form(E, d), compute_uv=False)
    norm, norm_inv = s[0], 1.0 / s[-1]
    kappa = norm * norm_inv
    assert abs(new.norm - norm) <= 4 * d * U * norm
    assert abs(new.norm_inv - norm_inv) <= 4 * d * U * kappa**2 * norm_inv


def unb_system(N):
    """The e_hat rows ``unb_experiment`` builds at truncation N."""
    spec = build_permutation(build_phi(unb_table(2 * N), 2 * N), 2 * N)
    eps = default_eps_sequence(N)
    system, E = build_pathological_system(spec, eps, N)
    return E, system.ambient_dim, eps


def ladder_system(N):
    """The e_hat rows of the benchmark's cascade ladder at truncation N."""
    spec = build_permutation(build_phi(lambda n: float(n), 4 * N), 4 * N)
    eps = default_eps_sequence(N)
    system, E = build_pathological_system(spec, eps, N)
    return E, system.ambient_dim, eps


def conditioned_block(N):
    """One N x N block with kappa(T) near 27 at N = 2: the oracle's T is
    2.1e-13 from the Gram form and its ||T|| 24 times the 4 d u bound away,
    while an SVD of the Gram form gives operator_T's ||T|| exactly."""
    rng = np.random.default_rng(5)
    return np.eye(N) + 1.5 / math.sqrt(N) * rng.standard_normal((N, N)), N, None


def largest_block(E: np.ndarray) -> int:
    return int(np.bincount(_coordinate_blocks(*np.nonzero(E), E.shape[1])).max())


def assert_block_gram_form(new, E, d):
    """The block T is the per-component Gram form bit for bit, and within
    k_max u max(1, max|T|) of the dense Gram form in every entry."""
    assert np.array_equal(new.matrix, oracles.block_gram_form(E, d))
    bound = largest_block(E) * U * max(1.0, float(np.abs(new.matrix).max()))
    assert np.max(np.abs(new.matrix - gram_form(E, d))) <= bound


CASCADE_SYSTEMS = {f"unb-{N}": (unb_system, N) for N in (64, 128, 256, 509)}
CASCADE_SYSTEMS.update({f"ladder-{N}": (ladder_system, N) for N in (200, 400, 509)})


@pytest.mark.parametrize("build,N", [*CASCADE_SYSTEMS.values(), (conditioned_block, 2)],
                         ids=[*CASCADE_SYSTEMS, "block-kappa-27"])
def test_operator_norms_match_svd_oracle(build, N):
    E, d, eps = build(N)
    new = operator_T(E, d, eps_seq=eps)
    if build is ladder_system:
        # the ladders differ from the dense Gram form in 3 entries, by 1.4e-73
        assert_block_gram_form(new, E, d)
    else:
        assert np.array_equal(new.matrix, gram_form(E, d))
    assert_norms_within_rounding(new, E, d)


@pytest.mark.parametrize("build,N", CASCADE_SYSTEMS.values(), ids=CASCADE_SYSTEMS)
def test_block_gram_schmidt_matches_dense_oracle(build, N):
    E, _, _ = build(N)
    Z = _gram_schmidt_rows(E, 1e-10)
    dense = oracles.gram_schmidt_rows(E, 1e-10)
    if build is unb_system:
        assert np.array_equal(Z, dense)
    else:
        assert np.max(np.abs(Z - dense)) <= largest_block(E) * U


@pytest.mark.parametrize("N", [64, 128, 256, 509])
def test_gram_schmidt_rows_match_the_stacked_block_qr(N):
    """unb's Z from the kernel, which keeps each isolated row as its own
    normalized direction and factors the few coupled rows in one QR,
    equals the stacked QR per group of coordinate components bit for bit."""
    E, _, _ = unb_system(N)
    assert np.array_equal(_gram_schmidt_rows(E, 1e-10),
                          oracles.block_gram_schmidt_rows(E, 1e-10))


def test_operator_norms_within_kappa_squared_when_ill_conditioned():
    """A random near-canonical E with kappa(T) near 10^2, far past the
    kappa(T) <= 4 the eps budget gives; E is dense, one coordinate block."""
    rng = np.random.default_rng(11)
    M, d = 60, 120
    E = np.eye(M, d) + 1.3 * rng.standard_normal((M, d)) / math.sqrt(d)
    new = operator_T(E, d)
    old = oracles.operator_T(E, d)
    assert 50.0 <= old.norm * old.norm_inv <= 200.0
    assert_norms_within_rounding(new, E, d)


def block_system(seed, loud):
    """Near-canonical rows 0..M-1 on 32 shuffled coordinate blocks, four of
    each size 1..8, the rows of a block supported on it; the perturbation
    of E from E_0 has Frobenius norm below 0.8 on block ``loud`` and below
    0.4 on the others.  Blocks holding no row index and the coordinates
    past the blocks' reach are untouched."""
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(np.repeat(np.arange(1, 9), 4))
    reach, M = int(sizes.sum()), 100
    E = np.eye(M, reach + 20)
    for i, C in enumerate(np.split(rng.permutation(reach), np.cumsum(sizes)[:-1])):
        rows = C[C < M]
        scale = (0.8 if i == loud else 0.4) / C.size
        E[rows[:, None], C] += scale * rng.uniform(-1.0, 1.0, (rows.size, C.size))
    return E, E.shape[1]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_block_norms_match_svd_oracle(seed):
    # each block in turn carries the largest perturbation, so leaving any
    # block out shows in the norms
    for loud in range(32):
        E, d = block_system(seed, loud)
        new = operator_T(E, d)
        assert_block_gram_form(new, E, d)
        assert_norms_within_rounding(new, E, d)


def test_entries_off_the_blocks_refused(monkeypatch):
    # E has the blocks {0, 1} and {2}; a labeling with every coordinate
    # alone leaves E[0, 1] = 0.25 between two blocks
    E = np.array([[1.0, 0.25, 0.0], [0.0, 1.0, 0.0]])
    monkeypatch.setattr(pathology, "_coordinate_blocks", lambda n, j, size: np.arange(size))
    with pytest.raises(ConstructionError, match="E has nonzero entries off its coordinate blocks"):
        operator_T(E, 3)


def test_unreached_coordinates_count_in_the_norms():
    # the one row halves e_0, so T doubles it and fixes e_1, which no row
    # reaches: ||T^-1|| is 1, not the 1/2 of the row's block alone
    top = operator_T(np.array([[0.5, 0.0]]), 2)
    assert (top.norm, top.norm_inv) == (2.0, 1.0)


def test_block_gram_schmidt_refuses_dependent_rows():
    # rows 0 and 1 share the block {0, 1, 2} and row 1 is row 0 scaled; a
    # zero row, and more rows than coordinates, are dependent too
    E = np.array([[1.0, 0.0, 0.5, 0.0], [2.0, 0.0, 1.0, 0.0]])
    for X in (E, np.eye(4)[:3] * [[1.0], [1.0], [0.0]], np.ones((3, 2))):
        with pytest.raises(ConstructionError, match="dependent vector"):
            oracles.gram_schmidt_rows(X, 1e-10)
        with pytest.raises(ConstructionError, match="dependent vector"):
            _gram_schmidt_rows(X, 1e-10)


def test_unb_experiment_matches_dense_oracles(monkeypatch):
    sizes = (64, 128, 256, 509)
    block = unb_experiment(lambda m: float(m), 2.0, sizes, 0)

    def dense_T(E, ambient, eps_seq=None, tol=None):
        return oracles.operator_T(E, ambient, eps_seq=eps_seq, rank_tol=tol.rank_tol)

    monkeypatch.setattr(pathology, "operator_T", dense_T)
    monkeypatch.setattr(pathology, "_gram_schmidt_rows", oracles.gram_schmidt_rows)
    dense = unb_experiment(lambda m: float(m), 2.0, sizes, 0)
    assert block.control_ok and dense.control_ok
    for a, b in zip(block.runs, dense.runs, strict=True):
        assert a == b


@pytest.mark.parametrize("e_hats,ambient", [
    (np.array([[1.0, 0.0], [2.0, 0.0]]), 2),
    (np.eye(3), 3),
    (np.eye(3)[:2], 4),
    (np.ones(3), 3),
    (np.ones((3, 2)), 2),
    (np.array([[1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.25]]), 4),
    (np.array([[1.0, 0.0, 0.0, 0.5, 0.0], [2.0, 0.0, 0.0, 1.0, 0.0],
               [0.0, 0.0, 1.0, 0.0, 0.0]]), 5),
], ids=["dependent", "identity", "wrong-ambient", "one-dimensional", "too-many-rows",
        "zero-row", "dependent-in-block"])
def test_operator_T_refusals_match_oracle(e_hats, ambient):
    top, refusal = outcome(operator_T, e_hats, ambient)
    old, old_refusal = outcome(oracles.operator_T, e_hats, ambient)
    assert refusal == old_refusal
    if not refusal:
        assert np.array_equal(top.matrix, old.matrix)


@pytest.mark.parametrize("count,dim,n_eps", [(1, 1, 1), (5, 8, 3), (7, 6, 12), (40, 64, 64)])
def test_distortion_bounds_match_oracle(count, dim, n_eps):
    rng = np.random.default_rng(count * dim)
    Z = rng.standard_normal((count, dim))
    eps = 0.25 * rng.uniform(size=n_eps) ** 4
    bounds = t_asymptotics_check(np.eye(dim), Z, eps, strict=False).bounds
    assert_same_array(bounds, oracles.distortion_bounds(Z, eps))
