"""Cross-validation against independent oracles on randomized inputs."""

import json

import numpy as np
import pytest

from mbasis_lab.biorth import (
    BiorthSystem,
    biorthogonality_defect,
    classify_perturbation,
    spanning_indices,
)
from mbasis_lab.cli import main
from mbasis_lab.errors import ArgumentError
from mbasis_lab.pathology import (
    build_pathological_system,
    build_permutation,
    build_phi,
    default_eps_sequence,
    operator_T,
    _gram_schmidt_rows,
    _prefix_dual_spanning,
)
from mbasis_lab.perturbations import (
    BlockPartition,
    construct_flattened,
    verify_flattened,
)
from mbasis_lab.representing import build_representing_indices
from mbasis_lab.subspace import orthonormal_rows
from oracles import interval_witness
from test_representing import window_defect


def random_partition(n, rng):
    cuts = sorted(rng.choice(np.arange(2, n), size=rng.integers(1, 4),
                             replace=False).tolist())
    bounds = [0] + cuts + [n]
    blocks, anchors, eps = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        members = tuple(range(lo + 1, hi + 1))
        blocks.append(members)
        anchors.append(int(rng.choice(members)))
        eps.append(float(rng.uniform(0.05, 0.4)))
    return BlockPartition(tuple(blocks), tuple(anchors), tuple(eps))


@pytest.mark.parametrize("seed", range(8))
def test_flattening_fuzz(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 14))
    sys = BiorthSystem.canonical(n)
    p = random_partition(n, rng)
    witness = interval_witness(p, n)
    assert witness is not None
    z = construct_flattened(sys, p, seed=seed)
    assert biorthogonality_defect(z) <= sys.tol.biorth_tol
    assert verify_flattened(z, sys, p).passed
    cls = classify_perturbation(z, sys)
    assert cls.kind == "block"
    # the classifier boundaries refine the partition's interval witness
    ends = {hi for lo, hi in cls.intervals.intervals}
    for lo_g, hi_g in witness:
        block_end = max(max(p.blocks[j - 1]) for j in range(lo_g, hi_g + 1))
        assert block_end in ends
    # spanning indices of a block perturbation stay within each interval
    q = spanning_indices(z, sys)
    for lo, hi in cls.intervals.intervals:
        assert q[hi - 1] <= hi


@pytest.mark.parametrize("seed", range(6))
def test_representing_least_feasible_fuzz(seed):
    rng = np.random.default_rng(100 + seed)
    n = 14
    A = np.eye(n)
    # a couple of random forward couplings
    for _ in range(2):
        src = int(rng.integers(1, n - 2))
        tgt = int(rng.integers(src + 1, n))
        A[src - 1, tgt - 1] += rng.uniform(0.3, 0.8)
    X = A
    F = np.linalg.inv(A).T
    sys = BiorthSystem.from_pairs(X, F)
    r = build_representing_indices(sys, 5)
    prods = np.linalg.norm(sys.xs, axis=1) * np.linalg.norm(sys.fs, axis=1)
    for m in range(1, 5):
        head = r.r_at(m)
        p = r.r_at(m + 1)
        delta = 1.0 / (m * float(np.sum(prods[:head])))
        # the accepted window passes the certificate, its predecessor fails
        assert window_defect(sys, head, p) <= delta + 1e-12
        if p > head + 1:
            assert window_defect(sys, head, p - 1) > delta


@pytest.mark.parametrize("N", [12, 14, 17])
def test_spanning_oracle_sizes(N):
    phi = build_phi(lambda n: float(n), 4 * N)
    spec = build_permutation(phi, 4 * N)
    eps = default_eps_sequence(N)
    system, e_hats = build_pathological_system(spec, eps, N)
    q = _prefix_dual_spanning(system.xs)
    Fn = system.fs / np.linalg.norm(system.fs, axis=1, keepdims=True)
    Z = _gram_schmidt_rows(e_hats, 1e-10)
    Qf = orthonormal_rows(Fn, 1e-10)
    duals = np.linalg.inv(Z @ Qf.T).T @ Qf
    reach = 0
    for m in range(1, N + 1):
        for qq in range(max(reach, m), N + 1):
            Qpre = orthonormal_rows(Fn[:qq], 1e-10)
            ok = True
            for nn in range(m):
                u = duals[nn] / np.linalg.norm(duals[nn])
                if np.linalg.norm(u - Qpre.T @ (Qpre @ u)) > 1e-8:
                    ok = False
                    break
            if ok:
                reach = qq
                break
        assert q[m - 1] == reach


def test_larger_truncation_or_documented_failure():
    # truncation 400 lies inside the float64 range of the construction
    # (row norms first overflow at 510), so it must complete with an
    # exactly biorthogonal system
    N = 400
    phi = build_phi(lambda n: float(n), 4 * N)
    spec = build_permutation(phi, 4 * N)
    eps = default_eps_sequence(N)
    system, e_hats = build_pathological_system(spec, eps, N)
    assert biorthogonality_defect(system) == 0.0
    top = operator_T(e_hats, system.ambient_dim, eps_seq=eps)
    assert top.norm <= 2.0 + 1e-9 and top.norm_inv <= 2.0 + 1e-9


def test_overflowing_row_norms_refuse():
    # at truncation 520 every entry is finite, but 11 functional rows carry
    # entries past 2**511, whose squares overflow the row norms; validation
    # must refuse (warnings are errors in this suite, so none may leak)
    N = 520
    phi = build_phi(lambda n: float(n), 4 * N)
    spec = build_permutation(phi, 4 * N)
    with pytest.raises(ArgumentError, match="^11 row norms are not finite"):
        build_pathological_system(spec, default_eps_sequence(N), N)


def test_overflowing_truncation_cli_refuses(tmp_path):
    code = main(["pathology", "--truncation", "600", "--out", str(tmp_path)])
    assert code != 0
    failure = json.loads((tmp_path / "failure.json").read_text())
    assert failure["module"] == "mbasis_lab.errors.ArgumentError"
    assert failure["invariant"].startswith("91 row norms are not finite")
    assert not (tmp_path / "run.json").exists()
