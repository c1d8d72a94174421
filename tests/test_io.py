"""Matrix CSV writer: byte identity with the per-cell oracle, reader round trip,
and golden digests of the pathological ``build-system``, ``pathology`` and
``unb`` artifacts and of the flattened system ``perturb --auto-strong``
writes."""

import hashlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from mbasis_lab import io as mio
from mbasis_lab.biorth import BiorthSystem
from mbasis_lab.cli import ExperimentConfig, run
from mbasis_lab.pathology import (
    build_pathological_system,
    build_permutation,
    build_phi,
    default_eps_sequence,
)

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                    1e300, -1e300, 1e-300, 0.1, 1 / 3, 123456789012.5])

#: sha256 of the artifacts of ``build-system`` with kind = pathological and
#: truncation = 400, as written by the per-cell writer
GOLDEN_N400 = {
    "system/X.csv": "1bd8fe9e5a5d473d25a15552e31a5b422ac1a5aacf8f172cdff36fb78c75c428",
    "system/F.csv": "28636fd05bbad94a94240b1ff88f684b1f915f3de3f241d668dc640a7a56b02b",
    "E.csv": "ca12245df161678dfec41e666ba6c618313d7b866a0db2d95a29f33ee9a0bd27",
}

#: sha256 of every artifact but ``run.json`` of ``pathology --truncation 128``,
#: as written while the permutation and T were built by per-n loops and a full SVD;
#: ``header.txt`` is those bytes less the ``net_resolution`` line, since removed
GOLDEN_PATHOLOGY_128 = {
    "E.csv": "7860525a833b280ab39d34649abc0dcb8a18de312ac110722a15c20aa1e975dd",
    "omega_growth.csv": "b5640f20d48fef42fcee5c3d32bfc3277d326fb0fd93a20fcb2c15c6f9bceff7",
    "omega_growth.json": "4143bb6a16c08572750b67dc08891382b4882c60097ec5478c32107f4ef0b028",
    "pathology_report.csv": "9882d6caa27dac94f321deda5a90ac58a40e3979de237feddb0e6ef06ac35aff",
    "pathology_report.json": "5db5ee2b87dc21ea29e8f25a430f3cca242218fd98312ff3653ec14238ba743b",
    "permutation.txt": "f4d7021c866c22af89630f96b8185df40697008a804ee135a800d9d7f5267273",
    "system/F.csv": "15562e94fd1b82aa2098f0a163bf91891b3d87becefa279a830693b7790eb94c",
    "system/X.csv": "82483cb1ab25fbfb82c8f1f64f8b4ebb8f35d05ffe391dd19b5cbcb30165d2e7",
    "system/header.txt": "271de1f402668ebfeaa28a80bd8d3822bc9f008b927ce2064f5aee4549b29f91",
}

#: sha256 of every artifact but ``run.json`` of ``unb`` (sizes 64, 128, 256), as
#: written at the same point
GOLDEN_UNB = {
    "unb_64.csv": "e7fbb16fd70d5136cb97a13469af567e875f6cb82feef5312bb8d0b38a1990b5",
    "unb_64.json": "085c71f92d7e96f3440f9f4feb56b82d127f1f83c453627cca88dfdfa365f1b2",
    "unb_128.csv": "8a30e9c5b6978b5505433e0fcb21f4cd89fcf2e393b68666f1f897cd91bddb4d",
    "unb_128.json": "0c9724633dbc3ef7fb53ae48ecfcb9d33c50e868822d271e01e87911012ce276",
    "unb_256.csv": "e3af6912b4ff1af33077cf5073a1c46deaed27aee6010a75ecc09f38cef68795",
    "unb_256.json": "0ebf0050129358e20a32d01163c9a30605b2c52da8f0053ae88d2bbe7b1e12be",
    "unb_summary.json": "f3e6514b92722df14d80d2c9d169117f61b1328e869539faf56337ba1259bb43",
}

#: sha256 of the flattened system of ``perturb --auto-strong --truncation 128``,
#: as written since each block's anchor complement is the Gram-Schmidt
#: complement of one QR of its functional rows, anchor first, on the block's
#: own columns (the SVD bases it replaced left the draw to LAPACK's choice
#: inside a degenerate singular subspace), rotated by the Haar draw
#: Q diag(sign(diag R)), so that the seed reaches 2-row blocks too
GOLDEN_PERTURB_128 = {
    "flattened/X.csv": "415f68af0e24e518aa42301a16e84bcf719050a4a39e6818a945eecdb627ab7e",
    "flattened/F.csv": "eaba407880d4f0ec6a1317a4886a993b5b9a6f8359755ddb889ea23a5b0589dc",
}

#: sha256 of every artifact but ``run.json`` of depth-8 ``represent`` (plain and
#: norming write the same files) and ``perturb --auto-strong`` on the stored
#: staged-coupling system at n = 512, as written while window tables,
#: projections and span checks formed an explicit Q (the flattened
#: ``header.txt`` less its ``net_resolution`` line, since removed); the
#: flattened X, F and the flattening report as written since the draw of
#: ``GOLDEN_PERTURB_128`` and since the QR kernel splits off the isolated
#: unit rows (which moved X and the report at rounding level); the report as
#: written since the span gaps form the basis of the flattened side only
#: and read the base side off one R-only QR (gaps moved by at most 4.4e-17);
#: the flattened X and the report as written since the kernel splits off
#: every isolated row, not only the unit rows (X moved by at most 5.2e-12,
#: the gaps by at most 4.8e-14)
GOLDEN_STAGED_512_REPRESENT = {
    "indices.txt": "4feb8ee3a87cbb3528710c179c6bb2a14027975a47b311c492e2ef59b53f5d73",
    "indices_report.csv": "bc154c322318d4de878ce099a31e5240a77b2cddbc3c643566f1eb52ba15a59f",
    "indices_report.json": "1c50ee913e55d11c04f3bb07d3ffb5d63a6a70126594a19ddcddf93da4930669",
}
GOLDEN_STAGED_512_PERTURB = {
    "flattened/F.csv": "814b1db479082b6134c94aa58dd2afcff3c72fa932688f3fa43b37e097dfad5a",
    "flattened/X.csv": "2d4ba0e47990248863f9568e4f8867addef6e7bff390e5307ddc8a2484567fee",
    "flattened/header.txt": "8a535cfe735727c184bf44ab614e717573fd43f207c8d16b75ae7bec488b5a5c",
    "flattening_report.csv": "1d672352e384914584e8b96548b2f14a17215d7b93d23022cb0f46c096edf421",
    "flattening_report.json": "1b7bf45ccb8958cacb4af02a1bc8eea3a73c60f7f2bc4697a036aa347d9848be",
    "partition.txt": "010a731ae6680d9cf102887326b9c6e1deb4dccda530c5c0a2da896b5009847c",
}


def pathological_matrices(N):
    """X, F and E as ``build-system`` with kind = pathological builds them."""
    spec = build_permutation(build_phi(lambda n: float(n), 4 * N), 4 * N)
    system, E = build_pathological_system(spec, default_eps_sequence(N), N)
    return {"X": system.xs, "F": system.fs, "E": E}


def assert_same_bytes(M, tmp_path):
    mio.write_matrix_csv(M, str(tmp_path / "new.csv"))
    oracles.write_matrix_csv(M, str(tmp_path / "old.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("N", [16, 400])
def test_pathological_matrices_match_oracle(N, tmp_path):
    for M in pathological_matrices(N).values():
        assert_same_bytes(M, tmp_path)


@pytest.mark.parametrize("M", [
    np.random.default_rng(0).standard_normal((512, 512)),
    SPECIAL,
    SPECIAL[::-1].reshape(2, 7),
    np.arange(7.0),
    np.zeros((0, 0)),
    np.zeros((0, 4)),
    np.zeros(0),
], ids=["dense512", "special", "special-2d", "1d", "empty", "no-rows", "empty-1d"])
def test_matrices_match_oracle(M, tmp_path):
    assert_same_bytes(M, tmp_path)


def test_repeated_values_across_row_blocks(tmp_path):
    # more cells than the writer formats in one block; -0.0 beside 0.0
    M = np.tile([0.0, -0.0, 1.5, np.nan, -np.inf], (20000, 3))
    assert_same_bytes(M, tmp_path)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=-2**63, max_value=2**63 - 1))
def test_printf_format_equals_fmt_on_every_bit_pattern(bits):
    v = float(np.int64(bits).view(np.float64))
    assert "%.12g" % v == mio.fmt(v)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_reader_inverts_writer(M):
    M = np.vectorize(lambda v: float(mio.fmt(v)), otypes=[float])(M)  # 12 digits, as stored
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "M.csv")
        mio.write_matrix_csv(M, path)
        back = mio.read_matrix_csv(path)
    assert back.shape == M.shape
    assert back.view(np.int64).tolist() == M.view(np.int64).tolist()


def assert_golden(cfg, golden, tmp_path):
    """Run ``cfg`` and compare the sha256 of every artifact but ``run.json``."""
    assert run(cfg) == 0
    written = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
               if p.is_file() and p.name != "run.json"}
    assert written == set(golden)
    digests = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
               for rel in golden}
    assert digests == golden


def test_pathological_build_system_golden_digests(tmp_path):
    cfg = ExperimentConfig(command="build-system", kind="pathological", truncation=400,
                           out=str(tmp_path))
    assert run(cfg) == 0
    digests = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
               for rel in GOLDEN_N400}
    assert digests == GOLDEN_N400


def test_pathology_golden_digests(tmp_path):
    cfg = ExperimentConfig(command="pathology", truncation=128, out=str(tmp_path))
    assert_golden(cfg, GOLDEN_PATHOLOGY_128, tmp_path)


def test_unb_golden_digests(tmp_path):
    cfg = ExperimentConfig(command="unb", sizes=(64, 128, 256), out=str(tmp_path))
    assert_golden(cfg, GOLDEN_UNB, tmp_path)


def test_flattened_perturb_golden_digests(tmp_path):
    cfg = ExperimentConfig(command="perturb", auto_strong=True, truncation=128,
                           out=str(tmp_path))
    assert run(cfg) == 0
    digests = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
               for rel in GOLDEN_PERTURB_128}
    assert digests == GOLDEN_PERTURB_128


def staged_coupling_system(n):
    """The benchmark's staged-coupling system (``perfbench/workloads.py``):
    x_s = e_s + 0.9 e_t and f_t = e_t - 0.9 e_s for each coupling (s, t)."""
    X, F = np.eye(n), np.eye(n)
    for s, t in ((2, 7), (3, 15), (8, 30), (16, 60), (31, 100), (61, n)):
        X[s - 1, t - 1] = 0.9
        F[t - 1, s - 1] = -0.9
    return BiorthSystem.from_pairs(X, F)


@pytest.fixture(scope="module")
def staged_512_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("staged") / "system"
    mio.save_system(staged_coupling_system(512), str(path))
    return str(path)


@pytest.mark.parametrize("command,extra,golden", [
    ("represent", {}, GOLDEN_STAGED_512_REPRESENT),
    ("represent", {"variant": "norming"}, GOLDEN_STAGED_512_REPRESENT),
    ("perturb", {"auto_strong": True}, GOLDEN_STAGED_512_PERTURB),
], ids=["represent-plain", "represent-norming", "perturb-auto-strong"])
def test_staged_512_golden_digests(command, extra, golden, staged_512_dir, tmp_path):
    cfg = ExperimentConfig(command=command, input_system=staged_512_dir, depth=8,
                           out=str(tmp_path), **extra)
    assert_golden(cfg, golden, tmp_path)
