import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import oracles
from mbasis_lab.cli import ConfigError, ExperimentConfig, main, parse_config, run
from mbasis_lab import io as mio
from mbasis_lab.biorth import BiorthSystem
from mbasis_lab.errors import ArgumentError
from mbasis_lab.perturbations import BlockPartition
from mbasis_lab.representing import RepresentingIndices
from mbasis_lab.subspace import ToleranceConfig
from test_prefix_kernel import tilted_system

#: the header.txt of a canonical 6-vector system as earlier versions wrote it
EARLIER_HEADER = ("ambient_dim = 6\nrank_tol = 1e-10\nbiorth_tol = 1e-08\n"
                  "span_tol = 1e-08\nnet_resolution = 0.25\n")


class TestParseConfig:
    def test_valid(self):
        cfg = parse_config("command = unb\ntruncation = 256\nseed = 7")
        assert cfg.command == "unb"
        assert cfg.truncation == 256
        assert cfg.seed == 7

    def test_range_error(self):
        with pytest.raises(ConfigError, match="truncation"):
            parse_config("command = unb\ntruncation = 1")

    def test_empty_needs_command(self):
        with pytest.raises(ConfigError, match="command is required"):
            parse_config("")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1: unknown key"):
            parse_config("wibble = 3")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("command = unb\ncommand = unb")

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\ncommand = pathology\n")
        assert cfg.command == "pathology"

    def test_lists(self):
        cfg = parse_config("command = unb\nsizes = 8, 16\ncs = 1 2")
        assert cfg.sizes == (8, 16)
        assert cfg.cs == (1, 2)

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="bad value for 'seed'"):
            parse_config("command = unb\nseed = x")

    def test_lambda_schedule_is_not_a_key(self, tmp_path, capsys):
        # net_resolution was a key that nothing read; both fail as unknown
        for key, value in (("lambda_schedule", "linear"), ("net_resolution", "0.25")):
            cfg = tmp_path / "unb.cfg"
            cfg.write_text(f"command = unb\n{key} = {value}\n")
            assert main(["unb", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert f"line 2: unknown key '{key}'" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line,match", [
        ("rank_tol = 0", "rank_tol must be strictly positive"),
        ("span_tol = -1e-8", "span_tol must be strictly positive"),
        ("biorth_tol = nan", "biorth_tol must be strictly positive"),
        # rank_tol = 2 wrote an indices report from rank-0 factorizations
        ("rank_tol = 2", "rank_tol must be below 1, got 2.0"),
    ])
    def test_tolerances_checked_once(self, line, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(f"command = unb\n{line}")

    @pytest.mark.parametrize("value", ["nan", "inf", "0.5"])
    def test_m_bound_must_be_finite(self, tmp_path, capsys, value):
        cfg = tmp_path / "unb.cfg"
        cfg.write_text(f"command = unb\nsizes = 8\nm_bound = {value}\n")
        assert main(["unb", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert (f"config error: m_bound must be finite and at least 1, got {float(value)}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_c_must_be_finite_and_nonnegative(self, tmp_path, capsys, value):
        cfg = tmp_path / "norming.cfg"
        cfg.write_text(f"command = represent\nvariant = norming\nc = {value}\n")
        assert main(["represent", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert (f"config error: c must be finite and nonnegative (0 for the default), "
                f"got {float(value)}" in err)
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,key", [("unb", "sizes"), ("pathology", "cs")])
    def test_empty_list_refused(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(f"command = {command}\ntruncation = 16\n{key} = \n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{key} must list at least one entry" in capsys.readouterr().err


class TestRoundTrips:
    def test_system_roundtrip(self, tmp_path):
        tol = ToleranceConfig(rank_tol=1e-11, biorth_tol=2e-9, span_tol=3e-9)
        sys = BiorthSystem.canonical(5, tol=tol)
        d = tmp_path / "sys"
        mio.save_system(sys, str(d))
        loaded = mio.load_system(str(d))
        assert np.array_equal(loaded.xs, sys.xs)
        assert np.array_equal(loaded.fs, sys.fs)
        assert loaded.ambient_dim == 5
        assert loaded.tol == tol
        assert (d / "header.txt").read_text() == (
            "ambient_dim = 5\nrank_tol = 1e-11\nbiorth_tol = 2e-09\nspan_tol = 3e-09\n")

    def test_partition_roundtrip(self, tmp_path):
        p = BlockPartition(((1, 2, 3), (4, 5)), (2, 4), (0.5, 0.25))
        fp = str(tmp_path / "part.txt")
        mio.save_partition(p, fp)
        q = mio.load_partition(fp)
        assert q.blocks == p.blocks
        assert q.anchors == p.anchors
        assert q.epsilons == p.epsilons

    def test_system_header_of_earlier_versions_loads(self, tmp_path, capsys):
        # earlier versions wrote a net_resolution line, which the reader skips
        d = tmp_path / "sys"
        mio.save_system(BiorthSystem.canonical(6), str(d))
        (d / "header.txt").write_text(EARLIER_HEADER)
        loaded = mio.load_system(str(d))
        assert loaded.ambient_dim == 6
        assert loaded.tol == ToleranceConfig()
        cfg = tmp_path / "represent.cfg"
        cfg.write_text(f"command = represent\ninput_system = {d}\ndepth = 3\n")
        assert main(["represent", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert oracles.load_indices(str(tmp_path / "o" / "indices.txt")).values == (1, 2, 3)

    def test_indices_roundtrip(self, tmp_path):
        r = RepresentingIndices((1, 3, 6), (float("inf"), 0.5, 0.25), (1, 3, 5))
        fp = str(tmp_path / "idx.txt")
        mio.save_indices(r, fp)
        back = oracles.load_indices(fp)
        assert back.values == r.values
        assert back.interim_p == r.interim_p
        assert back.deltas == r.deltas

    def test_indices_missing_file_refused(self, tmp_path):
        with pytest.raises(ArgumentError, match="cannot read .*absent.txt"):
            oracles.load_indices(str(tmp_path / "absent.txt"))

    def test_indices_malformed_token_refused(self, tmp_path):
        fp = tmp_path / "idx.txt"
        fp.write_text("1 1 1 inf\n2 x 2 0.5\n")
        with pytest.raises(ArgumentError, match=r"idx.txt:2: malformed index line"):
            oracles.load_indices(str(fp))


class TestPipelines:
    def test_pathology_defaults(self, tmp_path):
        cfg = ExperimentConfig(command="pathology", truncation=32,
                               out=str(tmp_path))
        assert run(cfg) == 0
        for name in ("permutation.txt", "omega_growth.csv", "omega_growth.json",
                     "system/X.csv", "system/F.csv", "E.csv", "run.json"):
            assert os.path.exists(tmp_path / name), name

    def test_perturb_auto_strong(self, tmp_path):
        sys_dir = tmp_path / "input"
        mio.save_system(BiorthSystem.canonical(24), str(sys_dir))
        cfg = ExperimentConfig(command="perturb", input_system=str(sys_dir),
                               auto_strong=True, depth=4, blocks=2,
                               out=str(tmp_path / "out"))
        assert run(cfg) == 0
        report = json.load(open(tmp_path / "out" / "flattening_report.json"))
        assert report["columns"] == ["block", "vector_gap", "dual_gap", "worst_slack"]

    def test_eps_violation_named(self, tmp_path, capsys):
        cfg = ExperimentConfig(command="pathology", truncation=16,
                               eps=tuple([0.5] * 16), out=str(tmp_path))
        assert run(cfg) == 1
        record = json.load(open(tmp_path / "failure.json"))
        assert "1/8" in record["invariant"]
        assert record["operation"] == "pathology"

    def test_represent_command(self, tmp_path):
        cfg = ExperimentConfig(command="represent", truncation=10, depth=4,
                               out=str(tmp_path))
        assert run(cfg) == 0
        rows = open(tmp_path / "indices.txt").read().splitlines()
        assert rows[0].split() == ["1", "1", "1", "inf"]

    def test_represent_norming_default_c_is_admissible(self, tmp_path):
        # the default c is half the builder's own norming constant
        sys_dir = tmp_path / "input"
        mio.save_system(tilted_system(), str(sys_dir))
        cfg = ExperimentConfig(command="represent", input_system=str(sys_dir),
                               variant="norming", depth=4, out=str(tmp_path / "out"))
        assert run(cfg) == 0
        assert oracles.load_indices(str(tmp_path / "out" / "indices.txt")).values == (1, 2, 3, 4)

    def test_represent_records_norming_c(self, tmp_path):
        sys_dir = tmp_path / "input"
        mio.save_system(tilted_system(), str(sys_dir))
        base = ExperimentConfig(command="represent", input_system=str(sys_dir), depth=4)
        for variant, c, expected in (("plain", 0.0, None), ("norming", 0.0, 0.11550326142),
                                     ("norming", 0.1, 0.1)):
            out = tmp_path / f"{variant}-{c}"
            assert run(replace(base, variant=variant, c=c, out=str(out))) == 0
            summary = json.loads((out / "run.json").read_text())["summary"]
            assert summary["norming_c"] == expected

    def test_represent_norming_c_above_half_the_constant_refused(self, tmp_path):
        # the tilted system's norming constant is 0.231; a sampled estimate
        # reads 0.934 and used to admit c = 0.3
        sys_dir = tmp_path / "input"
        mio.save_system(tilted_system(), str(sys_dir))
        cfg = ExperimentConfig(command="represent", input_system=str(sys_dir),
                               variant="norming", c=0.3, out=str(tmp_path / "out"))
        assert run(cfg) == 1
        failure = json.loads((tmp_path / "out" / "failure.json").read_text())
        assert "exceeds half the measured norming constant 0.231007" in failure["invariant"]
        assert not (tmp_path / "out" / "run.json").exists()

    @pytest.mark.parametrize("damage,match", [
        (lambda d: (d / "X.csv").write_text("1,0\n0,abc\n"), r"X\.csv:2: malformed matrix row"),
        (lambda d: shutil.rmtree(d), r"cannot read .*X\.csv: No such file"),
        (lambda d: (d / "header.txt").write_text("rank_tol = 1e-10\n"),
         r"header\.txt: missing key 'ambient_dim'"),
        (lambda d: (d / "X.csv").write_text("1,0\n0\n"), r"ragged matrix rows in .*X\.csv"),
        (lambda d: (d / "header.txt").write_text("ambient_dim = 7\n"),
         r"input: ambient_dim does not match the matrices"),
        (lambda d: (d / "X.csv").write_text("1,0\n0,1\n1,1\n"),
         r"input: \|xs\| != \|fs\|: 3 vs 2"),
        (lambda d: (d / "X.csv").write_text(""), r"input: \|xs\| != \|fs\|: 0 vs 2"),
        (lambda d: (d / "X.csv").write_text("1,0\n0,inf\n"),
         r"input: system entries must be finite"),
        (lambda d: (d / "X.csv").write_text("2,0\n0,1\n"),
         r"input: biorthogonality defect 1\.000e\+00 above tolerance"),
    ], ids=["bad-token", "missing-directory", "no-ambient-dim", "ragged", "ambient-dim",
            "lengths", "empty", "infinite", "defect"])
    def test_corrupt_stored_system_refused(self, tmp_path, damage, match):
        sys_dir = tmp_path / "input"
        mio.save_system(BiorthSystem.canonical(2), str(sys_dir))
        damage(sys_dir)
        cfg = ExperimentConfig(command="represent", input_system=str(sys_dir),
                               out=str(tmp_path / "out"))
        assert run(cfg) == 1
        record = json.load(open(tmp_path / "out" / "failure.json"))
        assert re.search(match, record["invariant"])
        assert str(sys_dir) in record["invariant"]

    def test_missing_partition_file_refused(self, tmp_path):
        cfg = ExperimentConfig(command="perturb", partition=str(tmp_path / "none.txt"),
                               truncation=4, out=str(tmp_path / "out"))
        assert run(cfg) == 1
        record = json.load(open(tmp_path / "out" / "failure.json"))
        assert f"cannot read {tmp_path / 'none.txt'}" in record["invariant"]

    def test_build_system(self, tmp_path):
        cfg = ExperimentConfig(command="build-system", truncation=6,
                               out=str(tmp_path))
        assert run(cfg) == 0
        loaded = mio.load_system(str(tmp_path / "system"))
        assert loaded.size == 6

    def test_unb_small(self, tmp_path):
        cfg = ExperimentConfig(command="unb", sizes=(16, 24),
                               out=str(tmp_path))
        assert run(cfg) == 0
        head = open(tmp_path / "unb_16.csv").read().splitlines()[0]
        assert head == "m,q,lambda,ratio,omega,two_phi,c1log"
        summary = json.load(open(tmp_path / "unb_summary.json"))
        assert summary["control_ok"] is True


class TestDeterminism:
    def test_identical_bytes(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig(command="unb", sizes=(16,), seed=5,
                                   out=str(tmp_path / sub))
            assert run(cfg) == 0
            outs.append((tmp_path / sub / "unb_16.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_json_mirrors_csv(self, tmp_path):
        cfg = ExperimentConfig(command="unb", sizes=(16,), out=str(tmp_path))
        run(cfg)
        payload = json.load(open(tmp_path / "unb_16.json"))
        lines = open(tmp_path / "unb_16.csv").read().splitlines()
        assert payload["columns"] == lines[0].split(",")
        assert len(payload["rows"]) == len(lines) - 1

    def test_empty_report_header_only(self, tmp_path):
        from mbasis_lab.cli import emit_report

        emit_report([], ("metric", "value"), str(tmp_path), "empty")
        assert open(tmp_path / "empty.csv").read() == "metric,value\n"


class TestMain:
    def test_help_runs(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        epilog = " ".join(capsys.readouterr().out.split())
        assert epilog.endswith(
            "Config keys and defaults: truncation=64, seed=0, out='mbasis_out', "
            "kind='canonical', input_system='', partition='', auto_strong=False, depth=6, "
            "blocks=2, variant='plain', c=0.0, eps=(), sizes=(64, 128, 256), cs=(1, 2, 4), "
            "m_bound=2.0, rank_tol=1e-10, biorth_tol=1e-08, span_tol=1e-08")

    def test_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("command = pathology\ntruncation = 16\n")
        code = main(["pathology", "--config", str(cfgfile),
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_command_mismatch(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("command = unb\n")
        assert main(["pathology", "--config", str(cfgfile)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_overrides(self, tmp_path):
        code = main(["pathology", "--out", str(tmp_path / "o"),
                     "--truncation", "16", "--seed", "3"])
        assert code == 0
        manifest = json.load(open(tmp_path / "o" / "run.json"))
        assert manifest["seed"] == 3
        assert manifest["truncation"] == 16

    def test_tolerance_keys_reach_run_json(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("command = represent\nvariant = norming\nrank_tol = 1e-11\n"
                           "biorth_tol = 2e-9\nspan_tol = 3e-9\n")
        assert main(["represent", "--config", str(cfgfile), "--truncation", "8",
                     "--out", str(tmp_path / "o")]) == 0
        manifest = json.load(open(tmp_path / "o" / "run.json"))
        assert manifest["tolerances"] == {"rank_tol": 1e-11, "biorth_tol": 2e-9,
                                          "span_tol": 3e-9}
        assert manifest["truncation"] == 8

    def test_configured_rank_tol_reaches_operator_T(self, tmp_path, capsys):
        # the smallest block singular-value ratio of E at truncation 64 is
        # 0.966, so an independence test at rank_tol = 0.99 refuses
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("command = pathology\ntruncation = 64\nrank_tol = 0.99\n")
        out = tmp_path / "o"
        assert main(["pathology", "--config", str(cfgfile), "--out", str(out)]) == 1
        record = json.load(open(out / "failure.json"))
        assert record["invariant"] == "e_hat vectors are linearly dependent"
        assert not (out / "run.json").exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_log_level_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MBASIS_LOG", "verbose")
        assert main(["unb", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: MBASIS_LOG must be one of DEBUG, INFO, WARNING" in err
        assert "got 'verbose'" in err
        assert not (tmp_path / "o").exists()

    def test_run_json_records_blas_threads(self, tmp_path):
        # the flattened bytes depend on the BLAS thread count through the
        # dual solves' LU, so run.json records it, read from OpenBLAS
        from mbasis_lab.cli import _blas

        if _blas()["threads"] is None:
            pytest.skip("numpy here links no OpenBLAS with a thread getter")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.path.dirname(os.path.dirname(mio.__file__))}
        proc = subprocess.run([sys.executable, "-m", "mbasis_lab.cli", "unb",
                               "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        blas = json.loads((tmp_path / "run.json").read_text())["blas"]
        assert blas["threads"] == 1 and blas["name"] == np.show_config(
            mode="dicts")["Build Dependencies"]["blas"]["name"]

    @pytest.mark.parametrize("command", ["pathology", "unb"])
    def test_pathology_and_unb_skip_numpy_ma(self, tmp_path, command):
        # a fresh process: a plain np.unique imports numpy.ma (~0.02 s a run),
        # and operator_T's block labels need no scipy
        code = ("import sys; from mbasis_lab.cli import main; "
                "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules, 'scipy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mio.__file__))}
        proc = subprocess.run([sys.executable, "-c", code, command, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.stdout.split() == ["0", "False", "False"], proc.stderr
