import json
import os

import numpy as np
import pytest

from mbasis_lab.cli import ConfigError, ExperimentConfig, main, parse_config, run
from mbasis_lab import io as mio
from mbasis_lab.biorth import BiorthSystem
from mbasis_lab.perturbations import BlockPartition
from mbasis_lab.representing import RepresentingIndices
from test_prefix_kernel import tilted_system


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
        cfg = tmp_path / "unb.cfg"
        cfg.write_text("command = unb\nlambda_schedule = linear\n")
        assert main(["unb", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'lambda_schedule'" in capsys.readouterr().err

    @pytest.mark.parametrize("line,match", [
        ("rank_tol = 0", "rank_tol must be strictly positive"),
        ("span_tol = -1e-8", "span_tol must be strictly positive"),
        ("net_resolution = 1.0", "net_resolution must be below 1"),
    ])
    def test_tolerances_checked_once(self, line, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(f"command = unb\n{line}")


class TestRoundTrips:
    def test_system_roundtrip(self, tmp_path):
        sys = BiorthSystem.canonical(5)
        d = str(tmp_path / "sys")
        mio.save_system(sys, d)
        loaded = mio.load_system(d)
        assert np.array_equal(loaded.xs, sys.xs)
        assert np.array_equal(loaded.fs, sys.fs)
        assert loaded.ambient_dim == 5

    def test_partition_roundtrip(self, tmp_path):
        p = BlockPartition(((1, 2, 3), (4, 5)), (2, 4), (0.5, 0.25))
        fp = str(tmp_path / "part.txt")
        mio.save_partition(p, fp)
        q = mio.load_partition(fp)
        assert q.blocks == p.blocks
        assert q.anchors == p.anchors
        assert q.epsilons == p.epsilons

    def test_indices_roundtrip(self, tmp_path):
        r = RepresentingIndices((1, 3, 6), (float("inf"), 0.5, 0.25), (1, 3, 5))
        fp = str(tmp_path / "idx.txt")
        mio.save_indices(r, fp)
        back = mio.load_indices(fp)
        assert back.values == r.values
        assert back.interim_p == r.interim_p
        assert back.deltas == r.deltas


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
        # a 128-sample estimate reads above the builder's own on this system,
        # so the default c must come from the builder's estimate
        sys_dir = tmp_path / "input"
        mio.save_system(tilted_system(), str(sys_dir))
        cfg = ExperimentConfig(command="represent", input_system=str(sys_dir),
                               variant="norming", depth=4, out=str(tmp_path / "out"))
        assert run(cfg) == 0
        assert mio.load_indices(str(tmp_path / "out" / "indices.txt")).values == (1, 2, 3, 4)

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
