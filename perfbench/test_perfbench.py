"""Tests of the benchmark itself: corrupted outputs are counted as failures.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mbasis_lab  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, per_iteration, self_times, subspace_targets  # noqa: E402
from workloads import Construct, Diagnose, Op, Represent, run_op  # noqa: E402


@pytest.fixture(scope="module")
def diagnose_outputs():
    """Diagnose outputs at n = 128 for workload seeds 1 and 2."""
    out = {}
    for seed in (1, 2):
        system = Diagnose().prepare(seed, None).systems[128]
        out[seed] = Diagnose.program(Tracer(), system, workloads.iteration_seed(seed, 1))
    return out


def test_changed_q_is_a_failure(diagnose_outputs):
    out = diagnose_outputs[1]
    reference = {}
    assert Diagnose.check(out, 128, reference)[0] == []
    q = list(out[4])
    q[5] += 1
    corrupted = out[:4] + (q,)
    result = run_op(Op("diagnose.n128", lambda t: corrupted,
                       lambda o: Diagnose.check(o, 128, reference)), Tracer())
    assert result.problems == ["q differs from the first iteration's q"]


def test_seed_changes_flattening_and_vectors_but_no_verdict(diagnose_outputs):
    a, b = diagnose_outputs[1], diagnose_outputs[2]
    assert not np.allclose(a[1].fs, b[1].fs)
    assert Diagnose.check(a, 128, {})[0] == [] and Diagnose.check(b, 128, {})[0] == []
    assert a[0].values == b[0].values
    assert a[3].kind == b[3].kind == "block"
    assert list(a[4]) == list(b[4])
    va, vb = (Represent().prepare(seed, None).vectors[384] for seed in (1, 2))
    assert va.shape == vb.shape and not np.allclose(va, vb)


def test_non_finite_row_norm_is_a_failure():
    stats, system, top = Construct.ladder(Tracer(), 200)
    assert Construct.check_ladder((stats, system, top))[0] == []
    X = np.array(system.xs)
    X[3, 0] = 2.0 ** 600  # finite entry whose squared norm overflows
    bad = SimpleNamespace(xs=X, fs=system.fs, size=system.size)
    result = run_op(Op("ladder", lambda t: (stats, bad, top), Construct.check_ladder),
                    Tracer())
    assert "1 X row norms are not finite" in result.problems
    assert any(p.startswith("floating-point warning") for p in result.problems)


def test_raise_and_floating_point_warning_are_failures():
    def raises(tracer):
        raise ValueError("boom")

    assert run_op(Op("r", raises, None), Tracer()).problems == ["raised ValueError: boom"]
    overflow = run_op(Op("w", lambda t: np.float64(1e308) * 10, lambda o: ([], {})), Tracer())
    assert len(overflow.problems) == 1
    assert overflow.problems[0].startswith("floating-point warning: overflow")


def test_flipped_report_byte_is_a_failure(tmp_path):
    cli = workloads.Cli()
    inputs = cli.prepare(1, tmp_path)

    def session(iteration):
        return next(op for op in cli.ops(inputs, iteration) if op.name == "cli.build-system")

    first = run_op(session(0), Tracer())
    assert first.problems == [] and first.facts["artifact_bytes"] > 0
    op = session(1)
    out = op.program(Tracer())
    report = out.out_dir / "system_report.csv"
    data = bytearray(report.read_bytes())
    data[-2] ^= 1
    report.write_bytes(bytes(data))
    problems, _ = op.check(out)
    assert problems == ["artifacts differ from the first run: ['system_report.csv']"]


def test_self_time_excludes_children():
    spans = [["a.f", 0.0, 10.0, None, 1], ["b.g", 2.0, 5.0, 0, 1], ["b.g", 6.0, 7.0, 0, 1]]
    assert self_times(spans) == [6.0, 3.0, 1.0]
    values = per_iteration(spans, {1})
    assert values["b.g.calls"] == 2 and values["b.g.s"] == 4.0
    assert values["layer.a.self_s"] == 6.0 and values["layer.b.self_s"] == 4.0


def test_patched_wrappers_nest_and_restore():
    span_equal, span_gap = mbasis_lab.biorth.span_equal, mbasis_lab.subspace.span_gap
    tracer = Tracer()
    tracer.enabled = True
    with tracer.patched(subspace_targets(mbasis_lab)):
        assert mbasis_lab.subspace.span_gap is not span_gap
        mbasis_lab.biorth.span_equal(np.eye(3)[:2], np.eye(3)[:2], 1e-8)
    assert mbasis_lab.biorth.span_equal is span_equal
    assert mbasis_lab.subspace.span_gap is span_gap
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["subspace.span_equal", "subspace.span_gap"]
    assert tracer.spans[1][3] == 0


def test_refuses_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
