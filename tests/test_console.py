"""Console sessions of ``mbasis-lab``, run in-process through ``cli.main``.

One row per session gives its argv, its config and partition text, the
exit code, the text its ``failure.json`` must hold and a check of what a
successful session writes.  A session that exits 0 must write ``run.json``
and no ``failure.json``; one that exits 1 the reverse.  An uncaught
exception fails its row, and a RuntimeWarning is an error in this suite
(``pyproject.toml``).  The installed entry point itself runs in CI.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import pytest

import mbasis_lab
from mbasis_lab.cli import main
from test_io import staged_512_dir  # noqa: F401 (a fixture)


def summary(out):
    return json.loads((out / "run.json").read_text())["summary"]


def unb_509_jumps(out):
    # unb's orthonormalization of E at the largest feasible size
    s = summary(out)
    r = s["runs"][0]
    assert (r["jump_ms"], r["n0"], s["control_ok"], r["ratio_monotone"]) == \
        ([3, 4, 5], 0, True, True), s


def canonical_norming(out):
    # every row of the canonical system is an isolated unit row, so every
    # direction of Q_X and Q_F is a unit column both share: the norming
    # constant reads exactly 1 and the default level exactly 0.5
    s = summary(out)
    assert (s["norming_c"], s["r_max"]) == (0.5, 6), s


def staged_bounds(out):
    # the last block of the staged system at n = 512 has 413 rows, most of
    # them isolated unit rows of the base system; each span gap forms the
    # basis of the flattened side only and reads the base side off one
    # R-only QR, so every gap must stay at rounding level
    report = json.loads((out / "flattening_report.json").read_text())
    rows = [dict(zip(report["columns"], row)) for row in report["rows"]]
    assert len(rows) == 6, rows
    assert all(b["vector_gap"] <= 1e-12 and b["dual_gap"] <= 1e-12 and b["worst_slack"] >= 0
               for b in rows), rows


@dataclass(frozen=True)
class Session:
    argv: tuple
    #: config text; ``{staged}`` stands for the stored staged system at n = 512
    config: str = ""
    partition: str = ""
    code: int = 0
    #: a substring of failure.json's invariant
    failure: str = ""
    check: Callable = lambda out: None


def three_rows(eps):
    """Two 3-row blocks of 1..6, the first at budget ``eps``."""
    return f"A 1: 1 | 1 2 3 | {eps}\nA 2: 4 | 4 5 6 | 0.5\n"


SESSIONS = {
    "unb-509": Session(("unb",), config="command = unb\nsizes = 509\n", check=unb_509_jumps),
    "canonical-norming-512": Session(
        ("represent",), config="command = represent\nvariant = norming\ntruncation = 512\n",
        check=canonical_norming),
    "perturb-staged-512": Session(
        ("perturb", "--auto-strong"),
        config="command = perturb\ninput_system = {staged}\ndepth = 8\n", check=staged_bounds),
    "partition-overlap": Session(
        ("perturb", "--truncation", "4"), partition="A 1: 1 | 1 2 | 0.5\nA 2: 3 | 2 3 4 | 0.5\n",
        code=1, failure="block 2 overlaps earlier blocks at [2]"),
    "partition-repeat": Session(
        ("perturb", "--truncation", "3"), partition="A 1: 1 | 1 1 2 | 0.5\nA 2: 3 | 3 | 0.5\n",
        code=1, failure="block 1 repeats index [1]"),
    "partition-missing": Session(
        ("perturb", "--truncation", "3"), partition="A 1: 1 | 1 2 | 0.5\n",
        code=1, failure="coverage failure: missing [3]"),
    "budget-inf": Session(
        ("perturb", "--truncation", "3"), partition="A 1: 1 | 1 2 | inf\nA 2: 3 | 3 | 0.5\n",
        code=1, failure="eps_1 must be positive and finite"),
    # a budget too small collapses block 1's replacements onto f_1 and fails
    # the rank test; one too large leaves f_1 at norm 1 against radius 9e11
    # and fails the cross-Gram test: each refusal names its test and the
    # budget direction that mends it
    "budget-1e-12": Session(
        ("perturb", "--truncation", "6", "--seed", "3"), partition=three_rows("1e-12"), code=1,
        failure="linearly dependent above rank_tol; use a larger eps_1"),
    "budget-1e12": Session(
        ("perturb", "--truncation", "6", "--seed", "3"), partition=three_rows("1e12"), code=1,
        failure="cross-Gram matrix is singular above rank_tol: the vectors are not minimal "
                "relative to the given span; use a smaller eps_1"),
    "seed-negative": Session(
        ("perturb", "--auto-strong", "--truncation", "16", "--seed", "-1"), code=1,
        failure="seed must be nonnegative, got -1"),
}


def session_argv(row, tmp_path, request):
    """The row's argv, with its config and partition files written."""
    argv = list(row.argv)
    config = row.config
    if "{staged}" in config:
        config = config.format(staged=request.getfixturevalue("staged_512_dir"))
    for option, text, name in (("--config", config, "run.cfg"),
                               ("--partition", row.partition, "partition.txt")):
        if text:
            (tmp_path / name).write_text(text)
            argv += [option, str(tmp_path / name)]
    return argv


@pytest.mark.parametrize("name", SESSIONS)
def test_console_session(name, tmp_path, capsys, request):
    row = SESSIONS[name]
    out = tmp_path / "out"
    assert main(session_argv(row, tmp_path, request) + ["--out", str(out)]) == row.code
    assert "Traceback" not in capsys.readouterr().err
    written, absent = ("failure.json", "run.json") if row.code else ("run.json", "failure.json")
    assert (out / written).exists() and not (out / absent).exists()
    if row.code:
        assert row.failure in json.loads((out / "failure.json").read_text())["invariant"]
    else:
        row.check(out)


@pytest.mark.parametrize("row", [
    Session(("perturb", "--auto-strong", "--truncation", "128")),
    Session(("perturb", "--truncation", "6"), partition=three_rows(0.5)),
], ids=["auto-strong-128", "three-rows"])
def test_perturb_draw_is_a_function_of_the_seed(row, tmp_path, request):
    # two sessions at one seed write the same artifacts; another seed draws
    # other functionals, on 2-row blocks (whose rotation is the sign of a
    # 1 x 1 draw) as on 3-row blocks
    argv = session_argv(row, tmp_path, request)
    trees = {}
    for name, seed in (("3a", "3"), ("3b", "3"), ("4", "4")):
        out = tmp_path / name
        assert main(argv + ["--seed", seed, "--out", str(out)]) == 0
        trees[name] = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                       if p.is_file() and p.name != "run.json"}
    assert "flattening_report.csv" in trees["3a"]
    assert trees["3a"] == trees["3b"]
    assert trees["3a"]["flattened/F.csv"] != trees["4"]["flattened/F.csv"]


def test_staged_flattening_holds_its_bounds_at_one_blas_thread(tmp_path, request):
    # at one BLAS thread the staged flattening's bytes differ from those
    # test_io.py pins (numpy's QR, solve and SVD round otherwise on its
    # 413-row block), but its bounds must hold as they do at two
    row = SESSIONS["perturb-staged-512"]
    out = tmp_path / "out"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.path.dirname(os.path.dirname(mbasis_lab.__file__))}
    proc = subprocess.run([sys.executable, "-m", "mbasis_lab.cli",
                           *session_argv(row, tmp_path, request), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "run.json").read_text())["blas"]["threads"] in (1, None)
    row.check(out)
