"""The four benchmark workloads: their inputs, program calls and output checks.

Each workload is a closed loop with one client: an iteration is a list of
operations run one after another, and each operation's program calls are
timed before its outputs are checked.  An operation fails when its check
rejects the output, when it raises, or when numpy emits a floating-point
``RuntimeWarning`` (for CLI sessions: a warning on stderr).  Failures are
counted, never fatal, so one bad iteration does not hide the rest.

Span names passed to :meth:`tracer.Tracer.call` are
``<module>.<function>.<case>``; the per-layer metrics in BENCHMARK.json
are derived from them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import mbasis_lab
from mbasis_lab.biorth import (
    BiorthSystem,
    classify_perturbation,
    norming_constant_estimate,
    spanning_indices,
)
from mbasis_lab.pathology import (
    build_pathological_system,
    build_permutation,
    build_phi,
    default_eps_sequence,
    omega_stats,
    operator_T,
    unb_experiment,
    verify_phi_count_identity,
)
from mbasis_lab.perturbations import construct_flattened, verify_flattened
from mbasis_lab.representing import (
    build_norming_indices,
    build_representing_indices,
    reconstruct,
    strong_partition,
    strongness_diagnostic,
)

from tracer import subspace_targets

DEPTH = 8
#: forward couplings of acceptance criterion 6; the last target is the size n
STAGED_PAIRS = ((2, 7), (3, 15), (8, 30), (16, 60), (31, 100))
#: the last representing index is the size itself
STAGED_HEAD = (1, 2, 7, 15, 30, 60, 100)
LEMMA_N = 10**6
LADDER = (200, 400)
UNB_SIZES = (64, 128, 256)
TEST_VECTORS = 4
#: criterion 7's agreement between reconstruct and the least-squares oracle
RECONSTRUCT_TOL = 1e-10
CLI_ENTRY = "import sys; from mbasis_lab.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    name: str
    program: Callable  # (tracer) -> output
    check: Callable    # output -> (problems, facts)


@dataclass
class OpResult:
    name: str
    seconds: float
    cpu_s: float
    problems: list
    facts: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_op(op: Op, tracer) -> OpResult:
    """Time ``op.program`` (wall and CPU), then check its output."""
    facts: dict = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        started, cpu0 = perf_counter(), cpu_seconds()
        raised = None
        try:
            out = op.program(tracer)
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            raised = exc
        seconds, cpu_s = perf_counter() - started, cpu_seconds() - cpu0
        if raised is not None:
            problems = [f"raised {type(raised).__name__}: {raised}"]
        else:
            try:
                problems, facts = op.check(out)
            except Exception as exc:  # an output the check cannot read is rejected
                problems = [f"check raised {type(exc).__name__}: {exc}"]
    problems = list(problems) + [
        f"floating-point warning: {w.message}"
        for w in caught if issubclass(w.category, RuntimeWarning)
    ]
    return OpResult(op.name, seconds, cpu_s, problems, facts)


def iteration_seed(seed: int, iteration: int) -> int:
    """The flattening seed of one iteration, drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0])


def staged_coupling_system(n: int) -> BiorthSystem:
    """Acceptance criterion 6's system with its last coupling target moved to n.

    x_s = e_s + 0.9 e_t and f_t = e_t - 0.9 e_s for each coupling (s, t),
    so the depth-8 representing indices are STAGED_HEAD followed by n.
    """
    X = np.eye(n)
    F = np.eye(n)
    for s, t in STAGED_PAIRS + ((61, n),):
        X[s - 1, t - 1] = 0.9
        F[t - 1, s - 1] = -0.9
    return BiorthSystem.from_pairs(X, F)


def unit_vectors(seed: int, count: int, n: int) -> np.ndarray:
    x = np.random.default_rng([seed, n]).standard_normal((count, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def linear(n: int) -> float:
    return float(n)


# ---------------------------------------------------------------------------
# checks shared by the workloads


def check_indices(r, n: int) -> list:
    expected = STAGED_HEAD + (n,)
    return [] if r.values == expected else [f"r = {r.values}, expected {expected}"]


def check_spanning(q, reference) -> list:
    """q(m) non-decreasing with q(m) >= m, and equal to ``reference`` if given."""
    q = np.asarray(q)
    problems = []
    if np.any(np.diff(q) < 0):
        problems.append("q(m) decreases")
    if np.any(q < np.arange(1, q.size + 1)):
        problems.append("q(m) < m")
    if reference is not None and not np.array_equal(q, reference):
        problems.append("q differs from the first iteration's q")
    return problems


def orthonormal_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ``rows`` (full row rank assumed), via QR."""
    return np.linalg.qr(rows.T)[0].T


def norming_oracle(system: BiorthSystem, p: int, rho: int) -> float:
    """Smallest singular value of the cross matrix of the two prefix bases."""
    QH = orthonormal_basis(system.xs[:p])
    QF = orthonormal_basis(system.fs[:rho])
    return float(np.linalg.svd(QF @ QH.T, compute_uv=False)[-1])


def reconstruct_oracle(system: BiorthSystem, r, x: np.ndarray, m: int) -> float:
    """Criterion 7's least-squares error over the same spans as reconstruct."""
    head_end, win_end = r.r_at(m), r.r_at(m + 1)
    partial = (system.fs[:head_end] @ x) @ system.xs[:head_end]
    window = system.xs[head_end:win_end]
    coef, *_ = np.linalg.lstsq(window.T, x - partial, rcond=None)
    return float(np.linalg.norm(x - partial - coef @ window))


def biorth_defect(system: BiorthSystem) -> float:
    return float(np.max(np.abs(system.fs @ system.xs.T - np.eye(system.size))))


def check_finite_rows(system: BiorthSystem) -> list:
    problems = []
    for label, rows in (("X", system.xs), ("F", system.fs)):
        bad = np.count_nonzero(~np.isfinite(np.linalg.norm(rows, axis=1)))
        if bad:
            problems.append(f"{bad} {label} row norms are not finite")
    return problems


def digest_dir(directory: Path) -> dict:
    """sha256 of every artifact except run.json, which carries a wall time."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and path.name != "run.json"
    }


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    #: the program runs in this process (False: in child processes)
    in_process = True

    def prepare(self, seed: int, workdir: Path):
        """Inputs of one run; this is the work ``setup_s`` times."""
        raise NotImplementedError

    def ops(self, inputs, iteration: int) -> list:
        raise NotImplementedError

    def trace_targets(self) -> list:
        return subspace_targets(mbasis_lab) + [
            (mbasis_lab.representing, "norming_property_minimum",
             "representing.norming_property_minimum")]


@dataclass
class DiagnoseInputs:
    seed: int
    systems: dict
    #: q of the first iteration, per size
    reference_q: dict = field(default_factory=dict)


class Diagnose(Workload):
    name = "diagnose"
    sizes = (128, 192)

    def prepare(self, seed, workdir):
        return DiagnoseInputs(seed, {n: staged_coupling_system(n) for n in self.sizes})

    def ops(self, inputs, iteration):
        fseed = iteration_seed(inputs.seed, iteration)
        return [Op(f"diagnose.n{n}",
                   lambda t, n=n: self.program(t, inputs.systems[n], fseed),
                   lambda out, n=n: self.check(out, n, inputs.reference_q))
                for n in self.sizes]

    @staticmethod
    def program(tracer, system, fseed):
        n = system.size
        call = tracer.call
        r = call(f"representing.build_representing_indices.n{n}",
                 build_representing_indices, system, DEPTH)
        trace = call(f"representing.strong_partition.n{n}", strong_partition, r, 2)
        z = call(f"perturbations.construct_flattened.n{n}",
                 construct_flattened, system, trace.partition, seed=fseed)
        report = call(f"perturbations.verify_flattened.n{n}",
                      verify_flattened, z, system, trace.partition)
        cls = call(f"biorth.classify_perturbation.n{n}", classify_perturbation, z, system)
        q = call(f"biorth.spanning_indices.n{n}", spanning_indices, z, system)
        return r, z, report, cls, q

    @staticmethod
    def check(out, n, reference_q):
        r, _, report, cls, q = out
        problems = check_indices(r, n)
        if not report.passed:
            problems.append("flattening verification did not pass")
        if cls.kind != "block":
            problems.append(f"verdict {cls.kind}, expected block")
        problems += check_spanning(q, reference_q.get(n))
        reference_q.setdefault(n, np.asarray(q))
        return problems, {}


@dataclass
class RepresentInputs:
    seed: int
    systems: dict
    vectors: dict


@dataclass
class RepresentOut:
    r: object
    c: float
    norming: object
    report: object
    errors: list  # [vector][m - 1] reconstruct error
    residuals: list


class Represent(Workload):
    name = "represent"
    sizes = (384, 512)

    def prepare(self, seed, workdir):
        return RepresentInputs(
            seed,
            {n: staged_coupling_system(n) for n in self.sizes},
            {n: unit_vectors(seed, TEST_VECTORS, n) for n in self.sizes},
        )

    def ops(self, inputs, iteration):
        fseed = iteration_seed(inputs.seed, iteration)
        return [Op(f"represent.n{n}",
                   lambda t, n=n: self.program(t, inputs.systems[n], inputs.vectors[n], fseed),
                   lambda out, n=n: self.check(out, inputs.systems[n], inputs.vectors[n]))
                for n in self.sizes]

    @staticmethod
    def program(tracer, system, vectors, fseed):
        n = system.size
        call = tracer.call
        r = call(f"representing.build_representing_indices.n{n}",
                 build_representing_indices, system, DEPTH)
        c = call(f"biorth.norming_constant_estimate.n{n}", norming_constant_estimate,
                 system, samples=max(64, 2 * n), seed=0) / 2.0
        norming = call(f"representing.build_norming_indices.n{n}",
                       build_norming_indices, system, DEPTH, c)
        trace = call(f"representing.strong_partition.n{n}", strong_partition, r, 2)
        z = call(f"perturbations.construct_flattened.n{n}",
                 construct_flattened, system, trace.partition, seed=fseed)
        report = call(f"perturbations.verify_flattened.n{n}",
                      verify_flattened, z, system, trace.partition)
        errors = [[call(f"representing.reconstruct.n{n}", reconstruct, x, system, r, m).error
                   for m in range(1, DEPTH)] for x in vectors]
        eps = list(trace.partition.epsilons)
        residuals = [call(f"representing.strongness_diagnostic.n{n}", strongness_diagnostic,
                          x, z, system, trace, eps).residual for x in vectors]
        return RepresentOut(r, c, norming, report, errors, residuals)

    @staticmethod
    def check(out, system, vectors):
        n = system.size
        problems = check_indices(out.r, n)
        if not out.report.passed:
            problems.append("flattening verification did not pass")
        rn = out.norming
        for m in range(1, rn.depth + 1):
            value = norming_oracle(system, rn.interim_p[m - 1], rn.r_at(m))
            if not value >= out.c:
                problems.append(f"norming step {m}: {value:.6g} < c = {out.c:.6g}")
        for x, errors in zip(vectors, out.errors):
            for m, err in enumerate(errors, start=1):
                oracle = reconstruct_oracle(system, out.r, x, m)
                if not abs(err - oracle) <= RECONSTRUCT_TOL:
                    problems.append(f"reconstruct m={m}: {err!r} vs oracle {oracle!r}")
        if not all(np.isfinite(out.residuals)):
            problems.append("strongness residual is not finite")
        return problems, {}


class Construct(Workload):
    """Fixed-size constructions; the seed reaches only unb_experiment's seed."""

    name = "construct"

    def prepare(self, seed, workdir):
        return seed

    def ops(self, seed, iteration):
        ops = [Op("construct.lemma", self.lemma, self.check_lemma)]
        ops += [Op(f"construct.ladder.N{N}", lambda t, N=N: self.ladder(t, N),
                   self.check_ladder) for N in LADDER]
        ops.append(Op("construct.unb", lambda t: t.call(
            "pathology.unb_experiment", unb_experiment, linear, 2.0, list(UNB_SIZES),
            seed=seed), self.check_unb))
        return ops

    @staticmethod
    def lemma(tracer):
        phi = tracer.call("pathology.build_phi.N1e6", build_phi, linear, LEMMA_N)
        spec = tracer.call("pathology.build_permutation.N1e6", build_permutation, phi, LEMMA_N)
        identity = tracer.call("pathology.verify_phi_count_identity.N1e6",
                               verify_phi_count_identity, spec, LEMMA_N)
        sizes = tracer.call("pathology.omega_sizes.N1e6", spec.omega_sizes, LEMMA_N)
        return spec, identity, sizes

    @staticmethod
    def check_lemma(out):
        spec, identity, sizes = out
        problems = []
        exact = spec.pi[:LEMMA_N][spec.pi[:LEMMA_N] >= 0]
        if not spec.injective_verified or np.unique(exact).size != exact.size \
                or np.any(np.diff(spec.jump_points) <= 0):
            problems.append("pi is not injective")
        if not identity:
            problems.append("count identity fails")
        if np.any(sizes > 2 * spec.phi[:LEMMA_N]):
            problems.append("overlap bound |Omega(m)| <= 2 phi(m) fails")
        return problems, {}

    @staticmethod
    def ladder(tracer, N):
        call = tracer.call
        phi = call(f"pathology.build_phi.N{4 * N}", build_phi, linear, 4 * N)
        spec = call(f"pathology.build_permutation.N{4 * N}", build_permutation, phi, 4 * N)
        stats = call(f"pathology.omega_stats.N{N}", omega_stats, spec, (1, 2, 4), N)
        eps = default_eps_sequence(N)
        pi_t = spec.compactified(N, keep_below=N)
        ambient = int(max(N, pi_t.max()))
        system, e_hats = call(f"pathology.build_pathological_system.N{N}",
                              build_pathological_system, spec, eps, N, ambient)
        top = call(f"pathology.operator_T.N{N}", operator_T, e_hats, ambient, eps_seq=eps)
        return stats, system, top

    @staticmethod
    def check_ladder(out):
        stats, system, top = out
        problems = check_finite_rows(system)
        if np.any(stats.omega > stats.two_phi):
            problems.append("overlap bound fails on the omega grid")
        defect = biorth_defect(system)
        if not defect <= 1e-8:
            problems.append(f"biorthogonality defect {defect:.3e} > 1e-8")
        if not (top.norm <= 2.0 + 1e-9 and top.norm_inv <= 2.0 + 1e-9):
            problems.append(f"||T|| = {top.norm}, ||T^-1|| = {top.norm_inv}, bound 2")
        return problems, {}

    @staticmethod
    def check_unb(report):
        problems = [] if report.control_ok else ["identity control fails"]
        for run in report.runs:
            for flag in ("ratio_monotone", "bracket_ok", "capacity_ok"):
                if not getattr(run, flag):
                    problems.append(f"unb N={run.truncation}: {flag} is false")
        return problems, {}


#: (session name, mbasis-lab arguments); {config} is the pathological config
CLI_SESSIONS = (
    ("build-system", ["build-system", "--truncation", "128"]),
    ("build-system-pathological", ["build-system", "--config", "{config}"]),
    ("represent", ["represent", "--truncation", "128"]),
    ("pathology", ["pathology", "--truncation", "128"]),
    ("unb", ["unb"]),
    ("perturb", ["perturb", "--auto-strong", "--truncation", "128"]),
)
PATHOLOGICAL_CONFIG = "command = build-system\nkind = pathological\ntruncation = 400\n"


@dataclass
class CliInputs:
    seed: int
    workdir: Path
    env: dict
    config: Path
    #: artifact digests of each session's first run
    reference: dict = field(default_factory=dict)


@dataclass
class SessionOut:
    returncode: int
    stderr: str
    out_dir: Path


def child_env(src: Path) -> dict:
    """This process's environment with ``src`` first on the import path."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


class Cli(Workload):
    name = "cli"
    in_process = False

    def prepare(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        config = workdir / "pathological.cfg"
        config.write_text(PATHOLOGICAL_CONFIG)
        src = Path(mbasis_lab.__file__).resolve().parent.parent
        return CliInputs(seed, workdir, child_env(src), config)

    def ops(self, inputs, iteration):
        return [Op(f"cli.{name}",
                   lambda t, name=name, args=args: self.session(t, inputs, iteration, name, args),
                   lambda out, name=name: self.check(out, inputs.reference, name))
                for name, args in CLI_SESSIONS]

    def trace_targets(self):
        return []  # the traced child wraps its own modules

    @staticmethod
    def session(tracer, inputs, iteration, name, args):
        out_dir = inputs.workdir / f"it{iteration}" / name
        argv = [a.format(config=inputs.config) for a in args]
        argv += ["--out", str(out_dir), "--seed", str(inputs.seed)]
        spans = inputs.workdir / f"spans-it{iteration}-{name}.json"
        if tracer.enabled:
            child = Path(__file__).resolve().parent / "cli_child.py"
            cmd = [sys.executable, str(child), str(spans), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]

        def launch():
            proc = subprocess.run(cmd, env=inputs.env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            if tracer.enabled and spans.exists():
                tracer.adopt(json.loads(spans.read_text())["spans"])
                spans.unlink()
            return proc

        proc = tracer.call(f"cli.{name}", launch)
        return SessionOut(proc.returncode, proc.stderr, out_dir)

    @staticmethod
    def check(out, reference, name):
        problems = []
        facts = {}
        if out.returncode != 0:
            problems.append(f"exit code {out.returncode}: {out.stderr.strip()[-300:]}")
        if "Warning" in out.stderr:
            problems.append(f"warning on stderr: {out.stderr.strip()[-300:]}")
        try:
            run_json = json.loads((out.out_dir / "run.json").read_text())
            facts["run_json_s"] = float(run_json["wall_time_s"])
            digests = digest_dir(out.out_dir)
            facts["artifact_bytes"] = sum((out.out_dir / rel).stat().st_size for rel in digests)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable artifacts: {exc}")
        else:
            expected = reference.setdefault(name, digests)
            if digests != expected:
                changed = sorted(k for k in set(digests) | set(expected)
                                 if digests.get(k) != expected.get(k))
                problems.append(f"artifacts differ from the first run: {changed}")
        shutil.rmtree(out.out_dir, ignore_errors=True)
        return problems, facts


WORKLOADS = {w.name: w for w in (Diagnose(), Construct(), Represent(), Cli())}
