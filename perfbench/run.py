"""mbasis-lab benchmark: closed-loop workloads timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload diagnose --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py`` and declared, with their metrics
and bounds, in BENCHMARK.json.  A run measures ``setup_s`` in fresh
interpreters, runs one warm-up iteration, then timed iterations until the
next one would overrun ``--seconds`` (at least MIN_ITERATIONS).  With
``--trace 1`` every other timed iteration is traced, spans are written to
``.bench_out/`` and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The package is imported
from ``src/`` of the checkout; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from tracer import Tracer, per_iteration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
#: by --trace: a median needs three samples; a traced run alternates
#: untraced and traced iterations and needs two of each
MIN_ITERATIONS = {0: 3, 1: 4}
#: stop starting iterations past this multiple of --seconds
OVERRUN_LIMIT = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the workload's inputs, then exit")
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Limit OpenBLAS to at most nproc threads; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        wanted = nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(wanted, nproc)))
    return nproc


def environment(nproc: int) -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": nproc,
        "loadavg": os.getloadavg(),
    }


def time_setup(workload, args) -> list:
    """Seconds from spawning a fresh interpreter to its workload inputs being built."""
    from workloads import child_env

    if workload.in_process:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload.name, "--seed", str(args.seed)]
    else:
        cmd = [sys.executable, "-c", "import mbasis_lab.cli"]
    env = child_env(SRC)
    samples = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        samples.append((perf_counter() - started, proc.returncode, proc.stderr))
    return samples


def run_iteration(workload, inputs, iteration: int, tracer, traced: bool) -> dict:
    from workloads import run_op

    tracer.iteration = iteration
    tracer.enabled = traced
    patch = tracer.patched(workload.trace_targets()) if traced else contextlib.nullcontext()
    with patch:
        results = [run_op(op, tracer) for op in workload.ops(inputs, iteration)]
    tracer.enabled = False
    return {
        "iteration": iteration,
        "traced": traced,
        "seconds": sum(r.seconds for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "ops": results,
    }


def measure(workload, inputs, args, tracer) -> tuple[dict, list]:
    warmup = run_iteration(workload, inputs, 0, tracer, False)
    timed = []
    started = perf_counter()
    while True:
        iteration = len(timed) + 1
        timed.append(run_iteration(workload, inputs, iteration, tracer,
                                   bool(args.trace) and iteration % 2 == 0))
        elapsed = perf_counter() - started
        typical = median(it["seconds"] for it in timed)
        if len(timed) >= MIN_ITERATIONS[args.trace] and elapsed + typical > args.seconds:
            break
        if elapsed > OVERRUN_LIMIT * args.seconds:
            break
    return warmup, timed


def per_layer(warmup, timed, tracer) -> dict:
    plain = [it for it in timed if not it["traced"]]
    traced = [it for it in timed if it["traced"]]
    iterations = {it["iteration"] for it in traced}
    values = per_iteration(tracer.spans, iterations)
    imports = [end - start for name, start, end, _, it in tracer.spans
               if name == "cli.import" and it in iterations]
    values["cli.import_s"] = median(imports) if imports else 0.0
    values["proc.first_iter_s"] = warmup["seconds"]
    values["proc.cpu_s"] = median(it["cpu_s"] for it in plain)
    values["trace.overhead_frac"] = (median(it["seconds"] for it in traced)
                                     / median(it["seconds"] for it in plain) - 1.0)
    for name in {op.name for it in plain for op in it["ops"]}:
        ops = [op for it in plain for op in it["ops"] if op.name == name]
        values[f"{name}.s"] = median(op.seconds for op in ops)
        reported = [op.facts["run_json_s"] for op in ops if "run_json_s" in op.facts]
        if reported:
            values[f"{name}.run_json_s"] = median(reported)
    bytes_per_it = [sum(op.facts.get("artifact_bytes", 0) for op in it["ops"]) for it in plain]
    values["io.artifact_bytes"] = median(bytes_per_it)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mbasis_lab" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'mbasis_lab'}; run from a checkout",
              file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    # numpy loads with these imports, after the BLAS thread cap
    import mbasis_lab
    import workloads

    if Path(mbasis_lab.__file__).resolve().parent != (SRC / "mbasis_lab").resolve():
        print(f"perfbench: imported mbasis_lab from {mbasis_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{workload.name}-{os.getpid()}"
    if args.setup_probe:
        workload.prepare(args.seed, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("env " + json.dumps(environment(nproc)), flush=True)

    setup = [] if args.trace else time_setup(workload, args)
    tracer = Tracer()
    try:
        inputs = workload.prepare(args.seed, workdir)
        warmup, timed = measure(workload, inputs, args, tracer)
        if args.trace:
            OUT.mkdir(exist_ok=True)
            tracer.dump(str(OUT / f"spans-{workload.name}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for it in [warmup] + timed for op in it["ops"]]
    problems = [(op.name, p) for op in ops for p in op.problems]
    problems += [("setup", f"probe exit {rc}: {err.strip()[-300:]}")
                 for _, rc, err in setup if rc != 0]
    attempted = len(ops) + len(setup)
    failed = sum(1 for op in ops if op.problems) + sum(1 for _, rc, _ in setup if rc != 0)
    for name, problem in problems[:20]:
        print(f"FAILED {name}: {problem}", file=sys.stderr)

    plain = [it["seconds"] for it in timed if not it["traced"]]
    print(f"workload {workload.name} seed {args.seed}: warm-up {warmup['seconds']:.4f} s, "
          f"{len(timed)} timed iterations ({len(plain)} untraced)")
    print(f"fail_rate = {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")
    if args.trace:
        values = per_layer(warmup, timed, tracer)
        section = "per_layer"
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF if workload.in_process
                                   else resource.RUSAGE_CHILDREN)
        values = {
            "iter_s_p50": median(plain),
            "setup_s": median(s for s, _, _ in setup),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        section = "end_to_end"
    metrics = {}
    for spec in declared[section]:
        value = values.get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} = {value:.6g} {spec['unit']}")
    print(f"(iter_s_p50 over {len(plain)} iterations, setup_s over {len(setup)} "
          "fresh interpreters)" if not args.trace else "(medians over traced iterations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
