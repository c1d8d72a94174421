"""Batch front-end: config parsing, pipeline dispatch, report emission.

Configuration is a line-oriented ``key = value`` text format (blank lines
and ``#`` comments allowed, unknown or duplicate keys rejected).  The keys
are the fields of :class:`ExperimentConfig`, with the fields of its
:class:`ToleranceConfig` in place of ``tol``; each key's type gives its
parser.  Every
run writes its artifacts plus a ``run.json`` manifest into the output
directory; failures leave a machine-readable ``failure.json`` naming the
violated condition and exit nonzero.

Usage: ``mbasis-lab <command> [--config FILE] [--out DIR] [--seed N]
[--truncation N] [--partition FILE] [--auto-strong]`` with commands
build-system, perturb, represent, pathology, unb; ``--partition`` and
``--auto-strong`` are perturb's.  The ``MBASIS_LOG`` environment variable
sets verbosity.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import math
import os
import sys as _sys
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .biorth import BiorthSystem, biorthogonality_defect, boundedness_constant
from .errors import ArgumentError, ConstructionError
from . import io as mio
from .pathology import (
    build_permutation,
    build_phi,
    build_pathological_system,
    default_eps_sequence,
    omega_stats,
    operator_T,
    unb_experiment,
)
from .perturbations import construct_flattened, verify_flattened
from .representing import (
    build_norming_indices,
    build_representing_indices,
    strong_partition,
)
from .subspace import ToleranceConfig

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "run", "emit_report", "main"]

log = logging.getLogger("mbasis_lab")

COMMANDS = ("build-system", "perturb", "represent", "pathology", "unb")


class ConfigError(ArgumentError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Every config key but the tolerances, which ``tol`` carries."""

    command: str = ""
    truncation: int = 64
    seed: int = 0
    out: str = "mbasis_out"
    kind: str = "canonical"
    input_system: str = ""
    partition: str = ""
    auto_strong: bool = False
    depth: int = 6
    blocks: int = 2
    variant: str = "plain"
    c: float = 0.0
    eps: tuple[float, ...] = ()
    sizes: tuple[int, ...] = (64, 128, 256)
    cs: tuple[int, ...] = (1, 2, 4)
    m_bound: float = 2.0
    tol: ToleranceConfig = ToleranceConfig()


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text}")


def _parser(kind):
    """The parser of a config value of type ``kind``: a bool word, a comma-
    or space-separated list for a tuple, else the type itself."""
    if kind is bool:
        return _parse_bool
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return lambda text: tuple(item(tok) for tok in text.replace(",", " ").split())
    return kind


def _key_fields():
    """The field of every config key, in ``--help`` order."""
    for f in fields(ExperimentConfig):
        yield from fields(f.default) if isinstance(f.default, ToleranceConfig) else (f,)


_TYPES = {**get_type_hints(ExperimentConfig), **get_type_hints(ToleranceConfig)}
_PARSERS = {f.name: _parser(_TYPES[f.name]) for f in _key_fields()}


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.command not in COMMANDS:
        raise ConfigError(
            f"command is required and must be one of {', '.join(COMMANDS)}"
            + (f"; got '{cfg.command}'" if cfg.command else "")
        )
    if cfg.truncation < 2:
        raise ConfigError(f"truncation must be at least 2, got {cfg.truncation}")
    if cfg.depth < 1:
        raise ConfigError("depth must be at least 1")
    if cfg.blocks < 1:
        raise ConfigError("blocks must be at least 1")
    if cfg.variant not in ("plain", "norming"):
        raise ConfigError(f"variant must be plain or norming, got '{cfg.variant}'")
    if cfg.kind not in ("canonical", "pathological"):
        raise ConfigError(f"kind must be canonical or pathological, got '{cfg.kind}'")
    for key in ("sizes", "cs"):
        if not getattr(cfg, key):
            raise ConfigError(f"{key} must list at least one entry")
    if any(s < 4 for s in cfg.sizes):
        raise ConfigError("sizes entries must be at least 4")
    if any(c < 1 for c in cfg.cs):
        raise ConfigError("cs entries must be positive")
    if not 0 <= cfg.c < math.inf:
        raise ConfigError(f"c must be finite and nonnegative (0 for the default), got {cfg.c}")
    if not 1 <= cfg.m_bound < math.inf:
        raise ConfigError(f"m_bound must be finite and at least 1, got {cfg.m_bound}")
    return cfg


def parse_config(source: str, default_command: str = "") -> ExperimentConfig:
    """Parse the ``key = value`` text into a validated config."""
    values: dict = {}
    for ln, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got '{line}'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {ln}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {ln}: duplicate key '{key}'")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {ln}: bad value for '{key}': {exc}")
    if "command" not in values and default_command:
        values["command"] = default_command
    # the tolerances are checked after every other key
    tolerances = {f.name: values.pop(f.name) for f in fields(ToleranceConfig)
                  if f.name in values}
    cfg = _validate(ExperimentConfig(**values))
    try:
        return replace(cfg, tol=ToleranceConfig(**tolerances))
    except ArgumentError as exc:
        raise ConfigError(str(exc)) from exc


def emit_report(rows, columns, out_dir: str, name: str):
    """Write a report as a deterministic CSV plus its JSON mirror."""
    os.makedirs(out_dir, exist_ok=True)
    mio.write_report_csv(rows, columns, os.path.join(out_dir, f"{name}.csv"))
    mio.write_report_json({"columns": list(columns), "rows": [list(r) for r in rows]},
                          os.path.join(out_dir, f"{name}.json"))


def _load_or_canonical(cfg: ExperimentConfig) -> BiorthSystem:
    if cfg.input_system:
        return mio.load_system(cfg.input_system)
    return BiorthSystem.canonical(cfg.truncation, tol=cfg.tol)


def _cmd_build_system(cfg: ExperimentConfig, out: str) -> dict:
    if cfg.kind == "canonical":
        system = BiorthSystem.canonical(cfg.truncation, tol=cfg.tol)
        extras: dict = {}
    else:
        N = cfg.truncation
        phi = build_phi(lambda n: float(n), 4 * N)
        spec = build_permutation(phi, 4 * N)
        eps = np.asarray(cfg.eps, dtype=float) if cfg.eps else default_eps_sequence(N)
        system, E = build_pathological_system(spec, eps, N, tol=cfg.tol)
        mio.write_matrix_csv(E, os.path.join(out, "E.csv"))
        extras = {"ambient": system.ambient_dim}
    mio.save_system(system, os.path.join(out, "system"))
    emit_report(
        [("size", system.size), ("defect", biorthogonality_defect(system)),
         ("boundedness", boundedness_constant(system))],
        ("metric", "value"), out, "system_report")
    return {"system": "system", "size": system.size, **extras}


def _cmd_perturb(cfg: ExperimentConfig, out: str) -> dict:
    system = _load_or_canonical(cfg)
    if cfg.partition:
        partition = mio.load_partition(cfg.partition)
    elif cfg.auto_strong:
        r = build_representing_indices(system, cfg.depth)
        trace = strong_partition(r, cfg.blocks,
                                 eps=cfg.eps if cfg.eps else None)
        partition = trace.partition
        if partition.covered != set(range(1, system.size + 1)):
            system = system.prefix(max(partition.covered))
    else:
        raise ArgumentError("perturb needs a partition file or auto_strong = true")
    flattened = construct_flattened(system, partition, cfg.seed)
    report = verify_flattened(flattened, system, partition)
    mio.save_system(flattened, os.path.join(out, "flattened"))
    mio.save_partition(partition, os.path.join(out, "partition.txt"))
    rows = [(b.j, b.vector_gap, b.dual_gap, b.worst_slack) for b in report.blocks]
    emit_report(rows, ("block", "vector_gap", "dual_gap", "worst_slack"),
                out, "flattening_report")
    if not report.passed:
        raise ConstructionError("flattening verification failed; see flattening_report")
    return {"blocks": partition.count, "passed": report.passed}


def _cmd_represent(cfg: ExperimentConfig, out: str) -> dict:
    system = _load_or_canonical(cfg)
    if cfg.variant == "norming":
        indices = build_norming_indices(system, cfg.depth, cfg.c or None)
    else:
        indices = build_representing_indices(system, cfg.depth)
    mio.save_indices(indices, os.path.join(out, "indices.txt"))
    rows = [(m, v, p, d) for m, (v, p, d) in enumerate(
        zip(indices.values, indices.interim_p, indices.deltas), start=1)]
    emit_report(rows, ("m", "r", "p", "delta"), out, "indices_report")
    return {"depth": indices.depth, "r_max": indices.values[-1],
            "norming_c": indices.norming_c}


def _cmd_pathology(cfg: ExperimentConfig, out: str) -> dict:
    N = cfg.truncation
    table_len = max(cfg.cs) * N
    phi = build_phi(lambda n: float(n), table_len)
    spec = build_permutation(phi, table_len)
    stats = omega_stats(spec, cfg.cs, N)
    mio.save_permutation(spec, os.path.join(out, "permutation.txt"), upto=N)
    rows = list(zip(stats.grid_m, stats.omega, stats.two_phi))
    emit_report(rows, ("m", "omega", "two_phi"), out, "omega_growth")
    eps = np.asarray(cfg.eps, dtype=float) if cfg.eps else default_eps_sequence(N)
    system, E = build_pathological_system(spec, eps, N, tol=cfg.tol)
    top = operator_T(E, system.ambient_dim, eps_seq=eps, tol=cfg.tol)
    mio.save_system(system, os.path.join(out, "system"))
    mio.write_matrix_csv(E, os.path.join(out, "E.csv"))
    emit_report(
        [("defect", biorthogonality_defect(system)), ("norm_T", top.norm),
         ("norm_T_inv", top.norm_inv)],
        ("metric", "value"), out, "pathology_report")
    return {"ambient": system.ambient_dim, "norm_T": top.norm, "norm_T_inv": top.norm_inv}


def _cmd_unb(cfg: ExperimentConfig, out: str) -> dict:
    report = unb_experiment(lambda m: float(m), cfg.m_bound, cfg.sizes, cfg.seed,
                            tol=cfg.tol)
    for run_data in report.runs:
        emit_report(run_data.rows, report.columns, out,
                    f"unb_{run_data.truncation}")
    ok = report.control_ok and all(
        r.bracket_ok and r.capacity_ok and r.ratio_monotone for r in report.runs)
    summary = {
        "control_ok": report.control_ok,
        "runs": [{f.name: getattr(r, f.name) for f in fields(r) if f.name != "rows"}
                 for r in report.runs],
    }
    mio.write_report_json(summary, os.path.join(out, "unb_summary.json"))
    if not ok:
        raise ConstructionError("growth-table invariants failed; see unb_summary.json")
    return summary


_DISPATCH = {
    "build-system": _cmd_build_system,
    "perturb": _cmd_perturb,
    "represent": _cmd_represent,
    "pathology": _cmd_pathology,
    "unb": _cmd_unb,
}


def _blas() -> dict:
    """The BLAS numpy was built with, for ``run.json``: the name and version
    from ``numpy.show_config``, and the thread count from the OpenBLAS
    getter of a library mapped into this process (``/proc/self/maps``), or
    None where none is found.  The flattened artifacts depend on that
    count through the LU of the dual solves."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    getters = (getattr(ctypes.CDLL(lib), symbol, None) for lib in libs
               for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"))
    getter = next((g for g in getters if g is not None), None)
    threads = None if getter is None else int(getter())
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured command; 0 iff every asserted invariant passed."""
    out = cfg.out
    os.makedirs(out, exist_ok=True)
    started = time.time()
    try:
        summary = _DISPATCH[cfg.command](cfg, out)
    except (ArgumentError, ConstructionError) as exc:
        record = {
            "module": type(exc).__module__ + "." + type(exc).__qualname__,
            "operation": cfg.command,
            "invariant": str(exc),
        }
        mio.write_report_json(record, os.path.join(out, "failure.json"))
        print(json.dumps(record), file=_sys.stderr)
        return 1
    manifest = {
        "command": cfg.command,
        "seed": cfg.seed,
        "truncation": cfg.truncation,
        "tolerances": asdict(cfg.tol),
        "grid": {"sizes": list(cfg.sizes), "cs": list(cfg.cs)},
        "version": __version__,
        "numpy": np.__version__,
        "blas": _blas(),
        "wall_time_s": round(time.time() - started, 3),
        "summary": summary,
    }
    with open(os.path.join(out, "run.json"), "w") as fh:
        json.dump(mio._clean(manifest), fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


def _log_level(name: str) -> int:
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise ConfigError("MBASIS_LOG must be one of DEBUG, INFO, WARNING, ERROR, "
                          f"CRITICAL; got '{name}'")
    return level


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mbasis-lab",
        description="Finite-truncation experiments on biorthogonal systems.",
        epilog=(
            "Config keys and defaults: "
            + ", ".join(f"{f.name}={f.default!r}" for f in _key_fields()
                        if f.name != "command")
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--truncation", type=int, help="truncation override")
    parser.add_argument("--partition", help="partition file (perturb)")
    parser.add_argument("--auto-strong", action="store_true", default=None,
                        help="derive the partition from representing indices (perturb)")
    args = parser.parse_args(argv)

    try:
        logging.basicConfig(level=_log_level(os.environ.get("MBASIS_LOG", "WARNING")))
        if args.config:
            with open(args.config) as fh:
                cfg = parse_config(fh.read(), default_command=args.command)
            if cfg.command != args.command:
                raise ConfigError(
                    f"config file commands '{cfg.command}' but the command line "
                    f"says '{args.command}'"
                )
        else:
            cfg = ExperimentConfig(command=args.command)
        # each option's dest is the name of the field it overrides
        overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                     if getattr(args, f.name, None) is not None}
        cfg = _validate(replace(cfg, **overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    log.info("running %s into %s", cfg.command, cfg.out)
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
