"""Artifact serialization: CSV matrices, partitions, index tables, reports.

All numeric text uses 12 significant digits so artifacts are byte-stable
across runs with identical inputs.  Matrices are stored one vector per
row.  The matrix writer formats each distinct float64 bit pattern once
and assembles rows from that table; the text is exactly what formatting
every cell with :func:`fmt` gives.  A biorthogonal system is a directory
holding ``X.csv``, ``F.csv`` and a ``header.txt`` of ``key = value``
lines: ``ambient_dim``, then one line per field of :class:`ToleranceConfig`.
The reader skips keys it does not know, so headers of earlier versions
load, and takes a missing tolerance at its default.  Reading a missing or
malformed stored system or partition, or one its constructor refuses,
raises :class:`ArgumentError` naming the file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields

import numpy as np

from .biorth import BiorthSystem
from .errors import ArgumentError
from .perturbations import BlockPartition
from .representing import RepresentingIndices
from .pathology import PermutationSpec
from .subspace import ToleranceConfig

__all__ = [
    "fmt",
    "write_matrix_csv",
    "read_matrix_csv",
    "save_system",
    "load_system",
    "save_partition",
    "load_partition",
    "save_indices",
    "save_permutation",
    "write_report_csv",
    "write_report_json",
]


def fmt(value) -> str:
    """Fixed 12-significant-digit formatting for floats; plain for ints."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.12g}"


#: cells per block of rows handed to :func:`np.unique`; bounds the writer's
#: working memory to a few MB whatever the matrix size
_WRITE_BLOCK_CELLS = 1 << 16


def write_matrix_csv(M: np.ndarray, path: str):
    """One row of ``M`` per line, each cell as :func:`fmt` writes it.

    Cells are keyed by their float64 bit pattern, so -0.0 and 0.0 (and NaN
    payloads) keep their own text; ``"%.12g"`` equals :func:`fmt` on every
    float, infinities and NaN included.
    """
    M = np.ascontiguousarray(np.atleast_2d(np.asarray(M, dtype=float)))
    step = max(1, _WRITE_BLOCK_CELLS // max(1, M.shape[1]))
    with open(path, "w", newline="") as fh:
        for start in range(0, M.shape[0], step):
            block = M[start:start + step]
            keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
            text = np.array(["%.12g" % v for v in keys.view(np.float64).tolist()],
                            dtype=object)
            fh.writelines(",".join(row) + "\n"
                          for row in text[inverse.reshape(block.shape)].tolist())


def _open_text(path: str):
    try:
        return open(path)
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc.strerror}") from exc


def read_matrix_csv(path: str) -> np.ndarray:
    rows = []
    with _open_text(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    rows.append([float(tok) for tok in line.split(",")])
                except ValueError as exc:
                    raise ArgumentError(f"{path}:{ln}: malformed matrix row ({exc})")
    if not rows:
        return np.zeros((0, 0))
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ArgumentError(f"ragged matrix rows in {path}")
    return np.asarray(rows, dtype=float)


def save_system(sys: BiorthSystem, directory: str):
    os.makedirs(directory, exist_ok=True)
    write_matrix_csv(sys.xs, os.path.join(directory, "X.csv"))
    write_matrix_csv(sys.fs, os.path.join(directory, "F.csv"))
    with open(os.path.join(directory, "header.txt"), "w") as fh:
        fh.write(f"ambient_dim = {sys.ambient_dim}\n")
        for f in fields(ToleranceConfig):
            fh.write(f"{f.name} = {fmt(getattr(sys.tol, f.name))}\n")


def load_system(directory: str) -> BiorthSystem:
    """The stored system of ``directory``, validated as it loads."""
    X = read_matrix_csv(os.path.join(directory, "X.csv"))
    F = read_matrix_csv(os.path.join(directory, "F.csv"))
    header_path = os.path.join(directory, "header.txt")
    header = {}
    with _open_text(header_path) as fh:
        for line in fh:
            if "=" in line:
                k, v = line.split("=", 1)
                header[k.strip()] = v.strip()
    try:
        ambient_dim = int(header["ambient_dim"])
        tol = ToleranceConfig(**{f.name: float(header[f.name]) for f in fields(ToleranceConfig)
                                 if f.name in header})
    except KeyError as exc:
        raise ArgumentError(f"{header_path}: missing key {exc}")
    except ValueError as exc:
        raise ArgumentError(f"{header_path}: malformed value ({exc})")
    try:
        return BiorthSystem(X, F, ambient_dim=ambient_dim, tol=tol).validate()
    except ArgumentError as exc:
        raise ArgumentError(f"{directory}: {exc}") from exc


def save_partition(p: BlockPartition, path: str):
    """Lines of the form ``A j: n(j) | members | eps``."""
    with open(path, "w") as fh:
        for j, (blk, anchor, eps) in enumerate(
                zip(p.blocks, p.anchors, p.epsilons), start=1):
            members = " ".join(str(i) for i in blk)
            fh.write(f"A {j}: {anchor} | {members} | {fmt(eps)}\n")


def load_partition(path: str) -> BlockPartition:
    blocks, anchors, eps = [], [], []
    with _open_text(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                head, rest = line.split(":", 1)
                if not head.strip().startswith("A"):
                    raise ValueError("missing block marker")
                anchor_s, members_s, eps_s = (part.strip() for part in rest.split("|"))
                anchors.append(int(anchor_s))
                blocks.append(tuple(int(t) for t in members_s.split()))
                eps.append(float(eps_s))
            except ValueError as exc:
                raise ArgumentError(f"{path}:{ln}: malformed partition line ({exc})")
    try:
        return BlockPartition(tuple(blocks), tuple(anchors), tuple(eps))
    except ArgumentError as exc:
        raise ArgumentError(f"{path}: {exc}") from exc


def save_indices(r: RepresentingIndices, path: str):
    """Lines ``m r(m) p(m) delta(m)``."""
    with open(path, "w") as fh:
        for i, (val, p, d) in enumerate(zip(r.values, r.interim_p, r.deltas), start=1):
            fh.write(f"{i} {val} {p} {fmt(d)}\n")


def save_permutation(spec: PermutationSpec, path: str, upto: int | None = None):
    """Text table ``n phi Phi inGamma pi``; -1 marks beyond-table values."""
    upto = spec.N if upto is None else min(int(upto), spec.N)
    n = np.arange(1, upto + 1)
    table = np.column_stack([n, spec.phi[:upto], spec.Phi[:upto],
                             np.isin(n, spec.Gamma), spec.pi[:upto]])
    np.savetxt(path, table, fmt="%d", header="n phi Phi inGamma pi", comments="")


def _clean(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v) or math.isnan(v):
            return str(v)
        return float(fmt(v))
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    return value


def write_report_csv(rows, columns, path: str):
    """Deterministic CSV: fixed column order, 12 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns))
        fh.write("\n")
        for row in rows:
            if len(row) != len(columns):
                raise ArgumentError("row width does not match the column list")
            fh.write(",".join(fmt(v) for v in row))
            fh.write("\n")


def write_report_json(payload: dict, path: str):
    """JSON mirror of a report; keys sorted, values pinned to 12 digits."""
    with open(path, "w") as fh:
        json.dump(_clean(payload), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
