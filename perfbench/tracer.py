"""In-memory spans recorded from the benchmark's own call sites.

A span is (name, start, end, parent, iteration).  Names are
``<module>.<function>[.<case>]``, so the first dotted component names the
layer a span's self time is charged to.  Nothing is recorded while the
tracer is disabled, and :meth:`Tracer.patched` rebinds module attributes
only for the duration of a traced iteration, so untraced iterations run
the program's functions unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import json
from statistics import median
from time import perf_counter

#: subspace primitives wrapped in traced iterations, under the names their
#: importing modules bind them to; ``span_matrix`` is a cheap helper called
#: far more often than it costs, so it stays unwrapped
SUBSPACE_FUNCTIONS = ("orthonormal_rows", "span_gap", "span_equal", "directed_span_gap",
                      "distance_to_span", "project", "dual_solve")
SUBSPACE_IMPORTERS = ("subspace", "biorth", "perturbations", "representing", "pathology")


class Tracer:
    """Span recorder; disabled tracers call straight through."""

    def __init__(self):
        self.enabled = False
        self.iteration = None
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else None,
                self.iteration]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[list]):
        """Append spans recorded by a child process under the current span.

        ``perf_counter`` reads the system-wide monotonic clock on Linux,
        so a child's timestamps share this process's time line.
        """
        base = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, top if parent is None else base + parent,
                               self.iteration])

    @contextlib.contextmanager
    def patched(self, targets):
        """Rebind ``(module, attribute, span name)`` targets to tracing wrappers."""
        saved = []
        wrappers: dict = {}
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def subspace_targets(package) -> list:
    """Wrapping targets for the subspace primitives wherever they are bound."""
    subspace = package.subspace
    targets = []
    for modname in SUBSPACE_IMPORTERS:
        module = getattr(package, modname)
        for fn in SUBSPACE_FUNCTIONS:
            if getattr(module, fn, None) is getattr(subspace, fn):
                targets.append((module, fn, f"subspace.{fn}"))
    return targets


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def per_iteration(spans, iterations) -> dict:
    """Medians over traced iterations of per-name and per-layer totals.

    Returns ``{"<name>.s": .., "<name>.calls": .., "layer.<layer>.self_s": ..}``;
    a name absent from some iteration counts as zero there.
    """
    selfs = self_times(spans)
    per_it: dict = {it: {} for it in iterations}
    for (name, start, end, _, it), own in zip(spans, selfs):
        if it not in per_it:
            continue
        acc = per_it[it]
        acc[f"{name}.s"] = acc.get(f"{name}.s", 0.0) + (end - start)
        acc[f"{name}.calls"] = acc.get(f"{name}.calls", 0) + 1
        layer = f"layer.{name.split('.')[0]}.self_s"
        acc[layer] = acc.get(layer, 0.0) + own
    keys = set().union(*per_it.values()) if per_it else set()
    return {k: median(acc.get(k, 0) for acc in per_it.values()) for k in keys}
