"""One traced CLI session: the ``mbasis-lab`` entry point with spans.

Usage: ``python3 perfbench/cli_child.py SPANS_JSON <mbasis-lab arguments>``
with ``src`` on ``PYTHONPATH``.  Spans cover the import of
``mbasis_lab.cli``, ``main``, every ``mbasis_lab.io`` writer, the subspace
primitives and the library functions ``cli`` calls; they are written to
SPANS_JSON when ``main`` returns, and the exit code is ``main``'s.
"""

import importlib
import inspect
import sys

from tracer import Tracer, subspace_targets

LIBRARY_MODULES = ("biorth", "pathology", "perturbations", "representing")


def targets(package, cli) -> list:
    out = subspace_targets(package)
    io = package.io
    out += [(io, name, f"io.{name}") for name in io.__all__ if name != "fmt"]
    for attr, value in vars(cli).items():
        module = getattr(value, "__module__", "")
        if inspect.isfunction(value) and module.rpartition(".")[2] in LIBRARY_MODULES:
            out.append((cli, attr, f"{module.rpartition('.')[2]}.{attr}"))
    return out


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.enabled = True
    cli = tracer.call("cli.import", importlib.import_module, "mbasis_lab.cli")
    with tracer.patched(targets(sys.modules["mbasis_lab"], cli)):
        code = tracer.call("cli.main", cli.main, argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
