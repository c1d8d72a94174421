"""The package's public surface: what ``__all__`` and ``__init__`` promise
exists, and what was retired stays gone.

A name listed in ``__all__`` but not defined fails only ``import *``; a
re-export missing from its module's ``__all__`` hides it from the module's
own surface; and a retired definition that creeps back is code no command
reaches.  These checks read the sources, so they need no command run.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import mbasis_lab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mbasis_lab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

#: definitions no command, no other package function and no benchmark
#: workload reached; the rough-system chain, ``omega_set``,
#: ``block_duality_check``, the block-kind witness of
#: ``validate_block_partition`` and ``load_indices`` live on in
#: ``tests/oracles.py``.  Last, the sampled norming estimate's own SVD
#: basis, replaced by the kernel's, and its running minimum, folded into
#: the estimate
RETIRED = (
    "intersection_defect",
    "block_duality_check",
    "subseries_reconstruct",
    "SubseriesTrace",
    "RoughSystem",
    "rough_defect",
    "rough_separation",
    "extract_rough_system",
    "orthonormalized_duals",
    "greedy_rough_packing",
    "_pairing_defect",
    "validate_block_partition",
    "PartitionReport",
    "window_approximation_defect",
    "load_indices",
    "svd_basis",
    "norming_estimate_envelope",
)
RETIRED_MEMBERS = (
    ("pathology", "PermutationSpec", "pi_value"),
    ("pathology", "PermutationSpec", "omega_set"),
    ("perturbations", "BlockPartition", "eps_sum"),
    ("biorth", "IntervalFamily", "covers"),
    ("pathology", "PhiTable", "at"),
)
#: dataclass fields no command read; ``hasattr`` on the class cannot see
#: a field without a default, so these are looked up among its fields
RETIRED_FIELDS = (
    ("representing", "StrongPartitionTrace", "d_map"),
    ("perturbations", "FlatteningReport", "slack_tol"),
)


def module(name):
    return importlib.import_module(f"mbasis_lab.{name}")


def imports_from_package(path: Path):
    """(module, name) for every ``from mbasis_lab.<module> import name``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mbasis_lab."):
            for alias in node.names:
                yield node.module.rpartition(".")[2], alias.name


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_existing_definitions(name):
    mod = module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"mbasis_lab.{name}.__all__ names undefined {missing}"


def test_package_reexports_are_in_their_modules_all():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    stray = [(m, n) for m, n in reexports if n not in module(m).__all__]
    assert not stray, f"re-exported but not in the module's __all__: {stray}"


def test_imported_public_names_are_in_all():
    # perfbench and the tests import these by name; a module's __all__
    # must list every public name they rely on
    sources = [*ROOT.joinpath("perfbench").glob("*.py"), *ROOT.joinpath("tests").glob("*.py")]
    stray = sorted({(m, n) for path in sources for m, n in imports_from_package(path)
                    if not n.startswith("_") and hasattr(module(m), "__all__")
                    and n not in module(m).__all__})
    assert not stray, f"imported but not in the module's __all__: {stray}"


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_is_gone(name):
    holders = [mod.__name__ for mod in (mbasis_lab, *map(module, MODULES))
               if hasattr(mod, name)]
    assert not holders, f"{name} is still defined in {holders}"


@pytest.mark.parametrize("mod,cls,member", RETIRED_MEMBERS,
                         ids=[f"{c}.{m}" for _, c, m in RETIRED_MEMBERS])
def test_retired_member_is_gone(mod, cls, member):
    assert not hasattr(getattr(module(mod), cls), member)


@pytest.mark.parametrize("mod,cls,field", RETIRED_FIELDS,
                         ids=[f"{c}.{f}" for _, c, f in RETIRED_FIELDS])
def test_retired_field_is_gone(mod, cls, field):
    assert field not in {f.name for f in dataclasses.fields(getattr(module(mod), cls))}
