"""Tier-1 stands alone: no module under tests/ imports the benchmark harness,
the exact oracle imports nothing from the package it checks, and hypothesis
draws the same examples on every run.

perfbench may import from tests/, never the other way round, so the suite
runs and passes in a checkout whatever state the harness is in.
"""

import ast
from pathlib import Path

from hypothesis import settings

TESTS = Path(__file__).resolve().parent


def _imports_of(package: str, source: str) -> list[str]:
    """Each import of ``package`` in ``source``: import statements, and
    ``import_module`` or ``__import__`` calls with a literal name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            names = [node.args[0].value] if called in ("import_module", "__import__") else []
        else:
            continue
        found += [name for name in names
                  if isinstance(name, str) and name.split(".")[0] == package]
    return found


def test_no_test_module_imports_perfbench():
    # The guard sees every form of import, and no other package.
    source = "\n".join([
        "import perfbench",
        "import numpy, perfbench.workloads as w",
        "from perfbench.oracle import expand",
        "import importlib",
        "importlib.import_module('perfbench.run')",
        "__import__('perfbench')",
        "from perfbenchmarks import x",  # another package
        "from . import perfbench",  # a sibling module, not the harness
    ])
    assert _imports_of("perfbench", source) == [
        "perfbench", "perfbench.workloads", "perfbench.oracle", "perfbench.run", "perfbench"]
    modules = sorted(TESTS.rglob("*.py"))
    assert TESTS / "mutation_gate.py" in modules and len(modules) >= 10
    offenders = {path.name: names for path in modules
                 if (names := _imports_of("perfbench", path.read_text()))}
    assert offenders == {}


def test_the_exact_oracle_imports_nothing_from_frsim():
    assert _imports_of("frsim", "import frsim.cli\nfrom frsim import x\nimport frsimx") == [
        "frsim.cli", "frsim"]
    assert _imports_of("frsim", (TESTS / "exact_oracle.py").read_text()) == []


def test_hypothesis_runs_the_deterministic_tier1_profile():
    # conftest.py's profile: a seed fixed per test, and no example database.
    assert settings.default.derandomize is True
    assert settings.default.database is None
