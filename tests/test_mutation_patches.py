"""Every patch of the mutation gate applies to the checkout as it stands.

The gate (``tests/mutation_gate.py``) runs its mutants' tests in pytest
subprocesses, about 2.5 minutes, outside tier-1.  This check only reads files,
so an edit to a mutated line, or to the name of a test that kills a mutant,
fails tier-1 at once.  So does a call of ``tensor.require``, the one check of
every physical invariant, that no mutant patches.  The gate is loaded by path
and nothing is run.
"""

import ast
import importlib.util
import re
from itertools import accumulate
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def _load_gate():
    spec = importlib.util.spec_from_file_location("mutation_gate", TESTS / "mutation_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


GATE = _load_gate()


@pytest.mark.parametrize("mutant", GATE.MUTANTS + GATE.EQUIVALENT, ids=lambda mutant: mutant.name)
def test_each_patch_occurs_once_in_its_file(mutant):
    assert (GATE.ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", GATE.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_killing_test_exists(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        name = name.partition("[")[0]
        assert re.search(rf"^def {name}\(", (GATE.ROOT / path).read_text(), re.M), test


def _functions(tree):
    """(name, node) of each function of a module, a method named with its class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method


def _require_calls():
    """(id, file, first byte, end byte) of each call of require in src/frsim;
    the id names the module and the function holding the call, and the call's
    rank in it if it holds more than one."""
    calls = []
    for path in sorted((GATE.ROOT / "src/frsim").glob("*.py")):
        source = path.read_bytes()
        starts = [0, *accumulate(map(len, source.splitlines(keepends=True)))]
        tree = ast.parse(source)
        spans = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require":
                holder = next((name for name, function in _functions(tree)
                               if function.lineno <= node.lineno <= function.end_lineno),
                              "<module>")
                spans.setdefault(holder, []).append((
                    starts[node.lineno - 1] + node.col_offset,
                    starts[node.end_lineno - 1] + node.end_col_offset))
        for holder, held in spans.items():
            for rank, (start, end) in enumerate(sorted(held), 1):
                where = f"{path.stem}.{holder}" + (f"-{rank}" if len(held) > 1 else "")
                calls.append((where, path.relative_to(GATE.ROOT).as_posix(), start, end))
    return calls


REQUIRE_CALLS = _require_calls()


def test_every_invariant_module_calls_require():
    files = {file for _, file, *_ in REQUIRE_CALLS}
    assert {"src/frsim/tensor.py", "src/frsim/measurement.py", "src/frsim/protocol.py",
            "src/frsim/reference.py"} <= files
    assert len(REQUIRE_CALLS) >= 12


@pytest.mark.parametrize("where, file, start, end", REQUIRE_CALLS,
                         ids=[where for where, *_ in REQUIRE_CALLS])
def test_each_require_call_has_a_mutant(where, file, start, end):
    # A mutant covers a call when its old text overlaps the call's text.
    source = (GATE.ROOT / file).read_bytes()
    covered = []
    for mutant in GATE.MUTANTS:
        old = mutant.old.encode()
        if mutant.file == file and old in source:
            at = source.index(old)
            if at < end and start < at + len(old):
                covered.append(mutant.name)
    assert covered, f"no mutant patches the require call in {where}"
