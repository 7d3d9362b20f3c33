"""Every patch of the mutation gate applies to the checkout as it stands.

The gate (``tests/mutation_gate.py``) runs its mutants' tests in pytest
subprocesses, about 85–90 s, outside tier-1.  This check only reads files, so
an edit to a mutated line, or to the name of a test that kills a mutant,
fails tier-1 at once.  The gate is loaded by path and nothing is run.
"""

import importlib.util
import re
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
