"""tools/mutants.py names each mutant by a string that occurs once.

Running the mutants takes minutes (`python tools/mutants.py`); this only
checks that each still applies to the tree.
"""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(ROOT, "tools", "mutants.py")
spec = importlib.util.spec_from_file_location("mutants_tool", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_old_string_occurs_once_and_changes(name):
    file, old, new = mutants.MUTANTS[name]
    with open(os.path.join(ROOT, file)) as f:
        assert f.read().count(old) == 1
    assert new != old
