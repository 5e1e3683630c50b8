"""The benchmark's instrumentation targets exist in bumpsim.

perfbench/spans.py wraps bumpsim functions and methods by name, and counts a
name it cannot find as a failed operation. A rename that would break the
traced benchmark therefore fails here first.
"""

import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def spans():
    sys.path.insert(0, PERFBENCH)  # spans.py imports its sibling stats.py
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", os.path.join(PERFBENCH, "spans.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


def test_every_span_and_counter_target_resolves(spans):
    targets = [(path, attr) for path, attr, _ in spans.SPANS + spans.COUNTED]
    assert targets
    assert all(path.startswith("bumpsim.") for path, _ in targets)
    # Wrap each target with the identity, as the benchmark does with its
    # timers; wrap_all returns the ones it could not find.
    with spans.Patches() as patches:
        missing = patches.wrap_all(
            [(path, attr, lambda f: f) for path, attr in targets])
    assert missing == []
