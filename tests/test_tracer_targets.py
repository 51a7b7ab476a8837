"""Every attribute the benchmark tracer wraps still exists where the tracer looks for it.

perfbench/tracer.py wraps module and class attributes by name and skips a
name that no longer resolves, so a renamed or deleted function would
silently drop out of the traced counters. The tracer is loaded from its
file, as the benchmark harness runs it, without importing perfbench.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "target", sorted({target for target, _, _ in (*tracer.LIBRARY_PATCHES, *tracer.CLI_PATCHES)}))
def test_target_is_an_attribute_of_its_owner(target):
    owner, attr = tracer._resolve(target)
    assert attr in vars(owner), f"{target} does not resolve"
