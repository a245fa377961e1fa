"""The span tracer's targets exist in the program.

``perfbench/tracer.py`` replaces module attributes by name and reads each
one as ``owner.__dict__[attr]``, so an attribute the program stops
importing would end a traced benchmark run with a KeyError. The tracer
imports only the standard library, so it loads here by path.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "owner_name,attr",
    [(owner, attr) for owner, attr, _ in tracer.TRACED_ATTRIBUTES],
    ids=[f"{owner}.{attr}" for owner, attr, _ in tracer.TRACED_ATTRIBUTES],
)
def test_traced_attribute_exists(owner_name, attr):
    owner = tracer._resolve(owner_name)
    assert callable(owner.__dict__.get(attr)), f"{owner_name} has no attribute {attr}"
