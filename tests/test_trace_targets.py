"""The span tracer's targets exist in the program, and the loss path calls
the ones it times.

``perfbench/tracer.py`` replaces module attributes by name and reads each
one as ``owner.__dict__[attr]``, so an attribute the program stops
importing would end a traced benchmark run with a KeyError. The tracer
imports only the standard library, so it loads here by path.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fritpid import l1_idfrit
from fritpid.folib import ControllerKind, ControllerTemplate
from fritpid.lti_core import DiscreteTf, Signal

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


def test_one_clean_evaluation_calls_each_live_span_once(monkeypatch):
    # the tracer times the loss path through these two module attributes;
    # an evaluator that stopped looking them up would leave their spans at 0
    ts = 0.1
    n = 81
    r0 = Signal(np.ones(n), ts)
    y0 = Signal(1.0 - 0.5 ** np.arange(1, n + 1), ts)
    u0 = Signal(np.full(n, 0.5), ts)
    ev = l1_idfrit.LossEvaluator(
        ControllerTemplate(ControllerKind.IOPID, ts),
        l1_idfrit.ExperimentRecord(r0, u0, y0),
        DiscreteTf([0.5], [1.0, -0.5], ts),
    )
    calls = {}
    for name in ("toeplitz_solve", "reconstruct_output"):
        original = getattr(l1_idfrit, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(l1_idfrit, name, counted)
    assert not ev.evaluate([0.3, 0.1, 0.0]).penalized
    assert calls == {"toeplitz_solve": 1, "reconstruct_output": 1}
