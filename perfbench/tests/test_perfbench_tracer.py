"""The span tracer leaves the program as it found it."""

import csv
import json

import pytest

import tracer
from fritpid.cli import main as cli_main


def _current(attributes):
    return [tracer._resolve(owner).__dict__[attr] for owner, attr, _ in attributes]


def test_wrappers_restore_every_attribute():
    before = _current(tracer.TRACED_ATTRIBUTES)
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t:
            during = _current(tracer.TRACED_ATTRIBUTES)
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("leave the block early")
    after = _current(tracer.TRACED_ATTRIBUTES)
    assert all(a is b for a, b in zip(before, after))


def test_traced_reproduce_writes_the_same_summary(tmp_path):
    argv = ["reproduce", "example3_io", "--seeds", "2"]
    assert cli_main(argv + ["--out-dir", str(tmp_path / "plain")]) == 0
    t = tracer.Tracer()
    with t:
        assert cli_main(argv + ["--out-dir", str(tmp_path / "traced")]) == 0
    plain = (tmp_path / "plain" / "example3_io" / "summary.json").read_bytes()
    traced = (tmp_path / "traced" / "example3_io" / "summary.json").read_bytes()
    assert plain == traced

    # the spans account for exactly the work the summary reports
    summary = json.loads(plain)["tuning"]
    metrics = tracer.layer_metrics(t.spans, rounds=1)
    assert metrics["l1_idfrit.evaluate.calls"] == summary["evaluations"]
    assert metrics["swarm_opt.minimize.stall_stops"] + metrics["swarm_opt.minimize.cap_stops"] == 1
    with open(tmp_path / "plain" / "example3_io" / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert metrics["swarm_opt.minimize.iterations"] == len(rows) - 1
    assert metrics["folib.realize.iopid_us"] > 0.0 and metrics["folib.realize.fopid_us"] == 0.0
