"""Smoke test of scripts/layer_costs.py, the per-layer cost report."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "layer_costs.py"


def test_reports_every_layer_of_one_case(capsys):
    spec = importlib.util.spec_from_file_location("layer_costs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # rounds of a millisecond: the smoke test checks the report, not the times
    script.ROUND_SECONDS = 1e-3
    assert script.run(["--cases", "example3_fo", "--repeat", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    costs = report["cases"]
    assert list(costs) == ["example3_fo"]
    assert list(costs["example3_fo"]) == [
        "realize",
        "fopid_sections",
        "filter_parallel",
        "toeplitz_solve",
        "reconstruct_output",
        "evaluate",
        "evaluate_batch_1",
        "evaluate_batch_50_per_row",
        "validate",
    ]
    assert all(us > 0.0 for us in costs["example3_fo"].values())
