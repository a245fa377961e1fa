"""The README's Python examples run as written."""

import math
import re
from pathlib import Path

from fritpid.benchlab import builtin_case, collect_data

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(marker: str) -> str:
    """The one fenced python block of the README that contains ``marker``."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    (block,) = [b for b in blocks if marker in b]
    return block


def test_tuning_from_your_own_data_runs_as_written(capsys):
    data = collect_data(builtin_case("example3_io"))
    namespace = {
        "r0_samples": data.r0.samples,
        "u0_samples": data.u0.samples,
        "y0_samples": data.y0.samples,
    }
    code = compile(python_block("make_evaluator(config, record)"), str(README), "exec")
    exec(code, namespace)
    result = namespace["result"]
    assert [r.seed for r in result.seed_results] == [1, 2, 3]
    assert math.isfinite(result.j_star) and not result.breakdown_star.penalized
    assert "[1, 2, 3]" in capsys.readouterr().out
