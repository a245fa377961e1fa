"""The benchmark's grading checks pass on what the program returns.

``perfbench/workloads.py`` grades each ``benchlab.validate`` report
against its own dense oracles. To do so it reads the realized
controller's zeros, poles and gain, the fictitious reference (through
``l1_idfrit.fictitious_reference``), the reference model's coefficients
and the report's step traces. The name checks of
``test_perfbench_imports.py`` and ``test_trace_targets.py`` miss a change
to what those objects hold, which would otherwise first show up as a
failed benchmark run. The harness modules import each other by plain
name, so ``perfbench/`` goes on the path, as
``perfbench/tests/conftest.py`` puts it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from fritpid.benchlab import CASE_NAMES, builtin_case, validate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

CASES = {name: builtin_case(name) for name in CASE_NAMES}


@pytest.fixture(scope="module")
def checker():
    return workloads.GradeChecker(CASES)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_validation_at_theta_star_passes_the_grade_checks(checker, name):
    theta = np.asarray(workloads.PUBLISHED[name]["theta_star"], dtype=float)
    op = workloads.Op(f"validate {name}", output=validate(CASES[name], theta))
    checker.check(op, name, theta)
    assert op.problems == []
