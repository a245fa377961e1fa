#!/usr/bin/env python3
"""Per-call cost of each layer of the loss and of grading, at the published theta*.

For every built-in case (or those named by --cases) this times, in
microseconds per call (timeit, the best of --repeat rounds, each of as
many calls as fill ROUND_SECONDS by the first call's time):

  realize              folib.realize on theta*
  fopid_sections       the FOPID realizer's raw parts (iopid_coeffs on
  / iopid_coeffs       the integer case)
  filter_parallel      C applied to the recorded output y0 (filter_tf on
  / filter_tf          the integer case)
  toeplitz_solve       the solve T(w) t = g of one evaluation
  reconstruct_output   the reconstruction of the loop output from t
  evaluate             one LossEvaluator.evaluate
  evaluate_batch_1     LossEvaluator.evaluate_batch on theta* alone
  evaluate_batch_50_per_row
                       evaluate_batch on 50 seeded +-5 % perturbations of
                       theta*, divided by 50
  validate             benchlab.validate on theta*

and prints one JSON object. Pin it to one CPU for steadier numbers, e.g.

  PYTHONPATH=src taskset -c 0 python scripts/layer_costs.py --cases example1
"""

import argparse
import json
import math
import platform
import sys
import timeit

import numpy as np
import scipy

from fritpid import benchlab
from fritpid.folib import ControllerKind, fopid_sections, iopid_coeffs, realize
from fritpid.l1_idfrit import reconstruct_output, toeplitz_solve
from fritpid.lti_core import filter_parallel, filter_tf, inverse_gain

BATCH_ROWS = 50
BATCH_SPREAD = 0.05
BATCH_SEED = 0
ROUND_SECONDS = 0.2


def _us_per_call(fn, repeat: int) -> float:
    timer = timeit.Timer(fn)
    number = max(1, math.ceil(ROUND_SECONDS / timer.timeit(1)))
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def case_costs(name: str, repeat: int) -> dict:
    case = benchlab.builtin_case(name)
    data = benchlab.collect_data(case)
    evaluator = benchlab.make_evaluator(case, data)
    theta = np.array(benchlab.reference_targets(name).theta_star)
    template = case.template
    y0, u0 = data.y0.samples, data.u0.samples

    # the loss path's stages on theta*, as LossEvaluator.evaluate runs them
    if template.kind is ControllerKind.FOPID:
        feedthrough, sections = fopid_sections(theta, template)
        stages = {
            "fopid_sections": lambda: fopid_sections(theta, template),
            "filter_parallel": lambda: filter_parallel(*sections, y0),
        }
    else:
        num, den = iopid_coeffs(theta, template)
        feedthrough = num[0]
        stages = {
            "iopid_coeffs": lambda: iopid_coeffs(theta, template),
            "filter_tf": lambda: filter_tf(num, den, y0),
        }
    k = inverse_gain(feedthrough)
    _, apply = stages.values()
    g = apply() * k
    w = u0 * k + g
    t = toeplitz_solve(w, g)
    # the record's reference increments, trimmed as the evaluator holds them
    dr0 = evaluator._dr0

    rng = np.random.default_rng(BATCH_SEED)
    rows = theta * (1.0 + BATCH_SPREAD * rng.uniform(-1.0, 1.0, (BATCH_ROWS, theta.size)))
    one_row = theta[None]

    calls = {
        "realize": lambda: realize(theta, template),
        **stages,
        "toeplitz_solve": lambda: toeplitz_solve(w, g),
        "reconstruct_output": lambda: reconstruct_output(dr0, t),
        "evaluate": lambda: evaluator.evaluate(theta),
        "evaluate_batch_1": lambda: evaluator.evaluate_batch(one_row),
        "evaluate_batch_50_per_row": lambda: evaluator.evaluate_batch(rows),
        "validate": lambda: benchlab.validate(case, theta),
    }
    costs = {layer: _us_per_call(fn, repeat) for layer, fn in calls.items()}
    costs["evaluate_batch_50_per_row"] /= BATCH_ROWS
    return {layer: round(us, 2) for layer, us in costs.items()}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--cases", nargs="+", choices=benchlab.CASE_NAMES, default=list(benchlab.CASE_NAMES)
    )
    parser.add_argument("--repeat", type=int, default=7, help="timeit rounds (default: 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    report = {
        "unit": "us per call",
        "timer": f"timeit, best of {args.repeat} rounds of {ROUND_SECONDS:g} s",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cases": {name: case_costs(name, args.repeat) for name in args.cases},
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(run())
