"""Steadiness check: run one workload as two separate sets of runs.

    python3 perfbench/steady.py --workload grade --runs 5

Every run is a fresh ``perfbench/run.py`` process with ``--trace 0`` and
the ``run_seconds`` of BENCHMARK.json. Set A uses the workload seeds
``1 .. runs`` and set B the ``runs`` seeds after those, so the two sets
share no seed. For each end-to-end metric the command prints each set's
median and quartiles (``statistics.quantiles`` with n = 4), the spread
(q3 - q1) / median of each set and of both pooled, and whether the sets
agree within the metric's BENCHMARK.json bound:

  * each set's spread is within the bound;
  * the two medians differ by at most the bound, as a share of set A's,
    in either direction;
  * both sets fail the same share of their operations.

The last line of standard output is a JSON object with the verdict; the
exit code is 0 when the sets agree and 1 when they do not.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5, help="runs per set (default 5)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = {}
    for label, offset in (("A", 0), ("B", args.runs)):
        results = []
        for i in range(args.runs):
            seed = 1 + offset + i
            res = one_run(args.workload, seed, spec["run_seconds"])
            results.append(res)
            values = ", ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"set {label} seed {seed}: {values}; attempted {res['attempted']}, "
                  f"failed {res['failed']}, correct {res['correct']}", flush=True)
        sets[label] = results

    agree = True
    report = {}
    shares = {}
    for label, results in sets.items():
        shares[label] = (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))
        if not all(r["correct"] for r in results):
            agree = False
    if shares["A"][0] * shares["B"][1] != shares["B"][0] * shares["A"][1]:
        agree = False
    print(f"failed/attempted: A {shares['A'][0]}/{shares['A'][1]}, "
          f"B {shares['B'][0]}/{shares['B'][1]}")
    print(f"{'metric':14s} {'set':4s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = {label: summarize([r["metrics"][name]["value"] for r in results])
                 for label, results in sets.items()}
        pooled = summarize([r["metrics"][name]["value"]
                            for results in sets.values() for r in results])
        for label, s in stats.items():
            print(f"{name:14s} {label:4s} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g} {s['spread']:8.4f}")
        print(f"{name:14s} {'A+B':4s} {pooled['median']:14.6g} {pooled['q1']:14.6g} "
              f"{pooled['q3']:14.6g} {pooled['spread']:8.4f}")
        a, b = stats["A"]["median"], stats["B"]["median"]
        shift = (b - a) / a
        ok = abs(shift) <= bound and all(s["spread"] <= bound for s in stats.values())
        agree = agree and ok
        print(f"{name:14s} bound {bound}: median of B off A's by {shift:+.4f} -> "
              f"{'agree' if ok else 'DISAGREE'}")
        report[name] = {"A": stats["A"], "B": stats["B"], "pooled": pooled,
                        "median_shift": shift, "agree": ok}
    print(json.dumps({"workload": args.workload, "agree": agree, "metrics": report}))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
