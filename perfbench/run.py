"""Run one fritpid benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tune_long --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy, and the
run stops with exit code 2 when ``src/fritpid`` is not there.

Workloads (see workloads.py and README.md):
  tune_long   ``fritpid reproduce`` on example1 and example2 (N = 1001)
  tune_short  ``fritpid reproduce`` on example3_io and example3_fo (N = 81)
  grade       ``benchlab.validate`` on all four cases near theta_star

A run repeats whole rounds of the workload's operations until the timed
operations add up to ``--seconds`` (at least one round; a tuning round
outlasts the usual setting, so tuning runs time one round). Rounds run
under ``speed.SpeedProbe``: their times exclude the probe's reference
kernel and are scaled to the speed at which that kernel takes
``speed.REFERENCE_S``, so that the swings of a shared host's CPU speed
cancel out. With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it times the same rounds once untraced and once traced,
writes the spans to ``perfbench/traces/<workload>.csv`` and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# One BLAS thread, fixed before numpy loads, so that the figures measure
# the program and not the scheduler of a small machine.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (next to this file; loads no numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("tune_long", "tune_short", "grade")

#: fresh processes timed for setup_s; the median is reported
SETUP_SAMPLES = 5

# Each process times its import on the speed probe's clock, with the
# interpreter kernel sampled during the import, so that the import time
# can be scaled to the reference speed like every other time reported.
# Only ``signal`` and ``time`` are loaded before the timed import.
_SETUP_CODE = (
    "import speed\n"
    "with speed.SpeedProbe(speed.InterpreterKernel(), speed.IMPORT_INTERVAL_S) as probe:\n"
    "    start = probe.clock()\n"
    "    import fritpid.cli\n"
    "    seconds = probe.clock() - start\n"
    "samples = probe.take() or [probe.kernel()]\n"
    "print(seconds)\n"
    "print(fritpid.cli.__file__)\n"
    "print(sum(samples) / len(samples))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _within(path, root: Path) -> bool:
    return Path(path).resolve().is_relative_to(root.resolve())


def measure_setup(samples: int) -> list:
    """Seconds to import fritpid.cli, numpy and scipy in fresh processes,
    each at the reference speed, from the kernel sampled during it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), os.environ.get("PYTHONPATH", "")) if p
    )
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 3 or not _within(lines[1], SRC):
            raise BenchError(f"cannot import fritpid.cli from {SRC}: {proc.stderr.strip()}")
        times.append(speed.at_reference_speed(
            float(lines[0]), [float(lines[2])], speed.INTERPRETER_REFERENCE_S))
    return times


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_rounds(run_round, seconds: float, probe):
    """Whole rounds until the timed operations reach ``seconds``.

    Returns the rounds' operations and, per round, the reference-kernel
    times the probe sampled during it.
    """
    rounds, samples = [], []
    timed = 0.0
    probe.take()
    while not rounds or timed < seconds:
        ops = run_round(len(rounds))
        rounds.append(ops)
        samples.append(probe.take())
        timed += sum(op.seconds for op in ops)
    return rounds, samples


def round_seconds(rounds) -> list:
    return [sum(op.seconds for op in ops) for ops in rounds]


def reference_seconds(rounds, samples) -> list:
    """Each round's time at the reference speed (see speed.py)."""
    pooled = [k for ks in samples for k in ks]
    return [speed.at_reference_speed(s, ks or pooled)
            for s, ks in zip(round_seconds(rounds), samples)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fritpid" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'fritpid'}")
    specs = load_metric_specs()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    setup = measure_setup(SETUP_SAMPLES)

    import fritpid.cli
    from fritpid.benchlab import CASE_NAMES, builtin_case

    import tracer as tracing
    import workloads as wl

    if not _within(fritpid.cli.__file__, SRC):
        raise BenchError(f"fritpid was imported from {fritpid.cli.__file__}, not {SRC}")

    tuning = args.workload != "grade"
    out_root = HERE / "out" / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    cases = {name: builtin_case(name) for name in CASE_NAMES}
    if tuning:
        op_list = wl.tuning_ops(args.workload, args.seed)

        def make_round(phase):
            return lambda k: wl.run_tuning_round(op_list, out_root / f"{phase}{k}", probe.clock)
    else:
        op_list = wl.grade_ops(args.seed, cases)
        first = {}

        def make_round(phase):
            def one_round(k):
                ops = wl.run_grade_round(op_list, cases, probe.clock)
                # later rounds must repeat the first bit for bit; keep only
                # the first round's reports, so memory does not grow with
                # the number of rounds
                for i, op in enumerate(ops):
                    if op.error:
                        continue
                    fp = wl.grade_fingerprint(op.output)
                    if i not in first:
                        first[i] = fp
                    elif fp != first[i]:
                        op.problems.append(f"{phase} round {k} differs from the first")
                    if k > 0:
                        op.output = None
                return ops
            return one_round

    phases, samples = {}, {}
    span_tracer = None
    with speed.SpeedProbe() as probe:
        phases["plain"], samples["plain"] = run_rounds(make_round("plain"), args.seconds, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            span_tracer = tracing.Tracer(probe.clock_ns)
            with span_tracer:
                phases["traced"], samples["traced"] = run_rounds(
                    make_round("traced"), args.seconds, probe)

    # correctness checks, after every timed operation and the RSS reading
    all_ops = [op for rounds in phases.values() for ops in rounds for op in ops]
    if tuning:
        for op in all_ops:
            if not op.error:
                wl.check_tuning(op, cases)
        if args.workload == "tune_short":
            for rounds in phases.values():
                for ops in rounds:
                    if not any(op.error for op in ops):
                        wl.check_comparison(ops)
        if args.trace:
            # tracing must leave every artifact byte for byte as it was
            for plain_op, traced_op in zip(phases["plain"][0], phases["traced"][0]):
                if plain_op.error or traced_op.error:
                    continue
                case = plain_op.output[0]
                a = (plain_op.output[2] / case / "summary.json").read_bytes()
                b = (traced_op.output[2] / case / "summary.json").read_bytes()
                if a != b:
                    traced_op.problems.append("traced summary.json differs from untraced")
    else:
        checker = wl.GradeChecker(cases)
        for phase_rounds in phases.values():
            for op, (name, theta) in zip(phase_rounds[0], op_list):
                if not op.error and op.output is not None:
                    checker.check(op, name, theta)

    for op in all_ops:
        for problem in ([op.error] if op.error else []) + op.problems:
            print(f"FAILED {op.label}: {problem}", file=sys.stderr)
    attempted = len(all_ops)
    failed = sum(op.failed for op in all_ops)
    correct = not any(op.problems for op in all_ops)

    plain = phases["plain"]
    plain_seconds = reference_seconds(plain, samples["plain"])
    run_s = statistics.median(plain_seconds)
    wall_s = statistics.median(round_seconds(plain))
    kernel_ms = statistics.fmean(k for ks in samples["plain"] for k in ks) * 1e3
    if args.trace:
        traced_s = statistics.median(reference_seconds(phases["traced"], samples["traced"]))
        trace_path = HERE / "traces" / f"{args.workload}.csv"
        span_tracer.write(trace_path)
        metrics = tracing.layer_metrics(span_tracer.spans, len(phases["traced"]))
        # span times to the reference speed, with the traced phase's kernel
        traced_kernel = [k for ks in samples["traced"] for k in ks]
        for name in metrics:
            if specs["per_layer"][name] in ("us", "ms"):
                metrics[name] = speed.at_reference_speed(metrics[name], traced_kernel)
        metrics["trace.overhead_s"] = traced_s - run_s
        metrics["trace.spans"] = len(span_tracer.spans) / len(phases["traced"])
        metrics["trace.span_cost_us"] = tracing.span_cost_us()
        units = specs["per_layer"]
    else:
        # work per round: swarm evaluations when tuning, validate calls when
        # grading; the rate is the median over rounds, like run_s
        work = [
            sum(wl.tuning_evaluations(op) if tuning else 1 for op in ops if not op.error)
            for ops in plain
        ]
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "evals_per_s": statistics.median(w / s for w, s in zip(work, plain_seconds)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = specs["end_to_end"]
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    pins = " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    print(f"workload {args.workload}, seed {args.seed}: {len(op_list)} operations "
          f"per round, {len(plain)} round(s); BLAS threads pinned: {pins}")
    print(f"median round: {wall_s:.6f} s of wall time, less the reference kernel; "
          f"kernel mean {kernel_ms:.4f} ms against {speed.REFERENCE_S * 1e3:.4f} ms "
          f"at the reference speed")
    if args.trace:
        print(f"span file: {trace_path.relative_to(ROOT)} ({len(span_tracer.spans)} spans)")
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:16.6f} {unit}")
    print(f"attempted {attempted}, failed {failed}, correct {str(correct).lower()}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
