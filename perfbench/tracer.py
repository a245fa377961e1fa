"""Span tracing from outside the program, by wrapping module attributes.

The program calls its layers through module globals (``l1_idfrit`` looks
up ``toeplitz_solve`` in its own namespace on every evaluation, ``cli``
looks up ``tune_case``, and so on). Replacing those attributes with
timing wrappers records one span per call without touching the program's
source; ``Tracer.restore`` puts every original back.

Spans are kept in memory as (id, parent, name, start_ns, end_ns, tag)
tuples and written out once, when the traced run ends. A span's self
time is its duration minus the durations of its direct children, which
run one after another on this single thread.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from pathlib import Path

# (module name, attribute, span name). The span name says which layer the
# call belongs to; the attribute is where the program looks it up.
TRACED_ATTRIBUTES = (
    ("fritpid.l1_idfrit", "realize", "folib.realize"),
    ("fritpid.l1_idfrit", "fictitious_reference", "l1_idfrit.fictitious_reference"),
    ("fritpid.l1_idfrit", "invert", "lti_core.invert"),
    ("fritpid.l1_idfrit", "simulate", "lti_core.simulate"),
    ("fritpid.l1_idfrit", "toeplitz_solve", "l1_idfrit.toeplitz_solve"),
    ("fritpid.l1_idfrit", "reconstruct_output", "l1_idfrit.reconstruct_output"),
    ("fritpid.l1_idfrit.LossEvaluator", "evaluate", "l1_idfrit.evaluate"),
    ("fritpid.benchlab", "collect_data", "benchlab.collect_data"),
    ("fritpid.benchlab", "make_evaluator", "benchlab.make_evaluator"),
    ("fritpid.benchlab", "minimize", "swarm_opt.minimize"),
    ("fritpid.benchlab", "validate", "benchlab.validate"),
    ("fritpid.benchlab", "co_simulate", "lti_core.co_simulate"),
    ("fritpid.benchlab", "simulate", "benchlab.simulate"),
    ("fritpid.benchlab", "realize", "benchlab.realize"),
    ("fritpid.cli", "tune_case", "cli.tune_case"),
    ("fritpid.cli", "cmd_reproduce", "cli.cmd_reproduce"),
)


def _resolve(dotted: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        mod_name, _, cls_name = dotted.rpartition(".")
        return getattr(importlib.import_module(mod_name), cls_name)


def _realize_tag(args, kwargs, result):
    template = args[1] if len(args) > 1 else kwargs["t"]
    return template.kind.value


def _evaluate_tag(args, kwargs, result):
    return result.penalty_reason.value


def _minimize_tag(args, kwargs, result):
    """Iteration count and stop reason, rebuilt from the returned trace.

    The swarm stops on ``stall_iterations`` iterations in a row without a
    relative improvement above ``tolerance``; the trace holds the global
    best after every iteration, so the stall counter replays exactly.
    """
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    values = [v for _, v in result.trace]
    stall = 0
    for prev, cur in zip(values[:-1], values[1:]):
        improved = (prev - cur) > cfg.tolerance * max(1.0, abs(prev))
        stall = 0 if improved else stall + 1
    stop = "stall" if stall >= cfg.stall_iterations else "cap"
    return f"{len(values) - 1}:{stop}"


# span name -> what the span's tag column records
_TAGS = {
    "folib.realize": _realize_tag,
    "benchlab.realize": _realize_tag,
    "l1_idfrit.evaluate": _evaluate_tag,
    "swarm_opt.minimize": _minimize_tag,
}


class Tracer:
    """Installs timing wrappers and collects the spans they record."""

    def __init__(self, clock_ns=time.perf_counter_ns):
        self.clock_ns = clock_ns
        self.spans = []
        self._stack = [0]
        self._next_id = 1
        self._saved = []

    def install(self) -> None:
        for owner_name, attr, span_name in TRACED_ATTRIBUTES:
            owner = _resolve(owner_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = self.clock_ns
        tracer = self
        tag_of = _TAGS.get(name)

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            tag = tag_of(args, kwargs, result) if tag_of else ""
            spans.append((span_id, parent, name, start, end, tag))
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Span file: one CSV row per call, in order of completion."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,tag\n")
            for span in self.spans:
                fh.write(",".join(str(v) for v in span) + "\n")


def span_cost_us(batches: int = 5, calls: int = 20000) -> float:
    """Cost of one span in µs: a wrapped no-op call minus a bare one.

    Bare and wrapped batches alternate, so both see the same machine
    state; the median batch is reported. Multiplied by the spans of a
    round it estimates the tracer's share of the traced ``run_s``.
    """

    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "calibration")
    costs = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls * 1e6)
    return statistics.median(costs)


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer figures from a list of spans covering ``rounds`` rounds.

    Times are means per call (µs or ms as the name says); counts are per
    round, so they repeat exactly for a fixed workload seed.
    """
    child_time = defaultdict(int)
    for _, parent, _, start, end, _ in spans:
        child_time[parent] += end - start
    by_name = defaultdict(list)
    for span_id, _, name, start, end, tag in spans:
        by_name[name].append((span_id, end - start, tag))

    def mean(name, scale, tag=None):
        rows = [d for _, d, t in by_name[name] if tag is None or t == tag]
        return sum(rows) / len(rows) / scale if rows else 0.0

    def mean_self(name, scale):
        rows = by_name[name]
        if not rows:
            return 0.0
        return sum(d - child_time[i] for i, d, _ in rows) / len(rows) / scale

    evals = by_name["l1_idfrit.evaluate"]
    reasons = defaultdict(int)
    for _, _, tag in evals:
        reasons[tag] += 1
    mins = by_name["swarm_opt.minimize"]
    iterations = sum(int(t.split(":")[0]) for _, _, t in mins)
    stops = defaultdict(int)
    for _, _, t in mins:
        stops[t.split(":")[1]] += 1
    min_self = sum(d - child_time[i] for i, d, _ in mins)

    us, ms = 1e3, 1e6
    return {
        "l1_idfrit.evaluate.us": mean("l1_idfrit.evaluate", us),
        "l1_idfrit.evaluate.self_us": mean_self("l1_idfrit.evaluate", us),
        "l1_idfrit.toeplitz_solve.us": mean("l1_idfrit.toeplitz_solve", us),
        "l1_idfrit.reconstruct_output.us": mean("l1_idfrit.reconstruct_output", us),
        "l1_idfrit.fictitious_reference.us": mean("l1_idfrit.fictitious_reference", us),
        "lti_core.invert.us": mean("lti_core.invert", us),
        "lti_core.simulate.us": mean("lti_core.simulate", us),
        "folib.realize.fopid_us": mean("folib.realize", us, "fopid"),
        "folib.realize.iopid_us": mean("folib.realize", us, "iopid"),
        "swarm_opt.minimize.self_us_per_iter": (min_self / iterations / us) if iterations else 0.0,
        "l1_idfrit.evaluate.calls": len(evals) / rounds,
        "l1_idfrit.evaluate.clean_ratio": (reasons["none"] / len(evals)) if evals else 0.0,
        "l1_idfrit.penalty.non_invertible_controller": reasons["non_invertible_controller"] / rounds,
        "l1_idfrit.penalty.nonfinite_signal": reasons["nonfinite_signal"] / rounds,
        "l1_idfrit.penalty.fictitious_head_zero": reasons["fictitious_head_zero"] / rounds,
        "swarm_opt.minimize.iterations": iterations / rounds,
        "swarm_opt.minimize.stall_stops": stops["stall"] / rounds,
        "swarm_opt.minimize.cap_stops": stops["cap"] / rounds,
        "benchlab.validate.ms": mean("benchlab.validate", ms),
        # validate's traced children are its realize, co_simulate and
        # simulate calls, so its self time is the closed-loop pole verdict
        "benchlab.validate.poles_ms": mean_self("benchlab.validate", ms),
        "lti_core.co_simulate.ms": mean("lti_core.co_simulate", ms),
        "benchlab.collect_data.ms": mean("benchlab.collect_data", ms),
        "benchlab.make_evaluator.ms": mean("benchlab.make_evaluator", ms),
        "cli.cmd_reproduce.self_ms": mean_self("cli.cmd_reproduce", ms),
    }
