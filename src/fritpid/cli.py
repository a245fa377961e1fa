"""Command-line front end for the tuner.

Three subcommands cover the whole workflow:

``reproduce <example>``
    Run a built-in benchmark end to end (collect the one-shot record,
    tune over the requested seeds, grade against the true plant) and
    write plot-ready artifacts.
``tune --config c.json --data d.csv``
    Tune from a recorded experiment alone. No plant model is involved,
    so the report is limited to the loss trace, the tuned controller,
    and the stability-bound check.
``validate --config c.json <theta>``
    Grade a given parameter vector against a plant supplied in the
    config file.

File formats are deliberately plain: CSV with a header row for signals
(floats rendered with 17 significant digits so they re-parse to the
exact values written) and JSON for configs and reports (keys sorted,
no timestamps, so identical runs produce identical bytes).

The config schema, shared by ``tune`` and ``validate``::

    {
      "controller":      {"kind": "fopid" | "iopid",
                          "oustaloup": {"order": 5, "w_b": 1e-6, "w_h": 1e3}},
      "sample_time":     0.1,
      "reference_model": {"num": [...], "den": [...],
                          either "sample_time" (+ optional "delay_samples")
                          for a discrete model, or optional "dead_time" /
                          "discretization": "tustin" for a continuous one},
      "bounds":          {"lower": [...], "upper": [...]},
      "theta0":          [...],            # optional swarm warm start
      "seeds":           [1, 2, 3],        # optional
      "pso":             {...},            # optional PsoConfig overrides
      "plant":           {...},            # validate only, same shape as
                                           # reference_model
      "sim_time":        100.0             # validate horizon, seconds
    }

``reproduce`` writes such a config next to its results, and feeding that
config together with the exported ``initial_data.csv`` back through
``tune`` reproduces the tuning section of the summary bit for bit: both
subcommands tune through ``benchlab.tune``.

Exit codes: 0 success, 2 usage or config errors, 3 violated data
assumptions, 4 malformed data files, 5 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .benchlab import (
    CASE_NAMES,
    DEFAULT_SEEDS,
    BenchmarkCase,
    RunConfig,
    TuningResult,
    ValidationReport,
    builtin_case,
    discretized_reference_model,
    make_evaluator,
    reference_targets,
    tune,
    tune_case,
    validate,
)
from .folib import ControllerKind, ControllerTemplate, OustaloupConfig, realize
from .l1_idfrit import ExperimentRecord
from .lti_core import (
    ContinuousTf,
    DiscreteTf,
    DiscreteZpk,
    DiscretizationError,
    SampleTimeError,
    Signal,
    tustin,
)
from .swarm_opt import Bounds, PsoConfig

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_ASSUMPTION",
    "EXIT_DATA",
    "EXIT_NUMERIC",
    "CliError",
    "load_run_config",
    "load_data_record",
    "cmd_reproduce",
    "cmd_tune",
    "cmd_validate",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ASSUMPTION = 3
EXIT_DATA = 4
EXIT_NUMERIC = 5


class CliError(Exception):
    """Anticipated command failure carrying its process exit status."""

    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# config parsing


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise CliError(f"config: {where} is missing the key {key!r}", EXIT_USAGE)
    return mapping[key]


def _parse_tf(node: dict, sample_time: float, what: str) -> DiscreteTf:
    """Transfer-function block: discrete as given, continuous via Tustin."""
    if not isinstance(node, dict):
        raise CliError(f"config: {what} must be an object", EXIT_USAGE)
    num = [float(x) for x in _require(node, "num", what)]
    den = [float(x) for x in _require(node, "den", what)]
    try:
        if "sample_time" in node:
            ts = float(node["sample_time"])
            return DiscreteTf(num, den, ts, delay_samples=int(node.get("delay_samples", 0)))
        method = str(node.get("discretization", "tustin")).lower()
        if method != "tustin":
            raise CliError(
                f"config: unsupported discretization {method!r} for {what}",
                EXIT_USAGE,
            )
        g = ContinuousTf(num, den, dead_time=float(node.get("dead_time", 0.0)))
        return tustin(g, sample_time)
    except CliError:
        raise
    except (ValueError, DiscretizationError) as exc:
        raise CliError(f"config: invalid {what}: {exc}", EXIT_USAGE) from exc


#: swarm settings a config may override; the seed comes from the seed list
_PSO_KEYS = tuple(f.name for f in fields(PsoConfig) if f.name != "seed")


def _parse_pso(node: dict) -> PsoConfig:
    unknown = set(node) - set(_PSO_KEYS)
    if unknown:
        raise CliError(
            f"config: unknown pso keys {sorted(unknown)}; valid keys: "
            f"{', '.join(_PSO_KEYS)}",
            EXIT_USAGE,
        )
    # each value takes the type of its default: int, float, or a float pair
    defaults = PsoConfig()
    kwargs = {}
    for key in node:
        default = getattr(defaults, key)
        if isinstance(default, tuple):
            kwargs[key] = tuple(float(x) for x in node[key])
        else:
            kwargs[key] = type(default)(node[key])
    try:
        return replace(PsoConfig(), **kwargs)
    except ValueError as exc:
        raise CliError(f"config: invalid pso settings: {exc}", EXIT_USAGE) from exc


def load_run_config(path) -> RunConfig:
    """Read and validate a JSON run configuration."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}", EXIT_USAGE) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}", EXIT_USAGE) from exc
    if not isinstance(raw, dict):
        raise CliError("config must be a JSON object", EXIT_USAGE)
    sample_time = float(_require(raw, "sample_time", "config"))
    ctrl = _require(raw, "controller", "config")
    try:
        kind = ControllerKind(str(_require(ctrl, "kind", "controller")).lower())
    except ValueError:
        raise CliError(
            f"config: unknown controller kind {ctrl.get('kind')!r}; "
            "valid kinds: fopid, iopid",
            EXIT_USAGE,
        ) from None
    oust = ctrl.get("oustaloup", {})
    try:
        template = ControllerTemplate(
            kind,
            sample_time,
            OustaloupConfig(
                order=int(oust.get("order", 5)),
                w_b=float(oust.get("w_b", 1e-6)),
                w_h=float(oust.get("w_h", 1e3)),
            ),
        )
        box = _require(raw, "bounds", "config")
        bounds = Bounds(
            [float(x) for x in _require(box, "lower", "bounds")],
            [float(x) for x in _require(box, "upper", "bounds")],
        )
        seeds = raw.get("seeds")
        if seeds is not None:
            seeds = tuple(int(s) for s in seeds)
        theta0 = raw.get("theta0")
        if theta0 is not None:
            theta0 = np.asarray([float(x) for x in theta0])
        return RunConfig(
            template=template,
            bounds=bounds,
            reference_model=_parse_tf(
                _require(raw, "reference_model", "config"), sample_time, "reference_model"
            ),
            theta0=theta0,
            plant=_parse_tf(raw["plant"], sample_time, "plant") if "plant" in raw else None,
            sim_time=float(raw["sim_time"]) if "sim_time" in raw else None,
            pso=_parse_pso(raw.get("pso", {})),
            seeds=seeds,
        )
    except CliError:
        raise
    except (TypeError, ValueError) as exc:
        raise CliError(f"config: {exc}", EXIT_USAGE) from exc


# ---------------------------------------------------------------------------
# data records


def load_data_record(path, sample_time: float) -> ExperimentRecord:
    """Read a recorded experiment from CSV with columns k, r0, u0, y0.

    The index column must count contiguously from zero; every value must
    be a finite number. A zero leading reference sample is rejected here
    because the whole method divides by it.
    """
    r0, u0, y0 = [], [], []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise CliError("data file is empty", EXIT_DATA)
            if [h.strip() for h in header] != ["k", "r0", "u0", "y0"]:
                raise CliError(
                    "data header must be exactly k,r0,u0,y0 "
                    f"(got {','.join(header)})",
                    EXIT_DATA,
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise CliError(
                        f"data row {lineno}: expected 4 columns, got {len(row)}",
                        EXIT_DATA,
                    )
                try:
                    k = int(row[0])
                    vals = [float(x) for x in row[1:]]
                except ValueError:
                    raise CliError(
                        f"data row {lineno}: unparsable number", EXIT_DATA
                    ) from None
                if k != len(r0):
                    raise CliError(
                        f"data row {lineno}: sample index {k} is not contiguous",
                        EXIT_DATA,
                    )
                if not all(math.isfinite(v) for v in vals):
                    raise CliError(
                        f"data row {lineno}: non-finite value", EXIT_DATA
                    )
                r0.append(vals[0])
                u0.append(vals[1])
                y0.append(vals[2])
    except OSError as exc:
        raise CliError(f"cannot read data file: {exc}", EXIT_DATA) from exc
    if not r0:
        raise CliError("data file has no samples", EXIT_DATA)
    if r0[0] == 0.0:
        raise CliError("reference head must be nonzero", EXIT_ASSUMPTION)
    return ExperimentRecord(
        r0=Signal(np.asarray(r0), sample_time),
        u0=Signal(np.asarray(u0), sample_time),
        y0=Signal(np.asarray(y0), sample_time),
    )


# ---------------------------------------------------------------------------
# artifact writers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        # strict JSON has no NaN/Infinity literals
        return value if math.isfinite(value) else None
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_cell(v) for v in row])


def _tf_payload(g: DiscreteTf) -> dict:
    return {
        "num": [float(x) for x in g.num.as_array()],
        "den": [float(x) for x in g.den.as_array()],
        "sample_time": float(g.sample_time),
        "delay_samples": int(g.delay_samples),
    }


def _config_payload(config: RunConfig, seeds: Tuple[int, ...]) -> dict:
    """The config as ``tune`` and ``validate`` read it back.

    A benchmark case's plant grades its tuning and stays out of the export.
    """
    oust = config.template.oustaloup
    out = {
        "controller": {
            "kind": config.template.kind.value,
            "oustaloup": {"order": oust.order, "w_b": oust.w_b, "w_h": oust.w_h},
        },
        "sample_time": config.sample_time,
        "reference_model": _tf_payload(discretized_reference_model(config)),
        "bounds": {
            "lower": [float(x) for x in config.bounds.lower],
            "upper": [float(x) for x in config.bounds.upper],
        },
        "pso": {key: getattr(config.pso, key) for key in _PSO_KEYS},
        "seeds": list(seeds),
    }
    if config.theta0 is not None:
        out["theta0"] = [float(x) for x in config.theta0]
    if config.sim_time is not None:
        out["sim_time"] = config.sim_time
    if config.plant is not None and not isinstance(config, BenchmarkCase):
        out["plant"] = _tf_payload(config.plant)
    return out


def _tuning_payload(result: TuningResult) -> dict:
    breakdown, bound = result.breakdown_star, result.bound_report
    return {
        "j_theta0": result.j_theta0,
        "best_seed": int(result.best_seed),
        "theta_star": [float(x) for x in result.theta_star],
        "j_star": float(result.j_star),
        "seeds": [
            {
                "seed": r.seed,
                "best_j": float(r.best_value),
                "best_theta": [float(x) for x in r.best_theta],
                "evaluations": r.evaluations,
                "iterations": r.iterations,
                "stop": r.stop_reason,
            }
            for r in result.seed_results
        ],
        "loss_breakdown": {
            "j": breakdown.j,
            "epsilon_l1": breakdown.epsilon_l1,
            "t_l1": breakdown.t_l1,
            "penalized": breakdown.penalized,
            "penalty_reason": breakdown.penalty_reason.value,
        },
        "stability_bound": {
            "gamma_r0": bound.gamma_r0,
            "bound": bound.bound,
            "t_l1": bound.t_l1,
            "satisfied": bound.satisfied,
        },
        "evaluations": int(result.evaluations),
        "penalized_evaluations": int(result.penalized_evaluations),
        "penalty_counts": {r.value: int(n) for r, n in result.penalty_counts.items()},
        "bound_checks": int(result.bound_checks),
        "bound_violations": int(result.bound_violations),
    }


def _validation_payload(report: ValidationReport) -> dict:
    return {
        "stable": report.stable,
        "max_pole_magnitude": report.max_pole_magnitude,
        "closed_loop_poles": [[p.real, p.imag] for p in report.closed_loop_poles],
        "tracking_error_l1": report.tracking_error_l1,
        "max_abs_input": report.max_abs_input,
        "input_l1": report.step_traces.u.l1(),
    }


def _controller_payload(c) -> dict:
    """Realized controller in factored and expanded form.

    The factored triple is authoritative; the expanded coefficient
    vectors are a convenience and lose accuracy once dozens of sections
    are multiplied out.
    """
    if isinstance(c, DiscreteZpk):
        zeros = np.asarray(c.zeros, dtype=complex)
        poles = np.asarray(c.poles, dtype=complex)
        num = c.gain * np.real(np.poly(zeros)) if zeros.size else np.array([c.gain])
        den = np.real(np.poly(poles)) if poles.size else np.array([1.0])
        return {
            "form": "zpk",
            "sample_time": float(c.sample_time),
            "zeros": [[z.real, z.imag] for z in zeros],
            "poles": [[p.real, p.imag] for p in poles],
            "gain": float(c.gain),
            "num": [float(x) for x in num],
            "den": [float(x) for x in den],
        }
    num = c.num.as_array()
    den = c.den.as_array()
    return {
        "form": "tf",
        "sample_time": float(c.sample_time),
        "zeros": [[z.real, z.imag] for z in np.roots(num)],
        "poles": [[p.real, p.imag] for p in np.roots(den)],
        "gain": float(num[0] / den[0]),
        "num": [float(x) for x in num],
        "den": [float(x) for x in den],
        "delay_samples": int(c.delay_samples),
    }


def _write_trace_csv(path: Path, seed_results) -> None:
    seeds_col, iters_col, best_col = [], [], []
    for r in seed_results:
        for iteration, best_j in r.trace:
            seeds_col.append(r.seed)
            iters_col.append(iteration)
            best_col.append(best_j)
    _write_csv(path, ["seed", "iteration", "best_j"], [seeds_col, iters_col, best_col])


def _write_step_csv(path: Path, report: ValidationReport) -> None:
    traces = report.step_traces
    n = len(traces.r.samples)
    _write_csv(
        path,
        ["k", "r", "y_model", "y_tuned", "u"],
        [
            range(n),
            traces.r.samples,
            traces.y_model.samples,
            traces.y_closed_loop.samples,
            traces.u.samples,
        ],
    )


def _write_data_csv(path: Path, data: ExperimentRecord) -> None:
    n = len(data)
    _write_csv(
        path,
        ["k", "r0", "u0", "y0"],
        [range(n), data.r0.samples, data.u0.samples, data.y0.samples],
    )


# ---------------------------------------------------------------------------
# seeds and flags


def _parse_seed_list(text: str) -> Tuple[int, ...]:
    """Seed lists come as "1,2,3" or as an inclusive range "1..5"."""
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
        if not seeds:
            raise ValueError
        return seeds
    except ValueError:
        raise CliError(
            f"invalid --seeds value {text!r}; use a comma list like 1,2,3 "
            "or a range like 1..5",
            EXIT_USAGE,
        ) from None


def _resolve_seeds(flag_value: Optional[str], config_seeds) -> Tuple[int, ...]:
    if flag_value:
        return _parse_seed_list(flag_value)
    if config_seeds:
        return tuple(int(s) for s in config_seeds)
    env = os.environ.get("FRIT_SEED")
    if env:
        try:
            return (int(env),)
        except ValueError:
            raise CliError(f"FRIT_SEED must be an integer, got {env!r}", EXIT_USAGE) from None
    return DEFAULT_SEEDS


def _pso_with_overrides(base: PsoConfig, args: argparse.Namespace) -> PsoConfig:
    kwargs = {}
    if getattr(args, "swarm_size", None) is not None:
        kwargs["swarm_size"] = args.swarm_size
    if getattr(args, "iterations", None) is not None:
        kwargs["max_iterations"] = args.iterations
    if not kwargs:
        return base
    try:
        return replace(base, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc


# ---------------------------------------------------------------------------
# subcommands


def _comparison_payload(fo_summary: dict, io_summary: dict) -> dict:
    j_fo = fo_summary["tuning"]["j_star"]
    j_io = io_summary["tuning"]["j_star"]
    return {
        "j_fo": j_fo,
        "j_io": j_io,
        "fo_beats_io": bool(j_fo < j_io),
        "tracking_error_fo": fo_summary["validation"]["tracking_error_l1"],
        "tracking_error_io": io_summary["validation"]["tracking_error_l1"],
        "max_input_fo": fo_summary["validation"]["max_abs_input"],
        "max_input_io": io_summary["validation"]["max_abs_input"],
        "input_l1_fo": fo_summary["validation"]["input_l1"],
        "input_l1_io": io_summary["validation"]["input_l1"],
        "theta_fo": fo_summary["tuning"]["theta_star"],
        "theta_io": io_summary["tuning"]["theta_star"],
    }


_SIBLING = {"example3_fo": "example3_io", "example3_io": "example3_fo"}


def cmd_reproduce(
    example: str,
    seeds: Tuple[int, ...],
    pso: PsoConfig,
    out_dir: Path,
) -> int:
    """Tune one built-in benchmark and write its artifact set."""
    try:
        case = replace(builtin_case(example), pso=pso)
    except KeyError as exc:
        raise CliError(str(exc.args[0]), EXIT_USAGE) from None
    targets = reference_targets(example)
    print(f"{example}: tuning with seeds {list(seeds)} ...")
    result = tune_case(case, seeds=seeds)

    reproduced = bool(
        abs(result.j_theta0 - targets.j_theta0)
        <= targets.j_theta0_rtol * abs(targets.j_theta0)
    )
    within_band = bool(targets.j_star_min <= result.j_star <= targets.j_star_max)
    acceptance = {
        "j_theta0_reproduced": reproduced,
        "j_star_within_band": within_band,
        "pass": reproduced and within_band,
        "closed_loop_stable": result.validation.stable,
    }
    summary = {
        "example": example,
        "targets": {
            "j_theta0": targets.j_theta0,
            "j_star": targets.j_star,
            "theta_star": list(targets.theta_star),
            "j_star_band": [targets.j_star_min, targets.j_star_max],
        },
        "tuning": _tuning_payload(result),
        "validation": _validation_payload(result.validation),
        "acceptance": acceptance,
        "controller": _controller_payload(realize(result.theta_star, case.template)),
    }

    case_dir = out_dir / example
    case_dir.mkdir(parents=True, exist_ok=True)
    _write_json(case_dir / "summary.json", summary)
    _write_json(case_dir / "config.json", _config_payload(case, seeds))
    _write_trace_csv(case_dir / "trace.csv", result.seed_results)
    _write_step_csv(case_dir / "step_response.csv", result.validation)
    _write_data_csv(case_dir / "initial_data.csv", result.data)

    sibling = _SIBLING.get(example)
    if sibling is not None:
        sibling_path = out_dir / sibling / "summary.json"
        if sibling_path.exists():
            other = json.loads(sibling_path.read_text())
            fo, io = (summary, other) if example == "example3_fo" else (other, summary)
            _write_json(out_dir / "comparison.json", _comparison_payload(fo, io))

    verdict = "PASS" if acceptance["pass"] else "FAIL"
    print(
        f"{example}: J(theta0) = {result.j_theta0:.6g} "
        f"(reference {targets.j_theta0:.6g}), "
        f"J* = {result.j_star:.6g} "
        f"(reference {targets.j_star:.6g}, "
        f"band [{targets.j_star_min:g}, {targets.j_star_max:g}])"
    )
    print(
        f"{example}: best seed {result.best_seed}, "
        f"closed loop stable: {result.validation.stable}, "
        f"bound satisfied: {result.bound_report.satisfied} -> {verdict}"
    )
    print(f"{example}: artifacts in {case_dir}")
    return EXIT_OK


def cmd_tune(
    config: RunConfig,
    data: ExperimentRecord,
    seeds: Tuple[int, ...],
    out_dir: Path,
) -> int:
    """Tune from a recorded experiment; no plant model is involved."""
    try:
        evaluator = make_evaluator(config, data)
    except SampleTimeError as exc:
        raise CliError(str(exc), EXIT_NUMERIC) from exc
    except ValueError as exc:
        raise CliError(f"config: {exc}", EXIT_USAGE) from exc
    print(f"tuning over {len(data)} samples with seeds {list(seeds)} ...")
    try:
        result = tune(evaluator, config.bounds, seeds, config.pso, config.theta0)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_NUMERIC) from exc

    summary = {
        "config": _config_payload(config, seeds),
        "tuning": _tuning_payload(result),
        "controller": _controller_payload(realize(result.theta_star, config.template)),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "summary.json", summary)
    _write_trace_csv(out_dir / "trace.csv", result.seed_results)

    theta_text = ", ".join(format(float(x), ".6g") for x in result.theta_star)
    print(f"J* = {result.j_star:.6g} at theta* = [{theta_text}] (seed {result.best_seed})")
    if result.j_theta0 is not None:
        print(f"J(theta0) = {result.j_theta0:.6g}")
    print(f"stability bound satisfied: {result.bound_report.satisfied}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_validate(config: RunConfig, theta: np.ndarray, out_dir: Path) -> int:
    """Grade a parameter vector against the plant given in the config."""
    if config.plant is None:
        raise CliError("config: validate needs a plant block", EXIT_USAGE)
    if config.sim_time is None:
        raise CliError("config: validate needs sim_time", EXIT_USAGE)
    if theta.size != config.template.theta_dim:
        raise CliError(
            f"theta has dimension {theta.size}, a "
            f"{config.template.kind.value} controller needs "
            f"{config.template.theta_dim}",
            EXIT_USAGE,
        )
    if not config.bounds.contains(theta):
        print(
            "warning: theta lies outside the configured bounds; validating anyway",
            file=sys.stderr,
        )
    try:
        report = validate(config, theta)
    except (DiscretizationError, ValueError) as exc:
        raise CliError(f"cannot realize theta: {exc}", EXIT_NUMERIC) from exc

    payload = {
        "theta": [float(x) for x in theta],
        "validation": _validation_payload(report),
        "controller": _controller_payload(realize(theta, config.template)),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "validation.json", payload)
    _write_step_csv(out_dir / "step_response.csv", report)

    print(
        f"stable: {report.stable} "
        f"(max pole magnitude {report.max_pole_magnitude:.9f})"
    )
    print(
        f"tracking_error_l1 = {report.tracking_error_l1:.6g}, "
        f"max |u| = {report.max_abs_input:.6g}"
    )
    print(f"artifacts in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fritpid",
        description=(
            "One-shot data-driven PID and fractional-PID tuning by "
            "l1 reference matching."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser(
        "reproduce",
        help="run a built-in benchmark end to end and write its artifacts",
    )
    rep.add_argument("example", help=f"one of: {', '.join(CASE_NAMES)}")
    rep.add_argument("--seeds", help='seed list "1,2,3" or range "1..5"')
    rep.add_argument("--swarm-size", type=int, help="particles per swarm")
    rep.add_argument("--iterations", type=int, help="swarm iteration cap")
    rep.add_argument("--out-dir", default="runs", help="artifact root (default: runs)")
    rep.set_defaults(func=_run_reproduce)

    tune = sub.add_parser("tune", help="tune from a recorded experiment CSV")
    tune.add_argument("--config", required=True, help="JSON run configuration")
    tune.add_argument("--data", required=True, help="CSV with columns k,r0,u0,y0")
    tune.add_argument("--seeds", help='seed list "1,2,3" or range "1..5"')
    tune.add_argument("--swarm-size", type=int, help="particles per swarm")
    tune.add_argument("--iterations", type=int, help="swarm iteration cap")
    tune.add_argument(
        "--out-dir", default="runs/tune", help="artifact directory (default: runs/tune)"
    )
    tune.set_defaults(func=_run_tune)

    val = sub.add_parser(
        "validate", help="grade a parameter vector against a known plant"
    )
    val.add_argument("theta", help='comma-separated parameters, e.g. "2.76,0.51,1.0,2.64,0.85"')
    val.add_argument("--config", required=True, help="JSON run configuration with a plant block")
    val.add_argument(
        "--out-dir",
        default="runs/validate",
        help="artifact directory (default: runs/validate)",
    )
    val.set_defaults(func=_run_validate)
    return parser


def _run_reproduce(args: argparse.Namespace) -> int:
    seeds = _resolve_seeds(args.seeds, None)
    pso = _pso_with_overrides(PsoConfig(), args)
    return cmd_reproduce(args.example, seeds, pso, Path(args.out_dir))


def _run_tune(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    seeds = _resolve_seeds(args.seeds, config.seeds)
    config = replace(config, pso=_pso_with_overrides(config.pso, args))
    data = load_data_record(args.data, config.sample_time)
    return cmd_tune(config, data, seeds, Path(args.out_dir))


def _run_validate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    try:
        theta = np.asarray([float(p) for p in args.theta.split(",") if p.strip()])
    except ValueError:
        raise CliError(f"invalid theta {args.theta!r}", EXIT_USAGE) from None
    return cmd_validate(config, theta, Path(args.out_dir))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
