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
      "theta0":          [...],            # optional swarm warm start, finite
      "seeds":           [1, 2, 3],        # optional, default 1..5
      "pso":             {...},            # optional PsoConfig overrides
      "plant":           {...},            # validate only, same shape as
                                           # reference_model
      "sim_time":        100.0             # validate horizon, seconds
    }

An unknown key in any object of the config is rejected (exit 2); keys
left out of ``oustaloup`` and ``pso`` take the ``OustaloupConfig`` and
``PsoConfig`` defaults.

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
import sys
from dataclasses import asdict, fields, replace
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

_CONFIG_KEYS = (
    "controller", "sample_time", "reference_model", "bounds", "theta0",
    "seeds", "pso", "plant", "sim_time",
)
_TF_KEYS = ("num", "den", "sample_time", "delay_samples", "discretization", "dead_time")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise CliError(f"config: {where} is missing the key {key!r}", EXIT_USAGE)
    return mapping[key]


def _object(node, known, what: str) -> dict:
    """A config object, checked to hold only keys among ``known``."""
    if not isinstance(node, dict):
        raise CliError(f"config: {what} must be an object", EXIT_USAGE)
    unknown = set(node) - set(known)
    if unknown:
        raise CliError(
            f"config: unknown {what} keys {sorted(unknown)}; valid keys: {', '.join(known)}",
            EXIT_USAGE,
        )
    return node


def _integer(value, what: str) -> int:
    """An integer config value; a float is taken only when it is whole."""
    if not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise CliError(f"config: {what} must be an integer, got {value!r}", EXIT_USAGE)
    return int(value)


def _parse_tf(node: dict, sample_time: float, what: str) -> DiscreteTf:
    """Transfer-function block: discrete as given, continuous via Tustin."""
    _object(node, _TF_KEYS, what)
    num = [float(x) for x in _require(node, "num", what)]
    den = [float(x) for x in _require(node, "den", what)]
    try:
        if "sample_time" in node:
            ts = float(node["sample_time"])
            delay = _integer(node.get("delay_samples", 0), f"{what} delay_samples")
            return DiscreteTf(num, den, ts, delay_samples=delay)
        method = str(node.get("discretization", "tustin")).lower()
        if method != "tustin":
            raise CliError(
                f"config: unsupported discretization {method!r} for {what}",
                EXIT_USAGE,
            )
        g = ContinuousTf(num, den, dead_time=float(node.get("dead_time", 0.0)))
        return tustin(g, sample_time)
    except ValueError as exc:
        raise CliError(f"config: invalid {what}: {exc}", EXIT_USAGE) from exc


def _parse_settings(node, cls, what: str):
    """A settings block over the dataclass ``cls``: each value takes the
    type of its default, int (a whole float is taken), float or a float pair."""
    defaults = cls()
    kwargs = {}
    for key, value in _object(node, [f.name for f in fields(cls)], what).items():
        default = getattr(defaults, key)
        if isinstance(default, tuple):
            kwargs[key] = tuple(float(x) for x in value)
        elif isinstance(default, int):
            kwargs[key] = _integer(value, f"{what} {key}")
        else:
            kwargs[key] = float(value)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise CliError(f"config: invalid {what} settings: {exc}", EXIT_USAGE) from exc


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
    _object(raw, _CONFIG_KEYS, "top-level")
    sample_time = float(_require(raw, "sample_time", "config"))
    ctrl = _object(_require(raw, "controller", "config"), ("kind", "oustaloup"), "controller")
    try:
        kind = ControllerKind(str(_require(ctrl, "kind", "controller")).lower())
    except ValueError:
        raise CliError(
            f"config: unknown controller kind {ctrl.get('kind')!r}; "
            "valid kinds: fopid, iopid",
            EXIT_USAGE,
        ) from None
    try:
        template = ControllerTemplate(
            kind,
            sample_time,
            _parse_settings(ctrl.get("oustaloup", {}), OustaloupConfig, "oustaloup"),
        )
        box = _object(_require(raw, "bounds", "config"), ("lower", "upper"), "bounds")
        bounds = Bounds(_require(box, "lower", "bounds"), _require(box, "upper", "bounds"))
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
            pso=_parse_settings(raw.get("pso", {}), PsoConfig, "pso"),
            seeds=tuple(_integer(s, "seed") for s in raw.get("seeds", DEFAULT_SEEDS)),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"config: {exc}", EXIT_USAGE) from exc


# ---------------------------------------------------------------------------
# data records


def load_data_record(path, sample_time: float) -> ExperimentRecord:
    """Read a recorded experiment from CSV with columns k, r0, u0, y0.

    The index column must count contiguously from zero; every value must
    be a finite number. A record the method cannot use, such as one whose
    reference starts at zero, is a violated data assumption.
    """
    rows = []
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
                if k != len(rows):
                    raise CliError(
                        f"data row {lineno}: sample index {k} is not contiguous",
                        EXIT_DATA,
                    )
                if not all(math.isfinite(v) for v in vals):
                    raise CliError(
                        f"data row {lineno}: non-finite value", EXIT_DATA
                    )
                rows.append(vals)
    except OSError as exc:
        raise CliError(f"cannot read data file: {exc}", EXIT_DATA) from exc
    if not rows:
        raise CliError("data file has no samples", EXIT_DATA)
    r0, u0, y0 = np.array(rows).T
    try:
        return ExperimentRecord(
            r0=Signal(r0, sample_time),
            u0=Signal(u0, sample_time),
            y0=Signal(y0, sample_time),
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_ASSUMPTION) from exc


# ---------------------------------------------------------------------------
# artifact writers


def _jsonable(obj):
    """JSON form of a record: arrays and tuples as lists, numpy scalars as
    Python numbers, complex as [re, im], and non-finite floats as null."""
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
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, columns: dict) -> None:
    """One CSV column per entry of ``columns``, its key the header cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in zip(*columns.values()):
            writer.writerow([_cell(v) for v in row])


def _tf_payload(g: DiscreteTf) -> dict:
    return {
        "num": g.num.coeffs,
        "den": g.den.coeffs,
        "sample_time": g.sample_time,
        "delay_samples": g.delay_samples,
    }


def _config_payload(config: RunConfig) -> dict:
    """The config as ``tune`` and ``validate`` read it back.

    A benchmark case's plant grades its tuning and stays out of the export.
    """
    out = {
        "controller": {
            "kind": config.template.kind.value,
            "oustaloup": asdict(config.template.oustaloup),
        },
        "sample_time": config.sample_time,
        "reference_model": _tf_payload(discretized_reference_model(config)),
        "bounds": {"lower": config.bounds.lower, "upper": config.bounds.upper},
        "pso": asdict(config.pso),
        "seeds": config.seeds,
    }
    if config.theta0 is not None:
        out["theta0"] = config.theta0
    if config.sim_time is not None:
        out["sim_time"] = config.sim_time
    if config.plant is not None and not isinstance(config, BenchmarkCase):
        out["plant"] = _tf_payload(config.plant)
    return out


def _tuning_payload(result: TuningResult) -> dict:
    breakdown = result.breakdown_star
    return {
        "j_theta0": result.j_theta0,
        "best_seed": result.best_seed,
        "theta_star": result.theta_star,
        "j_star": result.j_star,
        "seeds": [
            {
                "seed": r.seed,
                "best_j": r.best_value,
                "best_theta": r.best_theta,
                "evaluations": r.evaluations,
                "iterations": r.iterations,
                "stop": r.stop_reason,
                "inertia": r.inertia,
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
            "gamma_r0": result.gamma_r0,
            "bound": breakdown.bound,
            "t_l1": breakdown.t_l1,
            "satisfied": breakdown.bound_satisfied,
        },
        "evaluations": result.evaluations,
        "penalized_evaluations": result.penalized_evaluations,
        "penalty_counts": {r.value: n for r, n in result.penalty_counts.items()},
        "bound_checks": result.bound_checks,
        "bound_violations": result.bound_violations,
    }


def _validation_payload(report: ValidationReport) -> dict:
    return {
        "stable": report.stable,
        "max_pole_magnitude": report.max_pole_magnitude,
        "closed_loop_poles": report.closed_loop_poles,
        "tracking_error_l1": report.tracking_error_l1,
        "max_abs_input": report.max_abs_input,
        "input_l1": report.step_traces.u.l1(),
    }


def _controller_payload(c) -> dict:
    """Realized controller: zeros, poles and gain, plus num and den for a tf.

    A factored controller has no expanded coefficients here: multiplied
    out over dozens of roots they no longer describe it.
    """
    if isinstance(c, DiscreteZpk):
        return {
            "form": "zpk",
            "sample_time": c.sample_time,
            "zeros": c.zeros,
            "poles": c.poles,
            "gain": c.gain,
        }
    # complex dtype, so that real roots are written as pairs too
    return {
        "form": "tf",
        "zeros": np.roots(c.num.coeffs).astype(complex),
        "poles": np.roots(c.den.coeffs).astype(complex),
        "gain": c.num.coeffs[0] / c.den.coeffs[0],
        **_tf_payload(c),
    }


def _trace_columns(seed_results) -> dict:
    rows = [(r.seed, iteration, best_j) for r in seed_results for iteration, best_j in r.trace]
    return dict(zip(("seed", "iteration", "best_j"), zip(*rows)))


def _step_columns(report: ValidationReport) -> dict:
    traces = report.step_traces
    return {
        "k": range(len(traces.r.samples)),
        "r": traces.r.samples,
        "y_model": traces.y_model.samples,
        "y_tuned": traces.y_closed_loop.samples,
        "u": traces.u.samples,
    }


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


def _with_flags(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """The config with --seeds, --swarm-size and --iterations applied."""
    seeds = config.seeds if args.seeds is None else _parse_seed_list(args.seeds)
    pso = {"swarm_size": args.swarm_size, "max_iterations": args.iterations}
    try:
        return replace(
            config,
            seeds=seeds,
            pso=replace(config.pso, **{k: v for k, v in pso.items() if v is not None}),
        )
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
        "fo_beats_io": j_fo < j_io,
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


def cmd_reproduce(case: BenchmarkCase, out_dir: Path) -> int:
    """Tune one built-in benchmark and write its artifact set."""
    example = case.name
    targets = reference_targets(example)
    print(f"{example}: tuning with seeds {list(case.seeds)} ...")
    result = tune_case(case)

    reproduced = (
        abs(result.j_theta0 - targets.j_theta0)
        <= targets.j_theta0_rtol * abs(targets.j_theta0)
    )
    within_band = targets.j_star_min <= result.j_star <= targets.j_star_max
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
            "theta_star": targets.theta_star,
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
    _write_json(case_dir / "config.json", _config_payload(case))
    _write_csv(case_dir / "trace.csv", _trace_columns(result.seed_results))
    _write_csv(case_dir / "step_response.csv", _step_columns(result.validation))
    data = result.data
    _write_csv(
        case_dir / "initial_data.csv",
        {
            "k": range(len(data)),
            "r0": data.r0.samples,
            "u0": data.u0.samples,
            "y0": data.y0.samples,
        },
    )

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
        f"bound satisfied: {result.breakdown_star.bound_satisfied} -> {verdict}"
    )
    print(f"{example}: artifacts in {case_dir}")
    return EXIT_OK


def cmd_tune(config: RunConfig, data: ExperimentRecord, out_dir: Path) -> int:
    """Tune from a recorded experiment; no plant model is involved."""
    try:
        evaluator = make_evaluator(config, data)
    except ValueError as exc:
        raise CliError(f"config: {exc}", EXIT_USAGE) from exc
    print(f"tuning over {len(data)} samples with seeds {list(config.seeds)} ...")
    try:
        result = tune(evaluator, config)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_NUMERIC) from exc

    summary = {
        "config": _config_payload(config),
        "tuning": _tuning_payload(result),
        "controller": _controller_payload(realize(result.theta_star, config.template)),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "summary.json", summary)
    _write_csv(out_dir / "trace.csv", _trace_columns(result.seed_results))

    theta_text = ", ".join(format(float(x), ".6g") for x in result.theta_star)
    print(f"J* = {result.j_star:.6g} at theta* = [{theta_text}] (seed {result.best_seed})")
    if result.j_theta0 is not None:
        print(f"J(theta0) = {result.j_theta0:.6g}")
    print(f"stability bound satisfied: {result.breakdown_star.bound_satisfied}")
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
    except ValueError as exc:
        raise CliError(f"cannot realize theta: {exc}", EXIT_NUMERIC) from exc

    payload = {
        "theta": theta,
        "validation": _validation_payload(report),
        "controller": _controller_payload(realize(theta, config.template)),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "validation.json", payload)
    _write_csv(out_dir / "step_response.csv", _step_columns(report))

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

    swarm = argparse.ArgumentParser(add_help=False)
    swarm.add_argument("--seeds", help='seed list "1,2,3" or range "1..5"')
    swarm.add_argument("--swarm-size", type=int, help="particles per swarm")
    swarm.add_argument("--iterations", type=int, help="swarm iteration cap")

    rep = sub.add_parser(
        "reproduce",
        parents=[swarm],
        help="run a built-in benchmark end to end and write its artifacts",
    )
    rep.add_argument("example", help=f"one of: {', '.join(CASE_NAMES)}")
    rep.add_argument("--out-dir", default="runs", help="artifact root (default: runs)")
    rep.set_defaults(func=_run_reproduce)

    tune = sub.add_parser("tune", parents=[swarm], help="tune from a recorded experiment CSV")
    tune.add_argument("--config", required=True, help="JSON run configuration")
    tune.add_argument("--data", required=True, help="CSV with columns k,r0,u0,y0")
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
    try:
        case = builtin_case(args.example)
    except KeyError as exc:
        raise CliError(str(exc.args[0]), EXIT_USAGE) from None
    return cmd_reproduce(_with_flags(case, args), Path(args.out_dir))


def _run_tune(args: argparse.Namespace) -> int:
    config = _with_flags(load_run_config(args.config), args)
    data = load_data_record(args.data, config.sample_time)
    return cmd_tune(config, data, Path(args.out_dir))


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
