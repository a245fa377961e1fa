"""Benchmark definitions, data collection, tuning runs, and validation.

Three built-in plants exercise the tuner: a fourth-order lag, the same
lag with a 5 s dead time, and an oscillatory discrete plant tuned with
both controller families. Each case fixes the reference model, the
starting parameters, the search box, and the horizon. The true plant is
known only here: it generates the one-shot data record and afterwards
grades the tuned controller. The tuning path itself never touches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .folib import (
    ControllerKind,
    ControllerTemplate,
    OustaloupConfig,
    realize,
)
from .l1_idfrit import (
    ExperimentRecord,
    LossBreakdown,
    LossEvaluator,
    StabilityBoundReport,
)
from .lti_core import (
    ContinuousTf,
    DiscreteTf,
    Signal,
    co_simulate,
    loop_poles,
    simulate,
    tustin,
)
from .swarm_opt import Bounds, PsoConfig, minimize

__all__ = [
    "BenchmarkCase",
    "ReferenceTargets",
    "ValidationReport",
    "StepTraces",
    "SeedResult",
    "CaseResult",
    "FoIoComparison",
    "CASE_NAMES",
    "builtin_case",
    "reference_targets",
    "discretized_plant",
    "discretized_reference_model",
    "unit_step",
    "collect_data",
    "make_evaluator",
    "validate",
    "tune_case",
    "compare_fo_io",
]

CASE_NAMES = ("example1", "example2", "example3_io", "example3_fo")

PlantLike = Union[ContinuousTf, DiscreteTf]

#: a closed loop is graded stable iff every pole magnitude is below this;
#: the margin keeps a mode on the unit circle that the eigensolver puts a
#: few ulp inside it (a cancelled z = -1 mode, say) from counting as stable
STABLE_RADIUS = 1.0 - 1e-9


@dataclass(frozen=True, eq=False)
class BenchmarkCase:
    """One complete tuning scenario.

    ``plant`` and ``reference_model`` may be continuous (discretized on
    demand with the case sample time) or already discrete. ``theta0`` is
    the parameter vector of the data-collection controller and must lie
    inside ``bounds``. Only a unit-step reference is supported.
    """

    name: str
    plant: PlantLike
    reference_model: PlantLike
    sample_time: float
    sim_time: float
    theta0: np.ndarray
    bounds: Bounds
    template: ControllerTemplate
    reference_signal: str = "unit_step"

    def __post_init__(self):
        theta0 = np.asarray(self.theta0, dtype=float).reshape(-1)
        theta0.setflags(write=False)
        object.__setattr__(self, "theta0", theta0)
        if not (self.sample_time > 0.0 and self.sim_time > 0.0):
            raise ValueError("sample_time and sim_time must be > 0")
        if abs(self.template.sample_time - self.sample_time) > 1e-12 * self.sample_time:
            raise ValueError("template sample time differs from the case")
        for g in (self.plant, self.reference_model):
            if isinstance(g, DiscreteTf):
                if abs(g.sample_time - self.sample_time) > 1e-12 * self.sample_time:
                    raise ValueError("discrete block sample time differs from the case")
        if self.bounds.dim != self.template.theta_dim:
            raise ValueError("bounds dimension does not match the controller kind")
        if theta0.size != self.template.theta_dim:
            raise ValueError("theta0 dimension does not match the controller kind")
        if not self.bounds.contains(theta0):
            raise ValueError("theta0 must lie inside the search bounds")
        if self.reference_signal != "unit_step":
            raise ValueError("only the unit_step reference is supported")

    @property
    def n_samples(self) -> int:
        """Horizon N+1 with N = round(sim_time / sample_time)."""
        return int(round(self.sim_time / self.sample_time)) + 1


@dataclass(frozen=True)
class ReferenceTargets:
    """Published loss values and the pass bands used to grade a run."""

    j_theta0: float
    j_star: float
    theta_star: Tuple[float, ...]
    j_star_max: float
    j_star_min: float = 0.0
    j_theta0_rtol: float = 0.01


@dataclass(frozen=True, eq=False)
class StepTraces:
    """Unit-step traces used for plotting and effort metrics."""

    r: Signal
    y_model: Signal
    y_closed_loop: Signal
    u: Signal


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Grading of a candidate against the true plant.

    ``closed_loop_poles`` are the eigenvalues of the loop's state matrix
    as computed; ``stable`` holds iff every one lies inside STABLE_RADIUS.
    """

    closed_loop_poles: Tuple[complex, ...]
    stable: bool
    tracking_error_l1: float
    max_abs_input: float
    step_traces: StepTraces

    def __post_init__(self):
        mags = [abs(p) for p in self.closed_loop_poles]
        if self.stable != all(m < STABLE_RADIUS for m in mags):
            raise ValueError("stable flag must mirror the pole magnitudes")

    @property
    def max_pole_magnitude(self) -> float:
        if not self.closed_loop_poles:
            return 0.0
        return max(abs(p) for p in self.closed_loop_poles)


@dataclass(frozen=True, eq=False)
class SeedResult:
    """Outcome of one seeded swarm run, with why it stopped (stall or cap)."""

    seed: int
    best_theta: np.ndarray
    best_value: float
    evaluations: int
    trace: Tuple[Tuple[int, float], ...]
    iterations: int
    stop_reason: str


@dataclass(frozen=True, eq=False)
class CaseResult:
    """Everything produced by tuning one case over a list of seeds."""

    case: BenchmarkCase
    data: ExperimentRecord
    j_theta0: float
    seed_results: Tuple[SeedResult, ...]
    best_seed: int
    theta_star: np.ndarray
    j_star: float
    breakdown_star: LossBreakdown
    bound_report: StabilityBoundReport
    validation: ValidationReport
    evaluations: int
    penalized_evaluations: int
    penalty_counts: dict
    bound_checks: int
    bound_violations: int


@dataclass(frozen=True, eq=False)
class FoIoComparison:
    """Side-by-side metrics for the two controller families on one plant."""

    j_fo: float
    j_io: float
    fo_beats_io: bool
    tracking_error_fo: float
    tracking_error_io: float
    max_input_fo: float
    max_input_io: float
    input_l1_fo: float
    input_l1_io: float
    theta_fo: Tuple[float, ...]
    theta_io: Tuple[float, ...]


_EX12_PLANT_NUM = (12.0, 8.0)
_EX12_PLANT_DEN = (20.0, 113.0, 147.0, 62.0, 8.0)

# oscillatory discrete plant, given directly in z with a 3-sample delay
_EX3_PLANT_NUM = (0.28261, 0.50666, 0.0, 0.0, 0.0)
_EX3_PLANT_DEN = (1.0, -1.41833, 1.58939, -1.31608, 0.88642)

_TARGETS = {
    "example1": ReferenceTargets(
        j_theta0=496.1250,
        j_star=0.3805,
        theta_star=(2.7563, 0.5105, 0.9966, 2.6412, 0.8482),
        j_star_max=0.6,
    ),
    "example2": ReferenceTargets(
        j_theta0=508.6346,
        j_star=53.3317,
        theta_star=(1.4675, 0.1368, 1.0147, 5.0724, 1.3177),
        j_star_max=60.0,
        j_star_min=10.0,
    ),
    "example3_io": ReferenceTargets(
        j_theta0=28.6451,
        j_star=1.1129,
        theta_star=(0.0214, 3.3025, 0.0209),
        j_star_max=1.5,
    ),
    "example3_fo": ReferenceTargets(
        j_theta0=28.6451,
        j_star=0.8087,
        theta_star=(1.0894e-9, 3.3490, 1.0018, 0.0242, 0.9448),
        j_star_max=1.2,
    ),
}


def _example12_case(name: str, dead_time: float) -> BenchmarkCase:
    ts = 0.1
    template = ControllerTemplate(ControllerKind.FOPID, ts, OustaloupConfig())
    return BenchmarkCase(
        name=name,
        plant=ContinuousTf(_EX12_PLANT_NUM, _EX12_PLANT_DEN, dead_time=dead_time),
        reference_model=ContinuousTf([1.0], [1.0, 2.0, 1.0]),
        sample_time=ts,
        sim_time=100.0,
        theta0=np.array([1.0, 0.0, 1.0, 0.0, 1.0]),
        bounds=Bounds([0.0] * 5, [10.0, 10.0, 2.0, 10.0, 2.0]),
        template=template,
    )


def _example3_case(name: str, kind: ControllerKind) -> BenchmarkCase:
    ts = 0.05
    alpha = math.exp(-0.5)
    md = DiscreteTf(
        [(1.0 - alpha) ** 2, 0.0, 0.0],
        [1.0, -2.0 * alpha, alpha ** 2],
        ts,
        delay_samples=3,
    )
    plant = DiscreteTf(_EX3_PLANT_NUM, _EX3_PLANT_DEN, ts, delay_samples=3)
    if kind is ControllerKind.FOPID:
        theta0 = np.array([0.1, 0.5, 1.0, 0.0, 1.0])
        bounds = Bounds([0.0] * 5, [5.0, 5.0, 2.0, 5.0, 2.0])
    else:
        theta0 = np.array([0.1, 0.5, 0.0])
        bounds = Bounds([0.0] * 3, [5.0] * 3)
    return BenchmarkCase(
        name=name,
        plant=plant,
        reference_model=md,
        sample_time=ts,
        sim_time=4.0,
        theta0=theta0,
        bounds=bounds,
        template=ControllerTemplate(kind, ts, OustaloupConfig()),
    )


def builtin_case(name: str) -> BenchmarkCase:
    """Look up one of the built-in benchmark cases by name."""
    if name == "example1":
        return _example12_case(name, dead_time=0.0)
    if name == "example2":
        return _example12_case(name, dead_time=5.0)
    if name == "example3_io":
        return _example3_case(name, ControllerKind.IOPID)
    if name == "example3_fo":
        return _example3_case(name, ControllerKind.FOPID)
    raise KeyError(f"unknown case {name!r}; valid names: {', '.join(CASE_NAMES)}")


def reference_targets(name: str) -> ReferenceTargets:
    """Published loss values and pass bands for a built-in case."""
    try:
        return _TARGETS[name]
    except KeyError:
        raise KeyError(
            f"unknown case {name!r}; valid names: {', '.join(CASE_NAMES)}"
        ) from None


def discretized_plant(case: BenchmarkCase) -> DiscreteTf:
    if isinstance(case.plant, DiscreteTf):
        return case.plant
    return tustin(case.plant, case.sample_time)


def discretized_reference_model(case: BenchmarkCase) -> DiscreteTf:
    if isinstance(case.reference_model, DiscreteTf):
        return case.reference_model
    return tustin(case.reference_model, case.sample_time)


def unit_step(n_samples: int, sample_time: float) -> Signal:
    return Signal(np.ones(n_samples), sample_time)


def collect_data(case: BenchmarkCase) -> ExperimentRecord:
    """Run the one-shot experiment: the theta0 loop under a unit step.

    The closed loop of the discretized plant and the realized starting
    controller is co-simulated sample by sample, which is how the record
    would be captured on a live loop; the resulting (r0, u0, y0) triple
    is all the tuner ever sees.
    """
    pd = discretized_plant(case)
    c0 = realize(case.theta0, case.template)
    r0 = unit_step(case.n_samples, case.sample_time)
    y0, u0 = co_simulate(pd, c0, r0)
    return ExperimentRecord(r0=r0, u0=u0, y0=y0)


def make_evaluator(
    case: BenchmarkCase,
    data: Optional[ExperimentRecord] = None,
    check_bound: bool = True,
) -> LossEvaluator:
    """Loss evaluator for a case, collecting the data record if needed."""
    if data is None:
        data = collect_data(case)
    return LossEvaluator(
        case.template, data, discretized_reference_model(case), check_bound=check_bound
    )


def _grade(
    pd: DiscreteTf,
    md: DiscreteTf,
    template: ControllerTemplate,
    theta,
    n_samples: int,
) -> ValidationReport:
    """Grading core shared by validate() and the command-line validator."""
    c = realize(theta, template)
    r = unit_step(n_samples, pd.sample_time)
    poles = tuple(complex(p) for p in loop_poles(pd, c))
    stable = bool(all(abs(p) < STABLE_RADIUS for p in poles))
    y_cl, u = co_simulate(pd, c, r)
    y_model = simulate(md, r)
    err = np.abs(y_cl.samples - y_model.samples)
    tracking = float(np.sum(err)) if np.all(np.isfinite(err)) else math.inf
    finite_u = np.abs(u.samples)
    max_u = float(np.max(finite_u)) if finite_u.size else 0.0
    return ValidationReport(
        closed_loop_poles=poles,
        stable=stable,
        tracking_error_l1=tracking,
        max_abs_input=max_u,
        step_traces=StepTraces(r=r, y_model=y_model, y_closed_loop=y_cl, u=u),
    )


def validate(case: BenchmarkCase, theta) -> ValidationReport:
    """Grade a parameter vector against the true plant.

    Builds the actual closed loop, reports its poles and stability, the
    l1 gap between its step response and the reference model's, and the
    input effort. Instability shows up in the report, never as an
    exception.
    """
    return _grade(
        discretized_plant(case),
        discretized_reference_model(case),
        case.template,
        theta,
        case.n_samples,
    )


def _seed_sweep(
    evaluator: LossEvaluator,
    bounds: Bounds,
    pso: Optional[PsoConfig],
    seeds: Sequence[int],
    x0,
) -> Tuple[Tuple[SeedResult, ...], SeedResult]:
    """Run one swarm per seed against a shared evaluator, rank the outcomes.

    Ties on the best value go to the lowest seed, which keeps the choice
    reproducible. The command-line tuner calls this directly, so its
    results on an exported data record match tune_case bit for bit.
    """
    base = pso if pso is not None else PsoConfig()
    results = []
    for seed in seeds:
        run = minimize(evaluator, bounds, replace(base, seed=int(seed)), x0=x0)
        results.append(
            SeedResult(
                seed=int(seed),
                best_theta=run.best_theta,
                best_value=float(run.best_value),
                evaluations=run.evaluations,
                trace=tuple((int(i), float(v)) for i, v in run.trace),
                iterations=run.iterations,
                stop_reason=run.stop_reason,
            )
        )
    best = min(results, key=lambda r: (r.best_value, r.seed))
    return tuple(results), best


def tune_case(
    case: BenchmarkCase,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    pso: Optional[PsoConfig] = None,
    data: Optional[ExperimentRecord] = None,
) -> CaseResult:
    """Tune one case over several seeds and keep the best outcome.

    Every swarm run injects theta0 as a starting particle, so no seed
    can end up worse than the data-collection controller. The evaluator
    is shared across seeds, which makes its counters (penalties, bound
    checks, bound violations) cover the whole tuning campaign.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    if data is None:
        data = collect_data(case)
    evaluator = make_evaluator(case, data=data)
    j_theta0 = float(evaluator(case.theta0))
    results, best = _seed_sweep(evaluator, case.bounds, pso, seeds, case.theta0)
    breakdown = evaluator.evaluate(best.best_theta)
    bound_rep = evaluator.bound_report(breakdown)
    report = validate(case, best.best_theta)
    return CaseResult(
        case=case,
        data=data,
        j_theta0=j_theta0,
        seed_results=tuple(results),
        best_seed=best.seed,
        theta_star=best.best_theta,
        j_star=best.best_value,
        breakdown_star=breakdown,
        bound_report=bound_rep,
        validation=report,
        evaluations=evaluator.evaluations,
        penalized_evaluations=evaluator.penalties,
        penalty_counts=dict(evaluator.penalty_counts),
        bound_checks=evaluator.bound_checks,
        bound_violations=evaluator.bound_violations,
    )


def compare_fo_io(fo: CaseResult, io: CaseResult) -> FoIoComparison:
    """Summarize the fractional-vs-integer head-to-head on a shared plant."""
    if fo.case.template.kind is not ControllerKind.FOPID:
        raise ValueError("first result must come from a FOPID tuning")
    if io.case.template.kind is not ControllerKind.IOPID:
        raise ValueError("second result must come from an IOPID tuning")
    u_fo = fo.validation.step_traces.u
    u_io = io.validation.step_traces.u
    return FoIoComparison(
        j_fo=fo.j_star,
        j_io=io.j_star,
        fo_beats_io=bool(fo.j_star < io.j_star),
        tracking_error_fo=fo.validation.tracking_error_l1,
        tracking_error_io=io.validation.tracking_error_l1,
        max_input_fo=fo.validation.max_abs_input,
        max_input_io=io.validation.max_abs_input,
        input_l1_fo=u_fo.l1(),
        input_l1_io=u_io.l1(),
        theta_fo=tuple(float(x) for x in fo.theta_star),
        theta_io=tuple(float(x) for x in io.theta_star),
    )
