"""Run configuration, benchmark cases, the tuning core, and grading.

A run config holds the controller template, the search box, the
reference model, the swarm settings and seeds, and optionally theta0, a
plant and a horizon. ``tune`` is the one tuning flow: the command-line
tuner calls it on a recorded experiment, and ``tune_case`` calls it on a
built-in case's record and then grades the winner with ``validate``.

Three built-in plants exercise the tuner: a fourth-order lag, the same
lag with a 5 s dead time, and an oscillatory discrete plant tuned with
both controller families. Each case fixes the reference model, the
starting parameters, the search box, and the horizon. The true plant is
known only here: it generates the one-shot data record and afterwards
grades the tuned controller. The tuning path itself never touches it.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .folib import ControllerKind, ControllerTemplate, realize
from .l1_idfrit import ExperimentRecord, LossBreakdown, LossEvaluator, toeplitz_solve
from .lti_core import (
    ContinuousTf,
    DiscreteTf,
    SampleTimeError,
    Signal,
    check_well_posed,
    closed_loop,
    impulse_response,
    is_stable,
    loop_poles,
    same_sample_time,
    simulate,
    tustin,
)
from .swarm_opt import Bounds, OptimResult, PsoConfig, minimize

__all__ = [
    "RunConfig",
    "BenchmarkCase",
    "ReferenceTargets",
    "ValidationReport",
    "StepTraces",
    "TuningResult",
    "CaseResult",
    "CASE_NAMES",
    "DEFAULT_SEEDS",
    "J_THETA0_RTOL",
    "builtin_case",
    "reference_targets",
    "discretized_plant",
    "discretized_reference_model",
    "unit_step",
    "co_simulate",
    "collect_data",
    "make_evaluator",
    "validate",
    "tune",
    "tune_case",
]

#: seeds a tuning run uses when none are asked for
DEFAULT_SEEDS = (1, 2, 3, 4, 5)

#: relative distance from the published J(theta0) that still reproduces it
J_THETA0_RTOL = 0.01

PlantLike = Union[ContinuousTf, DiscreteTf]


@dataclass(frozen=True, eq=False, kw_only=True)
class RunConfig:
    """Everything a tuning or grading run needs besides the data record.

    ``reference_model`` and ``plant`` may be continuous (discretized with
    the template's sample time) or already discrete. ``theta0``, when
    given, is scored and injected into every swarm, and each of the
    ``seeds`` runs one swarm with the ``pso`` settings; ``plant`` and
    ``sim_time`` are needed only to collect data or to validate. There
    must be at least one seed and no seed twice, a given ``theta0`` must
    be finite, a given ``sim_time`` must be positive, and a discrete block
    must run at the template's sample time.
    """

    template: ControllerTemplate
    bounds: Bounds
    reference_model: PlantLike
    theta0: Optional[np.ndarray] = None
    plant: Optional[PlantLike] = None
    sim_time: Optional[float] = None
    pso: PsoConfig = PsoConfig()
    seeds: Tuple[int, ...] = DEFAULT_SEEDS

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if any(seed < 0 or int(seed) != seed for seed in self.seeds):
            raise ValueError(f"seeds must be non-negative integers, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must not repeat, got {list(self.seeds)}")
        kind, dim = self.template.kind.value, self.template.theta_dim
        if self.bounds.dim != dim:
            raise ValueError(
                f"bounds have dimension {self.bounds.dim}, a {kind} controller needs {dim}"
            )
        if self.theta0 is not None:
            theta0 = np.asarray(self.theta0, dtype=float).reshape(-1)
            if theta0.size != dim:
                raise ValueError(
                    f"theta0 has dimension {theta0.size}, a {kind} controller needs {dim}"
                )
            if not np.isfinite(theta0).all():
                raise ValueError(f"theta0 must be finite, got {theta0.tolist()}")
            theta0.setflags(write=False)
            object.__setattr__(self, "theta0", theta0)
        if self.sim_time is not None and not self.sim_time > 0.0:
            raise ValueError("sim_time must be > 0")
        for what, g in (("plant", self.plant), ("reference model", self.reference_model)):
            if isinstance(g, DiscreteTf) and not same_sample_time(g.sample_time, self.sample_time):
                raise ValueError(
                    f"{what} sample time {g.sample_time} differs from the "
                    f"controller's {self.sample_time}"
                )

    @property
    def sample_time(self) -> float:
        return self.template.sample_time

    @property
    def n_samples(self) -> int:
        """Horizon N+1 with N = round(sim_time / sample_time)."""
        return int(round(self.sim_time / self.sample_time)) + 1


@dataclass(frozen=True, eq=False, kw_only=True)
class BenchmarkCase(RunConfig):
    """One complete tuning scenario: a run config with its true plant.

    ``theta0`` is the parameter vector of the data-collection controller
    and must lie inside ``bounds``. The reference is a unit step.
    """

    name: str
    plant: PlantLike
    theta0: np.ndarray
    sim_time: float

    def __post_init__(self):
        super().__post_init__()
        if not self.bounds.contains(self.theta0):
            raise ValueError("theta0 must lie inside the search bounds")


@dataclass(frozen=True)
class ReferenceTargets:
    """Published loss values and the pass bands used to grade a run."""

    j_theta0: float
    j_star: float
    theta_star: Tuple[float, ...]
    j_star_max: float
    j_star_min: float = 0.0


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
    as computed; ``stable`` is their verdict by ``lti_core.is_stable``.
    """

    closed_loop_poles: Tuple[complex, ...]
    tracking_error_l1: float
    max_abs_input: float
    step_traces: StepTraces

    @property
    def stable(self) -> bool:
        return is_stable(self.closed_loop_poles)

    @property
    def max_pole_magnitude(self) -> float:
        if not self.closed_loop_poles:
            return 0.0
        return max(abs(p) for p in self.closed_loop_poles)


@dataclass(frozen=True, eq=False)
class TuningResult:
    """Outcome of tuning over a list of seeds, with the campaign's counters.

    ``j_theta0`` is None when no starting vector was given. The counters
    cover every evaluation of the run: J(theta0), all seeded swarms, and
    the winner's breakdown, which carries the winner's stability bound.
    """

    j_theta0: Optional[float]
    seed_results: Tuple[OptimResult, ...]
    best_seed: int
    theta_star: np.ndarray
    j_star: float
    breakdown_star: LossBreakdown
    gamma_r0: float
    evaluations: int
    penalty_counts: dict
    bound_violations: int

    @property
    def penalized_evaluations(self) -> int:
        return sum(self.penalty_counts.values())

    @property
    def bound_checks(self) -> int:
        return self.evaluations - self.penalized_evaluations


@dataclass(frozen=True, eq=False)
class CaseResult(TuningResult):
    """A benchmark case's tuning, its data record, and the winner's grade."""

    case: BenchmarkCase
    data: ExperimentRecord
    validation: ValidationReport


_EX12_PLANT_NUM = (12.0, 8.0)
_EX12_PLANT_DEN = (20.0, 113.0, 147.0, 62.0, 8.0)

# oscillatory discrete plant, given directly in z with a 3-sample delay
_EX3_PLANT_NUM = (0.28261, 0.50666, 0.0, 0.0, 0.0)
_EX3_PLANT_DEN = (1.0, -1.41833, 1.58939, -1.31608, 0.88642)


def _example12_case(name: str, dead_time: float) -> BenchmarkCase:
    ts = 0.1
    template = ControllerTemplate(ControllerKind.FOPID, ts)
    return BenchmarkCase(
        name=name,
        plant=ContinuousTf(_EX12_PLANT_NUM, _EX12_PLANT_DEN, dead_time=dead_time),
        reference_model=ContinuousTf([1.0], [1.0, 2.0, 1.0]),
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
        sim_time=4.0,
        theta0=theta0,
        bounds=bounds,
        template=ControllerTemplate(kind, ts),
    )


#: the built-in cases: each name's case builder and published targets
_CASES = {
    "example1": (
        functools.partial(_example12_case, dead_time=0.0),
        ReferenceTargets(
            j_theta0=496.1250,
            j_star=0.3805,
            theta_star=(2.7563, 0.5105, 0.9966, 2.6412, 0.8482),
            j_star_max=0.6,
        ),
    ),
    "example2": (
        functools.partial(_example12_case, dead_time=5.0),
        ReferenceTargets(
            j_theta0=508.6346,
            j_star=53.3317,
            theta_star=(1.4675, 0.1368, 1.0147, 5.0724, 1.3177),
            j_star_max=60.0,
            j_star_min=10.0,
        ),
    ),
    "example3_io": (
        functools.partial(_example3_case, kind=ControllerKind.IOPID),
        ReferenceTargets(
            j_theta0=28.6451,
            j_star=1.1129,
            theta_star=(0.0214, 3.3025, 0.0209),
            j_star_max=1.5,
        ),
    ),
    "example3_fo": (
        functools.partial(_example3_case, kind=ControllerKind.FOPID),
        ReferenceTargets(
            j_theta0=28.6451,
            j_star=0.8087,
            theta_star=(1.0894e-9, 3.3490, 1.0018, 0.0242, 0.9448),
            j_star_max=1.2,
        ),
    ),
}

CASE_NAMES = tuple(_CASES)


def _catalog_entry(name: str):
    try:
        return _CASES[name]
    except KeyError:
        raise KeyError(f"unknown case {name!r}; valid names: {', '.join(CASE_NAMES)}") from None


def builtin_case(name: str) -> BenchmarkCase:
    """Look up one of the built-in benchmark cases by name."""
    build, _ = _catalog_entry(name)
    return build(name)


def reference_targets(name: str) -> ReferenceTargets:
    """Published loss values and pass bands for a built-in case."""
    return _catalog_entry(name)[1]


def discretized_plant(config: RunConfig) -> DiscreteTf:
    if isinstance(config.plant, DiscreteTf):
        return config.plant
    return tustin(config.plant, config.sample_time)


def discretized_reference_model(config: RunConfig) -> DiscreteTf:
    if isinstance(config.reference_model, DiscreteTf):
        return config.reference_model
    return tustin(config.reference_model, config.sample_time)


def unit_step(n_samples: int, sample_time: float) -> Signal:
    return Signal(np.ones(n_samples), sample_time)


def co_simulate(p, c, r: Signal) -> Tuple[Signal, Signal]:
    """Response (y, u) of the unity-feedback loop of plant p and controller
    c to the reference r, from rest.

    With L = P C, the error e = r - y solves (1 + L) e = r: one
    ``toeplitz_solve`` with L's impulse response, plus one at its head, as
    first column, then y = r - e and u = C e. That impulse response runs
    through the plant first: a controller's own can grow by orders of
    magnitude that the plant averages away. Raises SampleTimeError unless
    p, c and r share a sample time, and AlgebraicLoopError when 1 + Dc Dp
    vanishes; a divergent loop returns its samples without a warning.
    """
    if not same_sample_time(p.sample_time, r.sample_time):
        raise SampleTimeError("reference sample time differs from the loop")
    with np.errstate(over="ignore", invalid="ignore"):
        h = simulate(c, impulse_response(p, len(r) - 1)).samples.copy()
        h[0] += 1.0
        check_well_posed(h[0])
        e = toeplitz_solve(h, r.samples)
        u = simulate(c, Signal(e, r.sample_time))
    return Signal(r.samples - e, r.sample_time), u


def collect_data(case: BenchmarkCase) -> ExperimentRecord:
    """Run the one-shot experiment: the theta0 loop under a unit step.

    The unity-feedback loop of the discretized plant and the realized
    starting controller answers a unit step (``co_simulate``); the
    resulting (r0, u0, y0) triple is all the tuner ever sees.
    """
    pd = discretized_plant(case)
    c0 = realize(case.theta0, case.template)
    r0 = unit_step(case.n_samples, case.sample_time)
    y0, u0 = co_simulate(pd, c0, r0)
    return ExperimentRecord(r0=r0, u0=u0, y0=y0)


def make_evaluator(config: RunConfig, data: ExperimentRecord) -> LossEvaluator:
    """Loss evaluator for a config's template and reference model on a record."""
    return LossEvaluator(config.template, data, discretized_reference_model(config))


def validate(config: RunConfig, theta) -> ValidationReport:
    """Grade a parameter vector against the config's true plant.

    Reports the actual loop's poles (``closed_loop``) and stability, the l1
    gap between its step response (``co_simulate``) and the reference
    model's over ``sim_time``, and the input effort. Instability shows up
    in the report, never as an exception; a config without a plant or a
    ``sim_time`` raises ValueError.
    """
    for name in ("plant", "sim_time"):
        if getattr(config, name) is None:
            raise ValueError(f"validate needs a config with a {name}")
    pd = discretized_plant(config)
    c = realize(theta, config.template)
    r = unit_step(config.n_samples, pd.sample_time)
    poles = tuple(complex(p) for p in loop_poles(closed_loop(pd, c)))
    y_cl, u = co_simulate(pd, c, r)
    y_model = simulate(discretized_reference_model(config), r)
    with np.errstate(over="ignore", invalid="ignore"):
        tracking = float(np.sum(np.abs(y_cl.samples - y_model.samples)))
    return ValidationReport(
        closed_loop_poles=poles,
        tracking_error_l1=tracking if math.isfinite(tracking) else math.inf,
        max_abs_input=float(np.max(np.abs(u.samples))),
        step_traces=StepTraces(r=r, y_model=y_model, y_closed_loop=y_cl, u=u),
    )


def _cpus() -> int:
    """CPUs in this process's CPU set, or 1 where the platform cannot
    report that set (every platform that can also forks)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _run_seeds(evaluator: LossEvaluator, config: RunConfig, seeds, evaluate_swarm=None) -> list:
    """Each seed's swarm, scoring a swarm iteration's particles with
    ``evaluate_swarm``, by default with one ``evaluator.evaluate_batch``
    call; the simplex finish calls ``evaluator`` one point at a time."""
    evaluate_swarm = evaluate_swarm or evaluator.evaluate_batch
    return [
        minimize(
            evaluator,
            config.bounds,
            config.pso,
            seed,
            x0=config.theta0,
            evaluate_swarm=evaluate_swarm,
        )
        for seed in seeds
    ]


def _receive(process, connection, task: str):
    """A worker's answer; raises the exception it sent instead, or
    RuntimeError when it died before answering."""
    try:
        answer = connection.recv()
    except EOFError:
        process.join()
        raise RuntimeError(
            f"the worker {task} exited with code {process.exitcode} before sending its results"
        ) from None
    if isinstance(answer, Exception):
        raise answer
    return answer


def _pin(cpus) -> None:
    """Run this process on ``cpus`` only, where they are still allowed.

    The tuning processes are pinned one to a CPU: unpinned, a worker and
    the process that wakes it through a pipe often share one CPU for most
    of a run, each waiting for the other, and a one-seed run gains nothing.
    """
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # none of them is in this process's CPU set any more
        pass


def _serve(evaluator: LossEvaluator, work, connection, inherited, cpu: int) -> None:
    """Body of a forked worker, pinned to ``cpu``: answer each request with
    ``work(request)``, computed on this process's copy of the evaluator,
    until a None asks for the counters' increments. An exception is sent
    in place of an answer and ends the worker."""
    _pin({cpu})
    # the parent's ends of every pipe, so that the parent's exit reads as
    # EOF here
    for end in inherited:
        end.close()
    evaluator.evaluations = evaluator.bound_violations = 0
    evaluator.penalty_counts = dict.fromkeys(evaluator.penalty_counts, 0)
    try:
        while (request := connection.recv()) is not None:
            connection.send(work(request))
        connection.send(
            (evaluator.evaluations, evaluator.penalty_counts, evaluator.bound_violations)
        )
    except EOFError:
        pass
    except Exception as exc:  # handed to the parent, which raises it
        connection.send(exc)
    finally:
        connection.close()


class _Pool:
    """This process and the forked workers of ``_forked``, sharing out
    calls of one function round robin."""

    def __init__(self, work, workers):
        self.work = work
        self.workers = workers
        self.size = len(workers) + 1

    def map(self, items, out, task):
        """``out`` with ``work(items[k::n])`` placed at ``out[k::n]`` for
        every k < n: worker k computes its share while this process
        computes share 0. ``task(k)`` says what worker k was doing, for
        the error raised if it dies."""
        n = self.size
        for k, (_, connection) in enumerate(self.workers, start=1):
            connection.send(items[k::n])
        out[0::n] = self.work(items[0::n])
        for k, (process, connection) in enumerate(self.workers, start=1):
            out[k::n] = _receive(process, connection, task(k))
        return out


@contextlib.contextmanager
def _forked(evaluator: LossEvaluator, work, count: int):
    """A ``_Pool`` of this process and ``count`` forked workers, each
    serving ``work`` on its own copy of the evaluator, with every process
    pinned to its own CPU of this process's CPU set (``count`` is less
    than its size) until the block is left.

    Leaving the block normally adds every worker's counter increments
    (evaluations, penalties by reason, bound violations) to the
    evaluator's. Leaving it on an exception terminates the workers.
    Either way every worker is joined before the block is left.
    """
    # imported only when it forks, so that importing the package does not
    # load it; fork, because a worker needs the evaluator this process
    # built (the program starts no threads of its own)
    import multiprocessing

    context = multiprocessing.get_context("fork")
    cpus = sorted(os.sched_getaffinity(0))
    workers = []
    try:
        for k in range(1, count + 1):
            here, there = context.Pipe()
            process = context.Process(
                target=_serve,
                args=(evaluator, work, there, [c for _, c in workers] + [here], cpus[k]),
            )
            process.start()
            workers.append((process, here))
            # the worker holds the only copy of its end now, so its death
            # reads as EOF here, and later workers do not inherit that end
            there.close()
        _pin({cpus[0]})
        yield _Pool(work, workers)
        for _, connection in workers:
            connection.send(None)
        for process, connection in workers:
            evaluations, penalty_counts, bound_violations = _receive(
                process, connection, "asked for its counters"
            )
            evaluator.evaluations += evaluations
            for reason, increment in penalty_counts.items():
                evaluator.penalty_counts[reason] += increment
            evaluator.bound_violations += bound_violations
    except BaseException:
        for process, _ in workers:
            process.terminate()
        raise
    finally:
        for process, connection in workers:
            process.join()
            connection.close()
        _pin(cpus)


def _tune_seeds(evaluator: LossEvaluator, config: RunConfig) -> list:
    """Every seed's OptimResult, in the config's order, with the evaluator's
    counters covering all of them.

    With n CPUs in this process's CPU set and at least n seeds, this
    process runs ``seeds[0::n]`` and n - 1 forked workers run
    ``seeds[k::n]``. With fewer seeds, this process runs the seeds one
    after another, and each swarm iteration's positions are split the
    same way among it and ``min(n, swarm_size) - 1`` forked workers,
    whose values are placed back by particle index. Every process scores
    its share of an iteration in one ``evaluate_batch`` call. Each seed's
    swarm is deterministic, each value depends on its candidate alone and
    the counters are sums, so the outcome is the same bit for bit for any
    n.
    """
    seeds = config.seeds
    cpus = _cpus()
    if cpus == 1:
        return _run_seeds(evaluator, config, seeds)
    if len(seeds) >= cpus:
        work = functools.partial(_run_seeds, evaluator, config)
        with _forked(evaluator, work, cpus - 1) as pool:
            return pool.map(
                seeds, [None] * len(seeds), lambda k: f"tuning seeds {list(seeds[k::cpus])}"
            )
    workers = min(cpus, config.pso.swarm_size) - 1
    with _forked(evaluator, evaluator.evaluate_batch, workers) as pool:

        def evaluate_swarm(positions):
            return pool.map(
                positions,
                np.empty(len(positions)),
                lambda k: f"scoring particles {k}::{pool.size}",
            )

        return _run_seeds(evaluator, config, seeds, evaluate_swarm=evaluate_swarm)


def tune(evaluator: LossEvaluator, config: RunConfig) -> TuningResult:
    """Run one swarm per seed of the config against a shared evaluator.

    J(theta0) is scored first when the config has a theta0, and theta0 is
    injected into every swarm, so no seed can end up worse than it. Ties
    on the best value go to the lowest seed, which keeps the choice
    reproducible. The evaluator's counters cover the whole run.

    The work is spread over one process per CPU of this process's CPU
    set (``os.sched_getaffinity``): this process and children forked
    once per call, each pinned to its own CPU until the children are
    joined, when this process gets its CPU set back. With at least as
    many seeds as CPUs, each process runs a share of the seeds, round
    robin in the config's order. With fewer, this process runs the seeds
    one after another and shares out each swarm iteration's particles
    instead; the simplex finish stays here. The result is the same bit
    for bit for any number of processes. One CPU (``taskset -c 0``) or a
    platform without ``os.sched_getaffinity`` runs everything in this
    process. J(theta0), the choice of the winner and its breakdown stay
    in this process. An exception raised in a child is raised here,
    after every child has been joined.

    Raises ValueError when the winner is penalized.
    """
    theta0 = config.theta0
    j_theta0 = None if theta0 is None else float(evaluator(theta0))
    results = tuple(_tune_seeds(evaluator, config))
    best = min(results, key=lambda r: (r.best_value, r.seed))
    breakdown = evaluator.evaluate(best.best_theta)
    if breakdown.penalized:
        raise ValueError(
            "tuning never found an evaluable candidate "
            f"(last penalty: {breakdown.penalty_reason.value})"
        )
    return TuningResult(
        j_theta0=j_theta0,
        seed_results=results,
        best_seed=best.seed,
        theta_star=best.best_theta,
        j_star=best.best_value,
        breakdown_star=breakdown,
        gamma_r0=evaluator.gamma_r0,
        evaluations=evaluator.evaluations,
        penalty_counts=dict(evaluator.penalty_counts),
        bound_violations=evaluator.bound_violations,
    )


def tune_case(case: BenchmarkCase) -> CaseResult:
    """Collect a case's record, tune it over the case's seeds, grade the winner."""
    data = collect_data(case)
    tuned = tune(make_evaluator(case, data), case)
    return CaseResult(
        **vars(tuned), case=case, data=data, validation=validate(case, tuned.theta_star)
    )
