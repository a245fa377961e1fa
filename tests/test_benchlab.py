"""Tests for the benchmark catalog, data collection, tuning, and grading."""

import multiprocessing
import os
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from fritpid import benchlab
from fritpid.benchlab import (
    CASE_NAMES,
    J_THETA0_RTOL,
    BenchmarkCase,
    RunConfig,
    TuningResult,
    ValidationReport,
    builtin_case,
    collect_data,
    discretized_plant,
    discretized_reference_model,
    make_evaluator,
    reference_targets,
    tune,
    tune_case,
    unit_step,
    validate,
)
from fritpid.folib import ControllerKind
from fritpid.lti_core import STABLE_RADIUS, DiscreteTf, closed_loop, simulate
from fritpid.swarm_opt import PsoConfig

from .strategies import closed_form_loop

SMOKE_PSO = PsoConfig(swarm_size=8, max_iterations=10)


class TestCaseCatalog:
    def test_case_names(self):
        assert CASE_NAMES == ("example1", "example2", "example3_io", "example3_fo")

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_cases_are_consistently_wired(self, name):
        case = builtin_case(name)
        assert isinstance(case, BenchmarkCase)
        assert case.name == name
        assert case.bounds.dim == case.template.theta_dim
        assert case.bounds.contains(case.theta0)
        assert case.n_samples == int(round(case.sim_time / case.sample_time)) + 1

    def test_controller_families(self):
        assert builtin_case("example1").template.kind is ControllerKind.FOPID
        assert builtin_case("example2").template.kind is ControllerKind.FOPID
        assert builtin_case("example3_io").template.kind is ControllerKind.IOPID
        assert builtin_case("example3_fo").template.kind is ControllerKind.FOPID

    def test_horizons(self):
        assert builtin_case("example1").n_samples == 1001
        assert builtin_case("example3_fo").n_samples == 81

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(KeyError, match="example1"):
            builtin_case("example9")
        with pytest.raises(KeyError, match="example1"):
            reference_targets("example9")

    def test_published_targets(self):
        t1 = reference_targets("example1")
        assert t1.j_theta0 == pytest.approx(496.1250)
        assert t1.j_star_max == 0.6
        t2 = reference_targets("example2")
        assert t2.j_star_min == 10.0 and t2.j_star_max == 60.0
        assert reference_targets("example3_io").j_theta0 == reference_targets(
            "example3_fo"
        ).j_theta0

    def test_dead_time_is_the_only_example2_difference(self):
        p1 = discretized_plant(builtin_case("example1"))
        p2 = discretized_plant(builtin_case("example2"))
        assert p1.delay_samples == 0
        assert p2.delay_samples == 50  # 5 time units at ts = 0.1
        assert p1.num.coeffs == p2.num.coeffs
        assert p1.den.coeffs == p2.den.coeffs

    def test_discrete_plant_passes_through_untouched(self):
        case = builtin_case("example3_fo")
        assert discretized_plant(case) is case.plant

    @pytest.mark.parametrize("sim_time", [0.0, -1.0, float("nan")])
    def test_nonpositive_sim_time_is_rejected(self, sim_time):
        with pytest.raises(ValueError, match="sim_time must be > 0"):
            replace(builtin_case("example1"), sim_time=sim_time)

    @pytest.mark.parametrize(
        "block, what", [("plant", "plant"), ("reference_model", "reference model")]
    )
    def test_discrete_block_at_another_sample_time_is_rejected(self, block, what):
        case = builtin_case("example3_fo")
        g = getattr(case, block)
        moved = DiscreteTf(g.num, g.den, 0.1, g.delay_samples)
        with pytest.raises(ValueError, match=f"{what} sample time 0.1 differs"):
            replace(case, **{block: moved})

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_reference_models_have_unit_dc_gain(self, name):
        md = discretized_reference_model(builtin_case(name))
        assert sum(md.num.coeffs) / sum(md.den.coeffs) == pytest.approx(1.0, abs=1e-12)

    def test_example3_reference_model_is_deadbeat_like(self):
        # second-order pole pair at exp(-0.5) with a 3-sample transport delay
        md = discretized_reference_model(builtin_case("example3_fo"))
        alpha = np.exp(-0.5)
        assert md.delay_samples == 3
        roots = np.roots(md.den.as_array())
        np.testing.assert_allclose(roots, [alpha, alpha], rtol=1e-9)


class TestUnitStep:
    def test_shape_and_value(self):
        r = unit_step(11, 0.1)
        assert len(r) == 11
        assert r.sample_time == 0.1
        assert np.all(r.samples == 1.0)


class TestDataCollection:
    def test_record_matches_the_case_horizon(self):
        case = builtin_case("example3_io")
        rec = collect_data(case)
        assert len(rec) == case.n_samples
        assert np.all(rec.r0.samples == 1.0)

    def test_loop_data_matches_the_closed_loop_transfer(self):
        # for the polynomial controller the co-simulated record must agree
        # with simulating the algebraic closed-loop TF
        case = builtin_case("example3_io")
        rec = collect_data(case)
        from fritpid.folib import realize

        cl = closed_form_loop(discretized_plant(case), realize(case.theta0, case.template))
        y = simulate(cl, rec.r0)
        scale = np.max(np.abs(y.samples))
        assert np.max(np.abs(y.samples - rec.y0.samples)) <= 1e-8 * scale

    def test_unity_start_controller_records_the_error_as_input(self):
        # example1 starts from theta0 = [1, 0, 1, 0, 1], i.e. C = 1, so the
        # recorded input is exactly the tracking error
        case = builtin_case("example1")
        rec = collect_data(case)
        want = rec.r0.samples - rec.y0.samples
        assert np.max(np.abs(rec.u0.samples - want)) <= 1e-12

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_initial_loss_reproduces_the_published_value(self, name):
        case = builtin_case(name)
        t = reference_targets(name)
        j0 = make_evaluator(case, collect_data(case))(case.theta0)
        assert j0 == pytest.approx(t.j_theta0, rel=J_THETA0_RTOL)

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_loss_at_theta0_equals_the_true_tracking_error(self, name):
        # the fictitious-reference fixed point: with the data-collection
        # controller the predicted loop is the recorded loop
        case = builtin_case(name)
        j0 = make_evaluator(case, collect_data(case))(case.theta0)
        rep = validate(case, case.theta0)
        assert j0 == pytest.approx(rep.tracking_error_l1, rel=1e-9)

    def test_reference_model_pole_at_the_radius_is_rejected(self):
        # the certificate decides the exact root: a ulp inside passes
        case = builtin_case("example3_io")
        data = collect_data(case)

        def model(pole):
            return DiscreteTf([1.0 - pole], [1.0, -pole], case.sample_time, delay_samples=3)

        with pytest.raises(ValueError, match="BIBO stable"):
            make_evaluator(replace(case, reference_model=model(STABLE_RADIUS)), data)
        inside = np.nextafter(STABLE_RADIUS, 0.0)
        make_evaluator(replace(case, reference_model=model(inside)), data)


class TestValidate:
    def test_stable_is_the_verdict_of_the_poles(self):
        # the rule's margin: 1e-10 inside the circle is not stable, 1e-8 is
        from fritpid.benchlab import StepTraces
        from fritpid.lti_core import Signal

        s = Signal(np.zeros(3), 0.1)
        traces = StepTraces(r=s, y_model=s, y_closed_loop=s, u=s)
        for margin, stable in ((1e-10, False), (1e-8, True)):
            rep = ValidationReport((0.5 + 0j, complex(1.0 - margin)), 0.0, 0.0, traces)
            assert rep.stable is stable

    def test_max_pole_magnitude_of_a_static_loop_is_zero(self):
        from fritpid.benchlab import StepTraces
        from fritpid.lti_core import Signal

        s = Signal(np.zeros(3), 0.1)
        traces = StepTraces(r=s, y_model=s, y_closed_loop=s, u=s)
        rep = ValidationReport((), 0.0, 0.0, traces)
        assert rep.max_pole_magnitude == 0.0
        assert rep.stable

    def test_example2_optimum_keeps_a_mode_on_the_unit_circle(self):
        # the controller's Tustin differentiator pole at z = -1 cancels the
        # plant's Tustin zeros there, leaving a hidden mode on the circle
        case = builtin_case("example2")
        rep = validate(case, reference_targets("example2").theta_star)
        assert rep.stable is False
        assert abs(rep.max_pole_magnitude - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "name, max_pole",
        [("example1", 0.999999429728465), ("example3_fo", 0.9999998715313233)],
    )
    def test_published_optimum_is_stable(self, name, max_pole):
        # the magnitudes are the ones the earlier eigenvalue-polishing
        # verdict reported; the plain eigenvalues must agree with them
        rep = validate(builtin_case(name), reference_targets(name).theta_star)
        assert rep.stable is True
        assert rep.max_pole_magnitude == pytest.approx(max_pole, abs=1e-9)

    def test_example1_start_loop_is_stable(self):
        case = builtin_case("example1")
        rep = validate(case, case.theta0)
        assert rep.stable
        assert rep.max_pole_magnitude < 1.0
        assert len(rep.step_traces.y_closed_loop) == case.n_samples

    def test_example3_start_loop_is_unstable(self):
        # the oscillatory plant is not stabilized by the small starting
        # gains; the report says so instead of raising
        case = builtin_case("example3_io")
        rep = validate(case, case.theta0)
        assert not rep.stable
        assert rep.max_pole_magnitude > 1.0
        assert np.isfinite(rep.tracking_error_l1)

    def test_the_loop_is_built_once_per_validation(self, monkeypatch):
        calls = []

        def counted(p, c):
            calls.append((p, c))
            return closed_loop(p, c)

        monkeypatch.setattr(benchlab, "closed_loop", counted)
        validate(builtin_case("example3_fo"), reference_targets("example3_fo").theta_star)
        assert len(calls) == 1

    def test_model_trace_is_the_reference_model_response(self):
        case = builtin_case("example3_io")
        rep = validate(case, case.theta0)
        md = discretized_reference_model(case)
        want = simulate(md, rep.step_traces.r)
        np.testing.assert_allclose(rep.step_traces.y_model.samples, want.samples, atol=1e-12)


class TestTuneCase:
    def tune_smoke(self, name="example3_fo", seeds=(0, 1)):
        return tune_case(replace(builtin_case(name), pso=SMOKE_PSO, seeds=seeds))

    def test_result_is_never_worse_than_the_start(self):
        res = self.tune_smoke()
        assert res.j_star <= res.j_theta0

    def test_best_seed_selection_and_bookkeeping(self):
        res = self.tune_smoke()
        best = min(res.seed_results, key=lambda r: (r.best_value, r.seed))
        assert res.best_seed == best.seed
        assert res.j_star == best.best_value
        np.testing.assert_array_equal(res.theta_star, best.best_theta)
        assert res.breakdown_star.j == res.j_star
        assert not res.breakdown_star.penalized

    def test_evaluation_accounting_covers_the_whole_campaign(self):
        # one call for j_theta0, the seed sweeps, then the breakdown at the
        # winner, which carries its bound
        res = self.tune_smoke()
        swept = sum(r.evaluations for r in res.seed_results)
        assert res.evaluations == 1 + swept + 1
        assert res.bound_violations == 0
        assert sum(res.penalty_counts.values()) == res.penalized_evaluations

    def test_bound_report_is_satisfied_at_the_winner(self):
        res = self.tune_smoke()
        assert res.breakdown_star.bound_satisfied
        assert res.breakdown_star.t_l1 <= res.breakdown_star.bound

    def test_tuning_is_deterministic(self):
        a = self.tune_smoke()
        b = self.tune_smoke()
        assert a.j_star == b.j_star
        np.testing.assert_array_equal(a.theta_star, b.theta_star)
        assert [r.best_value for r in a.seed_results] == [
            r.best_value for r in b.seed_results
        ]

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            replace(builtin_case("example3_fo"), seeds=())

    def test_duplicate_seeds_rejected(self):
        # a repeated seed used to run the same swarm twice and list it twice
        with pytest.raises(ValueError, match=r"seeds must not repeat, got \[2, 2\]"):
            replace(builtin_case("example3_fo"), seeds=(2, 2))

    def test_seed_results_follow_the_config_seeds_in_order(self):
        case = replace(builtin_case("example3_io"), pso=SMOKE_PSO)
        res = tune(make_evaluator(case, collect_data(case)), replace(case, seeds=(4, 2)))
        assert tuple(r.seed for r in res.seed_results) == (4, 2)
        assert res.best_seed in (4, 2)


class SeedFailure(Exception):
    """Raised by a stand-in swarm; defined here so that it pickles."""


@pytest.fixture
def process_starts(monkeypatch):
    """Every process started while the test runs, in order."""
    started = []
    original = multiprocessing.process.BaseProcess.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return started


def use_cpus(monkeypatch, n):
    """Make this process's CPU set look like n CPUs to ``tune``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_same_tuning(a: TuningResult, b: TuningResult):
    for f in fields(TuningResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "seed_results":
            assert len(x) == len(y)
            for rx, ry in zip(x, y):
                np.testing.assert_equal(vars(rx), vars(ry))
        else:
            np.testing.assert_equal(x, y, err_msg=f.name)


class TestSeedWorkers:
    """``tune`` spreads its work over one process per CPU of its CPU set:
    the seeds when there are at least as many as CPUs, each swarm
    iteration's particles otherwise."""

    @pytest.mark.parametrize("name,with_theta0", [("example3_io", True), ("example3_fo", False)])
    def test_two_workers_tune_exactly_as_one(self, monkeypatch, process_starts, name, with_theta0):
        case = builtin_case(name)
        config = case if with_theta0 else RunConfig(
            template=case.template, bounds=case.bounds, reference_model=case.reference_model
        )
        data = collect_data(case)
        results = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            results.append(tune(make_evaluator(case, data), config))
        one, two = results
        assert len(process_starts) == 1
        assert (one.j_theta0 is None) is not with_theta0
        assert sum(one.penalty_counts.values()) > 0
        assert_same_tuning(one, two)
        assert multiprocessing.active_children() == []

    def smoke_args(self, seeds):
        case = replace(builtin_case("example3_io"), pso=SMOKE_PSO, seeds=seeds)
        return make_evaluator(case, collect_data(case)), case

    def test_one_seed_on_one_cpu_starts_no_process(self, monkeypatch, process_starts):
        use_cpus(monkeypatch, 1)
        tune(*self.smoke_args((3,)))
        assert process_starts == []

    @pytest.mark.parametrize("name,pso", [("example3_fo", PsoConfig()), ("example1", SMOKE_PSO)])
    def test_one_seed_on_two_cpus_tunes_exactly_as_on_one(
        self, monkeypatch, process_starts, name, pso
    ):
        case = replace(builtin_case(name), pso=pso, seeds=(2,))
        data = collect_data(case)
        use_cpus(monkeypatch, 1)
        one = tune(make_evaluator(case, data), case)
        # every answer a worker sends back: its share of each swarm
        # iteration, then its counters
        answers = []
        receive = benchlab._receive

        def spy(*args):
            answers.append(receive(*args))
            return answers[-1]

        monkeypatch.setattr(benchlab, "_receive", spy)
        use_cpus(monkeypatch, 2)
        two = tune(make_evaluator(case, data), case)
        assert len(process_starts) == 1
        assert sum(one.penalty_counts.values()) > 0
        assert_same_tuning(one, two)
        (seed,) = one.seed_results
        swarm_evaluations = seed.evaluations - seed.finish_evaluations
        assert answers[-1][0] == sum(len(a) for a in answers[:-1]) == swarm_evaluations // 2
        assert multiprocessing.active_children() == []

    def test_a_child_scoring_particles_raises_in_the_caller(self, monkeypatch, process_starts):
        parent = os.getpid()
        evaluate = benchlab.LossEvaluator.evaluate

        def failing(self, theta):
            if os.getpid() != parent:
                raise SeedFailure("a particle failed in a child")
            return evaluate(self, theta)

        monkeypatch.setattr(benchlab.LossEvaluator, "evaluate", failing)
        use_cpus(monkeypatch, 2)
        with pytest.raises(SeedFailure, match="^a particle failed in a child$"):
            tune(*self.smoke_args((1,)))
        assert len(process_starts) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
        reason="needs a CPU set of at least two CPUs",
    )
    def test_each_process_runs_on_its_own_cpu_and_the_cpu_set_comes_back(self, monkeypatch):
        cpus = os.sched_getaffinity(0)
        parent = os.getpid()
        sets_here = set()
        evaluate = benchlab.LossEvaluator.evaluate

        def reporting(self, theta):
            if os.getpid() != parent:
                raise SeedFailure(f"a child on {sorted(os.sched_getaffinity(0))}")
            sets_here.add(frozenset(os.sched_getaffinity(0)))
            return evaluate(self, theta)

        monkeypatch.setattr(benchlab.LossEvaluator, "evaluate", reporting)
        with pytest.raises(SeedFailure, match=rf"^a child on \[{sorted(cpus)[1]}\]$"):
            tune(*self.smoke_args((1,)))
        # J(theta0) is scored before the fork, the swarm's share after
        assert sets_here == {frozenset(cpus), frozenset({min(cpus)})}
        assert os.sched_getaffinity(0) == cpus
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_scoring_particles_is_reported_and_joined(self, monkeypatch):
        parent = os.getpid()
        evaluate = benchlab.LossEvaluator.evaluate

        def dying(self, theta):
            if os.getpid() != parent:
                os._exit(3)
            return evaluate(self, theta)

        monkeypatch.setattr(benchlab.LossEvaluator, "evaluate", dying)
        use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"scoring particles 1::2 exited with code 3"):
            tune(*self.smoke_args((1,)))
        assert multiprocessing.active_children() == []

    def test_a_childs_exception_reaches_the_caller(self, monkeypatch, process_starts):
        parent = os.getpid()
        swarm = benchlab.minimize

        def minimize(objective, bounds, cfg, seed, x0=None):
            if seed == 2:
                raise SeedFailure(f"seed 2 failed in a child: {os.getpid() != parent}")
            return swarm(objective, bounds, cfg, seed, x0=x0)

        monkeypatch.setattr(benchlab, "minimize", minimize)
        use_cpus(monkeypatch, 2)
        # seed 1 runs here, seed 2 in the one child
        with pytest.raises(SeedFailure, match="^seed 2 failed in a child: True$"):
            tune(*self.smoke_args((1, 2)))
        assert len(process_starts) == 1
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_is_reported_and_joined(self, monkeypatch):
        swarm = benchlab.minimize

        def minimize(objective, bounds, cfg, seed, x0=None):
            if seed == 2:
                os._exit(3)
            return swarm(objective, bounds, cfg, seed, x0=x0)

        monkeypatch.setattr(benchlab, "minimize", minimize)
        use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"seeds \[2\] exited with code 3"):
            tune(*self.smoke_args((1, 2)))
        assert multiprocessing.active_children() == []

    def test_an_exception_here_stops_the_children(self, monkeypatch):
        def minimize(objective, bounds, cfg, seed, x0=None):
            if seed == 1:
                raise SeedFailure("seed 1 failed here")
            time.sleep(60)

        monkeypatch.setattr(benchlab, "minimize", minimize)
        use_cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(SeedFailure, match="seed 1 failed here"):
            tune(*self.smoke_args((1, 2)))
        assert time.monotonic() - start < 30.0
        assert multiprocessing.active_children() == []
