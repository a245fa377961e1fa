"""Tests for the seeded particle swarm minimizer."""

from dataclasses import fields

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from fritpid.benchlab import builtin_case, collect_data, make_evaluator, reference_targets
from fritpid.swarm_opt import Bounds, OptimResult, PsoConfig, _nelder_mead, minimize

BOX3 = Bounds(np.full(3, -5.0), np.full(3, 5.0))


def sphere(center):
    c = np.asarray(center, dtype=float)
    return lambda x: float(np.sum((np.asarray(x) - c) ** 2))


class TestBounds:
    def test_dim_and_contains(self):
        assert BOX3.dim == 3
        assert BOX3.contains([0.0, 5.0, -5.0])
        assert not BOX3.contains([0.0, 5.0001, 0.0])

    def test_scalar_bounds_promote_to_vectors(self):
        b = Bounds([0.0], [1.0])
        assert b.dim == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Bounds(np.zeros(2), np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Bounds([0.0, -np.inf], [1.0, 1.0])

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            Bounds([0.0, 2.0], [1.0, 1.0])

    def test_arrays_are_frozen(self):
        with pytest.raises(ValueError):
            BOX3.lower[0] = -10.0


class TestPsoConfig:
    def test_defaults(self):
        cfg = PsoConfig()
        assert cfg.swarm_size == 50
        assert cfg.max_iterations == 200
        assert cfg.inertia_range == (0.4, 0.9)
        # the rest are constants, not settings
        assert [f.name for f in fields(PsoConfig)] == ["swarm_size", "max_iterations"]
        assert cfg.cognitive_coeff == cfg.social_coeff == 1.49
        assert (cfg.stall_iterations, cfg.tolerance) == (10, 1e-3)
        assert cfg.finish_max_evaluations == 1000
        with pytest.raises(TypeError):
            PsoConfig(tolerance=1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"swarm_size": 1},
            {"max_iterations": 0},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PsoConfig(**kwargs)


class TestMinimize:
    def test_same_seed_reproduces_bit_for_bit(self):
        # every field of the result, the finish's included, also when the
        # caller scores each iteration's particles its own way
        def bumpy(x):
            x = np.asarray(x)
            return float(np.sum(np.abs(x - 0.3)) + 0.1 * np.sin(7.0 * x[0]))

        def backwards(positions):
            # a batch evaluation that scores the last particle first and
            # places every value at its particle's index
            values = np.empty(len(positions))
            for i in reversed(range(len(positions))):
                values[i] = bumpy(positions[i])
            return values

        cfg = PsoConfig(swarm_size=12, max_iterations=30)
        a = minimize(bumpy, BOX3, cfg, 5)
        again = minimize(bumpy, BOX3, cfg, 5)
        batched = minimize(bumpy, BOX3, cfg, 5, evaluate_swarm=backwards)
        for b in (again, batched):
            for f in fields(OptimResult):
                x, y = getattr(a, f.name), getattr(b, f.name)
                if isinstance(x, np.ndarray):
                    assert x.tobytes() == y.tobytes(), f.name
                else:
                    assert x == y, f.name

    def test_different_seeds_explore_differently(self):
        f = sphere([1.0, -2.0, 0.5])
        a = minimize(f, BOX3, PsoConfig(swarm_size=12, max_iterations=5), 0)
        b = minimize(f, BOX3, PsoConfig(swarm_size=12, max_iterations=5), 1)
        assert a.trace[0] != b.trace[0]

    def test_converges_on_a_smooth_bowl(self):
        res = minimize(sphere([1.0, -2.0, 0.5]), BOX3, PsoConfig(), 3)
        assert res.best_value <= 1e-6
        np.testing.assert_allclose(res.best_theta, [1.0, -2.0, 0.5], atol=1e-2)

    def test_start_point_is_never_made_worse(self):
        # a needle objective the swarm cannot find by luck: zero exactly
        # at x0, large elsewhere
        x0 = np.array([2.0, -1.0, 3.0])

        def needle(x):
            return 0.0 if np.array_equal(x, x0) else 10.0 + float(np.sum(np.square(x)))

        res = minimize(needle, BOX3, PsoConfig(swarm_size=8, max_iterations=10), 0, x0=x0)
        assert res.best_value == 0.0
        np.testing.assert_array_equal(res.best_theta, x0)

    def test_out_of_box_start_is_clipped_before_use(self):
        seen = []

        def spy(x):
            seen.append(np.array(x))
            return float(np.sum(np.square(x)))

        minimize(spy, BOX3, PsoConfig(swarm_size=4, max_iterations=1), 0, x0=[9.0, -9.0, 0.0])
        np.testing.assert_array_equal(seen[0], [5.0, -5.0, 0.0])

    def test_wrong_start_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            minimize(sphere([0, 0, 0]), BOX3, PsoConfig(), 0, x0=[1.0, 2.0])

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_invalid_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            minimize(sphere([0, 0, 0]), BOX3, PsoConfig(), seed)

    def test_every_evaluated_point_stays_in_the_box(self):
        seen = []

        def spy(x):
            seen.append(np.array(x))
            return float(np.sum(np.square(x - 1.0)))

        minimize(spy, BOX3, PsoConfig(swarm_size=10, max_iterations=25), 2)
        stacked = np.stack(seen)
        assert np.all(stacked >= BOX3.lower) and np.all(stacked <= BOX3.upper)

    def test_trace_is_monotone_and_complete(self):
        cfg = PsoConfig(swarm_size=10, max_iterations=40)
        res = minimize(sphere([0.5, 0.5, 0.5]), BOX3, cfg, 1)
        iterations = [i for i, _ in res.trace]
        values = [v for _, v in res.trace]
        assert iterations == list(range(len(res.trace)))
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] == res.best_value
        # one row per swarm iteration, then one for the finish
        assert len(res.trace) == res.iterations + 2
        assert res.evaluations == (
            cfg.swarm_size * (res.iterations + 1) + res.finish_evaluations
        )

    def test_stall_counter_stops_a_flat_search(self):
        # no improvement at all: the switch rule fires as soon as the
        # window is full, and the finish follows
        cfg = PsoConfig(swarm_size=6, max_iterations=500)
        res = minimize(lambda x: 1.0, BOX3, cfg, 0)
        assert len(res.trace) == 1 + 10 + 1
        assert res.trace[-1] == (11, 1.0)
        assert res.best_value == 1.0
        assert (res.iterations, res.stop_reason) == (10, "stall")
        assert res.evaluations == 6 * (10 + 1) + res.finish_evaluations
        assert 0 < res.finish_evaluations <= PsoConfig.finish_max_evaluations
        # halved from the sixth stalled iteration on, floored at 0.4
        assert res.inertia == 0.4

    def test_iteration_cap_wins_over_a_patient_stall(self):
        cfg = PsoConfig(swarm_size=6, max_iterations=3)
        res = minimize(lambda x: 1.0, BOX3, cfg, 0)
        assert len(res.trace) == 1 + 3 + 1
        assert (res.iterations, res.stop_reason) == (3, "cap")
        # too few stalled iterations to leave the upper end
        assert res.inertia == 0.9

    def test_switch_waits_for_a_full_window_of_small_gains(self):
        # each iteration improves by less than the threshold, but ten of
        # them together by more: the swarm keeps going to the cap
        calls = [0]

        def shrinking(x):
            calls[0] += 1
            return 1.0 - 2e-4 * (calls[0] // 6)

        res = minimize(shrinking, BOX3, PsoConfig(swarm_size=6, max_iterations=30), 0)
        assert (res.iterations, res.stop_reason) == (30, "cap")

    def test_finish_never_returns_a_point_worse_than_the_swarm(self):
        def rastrigin(x):
            x = np.asarray(x)
            return float(np.sum(x * x - 10.0 * np.cos(2 * np.pi * x)) + 30.0)

        for seed in range(6):
            res = minimize(rastrigin, BOX3, PsoConfig(swarm_size=8, max_iterations=15), seed)
            swarm_best = res.trace[-2][1]
            assert res.best_value <= swarm_best
            assert res.trace[-1] == (res.iterations + 1, res.best_value)
            # the value returned is the objective's at the point returned
            assert rastrigin(res.best_theta) == res.best_value

    def test_finish_improves_on_a_short_swarm(self):
        res = minimize(sphere([1.0, -2.0, 0.5]), BOX3, PsoConfig(swarm_size=6, max_iterations=3), 0)
        assert res.best_value < res.trace[-2][1]
        assert res.best_value <= 1e-12

    def test_evaluations_count_every_objective_call(self):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return float(np.sum(np.square(x - 0.7)))

        res = minimize(counted, BOX3, PsoConfig(swarm_size=7, max_iterations=20), 4)
        assert res.evaluations == calls[0]
        assert 0 < res.finish_evaluations < calls[0]

    @pytest.mark.parametrize("cap", range(4, 13))
    def test_finish_stops_at_its_call_cap_keeping_the_best_point_seen(self, monkeypatch, cap):
        # a slope down to a corner: the simplex keeps reflecting and
        # expanding, so most caps cut a step off after a better point
        monkeypatch.setattr(PsoConfig, "finish_max_evaluations", cap)
        seen = []

        def slope(x):
            seen.append(float(np.sum(x)))
            return seen[-1]

        res = minimize(slope, BOX3, PsoConfig(swarm_size=3, max_iterations=2), 0)
        assert res.finish_evaluations == cap
        assert res.evaluations == len(seen) == 3 * (2 + 1) + cap
        assert res.best_value == min(seen) == slope(res.best_theta)

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_result_is_the_best_point_seen(self, seed):
        best_seen = [np.inf]

        def tracking(x):
            v = float(np.sum(np.square(x - 0.3)))
            best_seen[0] = min(best_seen[0], v)
            return v

        res = minimize(
            tracking, BOX3, PsoConfig(swarm_size=5, max_iterations=8), seed
        )
        assert res.best_value == best_seen[0]


def _recorded(objective):
    """objective, and a wrapper that logs a copy of each point it is called on."""
    points = []

    def logged(x):
        points.append(np.array(x, copy=True))
        return float(objective(x))

    return logged, points


def _scipy_finish(objective, x0, lo, hi, fatol, maxfev):
    """The points scipy's own bounded, adaptive Nelder-Mead evaluates, in
    order, and its call count."""
    logged, points = _recorded(objective)
    res = scipy.optimize.minimize(
        logged,
        x0,
        method="Nelder-Mead",
        bounds=scipy.optimize.Bounds(lo, hi),
        options={"adaptive": True, "xatol": 1e-8, "fatol": fatol, "maxfev": maxfev},
    )
    return points, res.nfev


def _first_best(objective, points):
    # the first point of least value, as the finish keeps it
    values = [float(objective(x)) for x in points]
    i = int(np.argmin(values))
    return points[i], values[i]


class TestSimplexFinish:
    """The in-repo finish evaluates scipy's Nelder-Mead points bit for
    bit, in scipy's order, and stops after as many calls."""

    def check(self, objective, x0, lo, hi, maxfev, fatol=0.0):
        x0, lo, hi = (np.asarray(v, dtype=float) for v in (x0, lo, hi))
        want, want_nfev = _scipy_finish(objective, x0, lo, hi, fatol, maxfev)
        logged, got = _recorded(objective)
        x, value, nfev = _nelder_mead(logged, x0, lo, hi, 1e-8, fatol, maxfev)
        assert nfev == want_nfev == len(got) == len(want)
        assert np.stack(got).tobytes() == np.stack(want).tobytes()
        best_x, best_value = _first_best(objective, want)
        assert (x.tobytes(), value) == (best_x.tobytes(), best_value)
        return nfev

    @pytest.mark.parametrize(
        "relative_fatol,calls", [(1e-10, 770), (0.0, 1000)], ids=["converges", "cap"]
    )
    def test_example1_from_its_published_optimum(self, relative_fatol, calls):
        # with the finish's own value tolerance the simplex converges in
        # 770 calls; with none, the 1,000-call cap binds first
        case = builtin_case("example1")
        evaluator = make_evaluator(case, collect_data(case))
        theta = reference_targets("example1").theta_star
        fatol = relative_fatol * evaluator(theta)
        lo, hi, cap = case.bounds.lower, case.bounds.upper, PsoConfig.finish_max_evaluations
        assert self.check(evaluator, theta, lo, hi, cap, fatol) == calls

    def test_example3_io_from_a_box_face(self):
        # kp on its lower face and ki on its upper one: the initial
        # simplex steps past the upper bound and is reflected back
        case = builtin_case("example3_io")
        evaluator = make_evaluator(case, collect_data(case))
        lo, hi = case.bounds.lower, case.bounds.upper
        theta = np.array([lo[0], hi[1], 0.0209])
        fatol = 1e-10 * evaluator(theta)
        assert self.check(evaluator, theta, lo, hi, PsoConfig.finish_max_evaluations, fatol) > 4

    @pytest.mark.parametrize("cap", [3, 15, 16, 17, 23, 40])
    def test_tied_values_and_a_cap_inside_a_shrink(self, cap):
        # on a flat objective every value ties: the reflection and the
        # inside contraction fail and the simplex shrinks, so after the
        # 4 starting calls each step is 2 trial calls and 3 shrink calls.
        # Caps 16, 17 and 23 refuse the first, second and third call of a
        # shrink, 15 the contraction and 3 the last starting call.
        assert self.check(lambda x: 1.0, [0.5, 5.0, 0.0], BOX3.lower, BOX3.upper, cap) == cap

    @pytest.mark.parametrize("cap", [10, 37, 200])
    def test_quantized_values_tie_and_shrink(self, cap):
        def terraces(x):
            return float(np.floor(4.0 * np.sum((x - 0.3) ** 2)))

        self.check(terraces, [5.0, -1.0, 2.0], BOX3.lower, BOX3.upper, cap)
