"""Tests for the fictitious-reference l1 matching pipeline."""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import linalg as sla
from scipy.linalg import blas

from fritpid import benchlab, lti_core
from fritpid.benchlab import co_simulate
from fritpid.folib import ControllerKind, ControllerTemplate, iopid_coeffs, realize
from fritpid.l1_idfrit import (
    PENALTY,
    ExperimentRecord,
    FictitiousHeadZeroError,
    LossBreakdown,
    LossEvaluator,
    PenaltyReason,
    _BLOCK,
    fictitious_reference,
    reconstruct_output,
    toeplitz_solve,
)
from fritpid.lti_core import (
    DiscreteTf,
    SampleTimeError,
    Signal,
    impulse_response,
    simulate,
)

from .strategies import (
    bounded_floats,
    increments,
    inverse_path_breakdown,
    reference_breakdown,
    signals,
    stable_discrete_tfs,
)

TS = 0.1
N = 200
IOPID_T = ControllerTemplate(ControllerKind.IOPID, TS)
FOPID_T = ControllerTemplate(ControllerKind.FOPID, TS)
MD = DiscreteTf([0.5], [1.0, -0.5], TS)


def step(n=N, ts=TS):
    return Signal(np.ones(n), ts)


def closed_loop_record(plant: DiscreteTf, theta0, template=IOPID_T, n=N) -> ExperimentRecord:
    """Collect (r0, u0, y0) from the unity loop of plant and C(theta0)."""
    c0 = realize(theta0, template)
    r0 = step(n, plant.sample_time)
    y0, u0 = co_simulate(plant, c0, r0)
    return ExperimentRecord(r0, u0, y0)


# this pair closes a stable loop with signals of order one, so the
# fixed-point identities below can be checked at tight tolerances
PLANT = DiscreteTf([0.2, 0.1], [1.0, -1.2, 0.35], TS)
THETA0 = np.array([0.3, 0.1, 0.0])


class TestExperimentRecord:
    def test_valid_record(self):
        rec = closed_loop_record(PLANT, THETA0)
        assert len(rec) == N
        assert rec.sample_time == TS

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            ExperimentRecord(step(), step(), step(N - 1))

    def test_empty_record_rejected(self):
        empty = Signal(np.array([]), TS)
        with pytest.raises(ValueError, match="no samples"):
            ExperimentRecord(empty, empty, empty)

    def test_sample_time_mismatch_rejected(self):
        with pytest.raises(SampleTimeError):
            ExperimentRecord(step(), Signal(np.ones(N), 0.2), step())

    def test_nonfinite_reference_rejected(self):
        bad = np.ones(N)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ExperimentRecord(Signal(bad, TS), step(), step())

    @pytest.mark.parametrize("name", ["u0", "y0"])
    def test_nonfinite_input_or_output_rejected(self, name):
        # accepted, such a record penalized every candidate as nonfinite_signal
        bad = np.ones(N)
        bad[3] = np.nan
        signals = {"r0": step(), "u0": step(), "y0": step(), name: Signal(bad, TS)}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ExperimentRecord(**signals)

    def test_zero_reference_head_rejected(self):
        bad = np.ones(N)
        bad[0] = 0.0
        with pytest.raises(ValueError, match="head"):
            ExperimentRecord(Signal(bad, TS), step(), step())

    def test_non_signal_rejected(self):
        with pytest.raises(TypeError):
            ExperimentRecord(np.ones(N), step(), step())


class TestToeplitzSolve:
    @given(
        head=bounded_floats(0.5, 2.0),
        tail=st.lists(bounded_floats(-1.0, 1.0), min_size=4, max_size=49),
        rhs=st.lists(bounded_floats(-5.0, 5.0), min_size=5, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_the_dense_triangular_solve(self, head, tail, rhs):
        n = min(len(tail) + 1, len(rhs))
        col = np.array([head] + tail[: n - 1])
        y = np.array(rhs[:n])
        t = toeplitz_solve(col, y)
        dense = sla.solve_triangular(
            sla.toeplitz(col, np.zeros(n)), y, lower=True
        )
        scale = max(np.max(np.abs(dense)), 1.0)
        assert np.max(np.abs(t - dense)) <= 1e-10 * scale

    def test_solution_convolves_back_to_the_rhs(self):
        # minimum-phase column, so the triangular inverse stays bounded
        # and the roundtrip can be held to a tight absolute tolerance
        rng = np.random.default_rng(7)
        col = impulse_response(DiscreteTf([1.0, 0.4], [1.0, -0.5], TS), N - 1).samples
        y = rng.standard_normal(N)
        t = toeplitz_solve(col, y)
        back = np.convolve(col, t)[:N]
        assert np.max(np.abs(back - y)) <= 1e-10 * np.max(np.abs(y))

    @staticmethod
    def _minimum_phase_column(n, seed):
        # stable inverse plus small noise: the solution stays of order one
        rng = np.random.default_rng(seed)
        col = impulse_response(DiscreteTf([1.0, 0.4], [1.0, -0.5], TS), n - 1).samples
        return col + 1e-3 * rng.standard_normal(n), rng.standard_normal(n)

    @staticmethod
    def _growing_column(n, seed):
        # zero of r~ outside the unit circle: the inverse column, and with
        # it the solution, grows as 1.01^k (about 2e4 at k = 1000)
        rng = np.random.default_rng(seed)
        col = impulse_response(DiscreteTf([1.0, -1.01], [1.0, -0.5], TS), n - 1).samples
        return col, rng.standard_normal(n)

    @staticmethod
    def _assert_matches_dense(col, y):
        n = col.size
        t = toeplitz_solve(col, y)
        dense = sla.solve_triangular(sla.toeplitz(col, np.zeros(n)), y, lower=True)
        scale = max(np.max(np.abs(dense)), 1.0)
        assert np.max(np.abs(t - dense)) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [1, 81, 127, 128, 129, 257, 1001])
    def test_blocks_match_the_dense_triangular_solve(self, n):
        self._assert_matches_dense(*self._minimum_phase_column(n, seed=n))

    @pytest.mark.parametrize("n", [81, 257, 1001])
    def test_blocks_match_the_dense_solve_on_a_growing_inverse(self, n):
        col, y = self._growing_column(n, seed=n)
        self._assert_matches_dense(col, y)

    @pytest.mark.parametrize("n", [1, 50, _BLOCK - 1, _BLOCK])
    def test_one_block_is_the_triangular_blas_solve_bit_for_bit(self, n):
        col, y = self._minimum_phase_column(n, seed=n)
        t = toeplitz_solve(col, y)
        dense = np.asfortranarray(sla.toeplitz(col, np.zeros(n)))
        np.testing.assert_array_equal(t, blas.dtrsv(dense, y, lower=1))

    def test_overflow_across_a_block_boundary_does_not_warn(self):
        # t_128 = y_128 - rt_128 t_0 = 2e308 overflows; like the all-pole
        # filter, the solver hands the infinity back to the caller silently
        n = _BLOCK + 1
        col = np.zeros(n)
        col[[0, _BLOCK]] = [1.0, -1.0]
        y = np.zeros(n)
        y[[0, _BLOCK]] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = toeplitz_solve(col, y)
        assert np.all(t[:_BLOCK] == y[:_BLOCK])
        assert t[_BLOCK] == np.inf

    def test_overflowing_inverse_is_penalized_without_warnings(self):
        # data made so that r~ = [1, -3, 0, ...] at THETA0: the inverse
        # column grows as 3^k and overflows long before k = 1000
        n = 1001
        c = realize(THETA0, IOPID_T)
        y0 = step(n)
        rt = np.zeros(n)
        rt[:2] = [1.0, -3.0]
        u0 = simulate(c, Signal(rt - y0.samples, TS))
        ev = LossEvaluator(IOPID_T, ExperimentRecord(step(n), u0, y0), MD)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = toeplitz_solve(fictitious_reference(c, ev.data).samples, y0.samples)
            b = ev.evaluate(THETA0)
        assert not np.all(np.isfinite(t))
        assert b.penalty_reason is PenaltyReason.NONFINITE_SIGNAL

    def test_zero_head_raises(self):
        col = np.ones(N)
        col[0] = 0.0
        with pytest.raises(FictitiousHeadZeroError):
            toeplitz_solve(col, np.ones(N))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            toeplitz_solve(np.ones(N), np.ones(N - 1))


class TestReconstructOutput:
    @given(pair=st.tuples(signals(min_len=3, max_len=40), signals(min_len=3, max_len=40)))
    @settings(max_examples=50, deadline=None)
    def test_is_the_truncated_convolution(self, pair):
        a, b = pair
        n = min(len(a), len(b))
        r = a.samples[:n]
        t = b.samples[:n]
        got = reconstruct_output(increments(r), t)
        want = np.convolve(r, t)[:n]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * (1 + np.max(np.abs(want))))

    @pytest.mark.parametrize(
        "r0",
        [
            np.ones(N),
            np.r_[np.ones(N - 1), 2.0],
            TS * np.arange(1, N + 1),
            np.zeros(N),
        ],
        ids=["step", "jump_at_last_sample", "ramp", "zero"],
    )
    def test_is_the_dense_toeplitz_product(self, r0):
        t = np.random.default_rng(3).standard_normal(N)
        got = reconstruct_output(increments(r0), t)
        want = sla.toeplitz(r0, np.zeros(N)) @ t
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            # increments that outlast the horizon cannot come from its r0
            reconstruct_output(np.ones(N), np.ones(N - 1))


class TestFictitiousReference:
    def test_controller_maps_it_back_to_the_recorded_input(self):
        # C(r~ - y0) = u0 is the defining property of r~
        rec = closed_loop_record(PLANT, THETA0)
        c = realize(THETA0, IOPID_T)
        rt = fictitious_reference(c, rec)
        u_back = simulate(c, Signal(rt.samples - rec.y0.samples, TS))
        scale = np.max(np.abs(rec.u0.samples))
        assert np.max(np.abs(u_back.samples - rec.u0.samples)) <= 1e-8 * scale

    def test_equals_the_true_reference_at_the_recording_controller(self):
        # with the controller that produced the data, C^-1 u0 = r0 - y0
        rec = closed_loop_record(PLANT, THETA0)
        c = realize(THETA0, IOPID_T)
        rt = fictitious_reference(c, rec)
        assert np.max(np.abs(rt.samples - rec.r0.samples)) <= 1e-8


class TestFixedPoint:
    """At the recording parameters the pipeline reproduces the data."""

    def test_reconstruction_returns_the_recorded_output(self):
        rec = closed_loop_record(PLANT, THETA0)
        c = realize(THETA0, IOPID_T)
        rt = fictitious_reference(c, rec)
        t = toeplitz_solve(rt.samples, rec.y0.samples)
        y = reconstruct_output(increments(rec.r0.samples), t)
        assert np.max(np.abs(y - rec.y0.samples)) <= 1e-6

    def test_loss_at_theta0_is_the_true_tracking_error(self):
        rec = closed_loop_record(PLANT, THETA0)
        ev = LossEvaluator(IOPID_T, rec, MD)
        b = ev.evaluate(THETA0)
        assert not b.penalized
        true_err = np.abs(rec.y0.samples - ev.target).sum()
        assert b.j == pytest.approx(true_err, rel=1e-6)

    @given(plant=stable_discrete_tfs(max_order=3, margin=0.15, sample_time=TS))
    @settings(max_examples=25, deadline=None)
    def test_fixed_point_holds_across_plants(self, plant):
        theta0 = np.array([0.5, 0.3, 0.05])
        rec = closed_loop_record(plant, theta0, n=80)
        if np.max(np.abs(rec.y0.samples)) > 1e6:
            return  # closed loop happened to be violently unstable
        ev = LossEvaluator(IOPID_T, rec, MD)
        b = ev.evaluate(theta0)
        if b.penalized:
            return  # e.g. fictitious head cancellation on a sign-flipping loop
        true_err = np.abs(rec.y0.samples - ev.target).sum()
        assert b.j == pytest.approx(true_err, rel=1e-5, abs=1e-9)


class TestPenalties:
    def make_evaluator(self):
        return LossEvaluator(IOPID_T, closed_loop_record(PLANT, THETA0), MD)

    def test_nonfinite_theta(self):
        b = self.make_evaluator().evaluate([np.nan, 0.0, 0.0])
        assert b.penalized
        assert b.penalty_reason is PenaltyReason.NONFINITE_SIGNAL
        assert b.j == PENALTY
        assert math.isnan(b.epsilon_l1) and math.isnan(b.t_l1)

    def test_zero_controller_is_non_invertible(self):
        b = self.make_evaluator().evaluate([0.0, 0.0, 0.0])
        assert b.penalty_reason is PenaltyReason.NON_INVERTIBLE_CONTROLLER

    def test_cancelled_fractional_feedthrough_is_non_invertible(self):
        branch = realize([0.0, 1.0, 0.5, 0.0, 1.0], FOPID_T)
        rec = closed_loop_record(PLANT, THETA0)
        ev = LossEvaluator(FOPID_T, rec, MD)
        b = ev.evaluate([-branch.gain, 1.0, 0.5, 0.0, 1.0])
        assert b.penalty_reason is PenaltyReason.NON_INVERTIBLE_CONTROLLER

    def test_unstable_inverse_blows_up_to_a_penalty(self):
        # the candidate's zero lies outside the unit circle, so r~ has no
        # bounded inverse: the solution t leaves the well-scaled range and
        # trips the finite check
        rec = ExperimentRecord(step(), Signal(0.1 * np.sin(np.arange(N)), TS), Signal(0.5 * np.ones(N), TS))
        ev = LossEvaluator(IOPID_T, rec, MD)
        b = ev.evaluate([1.0, -100.0, 0.0])
        assert b.penalty_reason is PenaltyReason.NONFINITE_SIGNAL

    def test_vanishing_fictitious_head(self):
        # u0[0] = -k * y0[0] makes r~[0] = u0[0]/k + y0[0] = 0 for the
        # static controller with gain k
        k = 2.0
        u0 = np.full(N, 0.3)
        u0[0] = -k * 0.5
        rec = ExperimentRecord(step(), Signal(u0, TS), Signal(np.full(N, 0.5), TS))
        ev = LossEvaluator(IOPID_T, rec, MD)
        b = ev.evaluate([k, 0.0, 0.0])
        assert b.penalty_reason is PenaltyReason.FICTITIOUS_HEAD_ZERO

    def test_counters_track_outcomes(self):
        ev = self.make_evaluator()
        ev.evaluate(THETA0)
        ev.evaluate([np.nan, 0.0, 0.0])
        ev.evaluate([0.0, 0.0, 0.0])
        assert ev.evaluations == 3
        assert ev.penalties == 2
        assert ev.penalty_counts[PenaltyReason.NONFINITE_SIGNAL] == 1
        assert ev.penalty_counts[PenaltyReason.NON_INVERTIBLE_CONTROLLER] == 1
        assert ev.bound_checks == 1
        assert ev.bound_violations == 0

    def test_wrong_dimension_raises_instead_of_penalizing(self):
        with pytest.raises(ValueError, match="expected 3 parameters"):
            self.make_evaluator().evaluate([1.0, 2.0])

    def test_a_refused_theta_is_not_counted(self):
        # only an evaluation that produced a breakdown counts, so every
        # evaluation is either a penalty or a bound check
        ev = self.make_evaluator()
        for theta in ([1.0, 2.0], [np.nan, 0.0]):
            with pytest.raises(ValueError):
                ev.evaluate(theta)
        assert (ev.evaluations, ev.penalties, ev.bound_checks) == (0, 0, 0)


class TestLossBreakdown:
    def test_verdicts_derive_from_the_reason_and_the_bound(self):
        clean = LossBreakdown(j=2.0, t_l1=1.0, bound=1.0, penalty_reason=PenaltyReason.NONE)
        assert not clean.penalized
        assert clean.epsilon_l1 == 2.0
        assert clean.bound_satisfied
        assert not LossBreakdown(2.0, 1.5, 1.0, PenaltyReason.NONE).bound_satisfied


class TestStabilityBound:
    def test_gamma_is_the_dense_inverse_column_norm(self):
        rec = closed_loop_record(PLANT, THETA0)
        ev = LossEvaluator(IOPID_T, rec, MD)
        n = len(rec)
        dense = sla.solve_triangular(
            sla.toeplitz(rec.r0.samples, np.zeros(n)), np.eye(n)[:, 0], lower=True
        )
        assert ev.gamma_r0 == pytest.approx(np.sum(np.abs(dense)), rel=1e-10)

    def test_report_reproduces_the_bound_formula(self):
        rec = closed_loop_record(PLANT, THETA0)
        ev = LossEvaluator(IOPID_T, rec, MD)
        b = ev.evaluate(THETA0)
        m_d_l1 = impulse_response(MD, len(rec) - 1).l1()
        assert b.bound == pytest.approx(ev.gamma_r0 * b.j + m_d_l1, rel=1e-12)
        assert b.t_l1 <= b.bound
        assert b.bound_satisfied

    def test_bound_holds_for_arbitrary_clean_candidates(self):
        # the constant makes the inequality an algebraic identity, so any
        # candidate that evaluates cleanly must satisfy it
        rec = closed_loop_record(PLANT, THETA0)
        ev = LossEvaluator(IOPID_T, rec, MD)
        for theta in ([0.5, 0.2, 0.0], [2.0, 1.0, 0.3], [0.1, 0.9, 0.6]):
            b = ev.evaluate(theta)
            if b.penalized:
                continue
            assert b.bound_satisfied
        assert ev.bound_violations == 0

    def test_penalized_breakdown_has_a_nan_bound_and_is_not_satisfied(self):
        rec = closed_loop_record(PLANT, THETA0)
        ev = LossEvaluator(IOPID_T, rec, MD)
        b = ev.evaluate([0.0, 0.0, 0.0])
        assert b.penalized
        assert math.isnan(b.bound)
        assert not b.bound_satisfied

    def test_standalone_report_matches_the_evaluator(self):
        # gamma_R0 from a dense inverse of the reference Toeplitz matrix,
        # the bound from the pipeline's own stages
        rec = closed_loop_record(PLANT, THETA0)
        ev = LossEvaluator(IOPID_T, rec, MD)
        r0 = rec.r0.samples
        gamma = np.sum(np.abs(np.linalg.inv(sla.toeplitz(r0, np.zeros(r0.size)))[:, 0]))
        rt = fictitious_reference(realize(THETA0, IOPID_T), rec)
        t = toeplitz_solve(rt.samples, rec.y0.samples)
        epsilon_l1 = np.abs(reconstruct_output(increments(r0), t) - ev.target).sum()
        m_d = impulse_response(MD, len(rec) - 1)
        b = ev.evaluate(THETA0)
        assert ev.gamma_r0 == pytest.approx(gamma, rel=1e-12)
        assert b.bound == pytest.approx(gamma * epsilon_l1 + m_d.l1(), rel=1e-12)
        assert b.t_l1 == pytest.approx(np.abs(t).sum(), rel=1e-12)

def _bits(b: LossBreakdown):
    return b.penalty_reason, np.array([b.j, b.t_l1, b.bound]).tobytes()


# a = ki*ts/2 = 0.25 and d = 2*kd/ts = 1 exactly at ts = 0.1, so kp = -1.25
# puts the IOPID numerator's lead (kp + a) + d at exactly zero
_IOPID_ARRAY_THETAS = [
    # the four zero-gain patterns of (ki, kd), with kp = 0 as well
    *([kp, ki, kd] for kp in (0.3, 0.0) for ki in (0.0, 0.1) for kd in (0.0, 0.05)),
    [-1.25, 5.0, 0.05],
    [-1.25 + 4e-13, 5.0, 0.05],
    [-0.25, 5.0, 0.0],
    *itertools.product((0.0, 5.0), repeat=3),
    [1.0, -100.0, 0.0],
    [-5.0, 50.0, -3.0],
    [1e200, 1e200, 1e200],
    [1e308, 1e308, 1e308],
    [np.nan, 0.5, 0.0],
]

_FOPID_ARRAY_THETAS = [
    [1.0, 0.0, 0.5, 0.0, 0.5],
    [1.0, 0.5, 0.7, 0.0, 1.2],
    [1.0, 0.0, 0.7, 0.5, 1.2],
    [1.0, 0.5, 0.7, 0.5, 1.2],
    [0.0, 0.0, 1.0, 0.0, 1.0],
    [0.0, 1.0, 0.5, 0.0, 1.0],
    [0.0, 1.0, 0.5, 1.0, 0.5],
    [1.0, 0.5, 0.0, 0.0, 1.0],
    [1.0, 0.5, 1.0, 0.3, 1.0],
    [1.0, 0.5, 1.5, 0.3, 2.0],
    [1e-13, 0.0, 1.0, 0.0, 1.0],
    *itertools.product((0.0, 5.0), (0.0, 5.0), (0.0, 2.0), (0.0, 5.0), (0.0, 2.0)),
    [-3.0, 7.0, 2.5, -2.0, 2.5],
    [1.0, 1.0, 20.5, 0.0, 1.0],
    # past folib.MAX_ORDER: refused before anything is built, and penalized
    [1.0, 1.0, 1e5, 0.0, 1.0],
    [1e300, 1e300, 0.5, 1e300, 0.5],
    [1.0, 1e308, 0.5, 1e308, 0.5],
    [1.0, np.inf, 0.5, 0.0, 1.0],
]


class TestArrayPath:
    """The evaluator scores candidates on arrays without inverting them;
    every breakdown must be the one the inversion-free formula written out
    with scipy's public filters gives, bit for bit, and its penalty reason
    the one of the path through C^-1, apart from an overflowing r~."""

    def test_the_iopid_lead_cases_are_exact(self):
        assert iopid_coeffs([-1.25, 5.0, 0.05], IOPID_T)[0][0] == 0.0
        assert 0.0 < abs(iopid_coeffs([-1.25 + 4e-13, 5.0, 0.05], IOPID_T)[0][0]) < 1e-12

    _CASES = pytest.mark.parametrize("template,thetas", [
        (IOPID_T, _IOPID_ARRAY_THETAS), (FOPID_T, _FOPID_ARRAY_THETAS),
    ], ids=["iopid", "fopid"])

    @_CASES
    def test_every_breakdown_is_the_object_pipelines(self, template, thetas):
        self._assert_bit_for_bit(template, thetas, N)

    @_CASES
    def test_every_one_block_breakdown_is_the_object_pipelines(self, template, thetas):
        # a record of at most _BLOCK samples is solved in the blocked
        # loop's only pass, which skips the history buffers
        assert 81 <= _BLOCK < N
        self._assert_bit_for_bit(template, thetas, 81)

    def test_one_block_overflow_is_penalized_without_warnings(self):
        # data made so that r~ = [1, -1e5, 0, ...] at THETA0: the solution
        # grows as 1e5^k and overflows within the record's one block
        n = 81
        c = realize(THETA0, IOPID_T)
        y0 = step(n)
        rt = np.zeros(n)
        rt[:2] = [1.0, -1e5]
        u0 = simulate(c, Signal(rt - y0.samples, TS))
        ev = LossEvaluator(IOPID_T, ExperimentRecord(step(n), u0, y0), MD)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = toeplitz_solve(fictitious_reference(c, ev.data).samples, y0.samples)
            b = ev.evaluate(THETA0)
        assert not np.all(np.isfinite(t))
        assert b.penalty_reason is PenaltyReason.NONFINITE_SIGNAL
        assert _bits(b) == _bits(reference_breakdown(ev, THETA0))

    @_CASES
    @pytest.mark.parametrize("n", [81, N])
    def test_penalty_reasons_are_the_inverse_paths(self, template, thetas, n):
        # the path through C^-1 forms r~ and may see it overflow where the
        # inversion-free evaluator stays clean (tests/test_loss_accuracy.py);
        # no theta here does that
        rec = closed_loop_record(PLANT, THETA0, n=n)
        ev = LossEvaluator(template, rec, MD)
        for values in self._with_cancelled_feedthrough(template, thetas):
            theta = np.asarray(values, dtype=float)
            old, _ = inverse_path_breakdown(ev, theta)
            assert ev.evaluate(theta).penalty_reason is old.penalty_reason, theta

    def test_no_candidate_solves_for_the_controllers_zeros(self, monkeypatch):
        # neither the evaluator nor realize and fictitious_reference of a
        # FOPID takes the eigenvalue solve that finds the zeros
        theta = [0.0, 1.0, 0.5, 1.0, 0.5]
        rec = closed_loop_record(PLANT, THETA0)
        ev = LossEvaluator(FOPID_T, rec, MD)

        def refuse(*args, **kwargs):
            raise AssertionError("the loss path asked for the controller's zeros")

        monkeypatch.setattr(lti_core._lapack, "dgeev", refuse)
        assert not ev.evaluate(theta).penalized
        assert np.isfinite(fictitious_reference(realize(theta, FOPID_T), rec).samples).all()

    @staticmethod
    def _with_cancelled_feedthrough(template, thetas):
        if template is not FOPID_T:
            return thetas
        # kfp = -(branch gain) cancels the feedthrough
        branch = realize([0.0, 1.0, 0.5, 0.0, 1.0], FOPID_T)
        return thetas + [[-branch.gain, 1.0, 0.5, 0.0, 1.0]]

    @classmethod
    def _assert_bit_for_bit(cls, template, thetas, n):
        rec = closed_loop_record(PLANT, THETA0, n=n)
        ev = LossEvaluator(template, rec, MD)
        reasons = set()
        for values in cls._with_cancelled_feedthrough(template, thetas):
            theta = np.asarray(values, dtype=float)
            got = ev.evaluate(theta)
            assert _bits(got) == _bits(reference_breakdown(ev, theta)), theta
            reasons.add(got.penalty_reason)
        assert reasons == set(PenaltyReason)


def _counters(ev: LossEvaluator):
    return ev.evaluations, dict(ev.penalty_counts), ev.bound_violations


def _batch(ev: LossEvaluator, thetas) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return ev.evaluate_batch(thetas)


def _batch_reasons(ev: LossEvaluator, thetas) -> list:
    """Each row's penalty reason, read off the counters of its own
    one-row batch."""
    reasons = []
    for theta in thetas:
        before = dict(ev.penalty_counts)
        _batch(ev, theta[None])
        moved = [r for r, count in ev.penalty_counts.items() if count != before[r]]
        reasons.append(moved[0] if moved else PenaltyReason.NONE)
    return reasons


def _assert_batch_is_evaluate(make_evaluator, thetas) -> set:
    """One batch of ``thetas`` gives every row's J of ``evaluate`` bit for
    bit, and the same counters, neither of them with a warning; one-row
    batches give every row's penalty reason. Returns the reasons seen."""
    thetas = np.asarray(thetas, dtype=float)
    one, batch = make_evaluator(), make_evaluator()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [one.evaluate(theta) for theta in thetas]
    got = _batch(batch, thetas)
    assert got.tobytes() == np.array([b.j for b in want]).tobytes()
    assert _counters(batch) == _counters(one)
    reasons = [b.penalty_reason for b in want]
    assert _batch_reasons(make_evaluator(), thetas) == reasons
    return set(reasons)


@functools.lru_cache(maxsize=None)
def _case_record(name: str):
    case = benchlab.builtin_case(name)
    return case, benchlab.collect_data(case)


def _case_evaluator(name: str) -> LossEvaluator:
    return benchlab.make_evaluator(*_case_record(name))


@st.composite
def _box_rows(draw, name: str, max_rows: int = 12):
    """Rows inside a built-in case's search box, faces included."""
    bounds = benchlab.builtin_case(name).bounds
    coordinate = [
        st.one_of(st.sampled_from([lo, hi]), bounded_floats(lo, hi))
        for lo, hi in zip(bounds.lower.tolist(), bounds.upper.tolist())
    ]
    rows = draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=max_rows))
    return np.array(rows)


# kfp cancels the feedthrough of 1.0 * s**-0.5 at the example3 sample time
_EX3_CANCELLED = -realize(
    [0.0, 1.0, 0.5, 0.0, 1.0], ControllerTemplate(ControllerKind.FOPID, 0.05)
).gain

# every FOPID chain shape of the box: kfi or kfd exactly zero, and orders
# exactly 0, 1 or 2 next to fractional ones
_FOPID_SHAPES = [
    [1.0, 0.0, 0.7, 0.5, 1.2],
    [1.0, 0.5, 0.7, 0.0, 1.2],
    [1.0, 0.5, 0.0, 0.3, 0.0],
    [1.0, 0.5, 1.0, 0.3, 1.0],
    [1.0, 0.5, 2.0, 0.3, 2.0],
    [0.0, 0.5, 1.0, 0.3, 0.4],
    [1.0, 0.5, 0.4, 0.3, 2.0],
    [1.0, 0.5, 1.5, 0.3, 0.0],
]


class TestBatch:
    """``evaluate_batch`` scores rows as ``evaluate`` scores each one."""

    @pytest.mark.parametrize("n", [81, N])
    @pytest.mark.parametrize("template,thetas", [
        (IOPID_T, _IOPID_ARRAY_THETAS), (FOPID_T, _FOPID_ARRAY_THETAS),
    ], ids=["iopid", "fopid"])
    def test_the_array_path_cases_score_as_evaluate(self, template, thetas, n):
        rec = closed_loop_record(PLANT, THETA0, n=n)
        rows = TestArrayPath._with_cancelled_feedthrough(template, thetas)
        reasons = _assert_batch_is_evaluate(lambda: LossEvaluator(template, rec, MD), rows)
        assert reasons == set(PenaltyReason)

    @given(rows=_box_rows("example3_io"))
    @example(rows=np.array([[0.3, 0.0, 0.2], [0.3, 0.4, 0.0], [0.0, 0.0, 0.2], [0.0, 5.0, 0.0]]))
    # one row per penalty reason, then a clean one
    @example(rows=np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 5.0], [1e12, 0.0, 0.0], [0.0, 5.0, 0.0]]))
    @settings(max_examples=40, deadline=None)
    def test_iopid_rows_in_the_box_score_as_evaluate(self, rows):
        _assert_batch_is_evaluate(functools.partial(_case_evaluator, "example3_io"), rows)

    @given(rows=_box_rows("example3_fo"))
    @example(rows=np.array(_FOPID_SHAPES))
    # one row per penalty reason (a cancelled feedthrough too), then a clean one
    @example(rows=np.array([
        [0.0, 0.0, 1.0, 0.0, 1.0],
        [_EX3_CANCELLED, 1.0, 0.5, 0.0, 1.0],
        [5.0, 0.0, 0.0, 5.0, 2.0],
        [1e12, 0.0, 0.0, 0.0, 0.0],
        [0.0, 5.0, 2.0, 0.0, 0.0],
    ]))
    @settings(max_examples=40, deadline=None)
    def test_fopid_rows_in_the_box_score_as_evaluate(self, rows):
        _assert_batch_is_evaluate(functools.partial(_case_evaluator, "example3_fo"), rows)

    @given(rows=_box_rows("example1", max_rows=6))
    @example(rows=np.array(_FOPID_SHAPES + [[0.0, 0.0, 1.0, 0.0, 1.0]]))
    @settings(max_examples=10, deadline=None)
    def test_long_record_rows_in_the_box_score_as_evaluate(self, rows):
        # N = 1001: the solve runs over several blocks
        assert len(_case_record("example1")[1]) > _BLOCK
        _assert_batch_is_evaluate(functools.partial(_case_evaluator, "example1"), rows)

    @pytest.mark.parametrize("name", benchlab.CASE_NAMES)
    def test_seeded_rows_in_the_box_score_as_evaluate(self, name):
        # a swarm's kind of rows: uniform in the box and within 5 % of the
        # published optimum, some coordinates on a face; about 1 in 20
        # fractional orders gets a gain w_h**a that numpy's array power
        # rounds differently from Python's
        case = benchlab.builtin_case(name)
        lo, hi = case.bounds.lower, case.bounds.upper
        star = np.array(benchlab.reference_targets(name).theta_star)
        rng = np.random.default_rng(5)
        rows = np.vstack([
            rng.uniform(lo, hi, (60, lo.size)),
            np.clip(star * rng.uniform(0.95, 1.05, (60, lo.size)), lo, hi),
        ])
        faces = rng.random(rows.shape) < 0.1
        rows[faces] = np.where(rng.random(rows.shape) < 0.5, lo, hi)[faces]
        _assert_batch_is_evaluate(functools.partial(_case_evaluator, name), rows)

    def test_orders_of_either_sign_score_as_evaluate(self):
        # chains of one integer order and fractional part, one for a
        # negative power and one for a positive, in one batch
        rows = [[1.0, 0.5, lam, 0.3, mu] for lam in (0.5, -0.5, 1.5, -1.5) for mu in (1.2, -1.2)]
        rec = closed_loop_record(PLANT, THETA0)
        _assert_batch_is_evaluate(lambda: LossEvaluator(FOPID_T, rec, MD), rows)

    def test_a_reference_with_several_increments_scores_as_evaluate(self):
        # a reference that is no step: the reconstruction convolves each
        # row with r0's increments instead of scaling one cumsum
        c0 = realize(THETA0, IOPID_T)
        r0 = Signal(np.where(np.arange(N) < 20, 1.0, 1.5) + 0.01 * np.arange(N), TS)
        y0, u0 = co_simulate(PLANT, c0, r0)
        rec = ExperimentRecord(r0, u0, y0)
        for template, thetas in ((IOPID_T, _IOPID_ARRAY_THETAS), (FOPID_T, _FOPID_ARRAY_THETAS)):
            ev = LossEvaluator(template, rec, MD)
            assert ev._dr0.size > 1
            _assert_batch_is_evaluate(lambda: LossEvaluator(template, rec, MD), thetas)

    def test_an_empty_batch_counts_nothing(self):
        ev = _case_evaluator("example3_fo")
        got = _batch(ev, np.empty((0, 5)))
        assert got.shape == (0,)
        assert _counters(ev) == _counters(_case_evaluator("example3_fo"))
        assert ev.evaluations == 0

    @pytest.mark.parametrize("thetas", [np.ones((2, 2)), np.ones((2, 4)), np.ones(3), [[1.0, 2.0]]])
    def test_rows_of_the_wrong_size_raise_and_count_nothing(self, thetas):
        ev = _case_evaluator("example3_io")
        with pytest.raises(ValueError, match="expected rows of 3 parameters"):
            ev.evaluate_batch(thetas)
        assert ev.evaluations == 0


class TestEvaluatorInit:
    def test_template_sample_time_must_match(self):
        rec = closed_loop_record(PLANT, THETA0)
        with pytest.raises(SampleTimeError, match="template"):
            LossEvaluator(ControllerTemplate(ControllerKind.IOPID, 0.2), rec, MD)

    def test_reference_model_sample_time_must_match(self):
        rec = closed_loop_record(PLANT, THETA0)
        with pytest.raises(SampleTimeError, match="reference model"):
            LossEvaluator(IOPID_T, rec, DiscreteTf([0.5], [1.0, -0.5], 0.2))

    def test_reference_model_must_be_stable(self):
        # by the one rule: a pole on the unit circle, or within 1e-9 of it,
        # is not stable either
        rec = closed_loop_record(PLANT, THETA0)
        for pole in (1.5, 1.1, 1.0, 1.0 - 1e-10):
            with pytest.raises(ValueError, match="BIBO stable"):
                LossEvaluator(IOPID_T, rec, DiscreteTf([1.0], [1.0, -pole], TS))
        LossEvaluator(IOPID_T, rec, DiscreteTf([1e-8], [1.0, -(1.0 - 1e-8)], TS))

    def test_target_is_the_reference_model_response(self):
        rec = closed_loop_record(PLANT, THETA0)
        ev = LossEvaluator(IOPID_T, rec, MD)
        want = simulate(MD, rec.r0)
        assert np.max(np.abs(ev.target - want.samples)) <= 1e-9

    def test_callable_form_returns_the_loss(self):
        rec = closed_loop_record(PLANT, THETA0)
        ev = LossEvaluator(IOPID_T, rec, MD)
        assert ev(THETA0) == ev.evaluate(THETA0).j

