"""Discrete-time core: polynomials, transfer functions, simulation, feedback."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import signal as _sig

from fritpid import folib, lti_core
from fritpid.benchlab import co_simulate
from fritpid.folib import ControllerKind, ControllerTemplate, realize
from fritpid.lti_core import (
    STABLE_RADIUS,
    AlgebraicLoopError,
    ContinuousTf,
    DiscreteTf,
    DiscreteZpk,
    NonInvertibleError,
    Polynomial,
    SampleTimeError,
    Signal,
    closed_loop,
    filter_chains,
    filter_parallel,
    filter_tf,
    impulse_response,
    invert,
    loop_poles,
    schur_stable,
    simulate,
    tustin,
    _block_state_space,
)

from .strategies import (
    bounded_floats,
    closed_form_loop,
    fopid_thetas,
    reference_co_simulate,
    reference_parallel_filter,
    run_fresh_python,
    signals,
    stable_discrete_tfs,
    zpk_response,
)

TS = 0.1
FOPID_T = ControllerTemplate(ControllerKind.FOPID, TS)


def lag_d():
    """Tustin image of 1/(s+1) at ts = 0.1: (z+1)/21 over (z - 19/21)."""
    return tustin(ContinuousTf([1.0], [1.0, 1.0]), TS)


def one_chain(zeros, poles, gain):
    """gain * prod (z - zeros_i) / (z - poles_i) as one chain of sections."""
    return DiscreteZpk((0.0, ((np.asarray(poles), np.asarray(zeros), gain),)), TS)


class TestPolynomial:
    def test_leading_zeros_are_stripped(self):
        p = Polynomial((0.0, 0.0, 3.0, 1.0))
        assert p.coeffs == (3.0, 1.0)
        assert p.degree == 1

    def test_zero_polynomial(self):
        assert Polynomial((0.0, 0.0)).is_zero
        assert not Polynomial((1.0,)).is_zero


class TestSignal:
    def test_length_and_l1(self):
        s = Signal(np.array([1.0, -2.0, 3.0]), TS)
        assert len(s) == 3
        assert s.l1() == 6.0

    def test_samples_are_read_only(self):
        s = Signal(np.ones(3), TS)
        with pytest.raises(ValueError):
            s.samples[0] = 2.0

    @given(
        st.lists(
            st.tuples(bounded_floats(-1e3, 1e3), bounded_floats(-1e3, 1e3)),
            min_size=1,
            max_size=32,
        )
    )
    def test_l1_triangle_inequality(self, pairs):
        a = Signal(np.array([p[0] for p in pairs]), TS)
        b = Signal(np.array([p[1] for p in pairs]), TS)
        assert Signal(a.samples + b.samples, TS).l1() <= a.l1() + b.l1() + 1e-9


class TestTustin:
    def test_first_order_lag_coefficients(self):
        gd = lag_d()
        np.testing.assert_allclose(gd.num.as_array(), [1 / 21, 1 / 21], atol=1e-16)
        np.testing.assert_allclose(gd.den.as_array(), [1.0, -19 / 21], atol=1e-16)
        assert gd.delay_samples == 0

    def test_integrator_is_trapezoidal_rule(self):
        gd = tustin(ContinuousTf([1.0], [1.0, 0.0]), TS)
        np.testing.assert_allclose(gd.num.as_array(), [0.05, 0.05], atol=1e-16)
        np.testing.assert_allclose(gd.den.as_array(), [1.0, -1.0], atol=1e-16)

    def test_pure_derivative_maps_to_bilinear_difference(self):
        gd = tustin(ContinuousTf([1.0, 0.0], [1.0]), TS)
        np.testing.assert_allclose(gd.num.as_array(), [20.0, -20.0], atol=1e-13)
        np.testing.assert_allclose(gd.den.as_array(), [1.0, 1.0], atol=1e-14)

    def test_dc_gain_is_preserved(self):
        g = ContinuousTf([3.0, 2.0], [4.0, 3.0, 1.0])
        gd = tustin(g, TS)
        assert math.isclose(sum(gd.num.coeffs) / sum(gd.den.coeffs), 2.0, rel_tol=1e-12)

    def test_dead_time_rounds_to_sample_count(self):
        gd = tustin(ContinuousTf([1.0], [1.0, 1.0], dead_time=0.52), TS)
        assert gd.delay_samples == 5

    def test_second_order_lag_matches_manual_substitution(self):
        # 1/(s^2 + 2s + 1) with s = 20(z-1)/(z+1) expands to
        # (z+1)^2 / (441 z^2 - 798 z + 361)
        gd = tustin(ContinuousTf([1.0], [1.0, 2.0, 1.0]), TS)
        np.testing.assert_allclose(
            gd.num.as_array(), np.array([1.0, 2.0, 1.0]) / 441.0, rtol=1e-14
        )
        np.testing.assert_allclose(
            gd.den.as_array(), [1.0, -798.0 / 441.0, 361.0 / 441.0], rtol=1e-14
        )


class TestSimulation:
    def test_step_response_of_discretized_lag(self):
        y = simulate(lag_d(), Signal(np.ones(3), TS))
        np.testing.assert_allclose(
            y.samples, [1 / 21, 61 / 441, 2041 / 9261], rtol=1e-14
        )

    def test_impulse_response_of_discretized_lag(self):
        h = impulse_response(lag_d(), 2)
        np.testing.assert_allclose(
            h.samples, [1 / 21, 40 / 441, 760 / 9261], rtol=1e-14
        )

    def test_delay_prepends_zeros(self):
        g = DiscreteTf([1.0], [1.0, -0.5], TS, delay_samples=2)
        h = impulse_response(g, 4)
        np.testing.assert_allclose(h.samples, [0.0, 0.0, 0.0, 1.0, 0.5], atol=1e-15)

    def test_static_gain_passes_input_through(self):
        u = Signal(np.array([1.0, -2.0, 0.5]), TS)
        y = simulate(DiscreteTf([3.0], [1.0], TS), u)
        np.testing.assert_allclose(y.samples, 3.0 * u.samples, atol=1e-15)

    @given(stable_discrete_tfs(sample_time=TS), signals(sample_time=TS, max_len=48))
    @settings(max_examples=60)
    def test_linearity(self, g, u):
        y = simulate(g, u)
        y2 = simulate(g, Signal(2.5 * u.samples, TS))
        np.testing.assert_allclose(
            y2.samples, 2.5 * y.samples, atol=1e-9 * (1.0 + np.max(np.abs(y.samples)))
        )

    @given(stable_discrete_tfs(sample_time=TS), signals(sample_time=TS, max_len=48))
    @settings(max_examples=60)
    def test_output_is_convolution_with_impulse_response(self, g, u):
        n = len(u)
        h = impulse_response(g, n - 1)
        expected = np.convolve(h.samples, u.samples)[:n]
        got = simulate(g, u).samples
        scale = 1.0 + np.max(np.abs(expected))
        np.testing.assert_allclose(got, expected, atol=1e-9 * scale)


@st.composite
def monic_tf_coeffs(draw, max_order=4):
    """(num, den) with den monic, from a one-coefficient den (a static
    gain) up to order ``max_order``, num as long as den or shorter (a
    delayed numerator)."""
    den = (1.0,) + tuple(draw(st.lists(bounded_floats(-2.0, 2.0), max_size=max_order)))
    num = draw(st.lists(bounded_floats(-5.0, 5.0), min_size=1, max_size=len(den)))
    return tuple(num), den


@st.composite
def section_parallel_systems(draw, max_chains=3, max_sections=6):
    """(direct, branches) of ``filter_parallel``: up to ``max_chains``
    chains of up to ``max_sections`` first-order sections each, poles on
    [-1, 1] and zeros on [-2, 2]; a chain may have no sections, and the
    direct gain may be exactly zero."""
    direct = draw(st.one_of(st.just(0.0), bounded_floats(-5.0, 5.0)))
    branches = []
    for _ in range(draw(st.integers(0, max_chains))):
        m = draw(st.integers(0, max_sections))
        poles = draw(st.lists(bounded_floats(-1.0, 1.0), min_size=m, max_size=m))
        zeros = draw(st.lists(bounded_floats(-2.0, 2.0), min_size=m, max_size=m))
        gain = draw(bounded_floats(-5.0, 5.0))
        branches.append((np.array(poles, dtype=float), np.array(zeros, dtype=float), gain))
    return direct, tuple(branches)


class TestCompiledKernels:
    """filter_parallel, filter_chains and filter_tf call the compiled
    kernels behind scipy's sosfilt and lfilter; all must give the public
    functions' bits, so a scipy release that moves or changes a kernel
    fails here."""

    @given(section_parallel_systems(), signals(sample_time=TS, max_len=48))
    @settings(max_examples=200, derandomize=True)
    # an empty chain and a zero direct gain, on a -0.0 input sample
    @example(
        (0.0, ((np.zeros(0), np.zeros(0), 1.5),
               (np.array([0.9, -0.3, 1.0]), np.array([0.2, 0.0, -1.0]), -0.7))),
        Signal(np.array([0.0, 1.0, -0.0, 3.0]), TS),
    )
    @example((-2.5, ()), Signal(np.array([0.0, 1.0, -0.0, 3.0]), TS))
    def test_sections_match_sosfilt_bit_for_bit(self, system, u):
        # filter_parallel on the whole system, and filter_chains on the
        # chains of each length, each row's gain applied at its output
        # as the evaluator applies it
        direct, branches = system
        want = reference_parallel_filter(system, u.samples)
        assert filter_parallel(direct, branches, u.samples).tobytes() == want.tobytes()
        for m in {b[0].size for b in branches}:
            chains = [b for b in branches if b[0].size == m]
            rows = filter_chains(
                np.stack([b[0] for b in chains]), np.stack([b[1] for b in chains]), u.samples
            )
            for chain, x in zip(chains, rows):
                want = reference_parallel_filter((direct, (chain,)), u.samples)
                got = direct * u.samples + chain[2] * x
                assert got.tobytes() == want.tobytes()

    @given(monic_tf_coeffs(), signals(sample_time=TS, max_len=48))
    @settings(max_examples=200, derandomize=True)
    @example(((-0.5,), (1.0,)), Signal(np.array([0.0, 1.0, -0.0, 3.0]), TS))
    @example(((0.5,), (1.0, -0.5)), Signal(np.array([0.0, 1.0, -0.0, 3.0]), TS))
    @example(((2.0, 1.0, 0.5), (1.0, 0.0, -1.0)), Signal(np.ones(6), TS))
    def test_direct_form_matches_lfilter_bit_for_bit(self, coeffs, u):
        num, den = coeffs
        b = (0.0,) * (len(den) - len(num)) + num
        want = _sig.lfilter(b, den, u.samples)
        assert filter_tf(num, den, u.samples).tobytes() == want.tobytes()

    @given(monic_tf_coeffs(max_order=6))
    @settings(max_examples=200, derandomize=True)
    @example(((0.0,), (1.0, 0.5)))
    @example(((-0.0, 2.0), (1.0, -0.0, -1.0)))
    @example(((3.0, 1.0), (1.0, -0.5, 0.25, 0.1)))
    def test_controllable_form_matches_tf2ss_bit_for_bit(self, coeffs):
        # tf2ss drops a numerator's leading coefficients of at most 1e-14
        # (see the next test); every other numerator, shorter ones
        # included, gives tf2ss's matrices bit for bit
        num, den = coeffs
        g = DiscreteTf(num, den, TS)
        lead = g.num.coeffs[0]
        assume(lead == 0.0 or abs(lead) > 1e-14)
        a, b, c, d = _block_state_space(g)
        if len(den) == 1:
            want = np.zeros((0, 0)), np.zeros(0), np.zeros(0), lead
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", _sig.BadCoefficients)
                A, B, C, D = _sig.tf2ss(num, den)
            want = A, B[:, 0], C[0], D[0, 0]
        for got, ref in zip((a, b, c, np.float64(d)), want):
            assert got.shape == np.shape(ref)
            assert got.tobytes() == np.asarray(ref, dtype=float).tobytes()

    def test_controllable_form_keeps_a_tiny_leading_coefficient(self):
        # tf2ss's normalize trims it, with a warning, and loses the
        # feedthrough that simulate, which filters with the full
        # numerator, still applies
        g = DiscreteTf([1e-15, 1.0, 0.5], [1.0, -0.5, 0.1], TS)
        a, b, c, d = _block_state_space(g)
        assert d == 1e-15
        assert c.tolist() == [1.0 - 1e-15 * -0.5, 0.5 - 1e-15 * 0.1]
        with pytest.warns(_sig.BadCoefficients):
            assert _sig.tf2ss(g.num.coeffs, g.den.coeffs)[3][0, 0] == 0.0

    @pytest.mark.parametrize(
        "first,second",
        [("fritpid.lti_core as lti", "scipy.signal"), ("scipy.signal", "fritpid.lti_core as lti")],
        ids=["fritpid_first", "scipy_first"],
    )
    def test_kernels_are_scipy_signals_own_module_objects(self, first, second):
        # lti_core loads the two extension modules without the
        # scipy.signal package and registers them under their real names;
        # whichever side imports first, the other reuses those module
        # objects, so neither is loaded twice
        code = (
            f"import sys, {first}\n"
            "early = sys.modules['scipy.signal._sigtools'], sys.modules['scipy.signal._sosfilt']\n"
            f"import {second}\n"
            "print(scipy.signal._signaltools._sigtools is early[0],"
            " scipy.signal._signaltools._sosfilt is early[1]._sosfilt is lti._sosfilt,"
            " early[0]._linear_filter is lti._linear_filter)"
        )
        assert run_fresh_python(code).split() == ["True", "True", "True"]

    def test_a_missing_kernel_names_itself_and_the_scipy_release(self):
        message = rf"scipy\.signal\._no_such_kernel .*{scipy.__version__}"
        with pytest.raises(ImportError, match=message):
            lti_core._signal_extension("_no_such_kernel")


class TestFeedback:
    @given(
        stable_discrete_tfs(sample_time=TS, max_order=3),
        stable_discrete_tfs(sample_time=TS, max_order=3),
    )
    @settings(max_examples=60)
    def test_closed_form_matches_the_loop_response(self, p, c):
        r = Signal(np.ones(40), TS)
        try:
            y_loop, _ = co_simulate(p, c, r)
        except AlgebraicLoopError:
            assume(False)
        y_tf = simulate(closed_form_loop(p, c), r)
        peak = np.max(np.abs(y_tf.samples))
        assume(np.all(np.isfinite(y_tf.samples)) and peak < 1e6)
        np.testing.assert_allclose(
            y_loop.samples, y_tf.samples, atol=1e-8 * (1.0 + peak)
        )

    @given(signals(sample_time=TS, max_len=48))
    @settings(max_examples=20)
    def test_factored_controller_loop_matches_the_closed_form(self, r):
        p = DiscreteTf([0.2, 0.1], [1.0, -1.2, 0.35], TS, delay_samples=2)
        # an order-1 ladder keeps the expanded polynomials small enough
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(folib, "OUSTALOUP_ORDER", 1)
            c = realize([0.8, 1.2, 0.6, 0.4, 1.3], FOPID_T)
        expanded = DiscreteTf(
            c.gain * np.real(np.poly(c.zeros)), np.real(np.poly(c.poles)), TS
        )
        y_loop, _ = co_simulate(p, c, r)
        y_tf = simulate(closed_form_loop(p, expanded), r)
        scale = 1.0 + np.max(np.abs(y_tf.samples))
        np.testing.assert_allclose(y_loop.samples, y_tf.samples, atol=1e-9 * scale)

    @given(
        # poles up to 1.3 in magnitude: stable and unstable plants alike
        stable_discrete_tfs(sample_time=TS, max_order=3, margin=-0.3),
        st.integers(min_value=0, max_value=3),
        st.one_of(
            stable_discrete_tfs(sample_time=TS, max_order=3),
            fopid_thetas().map(lambda theta: realize(theta, FOPID_T)),
        ),
        signals(sample_time=TS, max_len=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_loop_response_matches_the_long_double_recursion(self, p, delay, c, r):
        # the per-sample recursion of the loop's state space, stepped in
        # long double, within 1e-10 of each signal's peak
        p = DiscreteTf(p.num, p.den, TS, delay_samples=delay)
        try:
            y, u = co_simulate(p, c, r)
        except AlgebraicLoopError:
            assume(False)
        y_ref, u_ref = reference_co_simulate(p, c, r.samples, np.longdouble)
        for got, want in ((y, y_ref), (u, u_ref)):
            peak = float(np.max(np.abs(want)))
            assume(peak < 1e300)
            assert float(np.max(np.abs(got.samples - want))) <= 1e-10 * peak

    def test_float64_reference_is_the_long_double_one_rounded(self):
        # the reference in both precisions on one loop: they differ by
        # round-off only, so the long-double run grades the float64 one
        p = DiscreteTf([0.2, 0.1], [1.0, -1.2, 0.35], TS, delay_samples=2)
        c = realize([0.8, 1.2, 0.6, 0.4, 1.3], FOPID_T)
        r = np.ones(200)
        for got, want in zip(
            reference_co_simulate(p, c, r), reference_co_simulate(p, c, r, np.longdouble)
        ):
            assert got.dtype == np.float64 and want.dtype == np.longdouble
            assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))

    def test_static_gain_moves_the_single_pole(self):
        # y = k/(z - 0.5 + k) r, so the loop pole sits at 0.5 - k
        p = DiscreteTf([1.0], [1.0, -0.5], TS)
        for k in (0.1, 0.25, 1.7):
            got = loop_poles(closed_loop(p, DiscreteTf([k], [1.0], TS)))
            np.testing.assert_allclose(got, [0.5 - k], atol=1e-15)

    def test_plant_delay_adds_a_loop_pole(self):
        # one delay sample: z (z - 0.5) + 0.06 = (z - 0.3)(z - 0.2)
        p = DiscreteTf([1.0], [1.0, -0.5], TS, delay_samples=1)
        got = loop_poles(closed_loop(p, DiscreteTf([0.06], [1.0], TS)))
        np.testing.assert_allclose(got, [0.3, 0.2], atol=1e-15)

    def test_loop_poles_keep_a_cancelled_mode(self):
        # C = 1/(z - 0.9) cancels the plant zero at 0.9; the mode stays
        p = DiscreteTf([1.0, -0.9], [1.0, 0.0, 0.0], TS)
        c = DiscreteTf([1.0], [1.0, -0.9], TS)
        got = loop_poles(closed_loop(p, c))
        assert np.min(np.abs(got - 0.9)) < 1e-12
        assert got.size == 3

    def test_constant_factored_controller_adds_no_loop_pole(self):
        # a constant's section-parallel form has no chains: its state
        # space is empty, and the loop's poles are the plant's two
        p = DiscreteTf([0.2, 0.1], [1.0, -1.2, 0.35], TS)
        c = DiscreteZpk((0.5, ()), TS)
        assert loop_poles(closed_loop(p, c)).size == 2

    def test_ill_posed_loop_is_rejected(self):
        p = DiscreteTf([1.0], [1.0], TS)
        c = DiscreteTf([-1.0], [1.0], TS)
        with pytest.raises(AlgebraicLoopError):
            co_simulate(p, c, Signal(np.ones(4), TS))
        with pytest.raises(AlgebraicLoopError):
            closed_loop(p, c)

    def test_plant_delay_breaks_the_algebraic_loop(self):
        p = DiscreteTf([1.0], [1.0], TS, delay_samples=1)
        c = DiscreteTf([-1.0], [1.0], TS)
        y, u = co_simulate(p, c, Signal(np.ones(4), TS))
        assert np.all(np.isfinite(y.samples))

    def test_unity_gain_loop_halves_dc(self):
        p = DiscreteTf([1.0], [1.0], TS)
        c = DiscreteTf([1.0], [1.0], TS)
        y, _ = co_simulate(p, c, Signal(np.ones(8), TS))
        np.testing.assert_allclose(y.samples, 0.5, atol=1e-14)

    def test_reference_at_another_sample_time_is_rejected(self):
        p, c = DiscreteTf([1.0], [1.0, -0.5], TS), DiscreteTf([1.0], [1.0], TS)
        with pytest.raises(SampleTimeError, match="reference sample time"):
            co_simulate(p, c, Signal(np.ones(4), 2 * TS))

    def test_controller_at_another_sample_time_is_rejected(self):
        p, c = DiscreteTf([1.0], [1.0, -0.5], TS), DiscreteTf([1.0], [1.0], 2 * TS)
        with pytest.raises(SampleTimeError, match="sample times differ"):
            co_simulate(p, c, Signal(np.ones(4), TS))

    @pytest.mark.parametrize("factored", [False, True])
    def test_an_overflowing_loop_returns_its_samples_without_a_warning(self, factored):
        # C = 1e100 puts the loop pole near z = -1e100: the error passes
        # 1e300 three samples in, C's output overflows in the next, and
        # the samples after that are inf or nan
        p = DiscreteTf([1.0], [1.0, -2.0], TS)
        if factored:
            c = DiscreteZpk((1e100, ()), TS)
        else:
            c = DiscreteTf([1e100], [1.0], TS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, u = co_simulate(p, c, Signal(np.ones(8), TS))
        assert np.isfinite(y.samples[:3]).all()
        assert not np.isfinite(y.samples).all()
        assert not np.isfinite(u.samples).all()


class TestInvert:
    @given(
        stable_discrete_tfs(sample_time=TS, biproper=True, zero_magnitude=0.9),
        signals(sample_time=TS, max_len=40),
    )
    @settings(max_examples=60)
    def test_inverse_recovers_the_input(self, g, u):
        # zeros inside the unit disk keep the inverse stable, so the
        # round-trip error stays at rounding level instead of growing;
        # the numerator's lead is the feedthrough of a biproper TF
        assume(abs(g.num.coeffs[0]) > 1e-3)
        y = simulate(g, u)
        assume(np.max(np.abs(y.samples)) < 1e9)
        back = simulate(invert(g), y)
        scale = 1.0 + np.max(np.abs(u.samples))
        np.testing.assert_allclose(back.samples, u.samples, atol=1e-7 * scale)

    def test_strictly_proper_is_rejected(self):
        with pytest.raises(NonInvertibleError):
            invert(DiscreteTf([1.0], [1.0, -0.5], TS))

    def test_delay_is_rejected(self):
        with pytest.raises(NonInvertibleError):
            invert(DiscreteTf([1.0, 0.2], [1.0, -0.5], TS, delay_samples=1))

    def test_factored_system_has_no_inverse(self):
        with pytest.raises(TypeError, match="no section form"):
            invert(realize([0.8, 1.2, 0.6, 0.4, 1.3], FOPID_T))


#: relative offsets of a drawn root from its radius
OFFSETS = st.integers(1, 16).map(lambda e: 10.0 ** -e)


class TestPolesAndStability:
    """The reference model's verdict: is_stable's rule on the exact roots
    of its denominator, decided by schur_stable."""

    @given(stable_discrete_tfs(sample_time=TS, margin=0.05))
    @settings(max_examples=60)
    # multiple poles at 0.95: the exact roots of these float coefficients
    # lie up to 3.7e-6 beyond it, far inside the radius
    @example(g=DiscreteTf([1.0], [1.0, -1.9, 0.9025], TS))
    @example(g=DiscreteTf(
        [1.0], [1.0, -2.3999999999999995, 1.8524999999999994, -0.4512499999999999], TS
    ))
    @example(g=DiscreteTf([1.0], np.real(np.poly([0.95, 0.95, 0.95, -0.95])), TS))
    @example(g=DiscreteTf([1.0], np.real(np.poly([0.95j, -0.95j, 0.95j, -0.95j])), TS))
    # a simple pole at 0.95 beside two near it (from 0.95, 0.9453125 and
    # 0.875), where eigenvalues alone put it 1.5e-12 beyond 0.95
    @example(g=DiscreteTf(
        [1.0], [1.0, -2.7703124999999997, 2.5564453124999997, -0.7857910156249999], TS
    ))
    def test_constructed_stable_systems_report_stable(self, g):
        assert schur_stable(g.den.coeffs)

    def test_unstable_pole_reports_unstable(self):
        assert not schur_stable(np.poly([1.1, 0.3]))
        assert not schur_stable(np.poly([0.3, -0.2, 0.5 + 0.9j, 0.5 - 0.9j]).real)

    def test_a_pole_at_the_radius_is_unstable_one_ulp_inside_stable(self):
        inside = np.nextafter(STABLE_RADIUS, 0.0)
        for sign in (-1.0, 1.0):
            assert not schur_stable([1.0, sign * STABLE_RADIUS])
            assert schur_stable([1.0, sign * inside])
        # the pair of z**2 + c has magnitude sqrt(c): stable iff c < radius**2
        # exactly, for the float nearest radius**2 and its two neighbours
        square = STABLE_RADIUS ** 2
        for c in (np.nextafter(square, 0.0), square, np.nextafter(square, 2.0)):
            assert schur_stable([1.0, 0.0, c]) == (Fraction(c) < Fraction(STABLE_RADIUS) ** 2)

    def test_roots_at_zero_never_fail(self):
        # a delay sample is a root at 0: the verdict is the rest's
        assert schur_stable([1.0, -0.5, 0.0, 0.0])
        assert not schur_stable([1.0, -1.5, 0.0])
        assert schur_stable([1.0])

    def test_nonfinite_coefficients_are_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                schur_stable([1.0, bad])

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([STABLE_RADIUS, 0.95, 0.5]),
                st.one_of(st.just(0.0), OFFSETS, OFFSETS.map(lambda x: -x)),
                st.one_of(st.sampled_from([0.0, math.pi]), bounded_floats(0.01, math.pi - 0.01)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    # multiple roots, on which the oracle's Durand-Kerner iteration
    # converges only linearly: with 400 extra bits neither converged
    # within its step limit, with 2,000 both do
    @example(draws=[(0.5, 0.0, 0.0)] * 4)
    @example(draws=[(STABLE_RADIUS, 0.0, 0.0), (STABLE_RADIUS, 1e-8, 0.0)] * 2)
    @settings(max_examples=150, deadline=None)
    def test_verdict_matches_the_exact_roots(self, draws):
        # roots drawn at and within 1e-16..1e-1 relative of the radius and
        # of two radii inside it, real (angle 0 or pi) or in pairs, expanded
        # in floats; the verdict is on the exact roots of those coefficients
        # (mpmath, 60 digits), leaving out the draws whose largest root lies
        # within 1e-30 of the radius
        roots = []
        for centre, offset, angle in draws:
            mag = centre * (1.0 + offset)
            if angle in (0.0, math.pi):
                roots.append(mag if angle == 0.0 else -mag)
            else:
                roots += [mag * np.exp(1j * angle), mag * np.exp(-1j * angle)]
        den = np.real(np.poly(roots)).tolist()
        with mpmath.workdps(60):
            exact = mpmath.polyroots(den, maxsteps=400, extraprec=2000)
            gap = max(abs(r) for r in exact) - mpmath.mpf(STABLE_RADIUS)
            assume(abs(gap) >= mpmath.mpf("1e-30"))
            assert schur_stable(den) == (gap < 0)


class TestDiscreteZpk:
    def test_response_matches_root_product(self):
        g = one_chain((0.5, 0.1), (0.2, -0.3), 2.0)
        z = 2.0
        expected = 2.0 * (z - 0.5) * (z - 0.1) / ((z - 0.2) * (z + 0.3))
        assert zpk_response(g, z) == pytest.approx(expected, rel=1e-14)

    def test_state_space_eigenvalues_are_the_poles(self):
        # one state per pole; every pole sits alone on the diagonal of the
        # lower-triangular state matrix, and the section data the state
        # space is built from is read-only
        g = realize([0.8, 1.2, 0.6, 0.4, 1.3], FOPID_T)
        a, b, c, d = _block_state_space(g)
        assert a.shape == (len(g.poles), len(g.poles))
        assert np.all(np.triu(a, 1) == 0.0)
        assert sorted(np.diag(a)) == sorted(p.real for p in g.poles)
        assert np.all(b == 1.0)
        assert d == g.gain
        assert not any(arr.flags.writeable for chain in g.sections[1] for arr in chain[:2])

    @pytest.mark.parametrize("order", [folib.OUSTALOUP_ORDER, 1], ids=["default", "order1"])
    @given(theta=fopid_thetas())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_realized_fopid_state_space_matches_the_response(self, order, theta):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(folib, "OUSTALOUP_ORDER", order)
            g = realize(theta, FOPID_T)
        a, b, c, d = _block_state_space(g)
        # off the real axis and away from z = 1, where the slow poles and
        # zeros nearly cancel and the product over computed zeros is itself
        # ill-conditioned
        for z in (0.3 + 0.8j, -0.6 - 0.7j, -0.8 + 0.6j, 2.0j, -1.5 + 0.5j):
            got = c @ np.linalg.solve(z * np.eye(a.shape[0]) - a, b) + d
            assert got == pytest.approx(zpk_response(g, z), rel=1e-12)

    def test_strictly_proper_factored_form_is_rejected(self):
        with pytest.raises(ValueError, match="biproper: 1 zeros, 2 poles"):
            one_chain((0.3,), (0.5 + 0.2j, 0.5 - 0.2j), 1.0)

    def test_improper_factored_form_is_rejected(self):
        with pytest.raises(ValueError, match="biproper: 2 zeros, 1 poles"):
            one_chain((0.1, 0.2), (0.5,), 1.0)


class TestValidation:
    def test_improper_transfer_function_is_rejected(self):
        with pytest.raises(ValueError):
            DiscreteTf([1.0, 0.0, 0.0], [1.0, -0.5], TS)

    def test_zero_denominator_is_rejected(self):
        with pytest.raises(ValueError):
            DiscreteTf([1.0], [0.0], TS)

    def test_nonpositive_sample_time_is_rejected(self):
        with pytest.raises(ValueError):
            DiscreteTf([1.0], [1.0], 0.0)

    def test_negative_delay_is_rejected(self):
        with pytest.raises(ValueError):
            DiscreteTf([1.0], [1.0], TS, delay_samples=-1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: one_chain((0.1, 0.2), (0.5,), 1.0), "biproper"),
            (lambda: DiscreteTf([1.0, 0.0, 0.0], [2.0, -1.0], TS), "improper discrete"),
            (lambda: DiscreteTf([1.0], [0.0, 0.0], TS), "must not be identically zero"),
            (lambda: DiscreteTf([[1.0]], [1.0], TS), "non-empty 1-D sequence"),
            (lambda: DiscreteTf([], [1.0], TS), "non-empty 1-D sequence"),
        ],
    )
    def test_construction_errors_name_the_fault(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "g",
        [
            DiscreteTf([1.0, 0.5], [1.0, -0.5], TS, delay_samples=1),
            DiscreteTf([-1e-13, 1.0], [1.0, -0.5], TS),
            DiscreteTf([1e-13, 1.0], [1.0, -0.5], TS),
            DiscreteTf([0.0, 1.0], [1.0, -0.5], TS),
        ],
    )
    def test_zero_feedthrough_is_not_invertible(self, g):
        with pytest.raises(NonInvertibleError, match="non-invertible controller"):
            invert(g)

    def test_inverse_of_a_polynomial_tf_is_normalized_once(self):
        gi = invert(DiscreteTf([2.0, 1.0, 0.5], [1.0, -0.5, 0.25], TS))
        assert gi.num.coeffs == (0.5, -0.25, 0.125)
        assert gi.den.coeffs == (1.0, 0.5, 0.25)

    def test_denominator_is_normalized_monic(self):
        g = DiscreteTf([2.0], [2.0, -1.0], TS)
        assert g.den.coeffs == (1.0, -0.5)
        assert g.num.coeffs == (1.0,)
