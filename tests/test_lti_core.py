"""Discrete-time core: polynomials, transfer functions, simulation, feedback."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fritpid.benchlab import builtin_case, discretized_plant
from fritpid.folib import (
    ControllerKind,
    ControllerTemplate,
    OustaloupConfig,
    realize,
    realize_fopid,
)
from fritpid.lti_core import (
    AlgebraicLoopError,
    ContinuousTf,
    DiscreteTf,
    DiscreteZpk,
    NonInvertibleError,
    Polynomial,
    SampleTimeError,
    Signal,
    co_simulate,
    impulse_response,
    invert,
    is_stable,
    loop_poles,
    poles,
    simulate,
    tustin,
    _loop_state_space,
)

from .strategies import (
    bounded_floats,
    closed_form_loop,
    conjugate_root_sets,
    fopid_thetas,
    reference_as_sos,
    reference_zpk_invert,
    signals,
    stable_discrete_tfs,
)

TS = 0.1
FOPID_T = ControllerTemplate(ControllerKind.FOPID, TS)
ORDER1_T = ControllerTemplate(ControllerKind.FOPID, TS, OustaloupConfig(order=1))


def lag_d():
    """Tustin image of 1/(s+1) at ts = 0.1: (z+1)/21 over (z - 19/21)."""
    return tustin(ContinuousTf([1.0], [1.0, 1.0]), TS)


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

    def test_add_requires_matching_sample_times(self):
        a = Signal(np.ones(3), 0.1)
        b = Signal(np.ones(3), 0.2)
        with pytest.raises(SampleTimeError):
            a + b

    def test_add_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            Signal(np.ones(3), TS) + Signal(np.ones(4), TS)

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
        assert (a + b).l1() <= a.l1() + b.l1() + 1e-9


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


class TestFeedback:
    @given(
        stable_discrete_tfs(sample_time=TS, max_order=3),
        stable_discrete_tfs(sample_time=TS, max_order=3),
    )
    @settings(max_examples=60)
    def test_closed_form_matches_sample_by_sample_loop(self, p, c):
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
        c = realize_fopid([0.8, 1.2, 0.6, 0.4, 1.3], ORDER1_T)
        expanded = DiscreteTf(
            c.gain * np.real(np.poly(c.zeros)), np.real(np.poly(c.poles)), TS
        )
        y_loop, _ = co_simulate(p, c, r)
        y_tf = simulate(closed_form_loop(p, expanded), r)
        scale = 1.0 + np.max(np.abs(y_tf.samples))
        np.testing.assert_allclose(y_loop.samples, y_tf.samples, atol=1e-9 * scale)

    def test_static_gain_moves_the_single_pole(self):
        # y = k/(z - 0.5 + k) r, so the loop pole sits at 0.5 - k
        p = DiscreteTf([1.0], [1.0, -0.5], TS)
        for k in (0.1, 0.25, 1.7):
            got = loop_poles(p, DiscreteTf([k], [1.0], TS))
            np.testing.assert_allclose(got, [0.5 - k], atol=1e-15)

    def test_plant_delay_adds_a_loop_pole(self):
        # one delay sample: z (z - 0.5) + 0.06 = (z - 0.3)(z - 0.2)
        p = DiscreteTf([1.0], [1.0, -0.5], TS, delay_samples=1)
        got = loop_poles(p, DiscreteTf([0.06], [1.0], TS))
        np.testing.assert_allclose(got, [0.3, 0.2], atol=1e-15)

    def test_loop_poles_keep_a_cancelled_mode(self):
        # C = 1/(z - 0.9) cancels the plant zero at 0.9; the mode stays
        p = DiscreteTf([1.0, -0.9], [1.0, 0.0, 0.0], TS)
        c = DiscreteTf([1.0], [1.0, -0.9], TS)
        got = loop_poles(p, c)
        assert np.min(np.abs(got - 0.9)) < 1e-12
        assert got.size == 3

    def test_poles_and_co_simulation_of_one_pair_share_one_build(self):
        p = DiscreteTf([0.2, 0.1], [1.0, -1.2, 0.35], TS, delay_samples=2)
        c = DiscreteTf([0.5, -0.2], [1.0, -1.0], TS)
        _loop_state_space.cache_clear()
        first = loop_poles(p, c)
        co_simulate(p, c, Signal(np.ones(10), TS))
        info = _loop_state_space.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        A, B, C_y, _, C_u, _ = _loop_state_space(p, c)
        assert not any(arr.flags.writeable for arr in (A, B, C_y, C_u))
        # another pair is built afresh, never served from the cached one
        other = loop_poles(p, DiscreteTf([0.4, -0.2], [1.0, -1.0], TS))
        assert not np.array_equal(other, first)
        assert _loop_state_space.cache_info().misses == 2

    def test_roots_only_factored_controller_cannot_close_a_loop(self):
        # no state space is ever rebuilt from computed zeros
        p = DiscreteTf([0.2, 0.1], [1.0, -1.2, 0.35], TS)
        c = DiscreteZpk((0.5,), (0.2,), 1.0, TS)
        _loop_state_space.cache_clear()
        with pytest.raises(ValueError, match="roots alone"):
            loop_poles(p, c)
        with pytest.raises(ValueError, match="roots alone"):
            co_simulate(p, c, Signal(np.ones(4), TS))
        # a constant needs no realization: its state space is empty
        assert loop_poles(p, DiscreteZpk((), (), 0.5, TS)).size == 2

    def test_roots_only_copy_is_never_served_the_cached_loop(self):
        case = builtin_case("example3_fo")
        p = discretized_plant(case)
        c = realize(case.theta0, case.template)
        assert loop_poles(p, c).size == 8
        for gain in (c.gain, c.gain + 1e-7):
            with pytest.raises(ValueError, match="roots alone"):
                loop_poles(p, DiscreteZpk(c.zeros, c.poles, gain, c.sample_time))

    def test_ill_posed_loop_is_rejected(self):
        p = DiscreteTf([1.0], [1.0], TS)
        c = DiscreteTf([-1.0], [1.0], TS)
        with pytest.raises(AlgebraicLoopError):
            co_simulate(p, c, Signal(np.ones(4), TS))

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

    def test_factored_inverse_swaps_zeros_and_poles(self):
        g = DiscreteZpk((0.5,), (0.2,), 2.0, TS)
        gi = invert(g)
        assert gi.zeros == (0.2,)
        assert gi.poles == (0.5,)
        assert gi.gain == 0.5


class TestPolesAndStability:
    def test_poles_sorted_by_magnitude(self):
        g = DiscreteTf(np.poly([0.1]), np.poly([0.2, -0.9, 0.5]), TS)
        mags = np.abs(poles(g))
        assert np.all(np.diff(mags) <= 1e-15)

    @given(stable_discrete_tfs(sample_time=TS, margin=0.05))
    @settings(max_examples=60)
    # double poles at the margin: eigenvalues alone put them 1.7e-8 outside
    @example(g=DiscreteTf([1.0], [1.0, -1.9, 0.9025], TS))
    @example(g=DiscreteTf(
        [1.0], [1.0, -2.3999999999999995, 1.8524999999999994, -0.4512499999999999], TS
    ))
    @example(g=DiscreteTf([1.0], np.real(np.poly([0.95, 0.95, 0.95, -0.95])), TS))
    @example(g=DiscreteTf([1.0], np.real(np.poly([0.95j, -0.95j, 0.95j, -0.95j])), TS))
    def test_constructed_stable_systems_report_stable(self, g):
        p = poles(g)
        assert is_stable(p)
        assert 1.0 - np.max(np.abs(p)) >= 0.05 - 1e-12

    def test_unstable_pole_reports_unstable(self):
        p = poles(DiscreteTf([1.0], np.poly([1.1, 0.3]), TS))
        assert not is_stable(p)
        assert 1.0 - np.max(np.abs(p)) == pytest.approx(-0.1, abs=1e-12)

    def test_poles_are_the_block_state_matrix_eigenvalues(self):
        # a delay sample is a pole at 0, as in every loop built from g
        g = DiscreteTf([1.0], [1.0, -0.5], TS, delay_samples=2)
        np.testing.assert_array_equal(poles(g), [0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="roots alone"):
            poles(DiscreteZpk((0.5,), (0.2,), 1.0, TS))


class TestDiscreteZpk:
    def test_response_matches_root_product(self):
        g = DiscreteZpk((0.5,), (0.2, -0.3), 2.0, TS)
        z = 2.0
        expected = 2.0 * (z - 0.5) / ((z - 0.2) * (z + 0.3))
        assert g.response_at(z) == pytest.approx(expected, rel=1e-14)

    def test_state_space_eigenvalues_are_the_poles(self):
        # one state per pole; every pole sits alone on the diagonal of the
        # lower-triangular state matrix, and the realization is read-only
        g = realize_fopid([0.8, 1.2, 0.6, 0.4, 1.3], FOPID_T)
        a, b, c, d = g.state_space()
        assert a.shape == (len(g.poles), len(g.poles))
        assert np.all(np.triu(a, 1) == 0.0)
        assert sorted(np.diag(a)) == sorted(p.real for p in g.poles)
        assert np.all(b == 1.0)
        assert d == g.gain
        assert not any(arr.flags.writeable for arr in (a, b, c))

    @pytest.mark.parametrize(
        "zeros, poles",
        [
            # complex zero pair on a complex pole pair, real zeros on lags
            ((0.5, -0.2, 0.9j, -0.9j), (0.3, -0.6, 0.1, 0.55 + 0.3j, 0.55 - 0.3j)),
            # complex zero pair riding on two real lags
            ((0.2 + 0.7j, 0.2 - 0.7j, 0.4), (0.9, 0.8, -0.5)),
            # spare real zeros riding on a complex pole pair
            ((0.1, 0.2, 0.3), (0.5 + 0.5j, 0.5 - 0.5j, 0.7)),
            ((0.1, 0.3), (0.5 + 0.5j, 0.5 - 0.5j, 0.7)),
            # strictly proper, nothing to pair
            ((), (0.5 + 0.2j, 0.5 - 0.2j, 0.1)),
        ],
    )
    def test_state_space_realizes_the_transfer_function(self, zeros, poles):
        # a system built from roots alone is realized by its section
        # cascade, the one builder every pairing case above goes through;
        # each section's state pair carries its denominator's two roots
        g = DiscreteZpk(zeros, poles, 0.7, TS)
        sos = g.as_sos()
        section_poles = np.concatenate([np.roots(row[3:]) for row in sos])
        section_poles = section_poles[section_poles != 0.0]
        assert sorted(np.abs(section_poles)) == pytest.approx(
            sorted(np.abs(poles)), abs=1e-14
        )
        for z in (1.0, -1.0, 0.3 + 0.8j, 2.0):
            got = np.prod(
                [np.polyval(row[:3], z) / np.polyval(row[3:], z) for row in sos]
            )
            assert got == pytest.approx(g.response_at(z), rel=1e-12)

    @pytest.mark.parametrize("template", [FOPID_T, ORDER1_T], ids=["default", "order1"])
    @given(theta=fopid_thetas())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_realized_fopid_state_space_matches_the_response(self, template, theta):
        g = realize_fopid(theta, template)
        a, b, c, d = g.state_space()
        # off the real axis and away from z = 1, where the slow poles and
        # zeros nearly cancel and the product over computed zeros is itself
        # ill-conditioned
        for z in (0.3 + 0.8j, -0.6 - 0.7j, -0.8 + 0.6j, 2.0j, -1.5 + 0.5j):
            got = c @ np.linalg.solve(z * np.eye(a.shape[0]) - a, b) + d
            assert got == pytest.approx(g.response_at(z), rel=1e-12)

    @given(signals(sample_time=TS, max_len=48))
    @settings(max_examples=40)
    def test_factored_and_expanded_simulation_agree(self, u):
        g = DiscreteZpk(
            (0.5, -0.2, 0.9j, -0.9j),
            (0.3, -0.6, 0.1, 0.55 + 0.3j, 0.55 - 0.3j),
            0.7,
            TS,
        )
        y_fac = simulate(g, u)
        expanded = DiscreteTf(0.7 * np.real(np.poly(g.zeros)), np.real(np.poly(g.poles)), TS)
        y_tf = simulate(expanded, u)
        scale = 1.0 + np.max(np.abs(y_tf.samples))
        np.testing.assert_allclose(y_fac.samples, y_tf.samples, atol=1e-9 * scale)

    def test_strictly_proper_relative_degree_delays_the_response(self):
        g = DiscreteZpk((), (0.3, -0.6, 0.1), 2.0, TS)
        h = simulate(g, Signal(np.array([1.0, 0.0, 0.0, 0.0]), TS))
        np.testing.assert_allclose(h.samples[:3], 0.0, atol=1e-15)
        assert h.samples[3] != 0.0

    def test_strictly_proper_unpaired_complex_roots_are_rejected(self):
        g = DiscreteZpk((), (0.5 + 0.2j, 0.1), 1.0, TS)
        with pytest.raises(ValueError):
            simulate(g, Signal(np.ones(4), TS))

    def test_improper_factored_form_is_rejected(self):
        with pytest.raises(ValueError):
            DiscreteZpk((0.1, 0.2), (0.5,), 1.0, TS)

    @given(conjugate_root_sets())
    @settings(max_examples=300, derandomize=True)
    @example(((0.5,), (0.3, -0.6, 0.55 + 0.3j, 0.55 - 0.3j), 0.7))
    @example(((0.2 + 0.7j, 0.2 - 0.7j, 0.4), (0.9, 0.8, -0.5), -1.5))
    @example(((0.2 + 0.7j, 0.4 - 0.7j, 0.4), (0.9, 0.8, -0.5), 2.0))
    def test_sections_and_inverse_match_the_reference_bit_for_bit(self, roots):
        # the builder groups plain Python numbers and the inverse swaps
        # the sorted roots without sorting again; neither may move a bit.
        # Unpaired complex roots (the last example) have no sections.
        zeros, poles, gain = roots
        g = DiscreteZpk(zeros, poles, gain, TS)
        try:
            want = reference_as_sos(g)
        except ValueError:
            with pytest.raises(ValueError):
                g.as_sos()
        else:
            assert g.as_sos().tobytes() == want.tobytes()
        if g.is_biproper:
            gi, ref = invert(g), reference_zpk_invert(g)
            assert np.asarray(gi.zeros).tobytes() == np.asarray(ref.zeros).tobytes()
            assert np.asarray(gi.poles).tobytes() == np.asarray(ref.poles).tobytes()
            assert gi.gain == ref.gain


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
            (lambda: DiscreteZpk((math.nan,), (0.5,), 1.0, TS), "zeros must be finite"),
            (lambda: DiscreteZpk((0.1,), (0.5, math.inf), 1.0, TS), "poles must be finite"),
            (lambda: DiscreteZpk((), (0.5,), math.inf, TS), "gain must be finite"),
            (lambda: DiscreteZpk((0.1, 0.2), (0.5,), 1.0, TS), "improper discrete"),
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
            DiscreteZpk((0.5,), (0.2,), 0.0, TS),
            DiscreteZpk((0.5,), (0.2,), 1e-13, TS),
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
