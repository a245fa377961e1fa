"""Tests for fractional operators and discrete controller realization."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import zpk2tf

from fritpid import folib, lti_core
from fritpid.benchlab import builtin_case, collect_data, discretized_plant
from fritpid.folib import (
    MAX_ORDER,
    ControllerKind,
    ControllerTemplate,
    fopid_sections,
    iopid_coeffs,
    oustaloup,
    realize,
)
from fritpid.l1_idfrit import fictitious_reference
from fritpid.lti_core import (
    DiscreteTf,
    DiscreteZpk,
    NonInvertibleError,
    Signal,
    closed_loop,
    loop_poles,
    simulate,
)

from .strategies import (
    fopid_thetas,
    iopid_gains_with_zeros,
    iopid_thetas,
    reference_fictitious_reference,
    reference_parallel_filter,
    reference_realize_fopid,
    sample_times,
    termwise_iopid,
    zpk_response,
)

M = 2 * folib.OUSTALOUP_ORDER + 1
W_B, W_H = folib.OUSTALOUP_W_B, folib.OUSTALOUP_W_H
TS = 0.1
FOPID_T = ControllerTemplate(ControllerKind.FOPID, TS)
IOPID_T = ControllerTemplate(ControllerKind.IOPID, TS)


def continuous_response(g, w):
    s = 1j * np.asarray(w, dtype=float)
    return np.polyval(g.num.as_array(), s) / np.polyval(g.den.as_array(), s)


def discrete_tf_response(g, z):
    z = np.asarray(z, dtype=complex)
    h = np.polyval(g.num.as_array(), z) / np.polyval(g.den.as_array(), z)
    return h * z ** (-g.delay_samples)


class TestOustaloupConfig:
    def test_defaults(self):
        assert folib.OUSTALOUP_ORDER == 5
        assert W_B == 1e-6
        assert W_H == 1e3
        assert M == 11

    def test_section_count_tracks_order(self):
        # the ladder reads the order constant when called, so a test can
        # shrink it
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(folib, "OUSTALOUP_ORDER", 3)
            assert oustaloup(0.5).den.degree == 7


class TestControllerTemplate:
    def test_theta_dimensions(self):
        assert FOPID_T.theta_dim == 5
        assert IOPID_T.theta_dim == 3

    def test_kind_must_be_a_controller_kind(self):
        # the config parser turns the config's kind string into a ControllerKind
        for kind in ("fopid", "IOPID"):
            with pytest.raises(TypeError, match="ControllerKind"):
                ControllerTemplate(kind, TS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError):
            ControllerTemplate("pidd", TS)

    @pytest.mark.parametrize("ts", [0.0, -0.1])
    def test_sample_time_must_be_positive(self, ts):
        with pytest.raises(ValueError):
            ControllerTemplate(ControllerKind.IOPID, ts)


class TestParams:
    """The parameter vector is checked once, where it is realized."""

    def test_wrong_dimension_rejected(self):
        for t, size in ((FOPID_T, 3), (FOPID_T, 6), (IOPID_T, 2), (IOPID_T, 5)):
            for realizer in (realize, fopid_sections if t is FOPID_T else iopid_coeffs):
                with pytest.raises(ValueError, match=f"expected {t.theta_dim} parameters"):
                    realizer(np.ones(size), t)

    def test_nonfinite_rejected(self):
        for t in (FOPID_T, IOPID_T):
            for bad in (np.nan, np.inf, -np.inf):
                theta = np.ones(t.theta_dim)
                theta[1] = bad
                with pytest.raises(ValueError, match="finite"):
                    realize(theta, t)

    def test_order_beyond_the_cap_rejected(self):
        # rejected before anything is built: 1e5 would ask for a 1e5-state
        # matrix; an inactive branch's order is held to the cap as well
        for theta in ([1.0, 1.0, 1e5, 0.0, 1.0], [1.0, 1.0, 0.5, 0.0, -1e5],
                      [1.0, 1.0, 0.5, 1.0, MAX_ORDER + 0.5]):
            with pytest.raises(ValueError, match="within"):
                realize(theta, FOPID_T)
        assert MAX_ORDER >= 2.0
        realize([1.0, 1.0, MAX_ORDER, 1.0, -MAX_ORDER], FOPID_T)


class TestOustaloup:
    def test_zero_exponent_is_unity(self):
        g = oustaloup(0.0)
        assert g.num.coeffs == (1.0,)
        assert g.den.coeffs == (1.0,)

    def test_integer_exponent_is_exact_monomial(self):
        g = oustaloup(2.0)
        assert g.num.coeffs == (1.0, 0.0, 0.0)
        assert g.den.coeffs == (1.0,)

    def test_degrees_carry_sections_plus_integer_part(self):
        half = oustaloup(0.5)
        assert half.num.degree == M
        assert half.den.degree == M
        mixed = oustaloup(1.3)
        assert mixed.num.degree == M + 1
        assert mixed.den.degree == M

    def test_corner_frequencies_follow_the_recursion(self):
        # poles sit at -w_k with w_k = w_b * r**((k-1+(1+a)/2)/M), so the
        # magnitudes form a geometric ladder anchored by the first corner
        a = 0.5
        g = oustaloup(a)
        poles = np.sort(np.abs(np.roots(g.den.as_array())))
        ratio = W_H / W_B
        expected = W_B * ratio ** ((np.arange(1, M + 1) - 1.0 + (1.0 + a) / 2.0) / M)
        np.testing.assert_allclose(poles, expected, rtol=1e-9)
        zeros = np.sort(np.abs(np.roots(g.num.as_array())))
        expected_z = W_B * ratio ** ((np.arange(1, M + 1) - 1.0 + (1.0 - a) / 2.0) / M)
        np.testing.assert_allclose(zeros, expected_z, rtol=1e-9)

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_gain_pins_the_band_midpoint(self, a):
        wm = np.sqrt(W_B * W_H)
        h = continuous_response(oustaloup(a), [wm])[0]
        assert abs(abs(h) - wm**a) <= 1e-12 * wm**a

    @pytest.mark.parametrize("a", [0.3, 0.7, 1.4])
    def test_negative_exponent_is_the_reciprocal(self, a):
        w = np.logspace(-5, 2, 40)
        prod = continuous_response(oustaloup(-a), w) * continuous_response(oustaloup(a), w)
        assert np.max(np.abs(prod - 1.0)) <= 1e-12

    def test_integer_part_splits_off_exactly(self):
        w = np.logspace(-5, 2, 40)
        h = continuous_response(oustaloup(1.3), w)
        ref = continuous_response(oustaloup(0.3), w) * (1j * w)
        assert np.max(np.abs(h - ref) / np.abs(ref)) <= 1e-12

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8, 1.3, 1.7])
    def test_band_interior_accuracy(self, a):
        # two decades of guard band on each side leaves the approximation
        # within a tenth of a dB and under a degree of phase
        w = np.logspace(-4, 1, 400)
        h = continuous_response(oustaloup(a), w)
        ideal = (1j * w) ** a
        mag_db = np.abs(20.0 * np.log10(np.abs(h) / np.abs(ideal)))
        phase_deg = np.abs(np.unwrap(np.angle(h)) - np.angle(ideal)) * 180.0 / np.pi
        assert np.max(mag_db) <= 0.12
        assert np.max(phase_deg) <= 0.75

    def test_nonfinite_exponent_rejected(self):
        with pytest.raises(ValueError):
            oustaloup(float("nan"))

    @given(alpha=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=100, derandomize=True)
    @example(alpha=0.5)
    @example(alpha=1.0)
    @example(alpha=1.9448)
    def test_polynomials_match_zpk2tf_bit_for_bit(self, alpha):
        n = int(np.floor(alpha))
        mono = np.zeros(n + 1)
        mono[0] = 1.0
        num, den = mono, [1.0]
        if alpha > n:
            # the ladder's continuous roots and gain, from the term builder
            poles, zeros, gain = folib._branch_rows(np.ones(1), np.array([alpha - n]), 0, None)
            b, den = zpk2tf(zeros[0], poles[0], gain[0])
            num = np.convolve(mono, b)
        g = oustaloup(alpha)
        assert g.num.as_array().tobytes() == np.asarray(num, dtype=float).tobytes()
        assert g.den.as_array().tobytes() == np.asarray(den, dtype=float).tobytes()


class TestRealizeIopid:
    def test_closed_form_coefficients_by_hand(self):
        # ts = 0.5: a = ki*ts/2 = 0.125 and d = 2*kd/ts = 1, all exact in binary
        t = ControllerTemplate(ControllerKind.IOPID, 0.5)
        cases = (
            ((2.0, 0.5, 0.25), (3.125, -1.75, -0.875), (1.0, 0.0, -1.0)),
            ((2.0, 0.5, 0.0), (2.125, -1.875), (1.0, -1.0)),
            ((2.0, 0.0, 0.25), (3.0, 1.0), (1.0, 1.0)),
            ((2.0, 0.0, 0.0), (2.0,), (1.0,)),
        )
        for theta, num, den in cases:
            c = realize(theta, t)
            assert c.num.coeffs == num
            assert c.den.coeffs == den

    @given(theta=iopid_gains_with_zeros(), ts=sample_times())
    @example(theta=np.zeros(3), ts=0.1)
    @example(theta=np.array([0.0, 0.0, 1.5]), ts=0.05)
    @example(theta=np.array([0.0, 2.5, 0.0]), ts=0.05)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_the_termwise_tustin_sum(self, theta, ts):
        t = ControllerTemplate(ControllerKind.IOPID, ts)
        got = realize(theta, t)
        want = termwise_iopid(theta, ts)
        assert got.den.degree == want.den.degree
        assert got.num.degree == want.num.degree
        coeffs = np.concatenate([want.num.as_array(), want.den.as_array()])
        atol = 1e-15 * np.max(np.abs(coeffs))
        np.testing.assert_allclose(got.num.as_array(), want.num.as_array(), rtol=0, atol=atol)
        np.testing.assert_allclose(got.den.as_array(), want.den.as_array(), rtol=0, atol=atol)

    def test_example3_start_controller_has_no_derivative_pole(self):
        # theta0 = [0.1, 0.5, 0]: kd = 0 leaves the integrator alone, so the
        # loop has one controller mode and none at z = -1
        case = builtin_case("example3_io")
        c = realize(case.theta0, case.template)
        assert c.den.coeffs == (1.0, -1.0)
        p = discretized_plant(case)
        poles = loop_poles(closed_loop(p, c))
        assert poles.size == p.den.degree + p.delay_samples + 1
        assert np.min(np.abs(poles + 1.0)) > 0.5

    def test_matches_termwise_bilinear_algebra(self):
        # kp + ki*(ts/2)(z+1)/(z-1) + kd*(2/ts)(z-1)/(z+1) over (z-1)(z+1)
        kp, ki, kd = 2.0, 0.7, 0.3
        c = realize([kp, ki, kd], IOPID_T)
        z = np.exp(1j * np.linspace(0.1, 3.0, 25))
        got = discrete_tf_response(c, z)
        want = kp + ki * (TS / 2.0) * (z + 1) / (z - 1) + kd * (2.0 / TS) * (z - 1) / (z + 1)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_zero_integral_gain_drops_the_integrator_pole(self):
        c = realize([1.0, 0.0, 0.5], IOPID_T)
        assert c.den.degree == 1
        assert not np.any(np.isclose(np.roots(c.den.as_array()), 1.0))

    def test_all_zero_gains_realize_the_zero_controller(self):
        c = realize([0.0, 0.0, 0.0], IOPID_T)
        assert c.num.is_zero
        assert c.den.degree == 0

    def test_wrong_template_kind_rejected(self):
        with pytest.raises(ValueError, match="template kind"):
            iopid_coeffs([1.0, 0.0, 0.0], FOPID_T)

    @given(theta=iopid_thetas())
    @settings(max_examples=50, deadline=None)
    def test_realization_is_proper(self, theta):
        c = realize(theta, IOPID_T)
        assert c.num.degree <= c.den.degree


class TestRealizeFopid:
    def test_unit_orders_reduce_to_the_integer_controller(self):
        # lam = mu = 1 leaves nothing to approximate, so the factored
        # fractional realization and the polynomial integer one must be
        # the same rational function
        for kp, ki, kd in ((1.0, 0.5, 0.2), (3.0, 2.0, 0.0), (0.4, 0.0, 1.1)):
            cf = realize([kp, ki, 1.0, kd, 1.0], FOPID_T)
            ci = realize([kp, ki, kd], IOPID_T)
            u = np.zeros(60)
            u[0] = 1.0
            yf = simulate(cf, Signal(u, TS)).samples
            yi = simulate(ci, Signal(u, TS)).samples
            scale = np.max(np.abs(yi))
            assert np.max(np.abs(yf - yi)) <= 1e-12 * scale

    def test_proportional_only_is_static(self):
        c = realize([2.5, 0.0, 0.7, 0.0, 1.2], FOPID_T)
        assert c.zeros == ()
        assert c.poles == ()
        assert c.gain == 2.5

    def test_zero_gains_ignore_their_order_parameters(self):
        c = realize([1.0, 0.0, 1.0, 0.0, 1.0], FOPID_T)
        assert len(c.poles) == 0
        assert c.gain == 1.0

    def test_all_zero_gains_realize_the_zero_controller(self):
        c = realize([0.0, 0.0, 1.0, 0.0, 1.0], FOPID_T)
        assert c.gain == 0.0
        assert len(c.poles) == 0

    def test_state_count_tracks_active_branches(self):
        # integral branch with fractional order carries M poles,
        # a derivative branch above order one carries one more
        only_i = realize([0.5, 1.0, 0.6, 0.0, 1.0], FOPID_T)
        assert len(only_i.poles) == M
        both = realize([0.8, 1.2, 0.6, 0.4, 1.3], FOPID_T)
        assert len(both.poles) == 2 * M + 1

    def test_matches_the_ideal_law_inside_the_band(self):
        # below the warp region and inside the approximation band the
        # realized controller follows kfp + kfi*(jw)**-lam + kfd*(jw)**mu
        kfp, kfi, lam, kfd, mu = 0.8, 1.2, 0.6, 0.4, 1.3
        c = realize([kfp, kfi, lam, kfd, mu], FOPID_T)
        w = np.logspace(-3, np.log10(0.5), 200)
        got = zpk_response(c, np.exp(1j * w * TS))
        want = kfp + kfi * (1j * w) ** (-lam) + kfd * (1j * w) ** mu
        assert np.max(np.abs(got - want) / np.abs(want)) <= 0.02

    def test_cancelled_feedthrough_is_rejected(self):
        branch = realize([0.0, 1.0, 0.5, 0.0, 1.0], FOPID_T)
        with pytest.raises(NonInvertibleError):
            realize([-branch.gain, 1.0, 0.5, 0.0, 1.0], FOPID_T)

    def test_wrong_template_kind_rejected(self):
        with pytest.raises(ValueError, match="template kind"):
            fopid_sections([1.0, 0.0, 1.0, 0.0, 1.0], IOPID_T)

    def test_unconverged_zeros_raise_like_numpy(self, monkeypatch):
        # LAPACK reports a failed QR iteration through info > 0
        def unconverged(a, compute_vl, compute_vr):
            n = len(a)
            return np.zeros(n), np.zeros(n), None, None, n
        c = realize([0.8, 1.2, 0.6, 0.4, 1.3], FOPID_T)
        monkeypatch.setattr(lti_core._lapack, "dgeev", unconverged)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            c.zeros

    @given(theta=fopid_thetas())
    @settings(max_examples=50, deadline=None)
    def test_realization_is_biproper_and_invertible(self, theta):
        c = realize(theta, FOPID_T)
        assert len(c.zeros) == len(c.poles)
        assert abs(c.gain) > 0.0

    @given(theta=fopid_thetas())
    @settings(max_examples=50, deadline=None)
    def test_poles_never_leave_the_closed_unit_disc(self, theta):
        # staircase corners are strictly stable and the integral branch
        # contributes at most unit-circle integrator poles
        c = realize(theta, FOPID_T)
        if c.poles:
            assert max(abs(q) for q in c.poles) <= 1.0 + 1e-12

    @pytest.mark.parametrize("name", ["example1", "example3_fo"])
    def test_realization_and_fictitious_reference_match_the_reference_path(self, name):
        # integer and zero orders, zero branch gains and the box corners
        # against per-row chain blocks, and r~ against T(h)^-1 u0 + y0 with
        # h from the reference's own section chains through scipy's public
        # sosfilt: zeros, poles, gain, sections and r~ must agree bit for bit
        case = builtin_case(name)
        data = collect_data(case)
        lo, hi = case.bounds.lower, case.bounds.upper
        mid = (lo + hi) / 3.0
        thetas = [np.asarray(case.theta0, dtype=float)]
        thetas += [np.array(corner) for corner in itertools.product(*zip(lo, hi))]
        for lam, mu, (ki, kd) in itertools.product(
            (0.0, 0.37, 1.0, 1.71, 2.0), (0.0, 0.52, 1.0, 1.33, 2.0),
            ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)),
        ):
            thetas.append(np.array([mid[0], ki * mid[1], lam, kd * mid[3], mu]))
        checked = 0
        for theta in thetas:
            try:
                zeros, poles, gain, sections = reference_realize_fopid(theta, case.template)
            except NonInvertibleError:
                with pytest.raises(NonInvertibleError):
                    realize(theta, case.template)
                continue
            c = realize(theta, case.template)
            for got, want in ((c.zeros, zeros), (c.poles, poles)):
                assert np.asarray(got).tobytes() == want.tobytes()
            assert c.gain == gain
            assert c.sections[0] == sections[0]
            assert len(c.sections[1]) == len(sections[1])
            for got, want in zip(c.sections[1], sections[1]):
                assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]
            if abs(gain) < 1e-12:
                continue
            pulse = np.zeros(len(data))
            pulse[0] = 1.0
            h = reference_parallel_filter(sections, pulse)
            want = reference_fictitious_reference(h, data.u0.samples, data.y0.samples)
            assert fictitious_reference(c, data).samples.tobytes() == want.tobytes()
            checked += 1
        assert checked >= 100


class TestRealizeDispatch:
    def test_fopid_template_yields_factored_form(self):
        c = realize([0.8, 1.2, 0.6, 0.4, 1.3], FOPID_T)
        assert isinstance(c, DiscreteZpk)

    def test_iopid_template_yields_polynomial_form(self):
        c = realize([2.0, 0.7, 0.3], IOPID_T)
        assert isinstance(c, DiscreteTf)

    def test_sample_time_is_inherited(self):
        assert realize([1.0, 1.0, 0.5, 0.0, 1.0], FOPID_T).sample_time == TS
        assert realize([1.0, 1.0, 0.0], IOPID_T).sample_time == TS
