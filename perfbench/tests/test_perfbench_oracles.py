"""The dense oracles against hand-worked cases."""

import numpy as np
import pytest

import oracles
from fritpid.folib import ControllerKind, ControllerTemplate, realize


def test_toeplitz_solve_matches_hand_worked_forward_substitution():
    # t_k = (b_k - sum_{j=1..k} c_j t_{k-j}) / c_0, worked by hand
    col = [2.0, -1.0, 0.5, 0.0, 1.0]
    rhs = [2.0, 1.0, 0.0, 1.0, 3.0]
    want = [1.0, 1.0, 0.25, 0.375, 1.125]
    np.testing.assert_allclose(oracles.dense_toeplitz_solve(col, rhs), want, rtol=0, atol=1e-15)
    mat = oracles.lower_toeplitz(col)
    assert mat[4].tolist() == [1.0, 0.0, 0.5, -1.0, 2.0]
    assert mat[0].tolist() == [2.0, 0.0, 0.0, 0.0, 0.0]


def test_dense_loss_of_an_exact_match_is_zero():
    # t = m_d exactly when T(rt) m_d = y0, so the prediction is the target
    rt = np.array([2.0, -1.0, 0.5, 0.0, 1.0])
    m_d = np.array([0.5, 0.25, 0.125, 0.0, 0.0])
    y0 = oracles.lower_toeplitz(rt) @ m_d
    j, y = oracles.dense_loss(np.ones(5), y0, rt, m_d)
    assert j == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(y, np.cumsum(m_d), atol=1e-15)


def test_pid_tustin_known_image():
    # kp=1, ki=2, kd=0.5, ts=0.1: ki*ts/2 = 0.1 and kd*2/ts = 10
    num, den = oracles.pid_tustin(1.0, 2.0, 0.5, 0.1)
    np.testing.assert_allclose(num, [11.1, -19.8, 9.1], rtol=1e-15)
    assert den.tolist() == [1.0, 0.0, -1.0]
    # at z = 2: 1 + 2*0.05*3/1 + 0.5*20*(1/3)
    assert np.polyval(num, 2.0) / np.polyval(den, 2.0) == pytest.approx(1.3 + 10.0 / 3.0, rel=1e-14)


def test_pid_tustin_agrees_with_the_program_realization():
    ts = 0.05
    c = realize([0.0214, 3.3025, 0.0209], ControllerTemplate(ControllerKind.IOPID, ts))
    num, den = oracles.pid_tustin(0.0214, 3.3025, 0.0209, ts)
    z = np.exp(1j * np.linspace(0.1, 3.0, 9))
    ours = np.polyval(num, z) / np.polyval(den, z)
    theirs = np.polyval(c.num.as_array(), z) / np.polyval(c.den.as_array(), z)
    np.testing.assert_allclose(ours, theirs, rtol=1e-12)


def test_discrete_impulse_applies_relative_degree_and_delay():
    # 1/(z - 0.5) is z^-1 / (1 - 0.5 z^-1); two more samples of delay
    h = oracles.discrete_impulse([1.0], [1.0, -0.5], 2, 6)
    np.testing.assert_allclose(h, [0.0, 0.0, 0.0, 1.0, 0.5, 0.25], atol=1e-15)


def test_zpk_state_space_matches_the_factored_response():
    # 2 (z - 0.5) / ((z - 0.2)(z + 0.3)) at a few points off the poles
    A, B, C, D = oracles.zpk_state_space([0.5], [0.2, -0.3], 2.0)
    for z in (2.0, 1j, -1.5 + 0.5j):
        got = C @ np.linalg.solve(z * np.eye(2) - A, B) + D
        assert got == pytest.approx(2.0 * (z - 0.5) / ((z - 0.2) * (z + 0.3)), rel=1e-14)
    assert D == 0.0


def test_unity_feedback_poles_of_a_hand_worked_loop():
    # gain 0.25 around z^-1 / (z - 0.5): z (z - 0.5) + 0.25 = z^2 - 0.5 z + 0.25,
    # roots 0.25 +/- 0.25 sqrt(3) j, both of magnitude 0.5
    gain = oracles.zpk_state_space([], [], 0.25)
    plant = oracles.tf_state_space([1.0], [1.0, -0.5], delay=1)
    lam = oracles.unity_feedback_poles(gain, plant)
    half = 0.25j * np.sqrt(3)
    np.testing.assert_allclose(np.sort_complex(lam), [0.25 - half, 0.25 + half], atol=1e-15)


def test_pid_loop_poles_agree_with_the_loop_matrix():
    # the same PID loop once as a polynomial, once as a state matrix
    ts, theta = 0.05, (0.0214, 3.3025, 0.0209)
    num_p, den_p, delay = [0.28261, 0.50666], [1.0, -1.41833, 1.58939, -1.31608, 0.88642], 3
    num_c, den_c = oracles.pid_tustin(*theta, ts)
    c = oracles.zpk_state_space(np.roots(num_c), np.roots(den_c), num_c[0])
    lam = oracles.unity_feedback_poles(c, oracles.tf_state_space(num_p, den_p, delay))
    roots = oracles.pid_loop_poles(theta, ts, num_p, den_p, delay)
    np.testing.assert_allclose(np.sort(np.abs(lam)), np.sort(np.abs(roots)), atol=1e-10)
