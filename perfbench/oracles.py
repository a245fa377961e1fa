"""Dense reference computations the benchmark checks the program against.

Everything here is written apart from the fritpid pipeline: the Toeplitz
systems are built as full matrices and solved with a dense triangular
solver, the reference model is discretized with scipy's bilinear map,
the integer PID controller has its own hand-derived Tustin image, and
closed-loop poles come from the benchmark's own loop matrices. Only the
problem definitions (plant and reference-model coefficients) and the
realized FOPID controller's zeros, poles and gain are read from the
program.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy import signal as sig


def lower_toeplitz(col) -> np.ndarray:
    """Dense lower-triangular Toeplitz matrix with first column ``col``."""
    col = np.asarray(col, dtype=float)
    return sla.toeplitz(col, np.zeros(col.size))


def dense_toeplitz_solve(col, rhs) -> np.ndarray:
    """Solve T(col) t = rhs by dense forward substitution."""
    return sla.solve_triangular(lower_toeplitz(col), np.asarray(rhs, float), lower=True)


def discrete_impulse(num, den, delay: int, n: int) -> np.ndarray:
    """First n samples of the impulse response of z^-delay num(z)/den(z).

    ``num`` and ``den`` are coefficients in z, highest power first, with
    deg num <= deg den.
    """
    num = np.atleast_1d(np.asarray(num, dtype=float))
    den = np.atleast_1d(np.asarray(den, dtype=float))
    b = np.concatenate([np.zeros(den.size - num.size), num])
    delta = np.zeros(n)
    delta[0] = 1.0
    h = sig.lfilter(b, den, delta)
    if delay:
        h = np.concatenate([np.zeros(delay), h[: n - delay]])
    return h


def reference_impulse(md, sample_time: float, n: int) -> np.ndarray:
    """Impulse response of a case's reference model over n samples.

    A continuous model (with ``dead_time``) goes through scipy's bilinear
    transform; a discrete one (with ``delay_samples``) is used as given.
    """
    num = np.asarray(md.num.coeffs, dtype=float)
    den = np.asarray(md.den.coeffs, dtype=float)
    if hasattr(md, "dead_time"):
        b, a = sig.bilinear(num, den, fs=1.0 / sample_time)
        delay = int(round(md.dead_time / sample_time))
        return discrete_impulse(b, a, delay, n)
    return discrete_impulse(num, den, int(md.delay_samples), n)


def pid_tustin(kp: float, ki: float, kd: float, ts: float):
    """Tustin image of kp + ki/s + kd*s over the denominator z^2 - 1.

    With s -> (2/ts)(z-1)/(z+1):
        kp    -> kp (z^2 - 1) / (z^2 - 1)
        ki/s  -> ki (ts/2) (z+1)^2 / (z^2 - 1)
        kd*s  -> kd (2/ts) (z-1)^2 / (z^2 - 1)
    Returns (num, den) in z, highest power first. The shared denominator
    keeps a factor that cancels when a gain is zero, so the form is meant
    for gains that are all nonzero.
    """
    a = ki * ts / 2.0
    d = kd * 2.0 / ts
    num = np.array([kp + a + d, 2.0 * a - 2.0 * d, -kp + a + d])
    return num, np.array([1.0, 0.0, -1.0])


def pid_fictitious_reference(theta, ts: float, u0, y0) -> np.ndarray:
    """r~ = C^-1 u0 + y0 for the integer PID, from its own Tustin image."""
    num, den = pid_tustin(*[float(x) for x in theta], ts)
    return sig.lfilter(den, num, np.asarray(u0, float)) + np.asarray(y0, float)


def dense_loss(r0, y0, rt, m_d):
    """l1 matching loss and predicted output, all by dense algebra.

    t solves T(rt) t = y0; the prediction is y = T(r0) t and the target
    T(r0) m_d. Returns (J, y).
    """
    t = dense_toeplitz_solve(rt, y0)
    r0_mat = lower_toeplitz(r0)
    y = r0_mat @ t
    target = r0_mat @ np.asarray(m_d, float)
    return float(np.sum(np.abs(y - target))), y


def relative_gap(a, b) -> float:
    """max |a - b| scaled by max(1, max |b|), the reconstruction measure."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def zpk_state_space(zeros, poles, gain: float):
    """(A, B, C, D) of gain * prod(z - zeros) / prod(z - poles).

    A cascade of first-order complex sections, one per pole: the i-th
    pole with a zero is (z - z_i)/(z - p_i) = 1 + (p_i - z_i)/(z - p_i),
    a pole without one is 1/(z - p_i). A is lower bidiagonal with the
    poles on its diagonal, so no polynomial is ever expanded.
    """
    zeros = np.asarray(zeros, dtype=complex).reshape(-1)
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    n = poles.size
    A = np.zeros((n, n), dtype=complex)
    B = np.zeros(n, dtype=complex)
    row = np.zeros(n, dtype=complex)  # output of the cascade so far, on the states
    through = 1.0 + 0j  # and on the input
    for i, p in enumerate(poles):
        A[i, :] += row
        A[i, i] += p
        B[i] = through
        out = np.zeros(n, dtype=complex)
        if i < zeros.size:
            out[i] = p - zeros[i]
            row, through = out + row, through
        else:
            out[i] = 1.0
            row, through = out, 0.0 + 0j
    return A, B, gain * row, gain * through


def tf_state_space(num, den, delay: int = 0):
    """(A, B, C, D) of z^-delay num(z)/den(z), the delay as a shift chain.

    ``num`` and ``den`` are coefficients in z, highest power first, with
    deg num <= deg den. The delay states come first and feed the rational
    part through its input.
    """
    a, b, c, d = sig.tf2ss(np.asarray(num, float), np.asarray(den, float))
    b, c, d = b[:, 0], c[0], float(np.atleast_2d(d)[0, 0])
    if not delay:
        return a, b, c, d
    n_r = a.shape[0]
    n = delay + n_r
    A = np.zeros((n, n))
    for k in range(1, delay):
        A[k, k - 1] = 1.0
    B = np.zeros(n)
    B[0] = 1.0
    A[delay:, delay - 1] = b
    A[delay:, delay:] = a
    C = np.zeros(n)
    C[delay - 1] = d
    C[delay:] = c
    return A, B, C, 0.0


def unity_feedback_poles(controller, plant) -> np.ndarray:
    """Eigenvalues of the loop e = r - y, u = C e, y = P u.

    Both blocks are (A, B, C, D). The open loop is the series C then P,
    closed through the scalar feedthrough 1 + D_c D_p.
    """
    ac, bc, cc, dc = controller
    ap, bp, cp, dp = plant
    n_c, n_p = ac.shape[0], ap.shape[0]
    A = np.zeros((n_c + n_p, n_c + n_p), dtype=complex)
    A[:n_c, :n_c] = ac
    A[n_c:, :n_c] = np.outer(bp, cc)
    A[n_c:, n_c:] = ap
    B = np.concatenate([bc, bp * dc])
    C = np.concatenate([dp * cc, cp])
    D = dp * dc
    return np.linalg.eigvals(A - np.outer(B, C) / (1.0 + D))


def discrete_plant(plant, sample_time: float):
    """(num, den, delay) of a case's plant in z, apart from the program.

    A continuous plant (with ``dead_time``) goes through scipy's bilinear
    transform; a discrete one (with ``delay_samples``) is used as given.
    """
    num = np.asarray(plant.num.coeffs, dtype=float)
    den = np.asarray(plant.den.coeffs, dtype=float)
    if hasattr(plant, "dead_time"):
        b, a = sig.bilinear(num, den, fs=1.0 / sample_time)
        return b, a, int(round(plant.dead_time / sample_time))
    return num, den, int(plant.delay_samples)


def pid_loop_poles(theta, ts: float, num_p, den_p, delay: int) -> np.ndarray:
    """Roots of z^delay den_p den_c + num_p num_c for the own Tustin PID."""
    num_c, den_c = pid_tustin(*[float(x) for x in theta], ts)
    lhs = np.concatenate([np.convolve(den_p, den_c), np.zeros(delay)])
    return np.roots(np.polyadd(lhs, np.convolve(num_p, num_c)))
