"""Shared hypothesis strategies and reference helpers for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from scipy import signal as _sig

import fritpid
from fritpid.folib import ControllerKind, fopid_sections, iopid_coeffs, realize
from fritpid.l1_idfrit import (
    PENALTY,
    FictitiousHeadZeroError,
    LossBreakdown,
    PenaltyReason,
    reconstruct_output,
    toeplitz_solve,
)
from fritpid.lti_core import (
    ContinuousTf,
    DiscreteTf,
    DiscreteZpk,
    NonInvertibleError,
    Signal,
    impulse_response,
    inverse_gain,
    invert,
    simulate,
    tustin,
    _block_state_space,
)

SAMPLE_TIMES = (0.01, 0.05, 0.1, 0.5, 1.0)


def sample_times():
    return st.sampled_from(SAMPLE_TIMES)


def run_fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports
    fritpid from the same source tree as this one."""
    src = str(Path(fritpid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def bounded_floats(lo, hi):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


@st.composite
def signals(draw, min_len=1, max_len=64, magnitude=1e3, sample_time=None):
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    vals = draw(
        st.lists(bounded_floats(-magnitude, magnitude), min_size=n, max_size=n)
    )
    ts = sample_time if sample_time is not None else draw(sample_times())
    return Signal(np.asarray(vals), ts)


@st.composite
def stable_discrete_tfs(
    draw, max_order=4, margin=0.05, sample_time=None, biproper=False, zero_magnitude=2.0
):
    """Proper discrete TF whose poles all sit inside |z| <= 1 - margin.

    Poles are drawn directly (real values and conjugate pairs) and only
    then expanded, so stability holds by construction rather than by
    filtering. With ``biproper`` the numerator gets full degree and a
    leading coefficient bounded away from zero; ``zero_magnitude`` caps
    the zero locations, which bounds the poles of the inverse system.
    """
    ts = sample_time if sample_time is not None else draw(sample_times())
    n_real = draw(st.integers(min_value=0, max_value=max_order))
    n_pairs = draw(st.integers(min_value=0, max_value=(max_order - n_real) // 2))
    poles = [draw(bounded_floats(-(1.0 - margin), 1.0 - margin)) for _ in range(n_real)]
    for _ in range(n_pairs):
        radius = draw(bounded_floats(0.0, 1.0 - margin))
        angle = draw(bounded_floats(0.05, np.pi - 0.05))
        poles.extend([radius * np.exp(1j * angle), radius * np.exp(-1j * angle)])
    if not poles:
        poles = [draw(bounded_floats(-0.5, 0.5))]
    order = len(poles)
    n_zeros = order if biproper else draw(st.integers(min_value=0, max_value=order))
    zeros = [draw(bounded_floats(-zero_magnitude, zero_magnitude)) for _ in range(n_zeros)]
    gain = draw(
        st.one_of(bounded_floats(0.1, 5.0), bounded_floats(-5.0, -0.1))
    )
    num = gain * np.real(np.poly(zeros)) if zeros else np.array([gain])
    den = np.real(np.poly(poles))
    return DiscreteTf(num, den, ts)


def iopid_thetas(min_kp=0.05, top=5.0):
    """Parameter triples whose realized controller keeps a nonzero feedthrough."""
    return st.tuples(
        bounded_floats(min_kp, top),
        bounded_floats(0.0, top),
        bounded_floats(0.0, top),
    ).map(np.asarray)


def iopid_gains_with_zeros(top=5.0):
    """Parameter triples in which any of the three gains may be exactly zero."""
    gain = st.one_of(st.just(0.0), bounded_floats(0.0, top))
    return st.tuples(gain, gain, gain).map(np.asarray)


def termwise_iopid(theta, ts: float) -> DiscreteTf:
    """Reference PID: every nonzero term through tustin, summed over a common denominator."""
    kp, ki, kd = (float(x) for x in theta)
    terms = [
        tustin(g, ts)
        for gain, g in (
            (kp, ContinuousTf([kp], [1.0])),
            (ki, ContinuousTf([ki], [1.0, 0.0])),
            (kd, ContinuousTf([kd, 0.0], [1.0])),
        )
        if gain != 0.0
    ]
    if not terms:
        return DiscreteTf([0.0], [1.0], ts)
    num, den = terms[0].num.as_array(), terms[0].den.as_array()
    for g in terms[1:]:
        n2, d2 = g.num.as_array(), g.den.as_array()
        num = np.polyadd(np.convolve(num, d2), np.convolve(n2, den))
        den = np.convolve(den, d2)
    return DiscreteTf(num, den, ts)


def fopid_thetas(min_kfp=0.05, top=5.0):
    return st.tuples(
        bounded_floats(min_kfp, top),
        bounded_floats(0.0, top),
        bounded_floats(0.1, 1.9),
        bounded_floats(0.0, top),
        bounded_floats(0.1, 1.9),
    ).map(np.asarray)


def closed_form_loop(p: DiscreteTf, c: DiscreteTf) -> DiscreteTf:
    """Reference r -> y of the unity loop: Np Nc / (z^d Dp Dc + Np Nc)."""
    num = np.convolve(p.num.as_array(), c.num.as_array())
    den = np.convolve(p.den.as_array(), c.den.as_array())
    den = np.polyadd(np.concatenate([den, np.zeros(p.delay_samples + c.delay_samples)]), num)
    return DiscreteTf(num, den, p.sample_time)


def reference_co_simulate(p, c, r: np.ndarray, dtype=np.float64) -> tuple:
    """(y, u) of the unity-feedback loop of plant p and controller c under
    the samples r, stepped one sample at a time in ``dtype``.

    Each block enters through the state space of
    ``lti_core._block_state_space``, converted to ``dtype``; the state
    stacks the plant's states over the controller's, the feedthrough
    algebra u = (Cc xc - Dc Cp xp + Dc r) / (1 + Dc Dp) is solved once,
    and every sample takes one step x+ = A x + B r. In ``np.longdouble``
    this is the reference the loop response is graded against.
    """
    Ap, Bp, Cp, Dp = (np.asarray(m, dtype=dtype) for m in _block_state_space(p))
    Ac, Bc, Cc, Dc = (np.asarray(m, dtype=dtype) for m in _block_state_space(c))
    well_posed = 1 + Dc * Dp
    n_p = Ap.shape[0]
    C_u = np.concatenate([-Dc * Cp, Cc]) / well_posed
    D_u = Dc / well_posed
    C_y = np.concatenate([Cp, np.zeros(Cc.size, dtype)]) + Dp * C_u
    D_y = Dp * D_u
    A = np.zeros((n_p + Cc.size, n_p + Cc.size), dtype)
    A[:n_p, :n_p] = Ap
    A[n_p:, n_p:] = Ac
    A[:n_p] += np.outer(Bp, C_u)
    A[n_p:] -= np.outer(Bc, C_y)
    B = np.concatenate([Bp * D_u, Bc * (1 - D_y)])
    rs = np.asarray(r, dtype)
    states = np.zeros((rs.size, B.size), dtype)
    x = np.zeros(B.size, dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(rs.size):
            states[k] = x
            x = A @ x + B * rs[k]
        return states @ C_y + D_y * rs, states @ C_u + D_u * rs


# ---------------------------------------------------------------------------
# factored-form references on numpy arrays: the second-order section
# builder of a system's roots, which the path through C^-1 below runs, and
# the FOPID realization as first written


def _reference_split_conjugates(roots: np.ndarray):
    real = roots[roots.imag == 0.0].real
    upper = roots[roots.imag > 0.0]
    lower = roots[roots.imag < 0.0]
    if upper.size != lower.size:
        return None
    if upper.size:
        upper = upper[np.lexsort((upper.imag, upper.real))]
        mirrored = np.conj(lower)
        mirrored = mirrored[np.lexsort((mirrored.imag, mirrored.real))]
        if not np.array_equal(upper, mirrored):
            return None
    return np.sort(real)[::-1], upper


def _reference_quadratic_groups(real: np.ndarray, cplx: np.ndarray):
    groups = [
        (abs(q), (1.0, -2.0 * q.real, q.real * q.real + q.imag * q.imag))
        for q in cplx
    ]
    for i in range(0, real.size - 1, 2):
        r1, r2 = real[i], real[i + 1]
        groups.append((max(abs(r1), abs(r2)), (1.0, -(r1 + r2), r1 * r2)))
    tail = None
    if real.size % 2:
        r = real[-1]
        tail = (1.0, -r, 0.0)
    return groups, tail


def _reference_fast_sos(zeros: np.ndarray, poles: np.ndarray, gain: float):
    if poles.size == 0 or zeros.size > poles.size:
        return None
    zsplit = _reference_split_conjugates(zeros)
    psplit = _reference_split_conjugates(poles)
    if zsplit is None or psplit is None:
        return None
    z_groups, z_tail = _reference_quadratic_groups(*zsplit)
    p_groups, p_tail = _reference_quadratic_groups(*psplit)
    z_groups.sort(key=lambda g: g[0])
    p_groups.sort(key=lambda g: g[0])
    spare = len(p_groups) - len(z_groups)
    rows = []
    if z_tail is not None and p_tail is None:
        if spare == 0:
            return None
        r = -z_tail[1]
        idx = min(range(spare), key=lambda i: abs(p_groups[i][0] - abs(r)))
        _, a = p_groups.pop(idx)
        rows.append([0.0, 1.0, -r] + list(a))
        spare -= 1
        z_tail = None
    for _, a in p_groups[:spare]:
        rows.append([0.0, 0.0, 1.0] + list(a))
    for (_, b), (_, a) in zip(z_groups, p_groups[spare:]):
        rows.append(list(b) + list(a))
    if p_tail is not None:
        if z_tail is not None:
            rows.append(list(z_tail) + list(p_tail))
        else:
            rows.append([0.0, 1.0, 0.0] + list(p_tail))
    sos = np.asarray(rows, dtype=float)
    sos[0, :3] *= gain
    return sos


def reference_sos(zeros, poles, gain: float) -> np.ndarray:
    """Section matrix of the biproper system gain * prod (z - zeros_i) /
    prod (z - poles_i), its adjacent roots paired into quadratics; a
    system without poles is the one constant section.

    Raises ValueError for unpaired complex roots.
    """
    if not poles:
        return np.array([[gain, 0.0, 0.0, 1.0, 0.0, 0.0]])
    sos = _reference_fast_sos(np.asarray(zeros), np.asarray(poles), gain)
    if sos is None:
        raise ValueError("unpaired complex roots")
    return sos


def zpk_response(g: DiscreteZpk, z):
    """Frequency response of a factored system by stable factorwise
    products, with no polynomial expansion."""
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, g.gain, dtype=complex)
    for z0 in g.zeros:
        out = out * (z - z0)
    for p0 in g.poles:
        out = out / (z - p0)
    return out


def _reference_staircase(a: float):
    # the ladder written out: order 5 (11 corner pairs) over [1e-6, 1e3] rad/s
    m, w_b, w_h = 11, 1e-6, 1e3
    ratio = w_h / w_b
    k = np.arange(1, m + 1)
    wz = w_b * ratio ** ((k - 1.0 + (1.0 - a) / 2.0) / m)
    wp = w_b * ratio ** ((k - 1.0 + (1.0 + a) / 2.0) / m)
    return wz, wp, w_h ** a


def _reference_power_roots(power: float):
    if power == 0.0:
        return np.zeros(0), np.zeros(0), 1.0
    mag = abs(power)
    n = int(math.floor(mag))
    a = mag - n
    zeros = [0.0] * n
    poles = []
    gain = 1.0
    if a > 0.0:
        wz, wp, gain = _reference_staircase(a)
        zeros.extend(-wz)
        poles.extend(-wp)
    zeros = np.asarray(zeros, dtype=float)
    poles = np.asarray(poles, dtype=float)
    if power < 0.0:
        return poles, zeros, 1.0 / gain
    return zeros, poles, gain


def _reference_bilinear_roots(zeros, poles, gain, ts):
    c = 2.0 / ts
    zd = (c + zeros) / (c - zeros)
    pd = (c + poles) / (c - poles)
    gain = gain * float(np.prod(c - zeros) / np.prod(c - poles))
    deficit = poles.size - zeros.size
    if deficit > 0:
        zd = np.concatenate([zd, -np.ones(deficit)])
    elif deficit < 0:
        pd = np.concatenate([pd, -np.ones(-deficit)])
    return zd, pd, gain


def _reference_chain_arrays(zd, pd, gain):
    n = pd.size
    A = np.zeros((n, n))
    B = np.ones(n)
    C = np.empty(n)
    for i in range(n):
        A[i, i] = pd[i]
        A[i, :i] = C[:i]
        C[i] = pd[i] - zd[i]
    return A, B, gain * C, gain


def _reference_sorted(r: np.ndarray) -> np.ndarray:
    # largest magnitude first, ties by angle
    return r[np.lexsort((np.angle(r), -np.abs(r)))]


def reference_realize_fopid(theta, t) -> tuple:
    """FOPID realization with per-row chain blocks, assembled block by block.

    Returns (zeros, poles, gain, sections): the zeros and poles as
    complex arrays sorted as ``DiscreteZpk`` sorts them, the zeros
    through numpy's own eigenvalue solve, and the section-parallel form
    (kfp, ((poles, zeros, gain), ...)) with one entry per active term."""
    kfp, kfi, lam, kfd, mu = (float(x) for x in theta)
    ts = t.sample_time
    branches = []
    for gain, power in ((kfi, -lam), (kfd, mu)):
        if gain != 0.0:
            z, q, k = _reference_power_roots(power)
            branches.append(_reference_bilinear_roots(z, q, gain * k, ts))
    sections = (kfp, tuple((pd, zd, k) for zd, pd, k in branches))
    none = np.zeros(0, dtype=complex)
    if not branches and kfp == 0.0:
        return none, none, 0.0, sections
    blocks = [_reference_chain_arrays(zd, pd, k) for zd, pd, k in branches]
    feedthrough = kfp + sum(b[3] for b in blocks)
    n = sum(b[0].shape[0] for b in blocks)
    if n == 0:
        return none, none, feedthrough, sections
    scale = abs(kfp) + sum(abs(b[3]) for b in blocks)
    if abs(feedthrough) <= 1e-12 * scale:
        raise NonInvertibleError("realization has no usable feedthrough")
    A = np.zeros((n, n))
    B = np.zeros(n)
    C = np.zeros(n)
    i = 0
    for Ab, Bb, Cb, _ in blocks:
        m = Ab.shape[0]
        A[i:i + m, i:i + m] = Ab
        B[i:i + m] = Bb
        C[i:i + m] = Cb
        i += m
    poles = np.concatenate([np.diag(b[0]) for b in blocks]).astype(complex)
    zeros = np.linalg.eigvals(A - np.outer(B, C / feedthrough)).astype(complex)
    return _reference_sorted(zeros), _reference_sorted(poles), feedthrough, sections


def reference_parallel_filter(sections, u: np.ndarray) -> np.ndarray:
    """Response of a section-parallel system (direct, ((poles, zeros,
    gain), ...)) to u, through scipy's public sosfilt with one
    first-order row [1, -z, 0, 1, -p, 0] per section, row by row."""
    direct, branches = sections
    y = direct * u
    for poles, zeros, gain in branches:
        x = u
        if poles.size:
            sos = np.array([[1.0, -z, 0.0, 1.0, -p, 0.0] for p, z in zip(poles, zeros)])
            x = _sig.sosfilt(sos, u)
        y = y + gain * x
    return y


def reference_fictitious_reference(h: np.ndarray, u0: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """r~ = T(h)^-1 u0 + y0, both sides of the solve scaled by 1/h[0]."""
    k = 1.0 / h[0]
    return toeplitz_solve(k * h, k * u0) + y0


# ---------------------------------------------------------------------------
# the loss pipeline written out: the inversion-free formula the evaluator
# computes, pinned bit for bit, and the fictitious-reference path through
# C's computed zeros that it replaced, kept to compare penalty reasons


def _penalized(reason: PenaltyReason) -> LossBreakdown:
    return LossBreakdown(j=PENALTY, t_l1=math.nan, bound=math.nan, penalty_reason=reason)


def increments(r0: np.ndarray) -> np.ndarray:
    """r0[0], r0[1] - r0[0], ..., without trailing zeros but at least one
    sample: the form of r0 that reconstruct_output takes."""
    d = np.diff(r0, prepend=0.0)
    nonzero = np.flatnonzero(d)
    return d[: nonzero[-1] + 1 if nonzero.size else 1]


def _finish(evaluator, t) -> LossBreakdown:
    # the checks after the solve, shared by both references
    data = evaluator.data
    if not np.abs(t).max() <= 1e30:
        return _penalized(PenaltyReason.NONFINITE_SIGNAL)
    y = reconstruct_output(increments(data.r0.samples), t)
    if not np.abs(y).max() <= 1e30:
        return _penalized(PenaltyReason.NONFINITE_SIGNAL)
    j = float(np.abs(y - evaluator.target).sum())
    m_d_l1 = impulse_response(evaluator.md, len(data) - 1).l1()
    return LossBreakdown(
        j=j,
        t_l1=float(np.abs(t).sum()),
        bound=evaluator.gamma_r0 * j + m_d_l1,
        penalty_reason=PenaltyReason.NONE,
    )


def reference_breakdown(evaluator, theta) -> LossBreakdown:
    """The inversion-free loss written out, with the evaluator's penalty
    rules, on the evaluator's record: C's raw parts, g = C y0 / D through
    scipy's public filters, w = u0 / D + g, T(w) t = g."""
    data = evaluator.data
    y0 = data.y0.samples
    try:
        if evaluator.template.kind is ControllerKind.FOPID:
            feedthrough, sections = fopid_sections(theta, evaluator.template)
        else:
            num, den = iopid_coeffs(theta, evaluator.template)
            feedthrough = num[0]
    except NonInvertibleError:
        return _penalized(PenaltyReason.NON_INVERTIBLE_CONTROLLER)
    except ValueError:
        return _penalized(PenaltyReason.NONFINITE_SIGNAL)
    if abs(feedthrough) < 1e-12:
        return _penalized(PenaltyReason.NON_INVERTIBLE_CONTROLLER)
    k = 1.0 / feedthrough
    if evaluator.template.kind is ControllerKind.FOPID:
        g = reference_parallel_filter(sections, y0)
    else:
        g = _sig.lfilter(num, den, y0)
    g = g * k
    w = data.u0.samples * k + g
    if not np.abs(w).max() <= 1e30:
        return _penalized(PenaltyReason.NONFINITE_SIGNAL)
    try:
        t = toeplitz_solve(w, g)
    except FictitiousHeadZeroError:
        return _penalized(PenaltyReason.FICTITIOUS_HEAD_ZERO)
    return _finish(evaluator, t)


def inverse_path_breakdown(evaluator, theta) -> tuple:
    """(breakdown, r~ overflowed) of the path through C^-1: realize (with
    its zeros), r~ = C^-1 u0 + y0, and R~ t = y0, with the evaluator's
    penalty rules. A FOPID's inverse runs the sections of its swapped
    roots, with gain 1/gain, through scipy's public sosfilt; an IOPID's
    runs its inverted coefficients."""
    data = evaluator.data
    try:
        c = realize(theta, evaluator.template)
        if isinstance(c, DiscreteZpk):
            sos = reference_sos(c.poles, c.zeros, inverse_gain(c.gain))
            ci_u0 = _sig.sosfilt(sos, data.u0.samples)
        else:
            ci_u0 = simulate(invert(c), data.u0).samples
        rt = ci_u0 + data.y0.samples
    except NonInvertibleError:
        return _penalized(PenaltyReason.NON_INVERTIBLE_CONTROLLER), False
    except ValueError:
        return _penalized(PenaltyReason.NONFINITE_SIGNAL), False
    if not np.abs(rt).max() <= 1e30:
        return _penalized(PenaltyReason.NONFINITE_SIGNAL), True
    try:
        t = toeplitz_solve(rt, data.y0.samples)
    except FictitiousHeadZeroError:
        return _penalized(PenaltyReason.FICTITIOUS_HEAD_ZERO), False
    return _finish(evaluator, t), False
