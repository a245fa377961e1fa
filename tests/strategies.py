"""Shared hypothesis strategies and reference helpers for the test suite."""

import math

import numpy as np
from hypothesis import strategies as st

from fritpid.folib import realize
from fritpid.l1_idfrit import (
    PENALTY,
    FictitiousHeadZeroError,
    LossBreakdown,
    PenaltyReason,
    fictitious_reference,
    reconstruct_output,
    toeplitz_solve,
)
from fritpid.lti_core import (
    ContinuousTf,
    DiscreteTf,
    DiscreteZpk,
    DiscretizationError,
    NonInvertibleError,
    Signal,
    impulse_response,
    tustin,
)

SAMPLE_TIMES = (0.01, 0.05, 0.1, 0.5, 1.0)


def sample_times():
    return st.sampled_from(SAMPLE_TIMES)


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


# ---------------------------------------------------------------------------
# factored-form references: the section builder, inverse and FOPID
# realization as first written, on numpy arrays, kept to pin the lean
# versions bit for bit


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


def reference_as_sos(g: DiscreteZpk) -> np.ndarray:
    """Section matrix of a factored system, built on numpy root arrays.

    Raises ValueError for unpaired complex roots, as the builder does.
    """
    if not g.poles:
        return np.array([[g.gain, 0.0, 0.0, 1.0, 0.0, 0.0]])
    sos = _reference_fast_sos(np.asarray(g.zeros), np.asarray(g.poles), g.gain)
    if sos is None:
        raise ValueError("unpaired complex roots")
    return sos


def reference_zpk_invert(g: DiscreteZpk) -> DiscreteZpk:
    """Inverse through the public constructor, which sorts the roots again."""
    return DiscreteZpk(g.poles, g.zeros, 1.0 / g.gain, g.sample_time)


def _reference_staircase(a: float, cfg):
    m = cfg.n_sections
    ratio = cfg.w_h / cfg.w_b
    k = np.arange(1, m + 1)
    wz = cfg.w_b * ratio ** ((k - 1.0 + (1.0 - a) / 2.0) / m)
    wp = cfg.w_b * ratio ** ((k - 1.0 + (1.0 + a) / 2.0) / m)
    return wz, wp, cfg.w_h ** a


def _reference_power_roots(power: float, cfg):
    if power == 0.0:
        return np.zeros(0), np.zeros(0), 1.0
    mag = abs(power)
    n = int(math.floor(mag))
    a = mag - n
    zeros = [0.0] * n
    poles = []
    gain = 1.0
    if a > 0.0:
        wz, wp, gain = _reference_staircase(a, cfg)
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


def reference_realize_fopid(theta, t) -> DiscreteZpk:
    """FOPID realization with per-row chain blocks, assembled block by block."""
    kfp, kfi, lam, kfd, mu = (float(x) for x in theta)
    ts = t.sample_time
    branches = []
    for gain, power in ((kfi, -lam), (kfd, mu)):
        if gain != 0.0:
            z, q, k = _reference_power_roots(power, t.oustaloup)
            branches.append(_reference_bilinear_roots(z, q, gain * k, ts))
    if not branches and kfp == 0.0:
        return DiscreteZpk((), (), 0.0, ts)
    blocks = [_reference_chain_arrays(zd, pd, k) for zd, pd, k in branches]
    feedthrough = kfp + sum(b[3] for b in blocks)
    n = sum(b[0].shape[0] for b in blocks)
    if n == 0:
        return DiscreteZpk((), (), feedthrough, ts)
    scale = abs(kfp) + sum(abs(b[3]) for b in blocks)
    if abs(feedthrough) <= 1e-12 * scale:
        raise DiscretizationError("realization has no usable feedthrough")
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
    pole_list = np.concatenate([np.diag(b[0]) for b in blocks])
    zero_list = np.linalg.eigvals(A - np.outer(B, C / feedthrough))
    return DiscreteZpk(tuple(zero_list), tuple(pole_list), feedthrough, ts)


def _roots(draw, n_real, n_pairs):
    # + 0.0 folds -0.0 into 0.0: sorting may order the two either way
    real = [draw(bounded_floats(-2.0, 2.0)) + 0.0 for _ in range(n_real)]
    pairs = [
        complex(draw(bounded_floats(-2.0, 2.0)) + 0.0, draw(bounded_floats(1e-3, 2.0)))
        for _ in range(n_pairs)
    ]
    return real + pairs + [q.conjugate() for q in pairs]


@st.composite
def conjugate_root_sets(draw, max_order=9):
    """(zeros, poles, gain) for a proper factored system.

    Real roots and conjugate pairs in any mix, odd and even counts, any
    relative degree. One biproper draw in eight drops the conjugate of
    a complex zero, which the section builder must reject.
    """
    n_poles = draw(st.integers(min_value=1, max_value=max_order))
    p_pairs = draw(st.integers(min_value=0, max_value=n_poles // 2))
    n_zeros = draw(st.integers(min_value=0, max_value=n_poles))
    z_pairs = draw(st.integers(min_value=0, max_value=n_zeros // 2))
    zeros = _roots(draw, n_zeros - 2 * z_pairs, z_pairs)
    poles = _roots(draw, n_poles - 2 * p_pairs, p_pairs)
    if z_pairs and n_zeros == n_poles and draw(st.integers(0, 7)) == 0:
        zeros[-1] = zeros[-1].real + 0.5
    gain = draw(st.one_of(bounded_floats(0.1, 5.0), bounded_floats(-5.0, -0.1)))
    return tuple(zeros), tuple(poles), gain


# ---------------------------------------------------------------------------
# the loss pipeline on controller objects, as LossEvaluator ran it before it
# scored candidates on arrays, kept to pin the array path bit for bit


def _penalized(reason: PenaltyReason) -> LossBreakdown:
    return LossBreakdown(j=PENALTY, t_l1=math.nan, bound=math.nan, penalty_reason=reason)


def reference_breakdown(evaluator, theta) -> LossBreakdown:
    """realize, fictitious_reference, toeplitz_solve and reconstruct_output,
    with the evaluator's penalty rules, on the evaluator's record."""
    data = evaluator.data
    try:
        c = realize(theta, evaluator.template)
    except DiscretizationError:
        return _penalized(PenaltyReason.NON_INVERTIBLE_CONTROLLER)
    except ValueError:
        return _penalized(PenaltyReason.NONFINITE_SIGNAL)
    try:
        rt = fictitious_reference(c, data)
    except NonInvertibleError:
        return _penalized(PenaltyReason.NON_INVERTIBLE_CONTROLLER)
    if not np.abs(rt.samples).max() <= 1e30:
        return _penalized(PenaltyReason.NONFINITE_SIGNAL)
    try:
        t = toeplitz_solve(rt, data.y0)
    except FictitiousHeadZeroError:
        return _penalized(PenaltyReason.FICTITIOUS_HEAD_ZERO)
    if not np.abs(t.samples).max() <= 1e30:
        return _penalized(PenaltyReason.NONFINITE_SIGNAL)
    y = reconstruct_output(data.r0, t).samples
    if not np.abs(y).max() <= 1e30:
        return _penalized(PenaltyReason.NONFINITE_SIGNAL)
    j = float(np.abs(y - evaluator.target.samples).sum())
    m_d_l1 = impulse_response(evaluator.md, len(data) - 1).l1()
    return LossBreakdown(
        j=j,
        t_l1=t.l1(),
        bound=evaluator.gamma_r0 * j + m_d_l1,
        penalty_reason=PenaltyReason.NONE,
    )
