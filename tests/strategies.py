"""Shared hypothesis strategies and reference helpers for the test suite."""

import numpy as np

from hypothesis import strategies as st

from fritpid.lti_core import ContinuousTf, DiscreteTf, Signal, tustin

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
