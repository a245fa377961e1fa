"""The loss against references outside the evaluator, on the built-in cases.

The evaluator scores a candidate without inverting it: it solves
T(w) t = C y0 with w = u0 + C y0. The benchmark checks each tuned J*
against a dense triangular solve on ``fictitious_reference``, which
builds r~ = C^-1 u0 + y0 by another route, T(h)^-1 u0 + y0. These tests
run that check at and near every published theta*, hold J to an
extended-precision evaluation from the same section chains, and compare
penalty reasons with the path through C's computed zeros that the
inversion-free form replaced.
"""

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import signal as _sig

from fritpid.benchlab import (
    CASE_NAMES,
    builtin_case,
    collect_data,
    discretized_reference_model,
    make_evaluator,
    reference_targets,
)
from fritpid.folib import ControllerKind, fopid_sections, iopid_coeffs, realize
from fritpid.l1_idfrit import PenaltyReason, fictitious_reference
from fritpid.lti_core import impulse_response

from .strategies import inverse_path_breakdown

LD = np.longdouble


@pytest.fixture(scope="module")
def evaluators():
    out = {}
    for name in CASE_NAMES:
        case = builtin_case(name)
        out[name] = (case, make_evaluator(case, collect_data(case)))
    return out


def _near_star(name, case, count, spread, seed):
    star = np.asarray(reference_targets(name).theta_star, dtype=float)
    rng = np.random.default_rng(seed)
    lo, hi = case.bounds.lower, case.bounds.upper
    return [star] + [
        np.clip(star * (1.0 + rng.uniform(-spread, spread, star.size)), lo, hi)
        for _ in range(count)
    ]


def _lower_toeplitz(col):
    return sla.toeplitz(col, np.zeros(col.size))


@pytest.mark.parametrize("name", CASE_NAMES)
def test_j_is_the_dense_loss_on_the_fictitious_reference(evaluators, name):
    # the benchmark's J* check, at 1e-10 where the benchmark allows 1e-9
    case, ev = evaluators[name]
    data = ev.data
    r0, y0 = data.r0.samples, data.y0.samples
    r0_mat = _lower_toeplitz(r0)
    m_d = impulse_response(discretized_reference_model(case), len(data) - 1).samples
    target = r0_mat @ m_d
    for theta in _near_star(name, case, 10, 0.05, seed=1):
        b = ev.evaluate(theta)
        assert not b.penalized, theta
        rt = fictitious_reference(realize(theta, case.template), data).samples
        t = sla.solve_triangular(_lower_toeplitz(rt), y0, lower=True)
        j_dense = float(np.abs(r0_mat @ t - target).sum())
        assert abs(b.j - j_dense) <= 1e-10 * abs(j_dense), theta


def _ld_impulse(theta, template, n):
    """c's impulse response over n samples in long double, from the same
    section chains (FOPID) or coefficients (IOPID) the evaluator uses."""
    pulse = np.zeros(n, dtype=LD)
    pulse[0] = 1
    if template.kind is ControllerKind.FOPID:
        _, (direct, branches) = fopid_sections(theta, template)
        h = LD(direct) * pulse
        for poles, zeros, gain in branches:
            x = pulse
            for p, z in zip(poles, zeros):
                x = _sig.lfilter(np.array([1, -z], dtype=LD), np.array([1, -p], dtype=LD), x)
            h = h + LD(gain) * x
        return h
    num, den = iopid_coeffs(theta, template)
    return _sig.lfilter(np.array(num, dtype=LD), np.array(den, dtype=LD), pulse)


def _ld_solve(col, rhs):
    # forward substitution, sample by sample
    t = np.zeros(col.size, dtype=LD)
    for k in range(col.size):
        t[k] = (rhs[k] - np.dot(col[k:0:-1], t[:k])) / col[0]
    return t


def _ld_loss(theta, case, data):
    """J in long double along the paper's route: r~ = T(h)^-1 u0 + y0,
    R~ t = y0, y = R0 t."""
    n = len(data)
    r0, u0, y0 = (np.asarray(s.samples, dtype=LD) for s in (data.r0, data.u0, data.y0))
    t = _ld_solve(_ld_solve(_ld_impulse(theta, case.template, n), u0) + y0, y0)
    md = discretized_reference_model(case)
    num, den = md.num.coeffs, md.den.coeffs
    delayed = np.zeros(n, dtype=LD)
    delayed[md.delay_samples] = 1
    num = np.array((0.0,) * (len(den) - len(num)) + num, dtype=LD)
    m_d = _sig.lfilter(num, np.array(den, dtype=LD), delayed)
    return float(np.abs(np.convolve(r0, t - m_d)[:n]).sum())


@pytest.mark.skipif(
    np.finfo(LD).eps >= np.finfo(float).eps, reason="long double is not wider than float64"
)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_j_at_theta_star_is_accurate_to_extended_precision(evaluators, name):
    """J within 1e-10 relative of a long-double evaluation at theta*.

    Measured against this reference, J through C's computed zeros (the
    fictitious reference filtered by C^-1, before the inversion-free
    form) was off by 3.8e-11 on example1 and 6.3e-9 on example2, and so
    failed this test; the inversion-free J is off by at most 5.5e-12 at
    theta* and at 2 % perturbations of it.
    """
    case, ev = evaluators[name]
    theta = np.asarray(reference_targets(name).theta_star, dtype=float)
    j_ld = _ld_loss(theta, case, ev.data)
    assert abs(ev.evaluate(theta).j - j_ld) <= 1e-10 * j_ld


# theta in the example1 and example2 boxes where r~ = C^-1 u0 + y0 passes
# the 1e30 overflow limit, because C^-1 grows over 1001 samples, while w
# stays small and J is finite (about 1.5e9 and 4.7e18 on example1)
_OVERFLOWING_INVERSE = [
    [0.07263284607183729, 1.0063182076924615, 1.6049208790800102, 0.03487548120605699, 1.8420204944648808],
    [0.03412443989749159, 3.979411423735443, 1.9325234636752713, 0.4268795396547487, 1.750309327511994],
]


@pytest.mark.parametrize("name", CASE_NAMES)
def test_penalty_reasons_agree_with_the_inverse_path(evaluators, name):
    # the only difference allowed is a penalty of the inverse path for an
    # overflowing r~ where the evaluator, which never forms r~, is clean
    case, ev = evaluators[name]
    rng = np.random.default_rng(3)
    lo, hi = case.bounds.lower, case.bounds.upper
    thetas = _near_star(name, case, 5, 0.05, seed=2)
    thetas += [lo + (hi - lo) * rng.uniform(size=lo.size) for _ in range(20)]
    if case.template.kind is ControllerKind.FOPID:
        thetas += [np.array(th) for th in _OVERFLOWING_INVERSE]
    differences = 0
    for theta in thetas:
        got = ev.evaluate(theta)
        old, overflowed = inverse_path_breakdown(ev, theta)
        if got.penalty_reason is not old.penalty_reason:
            assert overflowed and got.penalty_reason is PenaltyReason.NONE, theta
            assert np.isfinite(got.j)
            differences += 1
    assert differences == (2 if name in ("example1", "example2") else 0)
