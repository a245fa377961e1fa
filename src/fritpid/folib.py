"""Fractional-order operators and discrete PID controller realization.

s**alpha is approximated on a finite frequency band by the Oustaloup
recursive filter (geometrically spaced zero/pole pairs). Controller
templates map a parameter vector theta, [kfp, kfi, lam, kfd, mu] or
[kp, ki, kd], to a ready-to-run discrete TF; the realizer takes theta
itself and checks its size and finiteness once.

The integer-order form has a closed-form bilinear image over z**2 - 1,
staying polynomial throughout. The fractional form cannot: its
approximation spreads roots over the whole band, and the expanded
coefficients of a common-denominator sum lose the slow dynamics entirely
in double precision. It is therefore kept in section-parallel form: every
zero and pole maps through the bilinear substitution individually, each
term becomes a chain of first-order sections, and the chains and the
proportional gain run in parallel. That form (``fopid_sections``) is
the realized controller: what the loss filters and what every closed
loop uses as the controller block. The zeros of the parallel sum, which
only reports read, are computed from it by ``lti_core.parallel_zeros``
without ever expanding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lti_core import (
    ContinuousTf,
    DiscreteTf,
    DiscreteZpk,
    NonInvertibleError,
)

__all__ = [
    "MAX_ORDER",
    "OUSTALOUP_ORDER",
    "OUSTALOUP_W_B",
    "OUSTALOUP_W_H",
    "ControllerKind",
    "ControllerTemplate",
    "oustaloup",
    "fopid_sections",
    "fopid_chains",
    "iopid_coeffs",
    "iopid_forms",
    "realize",
]


# Largest FOPID order |lam|, |mu|: each unit of order adds a state, and a
# controller's zeros and every closed loop's poles take a dense eigenvalue
# solve over all of them (under the cap at most 70 states and about 1 ms;
# an order of 1e5 would ask for a 1e5 x 1e5 matrix).
MAX_ORDER = 25.0


# The one Oustaloup ladder of every fractional operator: 2*order + 1
# zero/pole pairs spread geometrically over [w_b, w_h] rad/s.
OUSTALOUP_ORDER = 5
OUSTALOUP_W_B = 1e-6
OUSTALOUP_W_H = 1e3


class ControllerKind(Enum):
    FOPID = "fopid"
    IOPID = "iopid"


@dataclass(frozen=True)
class ControllerTemplate:
    """Controller family plus everything needed to realize it in discrete time."""

    kind: ControllerKind
    sample_time: float

    def __post_init__(self):
        if not isinstance(self.kind, ControllerKind):
            raise TypeError(f"kind must be a ControllerKind, got {self.kind!r}")
        if not (self.sample_time > 0.0):
            raise ValueError("sample time must be > 0")

    @property
    def theta_dim(self) -> int:
        return 5 if self.kind is ControllerKind.FOPID else 3


def _staircase(a: float):
    """Corner frequencies and gain of the fractional-part filter.

    For a in (0, 1) the M = 2*OUSTALOUP_ORDER + 1 zero/pole corner pairs are

        w'_k = w_b * (w_h/w_b)**((k - 1 + (1 - a)/2) / M)   (zeros)
        w_k  = w_b * (w_h/w_b)**((k - 1 + (1 + a)/2) / M)   (poles)

    with gain w_h**a, which pins the magnitude at the band's geometric
    midpoint sqrt(w_b*w_h) to the ideal value exactly.
    """
    m = 2 * OUSTALOUP_ORDER + 1
    w_b, w_h = OUSTALOUP_W_B, OUSTALOUP_W_H
    half = np.array([[(1.0 - a) / 2.0], [(1.0 + a) / 2.0]])
    wz, wp = w_b * (w_h / w_b) ** ((np.arange(m, dtype=float) + half) / m)
    return wz, wp, w_h ** a


def oustaloup(alpha: float) -> ContinuousTf:
    """Band-limited rational approximation of s**alpha.

    The exponent is split as alpha = n + a with integer n and fractional
    a in [0, 1); the integer part is the exact monomial s**n and only the
    fractional part is approximated by the recursive zero/pole staircase.
    alpha = 0 returns unity and negative alpha returns the reciprocal of
    the positive case.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if alpha < 0.0:
        pos = oustaloup(-alpha)
        return ContinuousTf(pos.den, pos.num)
    n = int(math.floor(alpha))
    a = alpha - n
    mono = np.zeros(n + 1)
    mono[0] = 1.0
    if a == 0.0:
        return ContinuousTf(mono, [1.0])
    wz, wp, gain = _staircase(a)
    num, den = gain * np.poly(-wz), np.poly(-wp)
    return ContinuousTf(np.convolve(mono, num), den)


def _branch(gain: float, power: float, ts: float):
    """Discrete section chain of gain * s**power: (poles, zeros, gain).

    The continuous roots are the integer part's n zeros at s = 0 and the
    fractional part's staircase, zeros and poles swapped for a negative
    power. Each maps on its own through s -> (c + s)/(c - s), c = 2/ts,
    and the side with fewer roots picks up images of the roots at
    infinity, which land on z = -1. This accepts improper terms, unlike
    the polynomial route. Section i of the chain is the first-order
    (z - zd_i)/(z - pd_i), with the sections fed in series and the gain
    applied at the output (``lti_core.filter_parallel``).
    """
    mag = abs(power)
    n = int(math.floor(mag))
    a = mag - n
    zeros, poles, k = np.zeros(n), np.zeros(0), 1.0
    if a > 0.0:
        wz, wp, k = _staircase(a)
        zeros, poles = np.concatenate([zeros, -wz]), -wp
    if power < 0.0:
        zeros, poles, k = poles, zeros, 1.0 / k
    c = 2.0 / ts
    dz, dp = c - zeros, c - poles
    zd, pd = (c + zeros) / dz, (c + poles) / dp
    k = gain * k * float(dz.prod() / dp.prod())
    deficit = poles.size - zeros.size
    if deficit > 0:
        zd = np.concatenate([zd, -np.ones(deficit)])
    elif deficit < 0:
        pd = np.concatenate([pd, -np.ones(-deficit)])
    return pd, zd, k


def _branch_rows(gain: np.ndarray, power: np.ndarray, n: int, ts: float):
    """``_branch`` on rows of (gain, power) of one chain shape: integer
    order n, a fractional part or none, and the sign of the power, all
    read from the first row. Returns (poles, zeros, gains), one row per
    chain, from ``_branch``'s operations on arrays, so each row has
    ``_branch``'s bits: the gain w_h**a stays a Python float power, and
    the products run along C-contiguous rows."""
    rows = gain.size
    a = np.abs(power) - n
    zeros, poles, k = np.zeros((rows, n)), np.zeros((rows, 0)), np.ones(rows)
    if a[0] > 0.0:
        m = 2 * OUSTALOUP_ORDER + 1
        w_b, w_h = OUSTALOUP_W_B, OUSTALOUP_W_H
        half = np.stack([(1.0 - a) / 2.0, (1.0 + a) / 2.0], axis=1)[:, :, None]
        corners = w_b * (w_h / w_b) ** ((np.arange(m, dtype=float) + half) / m)
        zeros = np.concatenate([zeros, -corners[:, 0]], axis=1)
        poles = -corners[:, 1]
        k = np.array([w_h ** x for x in a.tolist()])
    if power[0] < 0.0:
        zeros, poles, k = poles, zeros, 1.0 / k
    c = 2.0 / ts
    dz, dp = c - zeros, c - poles
    zd, pd = (c + zeros) / dz, (c + poles) / dp
    k = gain * k * (dz.prod(axis=1) / dp.prod(axis=1))
    deficit = poles.shape[1] - zeros.shape[1]
    if deficit > 0:
        zd = np.concatenate([zd, -np.ones((rows, deficit))], axis=1)
    elif deficit < 0:
        pd = np.concatenate([pd, -np.ones((rows, -deficit))], axis=1)
    return pd, zd, k


def _parameters(theta, t: ControllerTemplate, kind: ControllerKind) -> list:
    """theta as Python floats: with a numpy scalar, ``w_h ** a`` in
    ``_staircase`` rounds differently in the last bit, and J moves."""
    if t.kind is not kind:
        raise ValueError(f"template kind must be {kind.name}")
    values = np.asarray(theta, dtype=float).reshape(-1).tolist()
    if len(values) != t.theta_dim:
        raise ValueError(f"expected {t.theta_dim} parameters, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"parameters must be finite, got {values}")
    if kind is ControllerKind.FOPID and max(abs(values[2]), abs(values[4])) > MAX_ORDER:
        raise ValueError(f"orders lam and mu must lie within +-{MAX_ORDER:g}, got {values}")
    return values


def fopid_sections(theta, t: ControllerTemplate) -> tuple:
    """(feedthrough, sections) of kfp + kfi*s**(-lam) + kfd*s**mu.

    ``sections`` is the section-parallel form (kfp, branches) that
    ``lti_core.filter_parallel`` runs, one (poles, zeros, gain) chain of
    first-order sections per active term (``_branch``); the feedthrough
    is kfp plus the chain gains. Raises NonInvertibleError for a
    realization with states whose feedthrough cancels to within 1e-12 of
    the gains' scale, and ValueError for one that is not finite.
    """
    kfp, kfi, lam, kfd, mu = _parameters(theta, t, ControllerKind.FOPID)
    ts = t.sample_time
    branches = tuple(
        _branch(gain, power, ts)
        for gain, power in ((kfi, -lam), (kfd, mu))
        if gain != 0.0
    )
    feedthrough = kfp + sum(b[2] for b in branches)
    if any(b[0].size for b in branches):
        scale = abs(kfp) + sum(abs(b[2]) for b in branches)
        if abs(feedthrough) <= 1e-12 * scale:
            raise NonInvertibleError("realization has no usable feedthrough")
    if not (math.isfinite(feedthrough) and all(np.isfinite(b[0]).all() for b in branches)):
        raise ValueError("realization must be finite")
    return feedthrough, (kfp, branches)


def fopid_chains(params: np.ndarray, ts: float) -> tuple:
    """``fopid_sections`` on the rows of a (rows, 5) parameter array,
    every row finite and with orders within MAX_ORDER.

    Returns (feedthrough, cancelled, finite, chains): per row the
    feedthrough, whether it cancels as ``fopid_sections`` refuses it, and
    whether the realization is finite; ``chains`` lists (rows, poles,
    zeros, gains) per active term and chain shape (``_branch_rows``), the
    integral term's first. The sums start from 0.0 and add the active
    terms only, as Python's ``sum`` from 0 does, so that -0.0 terms sum
    to 0.0 here too, and each row has ``fopid_sections``' bits.
    """
    kfp = params[:, 0]
    total, scale = np.zeros(len(params)), np.zeros(len(params))
    states = np.zeros(len(params), dtype=bool)
    finite = np.ones(len(params), dtype=bool)
    chains = []
    for gain, power in ((params[:, 1], -params[:, 2]), (params[:, 3], params[:, 4])):
        active = np.flatnonzero(gain != 0.0)
        mag = np.abs(power[active])
        n = np.floor(mag)
        shapes = (n * 2 + (mag > n)) * 2 + (power[active] < 0.0)
        for shape in np.unique(shapes).tolist():
            rows = active[shapes == shape]
            pd, zd, k = _branch_rows(gain[rows], power[rows], int(shape) // 4, ts)
            chains.append((rows, pd, zd, k))
            total[rows] += k
            scale[rows] += np.abs(k)
            states[rows] |= pd.shape[1] > 0
            finite[rows] &= np.isfinite(pd).all(axis=1)
    feedthrough = kfp + total
    cancelled = states & (np.abs(feedthrough) <= 1e-12 * (np.abs(kfp) + scale))
    return feedthrough, cancelled, finite & np.isfinite(feedthrough), chains


def iopid_coeffs(theta, t: ControllerTemplate) -> tuple:
    """(num, den) of the Tustin image of kp + ki/s + kd*s, in closed form.

    With a = ki*ts/2 and d = 2*kd/ts, kp + a(z + 1)/(z - 1) + d(z - 1)/(z + 1)
    is [(kp + a + d)z**2 + 2(a - d)z + (a + d - kp)] / (z**2 - 1). A term
    whose gain is exactly zero is dropped with its pole, so no cancelled
    factor is ever left in the realization. Coefficients come highest
    power first, den monic; num keeps a leading zero, which DiscreteTf
    strips.
    """
    kp, ki, kd = _parameters(theta, t, ControllerKind.IOPID)
    ts = t.sample_time
    a, d = ki * ts / 2.0, 2.0 * kd / ts
    if ki == 0.0 and kd == 0.0:
        return [kp], [1.0]
    if kd == 0.0:
        return [kp + a, a - kp], [1.0, -1.0]
    if ki == 0.0:
        return [kp + d, kp - d], [1.0, 1.0]
    return [kp + a + d, 2.0 * (a - d), a + d - kp], [1.0, 0.0, -1.0]


def iopid_forms(params: np.ndarray, ts: float) -> list:
    """``iopid_coeffs`` on the rows of a (rows, 3) finite parameter array:
    (rows, num, den) for each of its four forms (no zero gain, or ki, kd
    or both exactly zero), with one numerator per row of ``rows`` and
    ``iopid_coeffs``' bits in each."""
    kp, ki, kd = params.T
    a, d = ki * ts / 2.0, 2.0 * kd / ts
    integral, derivative = ki != 0.0, kd != 0.0
    forms = (
        (~integral & ~derivative, [kp], (1.0,)),
        (integral & ~derivative, [kp + a, a - kp], (1.0, -1.0)),
        (~integral & derivative, [kp + d, kp - d], (1.0, 1.0)),
        (integral & derivative, [kp + a + d, 2.0 * (a - d), a + d - kp], (1.0, 0.0, -1.0)),
    )
    return [(np.flatnonzero(mask), np.stack(num, axis=1)[mask], den) for mask, num, den in forms]


def realize(theta, t: ControllerTemplate):
    """Realize a parameter vector against a template, dispatching on kind.

    An integer template gives the closed-form Tustin image of
    kp + ki/s + kd*s (``iopid_coeffs``) as a polynomial DiscreteTf.

    A fractional template gives kfp + kfi*s**(-lam) + kfd*s**mu as a
    factored DiscreteZpk. Terms whose gain is exactly zero are dropped
    before anything is built, so their orders are only held to MAX_ORDER
    and a theta of [1, 0, 1, 0, 1] realizes the constant controller 1.
    Active fractional terms become chains of bilinearly mapped
    first-order sections (``fopid_sections``), and the factored form is
    that section-parallel form: it simulates and closes loops through it,
    and computes its zeros, poles and gain from it when they are read.
    The result is biproper whenever any term is active, because the
    bilinear image of each band-limited term is itself biproper.
    """
    if t.kind is ControllerKind.FOPID:
        return DiscreteZpk(fopid_sections(theta, t)[1], t.sample_time)
    return DiscreteTf(*iopid_coeffs(theta, t), t.sample_time)
