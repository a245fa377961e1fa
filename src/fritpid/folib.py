"""Fractional-order operators and discrete PID controller realization.

s**alpha is approximated on a finite frequency band by the Oustaloup
recursive filter (geometrically spaced zero/pole pairs). Controller
templates map a parameter vector theta, [kfp, kfi, lam, kfd, mu] or
[kp, ki, kd], to a ready-to-run discrete TF; the realizers take theta
itself and check its size and finiteness once.

The integer-order form has a closed-form bilinear image over z**2 - 1,
staying polynomial throughout. The fractional form cannot: its
approximation spreads roots over the whole band, and the expanded
coefficients of a common-denominator sum lose the slow dynamics entirely
in double precision. It is therefore realized in factored form, mapping
every zero and pole through the bilinear substitution individually and
recovering the zeros of the parallel sum from a structured state-space
assembly, which is the same rational function the common-denominator
route defines, computed without ever expanding it. That state space
travels with the factored form and is the controller block of every
closed loop built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import signal as _sig
from scipy.linalg import lapack as _lapack

from .lti_core import ContinuousTf, DiscreteTf, DiscreteZpk, DiscretizationError

__all__ = [
    "OustaloupConfig",
    "ControllerKind",
    "ControllerTemplate",
    "oustaloup",
    "fopid_roots",
    "iopid_coeffs",
    "realize_fopid",
    "realize_iopid",
    "realize",
]


@dataclass(frozen=True)
class OustaloupConfig:
    """Band and order of the recursive fractional-operator approximation.

    ``order`` is the filter order per operator; the filter itself carries
    2*order + 1 zero/pole pairs spread geometrically over [w_b, w_h] rad/s.
    """

    order: int = 5
    w_b: float = 1e-6
    w_h: float = 1e3

    def __post_init__(self):
        if int(self.order) != self.order or self.order < 1:
            raise ValueError("order must be an integer >= 1")
        object.__setattr__(self, "order", int(self.order))
        if not (0.0 < self.w_b < self.w_h):
            raise ValueError("band edges must satisfy 0 < w_b < w_h")

    @property
    def n_sections(self) -> int:
        return 2 * self.order + 1


class ControllerKind(Enum):
    FOPID = "fopid"
    IOPID = "iopid"


@dataclass(frozen=True)
class ControllerTemplate:
    """Controller family plus everything needed to realize it in discrete time."""

    kind: ControllerKind
    sample_time: float
    oustaloup: OustaloupConfig = field(default_factory=OustaloupConfig)

    def __post_init__(self):
        if not isinstance(self.kind, ControllerKind):
            object.__setattr__(self, "kind", ControllerKind(str(self.kind).lower()))
        if not (self.sample_time > 0.0):
            raise ValueError("sample time must be > 0")

    @property
    def theta_dim(self) -> int:
        return 5 if self.kind is ControllerKind.FOPID else 3


def _staircase(a: float, cfg: OustaloupConfig):
    """Corner frequencies and gain of the fractional-part filter.

    For a in (0, 1) the M = 2*order + 1 zero/pole corner pairs are

        w'_k = w_b * (w_h/w_b)**((k - 1 + (1 - a)/2) / M)   (zeros)
        w_k  = w_b * (w_h/w_b)**((k - 1 + (1 + a)/2) / M)   (poles)

    with gain w_h**a, which pins the magnitude at the band's geometric
    midpoint sqrt(w_b*w_h) to the ideal value exactly.
    """
    m = cfg.n_sections
    half = np.array([[(1.0 - a) / 2.0], [(1.0 + a) / 2.0]])
    wz, wp = cfg.w_b * (cfg.w_h / cfg.w_b) ** ((np.arange(m, dtype=float) + half) / m)
    return wz, wp, cfg.w_h ** a


def oustaloup(alpha: float, cfg: OustaloupConfig) -> ContinuousTf:
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
        pos = oustaloup(-alpha, cfg)
        return ContinuousTf(pos.den, pos.num)
    n = int(math.floor(alpha))
    a = alpha - n
    mono = np.zeros(n + 1)
    mono[0] = 1.0
    if a == 0.0:
        return ContinuousTf(mono, [1.0])
    wz, wp, gain = _staircase(a, cfg)
    num, den = _sig.zpk2tf(-wz, -wp, gain)
    return ContinuousTf(np.convolve(mono, np.atleast_1d(num)), den)


def _branch(gain: float, power: float, cfg: OustaloupConfig, ts: float):
    """Discrete section chain of gain * s**power: (poles, chain row, gain).

    The continuous roots are the integer part's n zeros at s = 0 and the
    fractional part's staircase, zeros and poles swapped for a negative
    power. Each maps on its own through s -> (c + s)/(c - s), c = 2/ts,
    and the side with fewer roots picks up images of the roots at
    infinity, which land on z = -1. This accepts improper terms, unlike
    the polynomial route. Section i of the chain holds one pole:
    x_i+ = pd_i x_i + u_i, y_i = u_i + (pd_i - zd_i) x_i, with sections
    fed in series and the gain applied at the output, so every state
    matrix entry stays within a few orders of magnitude of the root data.
    """
    mag = abs(power)
    n = int(math.floor(mag))
    a = mag - n
    zeros, poles, k = np.zeros(n), np.zeros(0), 1.0
    if a > 0.0:
        wz, wp, k = _staircase(a, cfg)
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
    return pd, pd - zd, k


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
    return values


def fopid_roots(theta, t: ControllerTemplate) -> tuple:
    """(zeros, poles, gain, realization) of kfp + kfi*s**(-lam) + kfd*s**mu.

    The parts ``realize_fopid`` wraps, for callers that need no
    DiscreteZpk: zeros and poles as lists of plain numbers in no
    particular order, the realization (A, B, C, D) or None for a
    constant. Raises DiscretizationError for a realization without a
    usable feedthrough and ValueError for one that is not finite.
    """
    kfp, kfi, lam, kfd, mu = _parameters(theta, t, ControllerKind.FOPID)
    ts = t.sample_time
    branches = [
        _branch(gain, power, t.oustaloup, ts)
        for gain, power in ((kfi, -lam), (kfd, mu))
        if gain != 0.0
    ]
    feedthrough = kfp + sum(b[2] for b in branches)
    sizes = [b[0].size for b in branches]
    n = sum(sizes)
    if n == 0:
        zeros = poles = np.zeros(0)
        realization = None
    else:
        scale = abs(kfp) + sum(abs(b[2]) for b in branches)
        if abs(feedthrough) <= 1e-12 * scale:
            raise DiscretizationError("realization has no usable feedthrough")
        poles = np.concatenate([b[0] for b in branches])
        chain = np.concatenate([b[1] for b in branches])
        # block-diagonal over the branches: A[i, j] = chain[j] below the
        # diagonal of a block, the poles on it; every state takes the unit
        # input (B = 1)
        i = np.arange(n)
        A = np.where(i < i[:, None], chain, 0.0)
        A[i, i] = poles
        A[sizes[0]:, : sizes[0]] = 0.0
        C = np.concatenate([b[2] * b[1] for b in branches])
        # LAPACK directly: numpy's eigvals wrapper costs a fifth of the call
        # on a matrix built finite here, and returns the same bits
        wr, wi, _, _, info = _lapack.dgeev(A - C / feedthrough, compute_vl=0, compute_vr=0)
        if info != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        zeros = wr + 1j * wi if wi.any() else wr
        realization = (A, np.ones(n), C, feedthrough)
    if not (math.isfinite(feedthrough) and np.isfinite(zeros).all() and np.isfinite(poles).all()):
        raise ValueError("realization must be finite")
    return zeros.tolist(), poles.tolist(), feedthrough, realization


def realize_fopid(theta, t: ControllerTemplate) -> DiscreteZpk:
    """Factored discrete realization of kfp + kfi*s**(-lam) + kfd*s**mu.

    Terms whose gain is exactly zero are dropped before anything is built,
    so their order parameters are ignored and a theta of [1, 0, 1, 0, 1]
    realizes the constant controller 1. Active fractional terms become
    chains of bilinearly mapped first-order sections; the parallel sum is
    assembled as a block-diagonal state space whose transmission zeros
    (eigenvalues of the inverse system) complete the factored form. The
    result is biproper whenever any term is active, because the bilinear
    image of each band-limited term is itself biproper, and it carries
    that state space as its realization: A lower triangular with each
    pole alone on its diagonal, B all ones, C the gain-scaled chain rows
    and D the feedthrough.
    """
    zeros, poles, gain, realization = fopid_roots(theta, t)
    return DiscreteZpk(zeros, poles, gain, t.sample_time, realization=realization)


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


def realize_iopid(theta, t: ControllerTemplate) -> DiscreteTf:
    """Closed-form Tustin image of kp + ki/s + kd*s (see ``iopid_coeffs``)."""
    return DiscreteTf(*iopid_coeffs(theta, t), t.sample_time)


def realize(theta, t: ControllerTemplate):
    """Realize a parameter vector against a template, dispatching on kind.

    Fractional templates produce a factored DiscreteZpk, integer ones a
    polynomial DiscreteTf; both run everywhere the pipeline needs them.
    """
    if t.kind is ControllerKind.FOPID:
        return realize_fopid(theta, t)
    return realize_iopid(theta, t)
