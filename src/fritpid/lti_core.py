"""Minimal SISO LTI toolbox used by the tuner.

Transfer functions come in two discrete flavours: plain polynomial ratios
(coefficients highest power first) for low-order systems, and a factored
zeros/poles/gain form for systems whose dynamics span too many decades for
monomial coefficients to carry. A filter with poles spread over nine decades
has a denominator whose value at z = 1 can sit thirty orders of magnitude
below its coefficients, so the polynomial form cannot represent it in double
precision; the factored form keeps every root exact and simulates through a
cascade of second-order sections. Continuous TFs carry an optional dead
time, discrete ones an integer sample delay. Only what the tuning pipeline
needs is provided: bilinear discretization, difference-equation simulation,
inversion, one stability rule for every pole set (STABLE_RADIUS), and one
state space of the unity-feedback loop that serves both its simulation
and its poles.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy import signal as _sig

__all__ = [
    "Polynomial",
    "ContinuousTf",
    "DiscreteTf",
    "DiscreteZpk",
    "Signal",
    "STABLE_RADIUS",
    "SampleTimeError",
    "NonInvertibleError",
    "DiscretizationError",
    "AlgebraicLoopError",
    "tustin",
    "simulate",
    "impulse_response",
    "invert",
    "inverse_roots",
    "inverse_coeffs",
    "filter_zpk",
    "filter_tf",
    "same_sample_time",
    "poles",
    "is_stable",
    "loop_poles",
    "co_simulate",
]

#: relative threshold below which a leading coefficient counts as degenerate
_LEAD_TOL = 1e-12

#: absolute feedthrough threshold for inversion of a monic-denominator TF
_FEEDTHROUGH_TOL = 1e-12


class SampleTimeError(ValueError):
    """Signals or systems with incompatible sample times were combined."""


class NonInvertibleError(ValueError):
    """Inversion was requested for a TF without a usable direct feedthrough."""


class DiscretizationError(ValueError):
    """The bilinear substitution produced a degenerate denominator."""


class AlgebraicLoopError(ValueError):
    """A feedback interconnection has no well-posed sample-by-sample solution."""


def same_sample_time(a: float, b: float) -> bool:
    """The one sample-time rule: equal within 1e-12 relative."""
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _unchecked(cls, **fields):
    """Frozen dataclass instance from fields that already hold its invariants."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _strip(vals: list) -> tuple:
    # strip exact-zero leading terms, keep at least the constant term
    k = 0
    while k < len(vals) - 1 and vals[k] == 0.0:
        k += 1
    return tuple(vals[k:])


def _monic(num: tuple, den: tuple) -> tuple:
    """(num, den) rescaled so that den leads with exactly one; den[0] != 0."""
    lead = den[0]
    if lead == 1.0:
        return num, den
    k = 1.0 / lead
    return _strip([k * c for c in num]), (1.0,) + tuple(k * c for c in den[1:])


def _coerce_coeffs(coeffs) -> tuple:
    if isinstance(coeffs, Polynomial):
        return coeffs.coeffs
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim > 1 or arr.size == 0:
        raise ValueError("coefficients must be a non-empty 1-D sequence")
    return _strip(arr.reshape(-1).tolist())


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients highest power first.

    Exact-zero leading coefficients are stripped on construction; the zero
    polynomial is kept as the single coefficient (0.0,).
    """

    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coerce_coeffs(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)


PolyLike = Union[Polynomial, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class ContinuousTf:
    """Continuous-time rational transfer function with optional dead time.

    Properness is not enforced: band-limited approximations of fractional
    differentiators are legitimately improper in s, and the bilinear map
    still lands them on a proper discrete TF.
    """

    num: PolyLike
    den: PolyLike
    dead_time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "num", Polynomial(self.num))
        object.__setattr__(self, "den", Polynomial(self.den))
        if self.den.is_zero:
            raise ValueError("denominator must not be identically zero")
        if not (self.dead_time >= 0.0):
            raise ValueError("dead time must be >= 0")


@dataclass(frozen=True)
class DiscreteTf:
    """Proper discrete-time rational TF with a monic denominator.

    ``delay_samples`` is an extra integer input delay kept outside the
    polynomial pair, i.e. the full map is z**(-delay_samples) * num/den.
    """

    num: PolyLike
    den: PolyLike
    sample_time: float
    delay_samples: int = 0

    def __post_init__(self):
        num = _coerce_coeffs(self.num)
        den = _coerce_coeffs(self.den)
        if den[0] == 0.0:  # only the zero polynomial keeps a zero lead
            raise ValueError("denominator must not be identically zero")
        num, den = _monic(num, den)
        if len(num) > len(den):
            raise ValueError("improper discrete transfer function")
        if not (self.sample_time > 0.0):
            raise ValueError("sample time must be > 0")
        if self.delay_samples < 0 or int(self.delay_samples) != self.delay_samples:
            raise ValueError("delay must be a non-negative integer sample count")
        object.__setattr__(self, "num", _unchecked(Polynomial, coeffs=num))
        object.__setattr__(self, "den", _unchecked(Polynomial, coeffs=den))
        object.__setattr__(self, "delay_samples", int(self.delay_samples))


def _sorted_roots(r: np.ndarray) -> np.ndarray:
    order = np.lexsort((np.angle(r), -np.abs(r)))
    return r[order]


_by_parts = operator.attrgetter("real", "imag")
_first = operator.itemgetter(0)


def _split_conjugates(roots: Sequence[complex]):
    """Split roots into (reals desc, upper-half pair members).

    Works on plain Python numbers. Raises ValueError unless every complex
    root has its exact conjugate present, which is how they arrive from
    real-matrix eigenvalues.
    """
    real, upper, mirrored = [], [], []
    for r in roots:
        if r.imag == 0.0:
            real.append(r.real)
        elif r.imag > 0.0:
            upper.append(r)
        else:
            mirrored.append(r.conjugate())
    upper.sort(key=_by_parts)
    mirrored.sort(key=_by_parts)
    if upper != mirrored:
        raise ValueError("sections for a factored system need conjugate-paired roots")
    real.sort(reverse=True)
    return real, upper


def _quadratic_groups(real: list, cplx: list):
    """(key, coeffs) quadratic factors plus an optional linear tail.

    Adjacent pairing of the sorted real roots keeps each factor local on
    the real axis, so numerator and denominator groups with matching keys
    nearly cancel and the resulting sections stay well conditioned.
    """
    groups = [
        (abs(q), (1.0, -2.0 * q.real, q.real * q.real + q.imag * q.imag))
        for q in cplx
    ]
    for r1, r2 in zip(real[::2], real[1::2]):
        groups.append((max(abs(r1), abs(r2)), (1.0, -(r1 + r2), r1 * r2)))
    tail = (1.0, -real[-1], 0.0) if len(real) % 2 else None
    return groups, tail


def _fast_sos(zeros: Sequence[complex], poles: Sequence[complex], gain: float):
    """Second-order sections from conjugate-paired root data (gain folded in).

    The sections depend on the roots' values, not on their order, apart
    from the sign of a zero coefficient when both 0.0 and -0.0 are roots.
    Handles any relative degree of a proper system: pole sections left
    without a zero group get delayed numerators ((0, 0, 1) for a
    quadratic, (0, 1, 0) for a bare linear tail), which keeps the cascade
    aligned with the z-domain transfer function including its implicit
    delay, and a system without poles is the one constant section.
    Raises ValueError when some complex root lacks its exact conjugate.
    """
    if not poles:
        return np.array([[gain, 0.0, 0.0, 1.0, 0.0, 0.0]])
    z_groups, z_tail = _quadratic_groups(*_split_conjugates(zeros))
    p_groups, p_tail = _quadratic_groups(*_split_conjugates(poles))
    z_groups.sort(key=_first)
    p_groups.sort(key=_first)
    spare = len(p_groups) - len(z_groups)
    rows = []
    if z_tail is not None and p_tail is None:
        # odd zero count against even pole count: the leftover linear
        # zero rides on the spare pole section with the nearest key
        r = -z_tail[1]
        idx = min(range(spare), key=lambda i: abs(p_groups[i][0] - abs(r)))
        _, a = p_groups.pop(idx)
        rows.append((0.0, 1.0, -r) + a)
        spare -= 1
        z_tail = None
    for _, a in p_groups[:spare]:
        rows.append((0.0, 0.0, 1.0) + a)
    for (_, b), (_, a) in zip(z_groups, p_groups[spare:]):
        rows.append(b + a)
    if p_tail is not None:
        rows.append((z_tail or (0.0, 1.0, 0.0)) + p_tail)
    sos = np.asarray(rows, dtype=float)
    sos[0, :3] *= gain
    return sos


@dataclass(frozen=True)
class DiscreteZpk:
    """Proper discrete-time TF held as factored zeros, poles, and gain.

    Represents gain * prod(z - zeros_i) / prod(z - poles_j) with no extra
    delay. Roots are stored exactly and sorted (largest magnitude first),
    complex ones in conjugate pairs; all downstream numerics work on the
    roots or on second-order sections built from them, never on expanded
    high-order coefficient vectors. ``realization`` is the read-only
    (A, B, C, D) the roots were computed from, when the builder had one;
    it takes no part in equality, hashing or repr. ``realized`` (whether
    there is one) does, so a system built from roots alone never equals a
    realized one and is never served a loop cached for it.
    """

    zeros: tuple
    poles: tuple
    gain: float
    sample_time: float
    realization: Optional[tuple] = field(default=None, compare=False, repr=False)
    realized: bool = field(init=False, repr=False)

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=complex).reshape(-1)
        p = np.asarray(self.poles, dtype=complex).reshape(-1)
        finite = np.isfinite(np.concatenate((z, p)))
        if not finite.all():
            raise ValueError(("poles" if finite[: z.size].all() else "zeros") + " must be finite")
        if z.size > p.size:
            raise ValueError("improper discrete transfer function")
        gain = float(self.gain)
        if not math.isfinite(gain):
            raise ValueError("gain must be finite")
        if not (self.sample_time > 0.0):
            raise ValueError("sample time must be > 0")
        object.__setattr__(self, "zeros", tuple(_sorted_roots(z).tolist()))
        object.__setattr__(self, "poles", tuple(_sorted_roots(p).tolist()))
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "realized", self.realization is not None)
        if self.realized:
            for arr in self.realization[:3]:
                arr.setflags(write=False)

    @property
    def is_biproper(self) -> bool:
        return len(self.zeros) == len(self.poles)

    def response_at(self, z):
        """Frequency response by stable factorwise products, no expansion."""
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.gain, dtype=complex)
        for z0 in self.zeros:
            out = out * (z - z0)
        for p0 in self.poles:
            out = out / (z - p0)
        return out

    def as_sos(self) -> np.ndarray:
        """Second-order-section matrix of the factored form (gain folded in).

        Raises ValueError when some complex root lacks its exact conjugate,
        which roots computed as eigenvalues of a real matrix never do.
        """
        return _fast_sos(self.zeros, self.poles, self.gain)

    def state_space(self):
        """The (A, B, C, D) the system was realized with.

        Only a system built together with its state space has one: the
        empty system stands for a constant, and a factored system built
        from roots alone raises ValueError, because no builder here
        recovers a state space from computed zeros.
        """
        if not self.poles:
            return np.zeros((0, 0)), np.zeros(0), np.zeros(0), self.gain
        if self.realization is None:
            raise ValueError("a factored system built from roots alone has no state space")
        return self.realization


@dataclass(frozen=True, eq=False)
class Signal:
    """Uniformly sampled real signal."""

    samples: np.ndarray
    sample_time: float

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float, copy=True).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if not (self.sample_time > 0.0):
            raise ValueError("sample time must be > 0")

    @classmethod
    def adopt(cls, samples: np.ndarray, sample_time: float) -> "Signal":
        """Signal that takes a freshly computed 1-D float array as is.

        Skips the defensive copy: the array is made read-only, so nothing
        may hold a writable view of it, and ``sample_time`` comes from a
        signal or system that already passed the checks.
        """
        samples.setflags(write=False)
        return _unchecked(cls, samples=samples, sample_time=sample_time)

    def __len__(self) -> int:
        return self.samples.size

    def l1(self) -> float:
        return float(np.abs(self.samples).sum())

    def __add__(self, other: "Signal") -> "Signal":
        if not isinstance(other, Signal):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError("signal lengths differ")
        if not same_sample_time(self.sample_time, other.sample_time):
            raise SampleTimeError("signal sample times differ")
        return Signal.adopt(self.samples + other.samples, self.sample_time)


# ---------------------------------------------------------------------------
# discretization


def _binomial_powers(base: np.ndarray, q: int) -> list:
    out = [np.array([1.0])]
    for _ in range(q):
        out.append(np.convolve(out[-1], base))
    return out


def _bilinear_expand(coeffs: np.ndarray, q: int, c: float,
                     pow_m1: list, pow_p1: list) -> np.ndarray:
    """Expand poly(s) under s -> c(z-1)/(z+1), multiplied through by (z+1)**q."""
    deg = len(coeffs) - 1
    out = np.zeros(q + 1)
    for i, a in enumerate(coeffs):
        if a == 0.0:
            continue
        k = deg - i
        out += a * (c ** k) * np.convolve(pow_m1[k], pow_p1[q - k])
    return out


def tustin(g: ContinuousTf, sample_time: float) -> DiscreteTf:
    """Bilinear (trapezoidal) discretization, no prewarping.

    Dead time is rounded to the nearest whole number of samples and carried
    as the discrete delay. Improper rational input is accepted; the result
    is proper whenever the substitution point 2/ts is not a pole of g.

    Raises
    ------
    DiscretizationError
        If the mapped denominator degenerates (2/ts hits a pole of g and
        the expansion loses its leading coefficient).
    """
    if not (sample_time > 0.0):
        raise ValueError("sample time must be > 0")
    c = 2.0 / sample_time
    num = g.num.as_array()
    den = g.den.as_array()
    q = max(len(num), len(den)) - 1
    pow_m1 = _binomial_powers(np.array([1.0, -1.0]), q)
    pow_p1 = _binomial_powers(np.array([1.0, 1.0]), q)
    num_z = _bilinear_expand(num, q, c, pow_m1, pow_p1)
    den_z = _bilinear_expand(den, q, c, pow_m1, pow_p1)
    scale = np.max(np.abs(den_z))
    if scale == 0.0 or abs(den_z[0]) <= _LEAD_TOL * scale:
        raise DiscretizationError("improper discretization")
    delay = int(round(g.dead_time / sample_time))
    return DiscreteTf(num_z, den_z, sample_time, delay)


# ---------------------------------------------------------------------------
# simulation


def filter_zpk(zeros, poles, gain: float, u: np.ndarray) -> np.ndarray:
    """Zero-initial-condition response of a factored system to samples u.

    Runs the section cascade of the root data; roots given as plain
    Python numbers build the sections fastest.
    """
    return _sig.sosfilt(_fast_sos(zeros, poles, gain), u)


def filter_tf(num, den, u: np.ndarray) -> np.ndarray:
    """Zero-initial-condition response of delay-free num/den (den monic)
    to samples u; a shorter num is a delayed one."""
    b = (0.0,) * (len(den) - len(num)) + tuple(num)
    return _sig.lfilter(b, den, u)


def simulate(g, u: Signal) -> Signal:
    """Zero-initial-condition response of g to input u.

    Polynomial systems run the direct-form difference equation; factored
    systems run their second-order-section cascade. Non-finite output
    values are returned as-is; callers decide how to react to divergence.
    """
    if not same_sample_time(g.sample_time, u.sample_time):
        raise SampleTimeError("system and input sample times differ")
    if isinstance(g, DiscreteZpk):
        return Signal.adopt(filter_zpk(g.zeros, g.poles, g.gain, u.samples), g.sample_time)
    y = filter_tf(g.num.coeffs, g.den.coeffs, u.samples)
    d = g.delay_samples
    if d > 0:
        if d >= y.size:
            y = np.zeros(y.size)
        else:
            y = np.concatenate([np.zeros(d), y[:-d]])
    return Signal.adopt(y, g.sample_time)


def impulse_response(g: DiscreteTf, n: int) -> Signal:
    """First n+1 samples of the response to a unit pulse at k=0."""
    if n < 0:
        raise ValueError("horizon must be >= 0")
    delta = np.zeros(n + 1)
    delta[0] = 1.0
    return simulate(g, Signal(delta, g.sample_time))


def inverse_roots(zeros, poles, gain: float) -> tuple:
    """(zeros, poles, gain) of the exact inverse of a factored system.

    Raises NonInvertibleError unless the system is biproper with
    |gain| >= _FEEDTHROUGH_TOL.
    """
    if len(zeros) != len(poles) or abs(gain) < _FEEDTHROUGH_TOL:
        raise NonInvertibleError("non-invertible controller")
    return poles, zeros, 1.0 / gain


def inverse_coeffs(num, den) -> tuple:
    """(num, den) of the exact inverse of delay-free num/den, den monic.

    Raises NonInvertibleError unless num has den's length and
    |num[0]| >= _FEEDTHROUGH_TOL; a leading zero, which DiscreteTf would
    strip, fails that too.
    """
    if len(num) != len(den) or abs(num[0]) < _FEEDTHROUGH_TOL:
        raise NonInvertibleError("non-invertible controller")
    return _monic(tuple(den), tuple(num))


def invert(g):
    """Exact inverse of a biproper, delay-free discrete TF.

    Factored systems invert by swapping zeros and poles, which are stored
    sorted already, so the inverse stays in factored form and never touches
    expanded coefficients.
    """
    if isinstance(g, DiscreteZpk):
        zeros, poles, gain = inverse_roots(g.zeros, g.poles, g.gain)
        return _unchecked(
            DiscreteZpk, zeros=zeros, poles=poles, gain=gain,
            sample_time=g.sample_time, realization=None, realized=False,
        )
    if g.delay_samples != 0:
        raise NonInvertibleError("non-invertible controller")
    return DiscreteTf(*inverse_coeffs(g.num.coeffs, g.den.coeffs), g.sample_time)


# ---------------------------------------------------------------------------
# poles and stability


#: a pole set is stable iff every magnitude lies below this; the margin
#: keeps a mode on the unit circle that the eigensolver puts a few ulp
#: inside it (a cancelled z = -1 mode, say) from counting as stable
STABLE_RADIUS = 1.0 - 1e-9


def is_stable(roots) -> bool:
    """The one stability rule: every pole magnitude below STABLE_RADIUS."""
    return all(abs(p) < STABLE_RADIUS for p in roots)


def _block_state_space(g):
    """(A, B, C, D) of a plant or controller; an input delay adds shift states.

    Factored systems use the state space they were realized with,
    polynomial ones the controllable canonical form. With d delay samples
    the input first runs through d shift states and the last of them feeds
    the rational part.
    """
    if isinstance(g, DiscreteZpk):
        return g.state_space()
    b, a = g.num.as_array(), g.den.as_array()
    if a.size > 1:
        A, B, C, D = _sig.tf2ss(b, a)
        B, C, D = B[:, 0], C[0], float(D[0, 0])
    else:
        A, B, C, D = np.zeros((0, 0)), np.zeros(0), np.zeros(0), float(b[0])
    d = g.delay_samples
    if d == 0:
        return A, B, C, D
    n = A.shape[0]
    Ad = np.zeros((d + n, d + n))
    Ad[np.arange(1, d), np.arange(d - 1)] = 1.0
    Ad[d:, d - 1] = B
    Ad[d:, d:] = A
    Bd = np.zeros(d + n)
    Bd[0] = 1.0
    Cd = np.concatenate([np.zeros(d), C])
    Cd[d - 1] = D
    return Ad, Bd, Cd, 0.0


def _taylor(c: Sequence, mu) -> list:
    """Taylor coefficients t[j] = c^(j)(mu) / j! of c (highest power first)."""
    a = list(c)
    m = len(a)
    t = []
    for j in range(m):
        for i in range(1, m - j):
            a[i] += mu * a[i - 1]
        t.append(a[m - 1 - j])
    return t


# rounding errors per degree within which a cluster of computed roots is
# taken as one multiple root
_MULTIPLE_ROOT_ULPS = 4.0


def _merge_multiple_roots(c: Sequence, r: np.ndarray) -> np.ndarray:
    """Computed roots r of the real polynomial c, numerically multiple
    roots made exact.

    The computed members of a k-fold root scatter by about eps**(1/k)
    around it, a 0.95 double pole by 2e-8, while the cluster's mean stays
    accurate. The k roots nearest to one root count as a k-fold root at
    mu, their mean after one Newton step on c's (k-1)-th derivative, when
    every Taylor coefficient of c at mu below order k is within
    _MULTIPLE_ROOT_ULPS * deg(c) rounding errors of the same coefficient
    of |c| at |mu|: c is then that close to a polynomial with the k-fold
    root, so the scatter carries no information. Larger clusters are
    taken first; the others keep their computed values. The mean is an
    exact sum, so mirrored clusters stay exact conjugates.
    """
    n = r.size
    if n < 2:
        return r
    c = [float(x) for x in c]
    mag = [abs(x) for x in c]
    tol = _MULTIPLE_ROOT_ULPS * n * np.finfo(float).eps
    z = r.tolist()
    found = []
    for i in range(n):
        near = sorted(range(n), key=lambda j: abs(z[j] - z[i]))
        for k in range(n, 1, -1):
            members = near[:k]
            mu = complex(
                math.fsum(complex(z[j]).real for j in members) / k,
                math.fsum(complex(z[j]).imag for j in members) / k,
            )
            t = _taylor(c, mu)
            if t[k] != 0.0:
                mu -= t[k - 1] / (k * t[k])
                t = _taylor(c, mu)
            bound = _taylor(mag, abs(mu))
            if all(abs(t[j]) <= tol * bound[j] for j in range(k)):
                found.append((-k, i, members, mu))
                break
    if not found:
        return r
    out = r.copy()
    taken = set()
    for _, _, members, mu in sorted(found, key=lambda f: f[:2]):
        if taken.isdisjoint(members):
            taken.update(members)
            out[members] = mu if np.iscomplexobj(out) else mu.real
    return out


def poles(g) -> np.ndarray:
    """Pole locations, largest magnitude first.

    The eigenvalues of the block's own state matrix, the one every loop
    is built from: for a polynomial system the companion matrix of its
    monic denominator, plus a pole at 0 per delay sample, with each
    numerically multiple root of that characteristic polynomial put at
    its accurate location (_merge_multiple_roots). A factored system
    built from roots alone has no state space and raises ValueError.
    """
    r = np.linalg.eigvals(_block_state_space(g)[0])
    if isinstance(g, DiscreteTf):
        r = _merge_multiple_roots(g.den.coeffs + (0.0,) * g.delay_samples, r)
    return _sorted_roots(r)


# ---------------------------------------------------------------------------
# closed loop


@functools.lru_cache(maxsize=1)
def _loop_state_space(p, c):
    """(A, B, C_y, D_y, C_u, D_u) of the unity-feedback loop r -> (y, u).

    The state stacks the plant's states over the controller's. With
    e = r - y, u = C e and y = P u, the feedthrough algebra is solved once:
    u = (Cc xc - Dc Cp xp + Dc r) / (1 + Dc Dp). A loop where 1 + Dc Dp
    vanishes raises AlgebraicLoopError. The last pair's loop is cached,
    read-only, so loop_poles and co_simulate on one pair build it once.
    """
    if not same_sample_time(p.sample_time, c.sample_time):
        raise SampleTimeError("plant and controller sample times differ")
    Ap, Bp, Cp, Dp = _block_state_space(p)
    Ac, Bc, Cc, Dc = _block_state_space(c)
    well_posed = 1.0 + Dc * Dp
    if abs(well_posed) < _LEAD_TOL:
        raise AlgebraicLoopError("feedback loop is not well posed")
    n_p = Ap.shape[0]
    C_u = np.concatenate([-Dc * Cp, Cc]) / well_posed
    D_u = Dc / well_posed
    C_y = np.concatenate([Cp, np.zeros(Cc.size)]) + Dp * C_u
    D_y = Dp * D_u
    A = np.zeros((n_p + Cc.size, n_p + Cc.size))
    A[:n_p, :n_p] = Ap
    A[n_p:, n_p:] = Ac
    A[:n_p] += np.outer(Bp, C_u)
    A[n_p:] -= np.outer(Bc, C_y)
    B = np.concatenate([Bp * D_u, Bc * (1.0 - D_y)])
    for arr in (A, B, C_y, C_u):
        arr.setflags(write=False)
    return A, B, C_y, D_y, C_u, D_u


def loop_poles(p, c) -> np.ndarray:
    """Closed-loop poles of the unity-feedback pair, largest magnitude first.

    The eigenvalues of the loop's state matrix, reported as computed.
    Every plant delay sample and every controller state is a mode, so
    hidden (cancelled) modes show up too.
    """
    return _sorted_roots(np.linalg.eigvals(_loop_state_space(p, c)[0]))


def co_simulate(p: DiscreteTf, c, r: Signal):
    """Run the unity-feedback loop of (p, c) one sample at a time.

    Returns (y, u) from the loop's state space. A loop where 1 + Dc*Dp
    vanishes raises AlgebraicLoopError. The controller may be polynomial
    or factored.
    """
    if not same_sample_time(p.sample_time, r.sample_time):
        raise SampleTimeError("reference sample time differs from the loop")
    A, B, C_y, D_y, C_u, D_u = _loop_state_space(p, c)
    rs = r.samples
    states = np.zeros((len(r), B.size))
    x = np.zeros(B.size)
    for k in range(len(r)):
        states[k] = x
        x = A @ x + B * rs[k]
    y = states @ C_y + D_y * rs
    u = states @ C_u + D_u * rs
    return Signal(y, p.sample_time), Signal(u, p.sample_time)
