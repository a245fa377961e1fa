"""Minimal SISO LTI toolbox used by the tuner.

Transfer functions come in two discrete flavours: plain polynomial ratios
(coefficients highest power first) for low-order systems, and a factored
form for systems whose dynamics span too many decades for monomial
coefficients to carry. A filter with poles spread over nine decades has a
denominator whose value at z = 1 can sit thirty orders of magnitude below
its coefficients, so the polynomial form cannot represent it in double
precision. The factored form holds a biproper system (as many zeros as
poles), which is what the FOPID controller is, as the section-parallel
form it was built from: a direct gain plus chains of first-order sections
in parallel. It is that form: it simulates and closes loops through it,
and its zeros, poles and gain, which only reports read, are computed
from it when read.
Continuous TFs carry an optional dead time, discrete ones an integer
sample delay. Only what the tuning pipeline needs is provided: bilinear
discretization, difference-equation simulation, inversion of a polynomial
TF, one stability rule (every pole below STABLE_RADIUS), and the state
matrix of the unity-feedback loop, built by ``closed_loop``, that its
poles are read from. A loop is judged on its eigenvalues as
computed; a polynomial such as the reference model's denominator is
judged exactly, by a Schur-Cohn certificate on its float coefficients.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

import numpy as np
import scipy
from scipy.linalg import lapack as _lapack


def _signal_extension(name: str):
    """scipy.signal's compiled module ``name``, without the package.

    Importing ``scipy.signal`` loads scipy.stats, scipy.interpolate and
    the window library, most of a process's start-up time. The module
    already imported under its real name is reused; otherwise it is
    loaded from scipy's ``signal`` directory and registered under that
    name, so a later ``import scipy.signal`` shares this module object.
    """
    full = f"scipy.signal.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    directory = str(Path(scipy.__file__).parent / "signal")
    spec = importlib.machinery.PathFinder.find_spec(full, [directory])
    if spec is None:
        raise ImportError(f"{full} not found in scipy {scipy.__version__}", name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


# the compiled kernels behind scipy.signal.sosfilt and lfilter: on arrays
# built here the wrappers' argument handling costs several times the
# filtering itself; tests/test_lti_core.py pins both to the public
# functions bit for bit
_linear_filter = _signal_extension("_sigtools")._linear_filter
_sosfilt = _signal_extension("_sosfilt")._sosfilt

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
    "inverse_gain",
    "filter_tf",
    "filter_parallel",
    "filter_chains",
    "parallel_state_space",
    "parallel_zeros",
    "same_sample_time",
    "is_stable",
    "schur_stable",
    "check_well_posed",
    "closed_loop",
    "loop_poles",
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
        object.__setattr__(self, "num", Polynomial(num))
        object.__setattr__(self, "den", Polynomial(den))
        object.__setattr__(self, "delay_samples", int(self.delay_samples))


def _sorted_roots(r: np.ndarray) -> np.ndarray:
    order = np.lexsort((np.angle(r), -np.abs(r)))
    return r[order]


@dataclass(frozen=True, eq=False)
class DiscreteZpk:
    """Biproper discrete-time TF held as its section-parallel form.

    ``sections`` is (direct, branches) as ``filter_parallel`` runs it: the
    direct gain plus chains of first-order sections in parallel, each
    chain (poles, zeros, gain) with as many zeros as poles; any other
    count raises ValueError. Its arrays are made read-only. The system
    has no extra delay, and it simulates and closes loops through this
    form. Its zeros, poles and gain, which reports read, are computed
    from the sections on each access: roots sorted largest magnitude
    first, as complex numbers, complex ones in conjugate pairs.
    """

    sections: tuple
    sample_time: float

    def __post_init__(self):
        if not (self.sample_time > 0.0):
            raise ValueError("sample time must be > 0")
        for poles, zeros, _ in self.sections[1]:
            if zeros.size != poles.size:
                raise ValueError(
                    f"factored systems are biproper: {zeros.size} zeros, {poles.size} poles"
                )
            poles.setflags(write=False)
            zeros.setflags(write=False)

    @property
    def gain(self) -> float:
        """The feedthrough: the direct gain plus the chain gains."""
        direct, branches = self.sections
        return float(direct + sum(b[2] for b in branches))

    @property
    def poles(self) -> tuple:
        """The chains' poles, sorted."""
        poles = np.concatenate([np.zeros(0), *(b[0] for b in self.sections[1])])
        return tuple(_sorted_roots(poles.astype(complex)).tolist())

    @property
    def zeros(self) -> tuple:
        """The zeros of the parallel sum, sorted (``parallel_zeros``)."""
        return tuple(_sorted_roots(parallel_zeros(*self.sections)).tolist())


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

    def __len__(self) -> int:
        return self.samples.size

    def l1(self) -> float:
        return float(np.abs(self.samples).sum())


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


def filter_tf(num, den, u: np.ndarray) -> np.ndarray:
    """Zero-initial-condition response of delay-free num/den (den monic)
    to samples u; a shorter num is a delayed one."""
    b = (0.0,) * (len(den) - len(num)) + tuple(num)
    if len(den) == 1:
        # a static gain, which lfilter convolves: its sums turn the
        # kernel's -0.0 products into 0.0
        return np.convolve(b, u)
    return _linear_filter(b, den, u, -1)


def filter_parallel(direct: float, branches, u: np.ndarray) -> np.ndarray:
    """Zero-initial-condition response of a section-parallel system to samples u.

    The system is direct + sum over branches of
    gain * prod_i (z - zeros_i) / (z - poles_i), each branch given as
    (poles, zeros, gain) with equally long root arrays: a chain of
    first-order sections, as a realizer builds them from the roots it
    maps, never the zeros of the sum. Each chain runs once through the
    compiled section kernel, one first-order section per row, and its
    gain is applied at its output; a chain without sections is its gain.
    """
    y = direct * u
    for poles, zeros, gain in branches:
        m = poles.size
        sos = np.zeros((m, 6))
        sos[:, 0] = sos[:, 3] = 1.0
        sos[:, 1] = -zeros
        sos[:, 4] = -poles
        x = np.array(u, dtype=float, ndmin=2)
        _sosfilt(sos, x, np.zeros((1, m, 2)))
        y += gain * x[0]
    return y


def filter_chains(poles: np.ndarray, zeros: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Zero-initial-condition responses of rows of section chains to samples u.

    Row i of ``poles`` and ``zeros`` is one chain of ``filter_parallel``,
    all chains equally long, and row i of the result is that chain's
    output before its gain, with ``filter_parallel``'s bits: one compiled
    kernel call per row, on that row's sections.
    """
    rows, m = poles.shape
    sos = np.zeros((rows, m, 6))
    sos[..., 0] = sos[..., 3] = 1.0
    sos[..., 1] = -zeros
    sos[..., 4] = -poles
    x = np.repeat(np.asarray(u, dtype=float)[None], rows, axis=0)
    state = np.zeros((rows, m, 2))
    for i in range(rows if m else 0):
        _sosfilt(sos[i], x[i : i + 1], state[i : i + 1])
    return x


def parallel_state_space(direct: float, branches) -> tuple:
    """(A, B, C, D) of a section-parallel system (see ``filter_parallel``).

    Section i of a chain holds one state: x_i+ = p_i x_i + u_i,
    y_i = u_i + (p_i - z_i) x_i, with the sections fed in series and the
    chain's gain applied at its output. So A is block diagonal over the
    chains, lower triangular with each pole alone on its diagonal and
    p_j - z_j below it in column j of the block; B is all ones, C the
    gain-scaled p_j - z_j, and D = direct + the sum of the gains. Every
    entry stays within a few orders of magnitude of the root data.
    """
    empty = np.zeros(0)
    chains = [poles - zeros for poles, zeros, _ in branches]
    poles = np.concatenate([empty, *(b[0] for b in branches)])
    n = poles.size
    i = np.arange(n)
    A = np.where(i < i[:, None], np.concatenate([empty, *chains]), 0.0)
    A[i, i] = poles
    start = 0
    for b in branches[:-1]:
        start += b[0].size
        A[start:, :start] = 0.0
    C = np.concatenate([empty, *(b[2] * c for b, c in zip(branches, chains))])
    return A, np.ones(n), C, direct + sum(b[2] for b in branches)


def parallel_zeros(direct: float, branches) -> np.ndarray:
    """Zeros of a section-parallel system (see ``filter_parallel``), as
    complex numbers in no particular order.

    They are the eigenvalues of the inverse system A - B C / D of its
    state space (``parallel_state_space``), found without expanding the
    parallel sum over a common denominator. Raises ValueError for a zero
    that is not finite, and LinAlgError when the eigenvalue iteration
    does not converge.
    """
    A, _, C, D = parallel_state_space(direct, branches)
    if not A.size:
        return np.zeros(0, dtype=complex)
    # LAPACK directly: numpy's eigvals wrapper costs a fifth of the call
    # on a matrix built finite here, and returns the same bits
    wr, wi, _, _, info = _lapack.dgeev(A - C / D, compute_vl=0, compute_vr=0)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    zeros = np.asarray(wr + 1j * wi if wi.any() else wr, dtype=complex)
    if not np.isfinite(zeros).all():
        raise ValueError("zeros must be finite")
    return zeros


def simulate(g, u: Signal) -> Signal:
    """Zero-initial-condition response of g to input u.

    Polynomial systems run the direct-form difference equation, factored
    systems their section-parallel form. Non-finite output values are
    returned as-is; callers decide how to react to divergence.
    """
    if not same_sample_time(g.sample_time, u.sample_time):
        raise SampleTimeError("system and input sample times differ")
    if isinstance(g, DiscreteZpk):
        return Signal(filter_parallel(*g.sections, u.samples), g.sample_time)
    y = filter_tf(g.num.coeffs, g.den.coeffs, u.samples)
    d = g.delay_samples
    if d > 0:
        if d >= y.size:
            y = np.zeros(y.size)
        else:
            y = np.concatenate([np.zeros(d), y[:-d]])
    return Signal(y, g.sample_time)


def impulse_response(g: DiscreteTf, n: int) -> Signal:
    """First n+1 samples of the response to a unit pulse at k=0."""
    if n < 0:
        raise ValueError("horizon must be >= 0")
    delta = np.zeros(n + 1)
    delta[0] = 1.0
    return simulate(g, Signal(delta, g.sample_time))


def inverse_gain(feedthrough: float) -> float:
    """1/feedthrough, the feedthrough of a biproper system's inverse.

    Raises NonInvertibleError when |feedthrough| < _FEEDTHROUGH_TOL, where
    the system has no usable inverse.
    """
    if not abs(feedthrough) >= _FEEDTHROUGH_TOL:
        raise NonInvertibleError("non-invertible controller")
    return 1.0 / feedthrough


def invert(g: DiscreteTf) -> DiscreteTf:
    """Exact inverse of a biproper, delay-free polynomial TF.

    The numerator must be as long as the denominator, with a leading
    coefficient that ``inverse_gain`` accepts. A factored system raises
    TypeError: the inverse of a parallel sum has no section form.
    """
    if isinstance(g, DiscreteZpk):
        raise TypeError("a factored system's inverse has no section form")
    num, den = g.num.coeffs, g.den.coeffs
    if g.delay_samples != 0 or len(num) != len(den):
        raise NonInvertibleError("non-invertible controller")
    inverse_gain(num[0])
    return DiscreteTf(*_monic(den, num), g.sample_time)


# ---------------------------------------------------------------------------
# poles and stability


#: a pole set is stable iff every magnitude lies below this; the margin
#: keeps a mode on the unit circle that the eigensolver puts a few ulp
#: inside it (a cancelled z = -1 mode, say) from counting as stable
STABLE_RADIUS = 1.0 - 1e-9


def is_stable(roots) -> bool:
    """The one stability rule: every pole magnitude below STABLE_RADIUS."""
    return all(abs(p) < STABLE_RADIUS for p in roots)


def schur_stable(den) -> bool:
    """The rule of is_stable on the exact roots of den (highest power first).

    The Schur-Cohn recursion (Jury, Theory and Application of the
    z-Transform Method, 1964) on den(STABLE_RADIUS * z), in rational
    arithmetic on the float coefficients exactly as given: with k the ratio
    of the last coefficient to the first, the roots all lie inside the unit
    circle iff |k| < 1 and those of (a - k * reversed(a)) / z do. A root at
    0, such as a delay sample's, never fails it. den[0] must not be zero;
    a non-finite coefficient raises ValueError.
    """
    if not all(map(math.isfinite, den)):
        raise ValueError("polynomial coefficients must be finite")
    n = len(den) - 1
    rho = Fraction(STABLE_RADIUS)
    a = [Fraction(c) * rho ** (n - i) for i, c in enumerate(den)]
    while len(a) > 1:
        k = a[-1] / a[0]
        if abs(k) >= 1:
            return False
        a = [x - k * y for x, y in zip(a[:-1], a[:0:-1])]
    return True


def _block_state_space(g):
    """(A, B, C, D) of a plant or controller; an input delay adds shift states.

    Factored systems use the state space of their section-parallel form,
    polynomial ones the controllable canonical form, which for a monic
    denominator is scipy.signal.tf2ss's, bit for bit. With d delay samples
    the input first runs through d shift states and the last of them feeds
    the rational part.
    """
    if isinstance(g, DiscreteZpk):
        return parallel_state_space(*g.sections)
    a = g.den.as_array()
    n = a.size - 1
    b = np.concatenate([np.zeros(n + 1 - len(g.num.coeffs)), g.num.as_array()])
    A = np.eye(n, k=-1)
    A[:1] = -a[1:]
    B = np.zeros(n)
    B[:1] = 1.0
    C, D = b[1:] - b[0] * a[1:], float(b[0])
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


# ---------------------------------------------------------------------------
# closed loop


def check_well_posed(head: float) -> None:
    """The one loop rule: AlgebraicLoopError when 1 + Dc Dp, ``head``, vanishes."""
    if abs(head) < _LEAD_TOL:
        raise AlgebraicLoopError("feedback loop is not well posed")


def closed_loop(p, c) -> np.ndarray:
    """State matrix of the unity-feedback loop of plant p and controller c.

    The state stacks the plant's states over the controller's, with the
    feedthrough algebra solved once: u = (Cc xc - Dc Cp xp + Dc r) /
    (1 + Dc Dp), where ``check_well_posed`` must accept 1 + Dc Dp. The
    controller may be polynomial or factored.
    """
    if not same_sample_time(p.sample_time, c.sample_time):
        raise SampleTimeError("plant and controller sample times differ")
    Ap, Bp, Cp, Dp = _block_state_space(p)
    Ac, Bc, Cc, Dc = _block_state_space(c)
    well_posed = 1.0 + Dc * Dp
    check_well_posed(well_posed)
    n_p = Ap.shape[0]
    C_u = np.concatenate([-Dc * Cp, Cc]) / well_posed
    C_y = np.concatenate([Cp, np.zeros(Cc.size)]) + Dp * C_u
    A = np.zeros((n_p + Cc.size, n_p + Cc.size))
    A[:n_p, :n_p] = Ap
    A[n_p:, n_p:] = Ac
    A[:n_p] += np.outer(Bp, C_u)
    A[n_p:] -= np.outer(Bc, C_y)
    return A


def loop_poles(A: np.ndarray) -> np.ndarray:
    """Closed-loop poles, largest magnitude first.

    The eigenvalues of the loop's state matrix A, reported as computed.
    Every plant delay sample and every controller state is a mode, so
    hidden (cancelled) modes show up too.
    """
    return _sorted_roots(np.linalg.eigvals(A))
