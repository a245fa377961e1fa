"""Fictitious-reference l1 model matching from one open-loop data record.

Given one experiment (r0, u0, y0) and a candidate controller C, the
fictitious reference r~ = C^-1 u0 + y0 is the input that would have
produced the recorded pair through the closed loop. Solving the
lower-triangular Toeplitz system R~ t = y0 recovers the closed-loop
impulse response the candidate would realize, and y = R0 t is what that
loop would do to the actual reference. The tuning loss is the l1 norm of
y minus the reference-model response; every clean candidate also gets
the l1 stability bound on t. No plant model is used anywhere.

Lower-triangular Toeplitz operators commute, so multiplying R~ t = y0
by C's own Toeplitz operator gives the same t from T(w) t = C y0 with
w = u0 + C y0. The loss is computed that way, inversion free: C y0 runs
through C's poles only, and C^-1, whose poles are C's computed zeros and
may lie outside the unit circle, is never formed. ``fictitious_reference``
builds r~ itself without zeros too, from C's impulse response.

All diagnostics for a candidate are collected in a LossBreakdown, which
stores what was measured and derives every verdict from it; any failure
along the pipeline (non-invertible controller, vanishing fictitious
head, numerical blow-up) is converted into a flat penalty so the
surrounding optimizer only ever sees finite numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .folib import (
    MAX_ORDER,
    ControllerKind,
    ControllerTemplate,
    fopid_chains,
    fopid_sections,
    iopid_coeffs,
    iopid_forms,
)

# perfbench/tracer.py wraps these three by this module's name; the loss
# path calls none of them, fictitious_reference calls simulate, and
# nothing here calls invert, which stays for the tracer until ROADMAP
# item 15 times the program without them
from .folib import realize  # noqa: F401
from .lti_core import invert, simulate  # noqa: F401
# _dtrsv is scipy.linalg.blas.dtrsv, taken from scipy's compiled BLAS
# module by lti_core, the one place that reaches into scipy
from .lti_core import (
    _FEEDTHROUGH_TOL,
    _dtrsv,
    DiscreteTf,
    NonInvertibleError,
    SampleTimeError,
    Signal,
    filter_chains,
    filter_parallel,
    filter_tf,
    impulse_response,
    inverse_gain,
    schur_stable,
    same_sample_time,
)

__all__ = [
    "PENALTY",
    "PenaltyReason",
    "FictitiousHeadZeroError",
    "ExperimentRecord",
    "LossBreakdown",
    "fictitious_reference",
    "toeplitz_solve",
    "reconstruct_output",
    "LossEvaluator",
]

#: flat loss assigned to any candidate whose evaluation pipeline fails
PENALTY = 1e12

#: head coefficient below this is treated as a singular Toeplitz system
_HEAD_TOL = 1e-12

#: samples beyond this magnitude count as numerical blow-up even when finite
_OVERFLOW_LIMIT = 1e30

#: diagonal block length of the Toeplitz solve; 64 and 256 measured slower
#: at N = 1001 (BENCH_20261019_blas_block_solve.json)
_BLOCK = 128


class PenaltyReason(Enum):
    NONE = "none"
    NON_INVERTIBLE_CONTROLLER = "non_invertible_controller"
    FICTITIOUS_HEAD_ZERO = "fictitious_head_zero"
    NONFINITE_SIGNAL = "nonfinite_signal"


class FictitiousHeadZeroError(ValueError):
    """The fictitious reference starts at (numerically) zero."""


def _well_scaled(arr: np.ndarray) -> bool:
    # NaN and +-inf fail the comparison, so one pass decides all three
    return bool(np.abs(arr).max() <= _OVERFLOW_LIMIT)


@dataclass(frozen=True)
class ExperimentRecord:
    """One recorded experiment: reference r0, input u0, output y0.

    The three signals must share a length of at least one sample and a
    sample time and be finite, and the reference must start away from
    zero, otherwise neither the fictitious reference nor the stability
    bound is defined.
    """

    r0: Signal
    u0: Signal
    y0: Signal

    def __post_init__(self):
        for name in ("r0", "u0", "y0"):
            if not isinstance(getattr(self, name), Signal):
                raise TypeError(f"{name} must be a Signal")
        n = len(self.r0)
        if len(self.u0) != n or len(self.y0) != n:
            raise ValueError("r0, u0, y0 must have equal lengths")
        if n == 0:
            raise ValueError("experiment record has no samples")
        for s in (self.u0, self.y0):
            if not same_sample_time(s.sample_time, self.r0.sample_time):
                raise SampleTimeError("experiment signals have mixed sample times")
        for name in ("r0", "u0", "y0"):
            if not np.isfinite(getattr(self, name).samples).all():
                raise ValueError(f"{name} must be finite")
        if not abs(self.r0.samples[0]) >= _HEAD_TOL:
            raise ValueError("reference head is numerically zero")

    @property
    def sample_time(self) -> float:
        return self.r0.sample_time

    def __len__(self) -> int:
        return len(self.r0)


@dataclass(frozen=True)
class LossBreakdown:
    """Loss value and diagnostics for one candidate parameter vector.

    ``t_l1`` is ||t||_1 and ``bound`` the l1 stability bound on it,
    gamma_R0 * ||epsilon||_1 + ||m_D||_1; both are NaN for a penalized
    candidate, whose ``j`` is the flat PENALTY.
    """

    j: float
    t_l1: float
    bound: float
    penalty_reason: PenaltyReason

    @property
    def penalized(self) -> bool:
        return self.penalty_reason is not PenaltyReason.NONE

    @property
    def epsilon_l1(self) -> float:
        """||epsilon||_1, the l1 matching error: the loss of a clean candidate."""
        return math.nan if self.penalized else self.j

    @property
    def bound_satisfied(self) -> bool:
        return self.t_l1 <= self.bound


#: one shared breakdown per penalty: it carries nothing candidate-specific
_PENALIZED = {
    r: LossBreakdown(j=PENALTY, t_l1=math.nan, bound=math.nan, penalty_reason=r)
    for r in PenaltyReason
    if r is not PenaltyReason.NONE
}


def fictitious_reference(c, data: ExperimentRecord) -> Signal:
    """Reference that would reproduce (u0, y0) with controller c in the loop.

    r~ = C^-1 u0 + y0, computed without C's zeros as T(h)^-1 u0 + y0, with
    h the impulse response of c over the record (for a realized FOPID,
    from its section chains) and T(h) its lower-triangular Toeplitz
    matrix; both sides are scaled by 1/h[0] first. Raises
    NonInvertibleError unless |h[0]|, the feedthrough, is usable, which
    rules out a delayed controller; non-finite samples are passed through
    untouched for the caller to detect.
    """
    pulse = np.zeros(len(data))
    pulse[0] = 1.0
    h = simulate(c, Signal(pulse, data.sample_time)).samples
    k = inverse_gain(h[0])
    rt = toeplitz_solve(k * h, k * data.u0.samples) + data.y0.samples
    return Signal(rt, data.sample_time)


def toeplitz_solve(rt: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Solve the lower-triangular Toeplitz system with first column rt for y0.

    Takes and returns sample arrays. The solution is the forward-
    substitution recursion

        t_k = (y0_k - sum_{tau=1..k} rt_tau * t_{k-tau}) / rt_0

    solved here as a blocked forward substitution over blocks of _BLOCK
    samples. Every diagonal block is the same lower-triangular Toeplitz
    matrix, built once per call and solved by BLAS dtrsv; one direct
    convolution, of which only the fully overlapping part is computed,
    then removes the block's history from the rest of the right-hand
    side. That is about N^2 / 2 multiply-adds, all of them in BLAS or
    vectorized convolutions. A system of at most _BLOCK samples is the
    loop's first and only pass: one dtrsv call, with no history to remove.
    """
    n = rt.size
    if y0.size != n:
        raise ValueError("signal lengths differ")
    if not (abs(rt[0]) >= _HEAD_TOL):
        raise FictitiousHeadZeroError("fictitious reference head is numerically zero")
    b = min(_BLOCK, n)
    # read with leading dimension b, rt repeated with period b + 1 puts
    # rt[i - j] at (i, j) on and below the diagonal; dtrsv never reads
    # the upper triangle, so whatever lands there is left uninitialized
    tiles = np.empty((b, b + 1))
    tiles[:, :b] = rt[:b]
    block = tiles.reshape(-1)[: b * b].reshape((b, b), order="F")
    if b == n:
        return _dtrsv(block, y0, lower=1)
    rhs = y0.copy()
    t = np.empty(n)
    # a blown-up solution is the caller's to detect, so overflow while
    # removing a block's history must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, b):
            hi = min(lo + b, n)
            m = hi - lo
            t[lo:hi] = _dtrsv(block[:m, :m], rhs[lo:hi], lower=1)
            if hi < n:
                rhs[hi:] -= np.convolve(rt[1 : n - lo], t[lo:hi], mode="valid")
    return t


def reconstruct_output(dr0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Response of the recovered closed loop t to the recorded reference.

    The lower-triangular Toeplitz product R0 t, that is the causal
    convolution of r0 with t truncated to the common horizon, on sample
    arrays. It is formed as R0 = S D, with S the running sum and D the
    Toeplitz matrix of r0's increments dr0 = (r0[0], r0[1] - r0[0], ...),
    which may stop before t does once the rest are zero: R0 t is the
    running sum of the truncated convolution of dr0 with t. For a step
    reference dr0 is the single sample r0[0], so the product is one
    scaling and one cumulative sum.

    A 2-D ``t`` holds one recovered loop per row and gets one output per
    row, each with the bits of the 1-D call on that row.
    """
    n = t.shape[-1]
    if not 0 < dr0.size <= n:
        raise ValueError("increments must be 1 to len(t) samples")
    if dr0.size == 1:
        dt = dr0[0] * t
    elif t.ndim == 1:
        dt = np.convolve(dr0, t)[:n]
    else:
        dt = np.array([np.convolve(dr0, row)[:n] for row in t]).reshape(t.shape)
    return dt.cumsum(axis=-1)


class LossEvaluator:
    """Reusable loss pipeline for one (template, data, reference model) triple.

    Precomputes r0's increments, the matching target R0 m_D (an array)
    and the Toeplitz-inverse operator norm gamma_R0, then maps parameter
    vectors to LossBreakdowns. Instances are also callable as plain scalar
    objectives, the form the simplex finish consumes, and
    ``evaluate_batch`` scores a swarm's rows in one call. Counters
    record how many candidates were evaluated, how many were penalized, by
    reason, and how many clean ones violated the stability bound; the
    totals are derived from them.

    The bound ||t||_1 <= gamma_R0 * ||epsilon||_1 + ||m_D||_1 takes as
    gamma_R0 the l1 norm of the generating column of the inverse of the
    reference Toeplitz matrix, which equals the operator norm that the
    triangle inequality actually needs (the max column sum of a lower
    triangular Toeplitz matrix is the l1 norm of its first column). With
    this constant the inequality is an identity-level consequence of
    t = R0^-1 epsilon + m_D, so a violation can only mean the pipeline
    broke, never that the candidate was unlucky. The reference model
    must be stable by the rule every pole set is judged by, every pole
    below ``lti_core.STABLE_RADIUS``, which ``lti_core.schur_stable``
    decides exactly on the roots of its denominator's float coefficients.

    Candidates are scored on arrays end to end with no controller object
    and no Signal, and without inverting C: from C's raw parts (the FOPID
    section chains of ``fopid_sections``, the IOPID coefficients of
    ``iopid_coeffs``), g = C y0 / D and w = u0 / D + g, with D the
    feedthrough; t solves T(w) t = g, the same t as R~ t = y0 (see the
    module docstring), and the head w[0] is r~[0]. J agrees with the
    dense loss on ``fictitious_reference(realize(theta), data)`` to
    round-off, not bit for bit.
    """

    def __init__(
        self,
        template: ControllerTemplate,
        data: ExperimentRecord,
        md: DiscreteTf,
    ):
        ts = data.sample_time
        if not same_sample_time(template.sample_time, ts):
            raise SampleTimeError("template sample time differs from the data")
        if not same_sample_time(md.sample_time, ts):
            raise SampleTimeError("reference model sample time differs from the data")
        if not schur_stable(md.den.coeffs):
            raise ValueError("reference model must be BIBO stable")
        self.template = template
        self.data = data
        self.md = md
        self._factored = template.kind is ControllerKind.FOPID
        n = len(data)
        r0 = data.r0.samples
        # r0's increments without trailing zeros, but at least one sample
        dr0 = np.diff(r0, prepend=0.0)
        nonzero = np.flatnonzero(dr0)
        self._dr0 = dr0[: nonzero[-1] + 1 if nonzero.size else 1]
        m_d = impulse_response(md, n - 1)
        self._m_d_l1 = m_d.l1()
        self.target = reconstruct_output(self._dr0, m_d.samples)
        self.target.setflags(write=False)
        pulse = np.zeros(n)
        pulse[0] = 1.0
        self.gamma_r0 = float(np.abs(toeplitz_solve(r0, pulse)).sum())
        self.evaluations = 0
        self.penalty_counts = {r: 0 for r in PenaltyReason if r is not PenaltyReason.NONE}
        self.bound_violations = 0

    @property
    def penalties(self) -> int:
        return sum(self.penalty_counts.values())

    @property
    def bound_checks(self) -> int:
        """Every clean evaluation checks the stability bound."""
        return self.evaluations - self.penalties

    def evaluate(self, theta) -> LossBreakdown:
        """Full pipeline for one candidate, counted once it has a breakdown;
        never raises for in-box theta, only for one of the wrong size."""
        breakdown = self._pipeline(theta)
        self.evaluations += 1
        if breakdown.penalized:
            self.penalty_counts[breakdown.penalty_reason] += 1
        elif not breakdown.bound_satisfied:
            self.bound_violations += 1
        return breakdown

    def evaluate_batch(self, thetas) -> np.ndarray:
        """J of every row of a (rows, theta_dim) array, each with the bits
        and the penalty reason ``evaluate`` gives that row, and the same
        counters; raises ValueError, counting nothing, for rows of the
        wrong size.

        Every stage runs once for all rows still clean: the realization
        (``folib.fopid_chains`` or ``folib.iopid_forms``), g and w on
        (rows, samples) arrays with one compiled filter call per row and
        chain, one ``toeplitz_solve`` per row, the reconstruction and J.
        A row leaves at the first stage that penalizes it, in
        ``evaluate``'s order, and no stage warns about what it leaves.
        """
        thetas = np.asarray(thetas, dtype=float)
        dim = self.template.theta_dim
        if thetas.ndim != 2 or thetas.shape[1] != dim:
            raise ValueError(f"expected rows of {dim} parameters, got shape {thetas.shape}")
        j = np.full(len(thetas), PENALTY)
        penalties = dict.fromkeys(self.penalty_counts, 0)
        live = np.arange(len(thetas))

        def keep(mask, reason, *arrays):
            # drop the live rows that mask refuses, counted under reason,
            # from live and from each of arrays, whose rows are live's
            nonlocal live
            dropped = live.size - np.count_nonzero(mask)
            if not dropped:
                return arrays
            penalties[reason] += dropped
            live = live[mask]
            return tuple(a[mask] for a in arrays)

        blown_up = PenaltyReason.NONFINITE_SIGNAL
        usable = np.isfinite(thetas).all(axis=1)
        if self._factored:
            usable &= np.maximum(np.abs(thetas[:, 2]), np.abs(thetas[:, 4])) <= MAX_ORDER
        (params,) = keep(usable, blown_up, thetas)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g, k = self._controller_rows(params, keep)
            g *= k[:, None]
            w = self.data.u0.samples * k[:, None]
            w += g
        w, g = keep(np.abs(w).max(axis=1) <= _OVERFLOW_LIMIT, blown_up, w, g)
        w, g = keep(np.abs(w[:, 0]) >= _HEAD_TOL, PenaltyReason.FICTITIOUS_HEAD_ZERO, w, g)
        t = np.empty_like(w)
        for row, (w_row, g_row) in enumerate(zip(w, g)):
            t[row] = toeplitz_solve(w_row, g_row)
        abs_t = np.abs(t)
        t, abs_t = keep(abs_t.max(axis=1) <= _OVERFLOW_LIMIT, blown_up, t, abs_t)
        y = reconstruct_output(self._dr0, t)
        y, abs_t = keep(np.abs(y).max(axis=1) <= _OVERFLOW_LIMIT, blown_up, y, abs_t)
        j_clean = np.abs(y - self.target).sum(axis=1)
        t_l1 = abs_t.sum(axis=1)
        j[live] = j_clean
        self.evaluations += len(thetas)
        for reason, count in penalties.items():
            self.penalty_counts[reason] += count
        self.bound_violations += np.count_nonzero(
            ~(t_l1 <= self.gamma_r0 * j_clean + self._m_d_l1)
        )
        return j

    def _controller_rows(self, params, keep) -> tuple:
        """(C y0, 1/feedthrough) for the rows of finite, in-range
        parameters whose realization ``_pipeline`` accepts, one row each;
        ``keep`` drops the others with ``_pipeline``'s penalty reasons."""
        y0 = self.data.y0.samples
        ts = self.template.sample_time
        if self._factored:
            feedthrough, cancelled, finite, chains = fopid_chains(params, ts)
            keep(~cancelled, PenaltyReason.NON_INVERTIBLE_CONTROLLER)
            keep(finite[~cancelled], PenaltyReason.NONFINITE_SIGNAL)
            realized = ~cancelled & finite
        else:
            forms = iopid_forms(params, ts)
            feedthrough = np.empty(len(params))
            for rows, num, _ in forms:
                feedthrough[rows] = num[:, 0]
            realized = np.ones(len(params), dtype=bool)
        usable = realized & (np.abs(feedthrough) >= _FEEDTHROUGH_TOL)
        keep(usable[realized], PenaltyReason.NON_INVERTIBLE_CONTROLLER)
        # the position of each usable row among them
        at = np.cumsum(usable) - 1
        if self._factored:
            g = params[usable, 0][:, None] * y0
            for rows, poles, zeros, gains in chains:
                mine = usable[rows]
                g[at[rows[mine]]] += gains[mine, None] * filter_chains(
                    poles[mine], zeros[mine], y0
                )
        else:
            g = np.empty((np.count_nonzero(usable), y0.size))
            for rows, num, den in forms:
                mine = usable[rows]
                for row, coeffs in zip(at[rows[mine]], num[mine].tolist()):
                    g[row] = filter_tf(coeffs, den, y0)
        return g, 1.0 / feedthrough[usable]

    def _pipeline(self, theta) -> LossBreakdown:
        data = self.data
        try:
            if self._factored:
                feedthrough, sections = fopid_sections(theta, self.template)
            else:
                num, den = iopid_coeffs(theta, self.template)
                feedthrough = num[0]
            k = inverse_gain(feedthrough)
        except NonInvertibleError:
            return _PENALIZED[PenaltyReason.NON_INVERTIBLE_CONTROLLER]
        except ValueError:
            # of the right size, theta was out of range or its realization not finite
            if np.size(theta) != self.template.theta_dim:
                raise
            return _PENALIZED[PenaltyReason.NONFINITE_SIGNAL]
        y0 = data.y0.samples
        g = filter_parallel(*sections, y0) if self._factored else filter_tf(num, den, y0)
        g *= k
        w = data.u0.samples * k
        w += g
        if not _well_scaled(w):
            return _PENALIZED[PenaltyReason.NONFINITE_SIGNAL]
        try:
            t = toeplitz_solve(w, g)
        except FictitiousHeadZeroError:
            return _PENALIZED[PenaltyReason.FICTITIOUS_HEAD_ZERO]
        abs_t = np.abs(t)
        if not abs_t.max() <= _OVERFLOW_LIMIT:
            return _PENALIZED[PenaltyReason.NONFINITE_SIGNAL]
        y = reconstruct_output(self._dr0, t)
        if not _well_scaled(y):
            return _PENALIZED[PenaltyReason.NONFINITE_SIGNAL]
        j = float(np.abs(y - self.target).sum())
        return LossBreakdown(
            j=j,
            t_l1=float(abs_t.sum()),
            bound=self.gamma_r0 * j + self._m_d_l1,
            penalty_reason=PenaltyReason.NONE,
        )

    def __call__(self, theta) -> float:
        return self.evaluate(theta).j
