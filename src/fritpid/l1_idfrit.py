"""Fictitious-reference l1 model matching from one open-loop data record.

Given one experiment (r0, u0, y0) and a candidate controller C, the
fictitious reference r~ = C^-1 u0 + y0 is the input that would have
produced the recorded pair through the closed loop. Solving the
lower-triangular Toeplitz system R~ t = y0 recovers the closed-loop
impulse response the candidate would realize, and y = R0 t is what that
loop would do to the actual reference. The tuning loss is the l1 norm of
y minus the reference-model response; every clean candidate also gets
the l1 stability bound on t. No plant model is used anywhere.

All diagnostics for a candidate are collected in a LossBreakdown, which
stores what was measured and derives every verdict from it; any failure
along the pipeline (non-invertible controller, vanishing fictitious
head, numerical blow-up) is converted into a flat penalty so the
surrounding optimizer only ever sees finite numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.blas import dtrsv as _dtrsv

from .folib import ControllerKind, ControllerTemplate, fopid_roots, iopid_coeffs

# the loss path builds no controller object, but perfbench/tracer.py wraps
# realize by this module's name
from .folib import realize  # noqa: F401
from .lti_core import (
    DiscreteTf,
    DiscretizationError,
    NonInvertibleError,
    SampleTimeError,
    Signal,
    filter_tf,
    filter_zpk,
    impulse_response,
    inverse_coeffs,
    inverse_roots,
    invert,
    is_stable,
    poles,
    same_sample_time,
    simulate,
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

    The three signals must share length and sample time. The reference
    must be finite and start away from zero, otherwise neither the
    fictitious reference nor the stability bound is defined.
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
        for s in (self.u0, self.y0):
            if not same_sample_time(s.sample_time, self.r0.sample_time):
                raise SampleTimeError("experiment signals have mixed sample times")
        if not np.all(np.isfinite(self.r0.samples)):
            raise ValueError("reference signal must be finite")
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

    Computed as C^-1 u0 + y0. The controller (polynomial or factored) must
    be biproper and delay free so that its exact inverse exists; non-finite
    samples are passed through untouched for the caller to detect.
    """
    return simulate(invert(c), data.u0) + data.y0


def toeplitz_solve(rt: Signal, y0: Signal) -> Signal:
    """Solve the lower-triangular Toeplitz system built from rt for y0.

    The system matrix has rt as its first column, so the solution is the
    forward-substitution recursion

        t_k = (y0_k - sum_{tau=1..k} rt_tau * t_{k-tau}) / rt_0

    solved here as a blocked forward substitution over blocks of _BLOCK
    samples. Every diagonal block is the same lower-triangular Toeplitz
    matrix, built once per call and solved by BLAS dtrsv; one direct
    convolution, of which only the fully overlapping part is computed,
    then removes the block's history from the rest of the right-hand
    side. That is about N^2 / 2 multiply-adds, all of them in BLAS or
    vectorized convolutions. A system of at most _BLOCK samples is one
    dtrsv call.
    """
    if len(rt) != len(y0):
        raise ValueError("signal lengths differ")
    head = rt.samples[0]
    if not (abs(head) >= _HEAD_TOL):
        raise FictitiousHeadZeroError("fictitious reference head is numerically zero")
    col = rt.samples
    n = col.size
    b = min(_BLOCK, n)
    # read with leading dimension b, col repeated with period b + 1 puts
    # col[i - j] at (i, j) on and below the diagonal; dtrsv never reads
    # the upper triangle, so whatever lands there is left uninitialized
    tiles = np.empty((b, b + 1))
    tiles[:, :b] = col[:b]
    block = tiles.reshape(-1)[: b * b].reshape((b, b), order="F")
    rhs = y0.samples.copy()
    t = np.empty(n)
    # a blown-up solution is the caller's to detect, so overflow while
    # removing a block's history must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, b):
            hi = min(lo + b, n)
            m = hi - lo
            t[lo:hi] = _dtrsv(block[:m, :m], rhs[lo:hi], lower=1)
            if hi < n:
                rhs[hi:] -= np.convolve(col[1 : n - lo], t[lo:hi], mode="valid")
    return Signal.adopt(t, y0.sample_time)


@functools.lru_cache(maxsize=1)
def _increments(r0: Signal) -> np.ndarray:
    # r0[0], r0[1] - r0[0], ..., without trailing zeros but at least one
    # sample; Signal hashes by identity and its samples are read-only, so
    # the last record's increments serve every candidate scored on it
    d = np.diff(r0.samples, prepend=0.0)
    nonzero = np.flatnonzero(d)
    d = d[: nonzero[-1] + 1 if nonzero.size else 1]
    d.setflags(write=False)
    return d


def reconstruct_output(r0: Signal, t: Signal) -> Signal:
    """Response of the recovered closed loop t to the recorded reference.

    The lower-triangular Toeplitz product R0 t, that is the causal
    convolution of r0 with t truncated to the common horizon. It is
    formed as R0 = S D, with S the running sum and D the Toeplitz matrix
    of r0's increments, trailing zeros trimmed: R0 t is the running sum
    of the truncated convolution of the increments with t. For a step
    reference the increments are the single sample r0[0], so the product
    is one scaling and one cumulative sum.
    """
    if len(r0) != len(t):
        raise ValueError("signal lengths differ")
    d = _increments(r0)
    dt = d[0] * t.samples if d.size == 1 else np.convolve(d, t.samples)[: len(t)]
    return Signal.adopt(dt.cumsum(), r0.sample_time)


class LossEvaluator:
    """Reusable loss pipeline for one (template, data, reference model) triple.

    Precomputes the matching target R0 m_D and the Toeplitz-inverse
    operator norm gamma_R0, then maps parameter vectors to LossBreakdowns.
    Instances are also callable as plain scalar objectives, which is the
    form the swarm optimizer consumes. Counters record how many candidates
    were evaluated, how many were penalized, by reason, and how many clean
    ones violated the stability bound; the totals are derived from them.

    The bound ||t||_1 <= gamma_R0 * ||epsilon||_1 + ||m_D||_1 takes as
    gamma_R0 the l1 norm of the generating column of the inverse of the
    reference Toeplitz matrix, which equals the operator norm that the
    triangle inequality actually needs (the max column sum of a lower
    triangular Toeplitz matrix is the l1 norm of its first column). With
    this constant the inequality is an identity-level consequence of
    t = R0^-1 epsilon + m_D, so a violation can only mean the pipeline
    broke, never that the candidate was unlucky. The reference model
    must be stable by ``lti_core.is_stable``, the rule every pole set is
    judged by.

    Candidates are scored on arrays, from C's raw parts through the
    inverse's filter, with no controller object; every value is the one
    ``fictitious_reference(realize(theta), data)`` and the solve give,
    bit for bit.
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
        if not is_stable(poles(md)):
            raise ValueError("reference model must be BIBO stable")
        self.template = template
        self.data = data
        self.md = md
        self._factored = template.kind is ControllerKind.FOPID
        n = len(data)
        m_d = impulse_response(md, n - 1)
        self._m_d_l1 = m_d.l1()
        self._y_ref = reconstruct_output(data.r0, m_d)
        pulse = np.zeros(n)
        pulse[0] = 1.0
        self._gamma_r0 = toeplitz_solve(data.r0, Signal(pulse, ts)).l1()
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

    @property
    def gamma_r0(self) -> float:
        return self._gamma_r0

    @property
    def target(self) -> Signal:
        """Reference-model response R0 m_D the loop output is matched to."""
        return self._y_ref

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

    def _pipeline(self, theta) -> LossBreakdown:
        data = self.data
        try:
            if self._factored:
                c = fopid_roots(theta, self.template)
            else:
                c = iopid_coeffs(theta, self.template)
        except DiscretizationError:
            return _PENALIZED[PenaltyReason.NON_INVERTIBLE_CONTROLLER]
        except ValueError:
            # of the right size, theta or its realization was not finite
            if np.size(theta) != self.template.theta_dim:
                raise
            return _PENALIZED[PenaltyReason.NONFINITE_SIGNAL]
        try:
            if self._factored:
                rt = filter_zpk(*inverse_roots(*c[:3]), data.u0.samples)
            else:
                rt = filter_tf(*inverse_coeffs(*c), data.u0.samples)
        except NonInvertibleError:
            return _PENALIZED[PenaltyReason.NON_INVERTIBLE_CONTROLLER]
        rt += data.y0.samples
        if not _well_scaled(rt):
            return _PENALIZED[PenaltyReason.NONFINITE_SIGNAL]
        try:
            t = toeplitz_solve(Signal.adopt(rt, data.sample_time), data.y0)
        except FictitiousHeadZeroError:
            return _PENALIZED[PenaltyReason.FICTITIOUS_HEAD_ZERO]
        if not _well_scaled(t.samples):
            return _PENALIZED[PenaltyReason.NONFINITE_SIGNAL]
        y = reconstruct_output(data.r0, t).samples
        if not _well_scaled(y):
            return _PENALIZED[PenaltyReason.NONFINITE_SIGNAL]
        j = float(np.abs(y - self._y_ref.samples).sum())
        return LossBreakdown(
            j=j,
            t_l1=t.l1(),
            bound=self._gamma_r0 * j + self._m_d_l1,
            penalty_reason=PenaltyReason.NONE,
        )

    def __call__(self, theta) -> float:
        return self.evaluate(theta).j
