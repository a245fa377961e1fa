"""Fictitious-reference l1 model matching from one open-loop data record.

Given one experiment (r0, u0, y0) and a candidate controller C, the
fictitious reference r~ = C^-1 u0 + y0 is the input that would have
produced the recorded pair through the closed loop. Solving the
lower-triangular Toeplitz system R~ t = y0 recovers the closed-loop
impulse response the candidate would realize, and y = R0 t is what that
loop would do to the actual reference. The tuning loss is the l1 norm of
y minus the reference-model response; every candidate also gets an l1
stability bound check on t. No plant model is used anywhere.

All diagnostics for a candidate are collected in a LossBreakdown; any
failure along the pipeline (non-invertible controller, vanishing
fictitious head, numerical blow-up) is converted into a flat penalty so
the surrounding optimizer only ever sees finite numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import signal as _sig

from .folib import ControllerTemplate, realize
from .lti_core import (
    DiscreteTf,
    DiscretizationError,
    NonInvertibleError,
    SampleTimeError,
    Signal,
    impulse_response,
    invert,
    is_bibo_stable,
    simulate,
)

__all__ = [
    "PENALTY",
    "PenaltyReason",
    "FictitiousHeadZeroError",
    "ExperimentRecord",
    "LossBreakdown",
    "StabilityBoundReport",
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

#: diagonal block length of the Toeplitz solve (64 and 256 measured slower)
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
        ts = self.r0.sample_time
        for s in (self.u0, self.y0):
            if abs(s.sample_time - ts) > 1e-12 * ts:
                raise SampleTimeError("experiment signals have mixed sample times")
        if not np.all(np.isfinite(self.r0.samples)):
            raise ValueError("reference signal must be finite")
        if self.r0.samples[0] == 0.0:
            raise ValueError("reference head must be nonzero")

    @property
    def sample_time(self) -> float:
        return self.r0.sample_time

    def __len__(self) -> int:
        return len(self.r0)


@dataclass(frozen=True)
class LossBreakdown:
    """Loss value and diagnostics for one candidate parameter vector."""

    j: float
    epsilon_l1: float
    t_l1: float
    penalized: bool
    penalty_reason: PenaltyReason

    def __post_init__(self):
        if self.penalized != (self.penalty_reason is not PenaltyReason.NONE):
            raise ValueError("penalized flag must mirror penalty_reason")
        if not self.penalized and self.j != self.epsilon_l1:
            raise ValueError("unpenalized loss must equal the l1 matching error")


@dataclass(frozen=True)
class StabilityBoundReport:
    """Finite-horizon l1 bound on the recovered closed-loop impulse response."""

    gamma_r0: float
    bound: float
    t_l1: float
    satisfied: bool


def _penalized(reason: PenaltyReason) -> LossBreakdown:
    return LossBreakdown(
        j=PENALTY,
        epsilon_l1=math.nan,
        t_l1=math.nan,
        penalized=True,
        penalty_reason=reason,
    )


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

    which is an all-pole difference equation driven by y0. It runs as a
    blocked forward substitution over blocks of _BLOCK samples: each
    diagonal block is that all-pole filter with a _BLOCK-long denominator,
    and one direct convolution, of which only the fully overlapping part
    is computed, then removes the block's history from the rest of the
    right-hand side. That is about N^2 / 2 multiply-adds, mostly in
    vectorized convolutions, against N^2 for one all-pole filter with a
    length-N denominator. A system of at most _BLOCK samples is solved by
    that one filter call.
    """
    if len(rt) != len(y0):
        raise ValueError("signal lengths differ")
    head = rt.samples[0]
    if not (abs(head) >= _HEAD_TOL):
        raise FictitiousHeadZeroError("fictitious reference head is numerically zero")
    col = rt.samples
    n = col.size
    rhs = y0.samples.copy()
    t = np.empty(n)
    # a blown-up solution is the caller's to detect, as with one filter call,
    # so overflow while removing a block's history must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            t[lo:hi] = _sig.lfilter([1.0], col[: hi - lo], rhs[lo:hi])
            if hi < n:
                rhs[hi:] -= np.convolve(col[1 : n - lo], t[lo:hi], mode="valid")
    return Signal(t, y0.sample_time)


def reconstruct_output(r0: Signal, t: Signal) -> Signal:
    """Response of the recovered closed loop t to the recorded reference.

    Causal convolution of r0 with t, truncated to the common horizon
    (the lower-triangular Toeplitz product R0 t).
    """
    if len(r0) != len(t):
        raise ValueError("signal lengths differ")
    y = np.convolve(r0.samples, t.samples)[: len(r0)]
    return Signal(y, r0.sample_time)


class LossEvaluator:
    """Reusable loss pipeline for one (template, data, reference model) triple.

    Precomputes the matching target R0 m_D and the Toeplitz-inverse
    operator norm gamma_R0, then maps parameter vectors to LossBreakdowns.
    Instances are also callable as plain scalar objectives, which is the
    form the swarm optimizer consumes. Simple counters keep track of how
    often candidates were penalized, by reason, and whether any
    non-penalized candidate ever violated the stability bound.
    """

    def __init__(
        self,
        template: ControllerTemplate,
        data: ExperimentRecord,
        md: DiscreteTf,
    ):
        ts = data.sample_time
        if abs(template.sample_time - ts) > 1e-12 * ts:
            raise SampleTimeError("template sample time differs from the data")
        if abs(md.sample_time - ts) > 1e-12 * ts:
            raise SampleTimeError("reference model sample time differs from the data")
        if not is_bibo_stable(md).stable:
            raise ValueError("reference model must be BIBO stable")
        self.template = template
        self.data = data
        self.md = md
        n = len(data)
        self._m_d = impulse_response(md, n - 1)
        self._m_d_l1 = self._m_d.l1()
        self._y_ref = reconstruct_output(data.r0, self._m_d)
        pulse = np.zeros(n)
        pulse[0] = 1.0
        self._gamma_r0 = toeplitz_solve(data.r0, Signal(pulse, ts)).l1()
        self.evaluations = 0
        self.penalties = 0
        self.penalty_counts = {r: 0 for r in PenaltyReason if r is not PenaltyReason.NONE}
        self.bound_checks = 0
        self.bound_violations = 0

    @property
    def gamma_r0(self) -> float:
        return self._gamma_r0

    @property
    def target(self) -> Signal:
        """Reference-model response R0 m_D the loop output is matched to."""
        return self._y_ref

    def evaluate(self, theta) -> LossBreakdown:
        """Full pipeline for one candidate; never raises for in-box theta."""
        self.evaluations += 1
        breakdown = self._pipeline(self._as_theta(theta))
        if breakdown.penalized:
            self.penalties += 1
            self.penalty_counts[breakdown.penalty_reason] += 1
        else:
            self.bound_checks += 1
            if breakdown.t_l1 > self._bound(breakdown.epsilon_l1):
                self.bound_violations += 1
        return breakdown

    def _as_theta(self, theta) -> np.ndarray:
        arr = np.asarray(theta, dtype=float).reshape(-1)
        if arr.size != self.template.theta_dim:
            raise ValueError(
                f"expected {self.template.theta_dim} parameters, got {arr.size}"
            )
        return arr

    def _bound(self, epsilon_l1: float) -> float:
        """gamma_R0 * ||epsilon||_1 + ||m_D||_1, the bound on ||t||_1."""
        return abs(self._gamma_r0) * epsilon_l1 + self._m_d_l1

    def _pipeline(self, arr: np.ndarray) -> LossBreakdown:
        if not np.isfinite(arr).all():
            return _penalized(PenaltyReason.NONFINITE_SIGNAL)
        try:
            c = realize(arr, self.template)
        except DiscretizationError:
            return _penalized(PenaltyReason.NON_INVERTIBLE_CONTROLLER)
        try:
            rt = fictitious_reference(c, self.data)
        except NonInvertibleError:
            return _penalized(PenaltyReason.NON_INVERTIBLE_CONTROLLER)
        if not _well_scaled(rt.samples):
            return _penalized(PenaltyReason.NONFINITE_SIGNAL)
        try:
            t = toeplitz_solve(rt, self.data.y0)
        except FictitiousHeadZeroError:
            return _penalized(PenaltyReason.FICTITIOUS_HEAD_ZERO)
        if not _well_scaled(t.samples):
            return _penalized(PenaltyReason.NONFINITE_SIGNAL)
        y = reconstruct_output(self.data.r0, t).samples
        if not _well_scaled(y):
            return _penalized(PenaltyReason.NONFINITE_SIGNAL)
        j = float(np.abs(y - self._y_ref.samples).sum())
        return LossBreakdown(
            j=j,
            epsilon_l1=j,
            t_l1=t.l1(),
            penalized=False,
            penalty_reason=PenaltyReason.NONE,
        )

    def __call__(self, theta) -> float:
        return self.evaluate(theta).j

    def bound_report(self, breakdown: LossBreakdown) -> StabilityBoundReport:
        """Check ||t||_1 <= gamma_R0 * ||epsilon||_1 + ||m_D||_1 for one candidate.

        gamma_R0 is the l1 norm of the generating column of the inverse of
        the reference Toeplitz matrix, which equals the operator norm that
        the triangle inequality actually needs (the max column sum of a
        lower triangular Toeplitz matrix is the l1 norm of its first
        column). With this constant the inequality is an identity-level
        consequence of t = R0^-1 epsilon + m_D, so a violation can only
        mean the pipeline broke, never that the candidate was unlucky.
        The candidate's breakdown, as evaluate returned it, must be clean;
        no counter moves.
        """
        if breakdown.penalized:
            raise ValueError(
                f"candidate was penalized ({breakdown.penalty_reason.value}); "
                "no bound is defined"
            )
        bound = self._bound(breakdown.epsilon_l1)
        return StabilityBoundReport(
            gamma_r0=self._gamma_r0,
            bound=bound,
            t_l1=breakdown.t_l1,
            satisfied=bool(breakdown.t_l1 <= bound),
        )
