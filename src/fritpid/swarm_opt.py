"""Bound-constrained particle swarm minimization with a simplex finish.

Global-best PSO with adaptive inertia, clamp-and-zero boundary handling,
and seeded determinism, handing over to a bounded Nelder-Mead search
once the swarm stalls (the hybrid of Fan and Zahara, EJOR 181(2), 2007).
The objective is treated as a total function on the box: bad candidates
are expected to return large finite penalties rather than raise.

Determinism contract: the objective must be pure apart from its own
counters, so a candidate's value depends on the candidate alone. A swarm
iteration's candidates are then independent, and a caller may score them
with its own batch evaluator, in any order or in other processes, as long
as it places each value at its particle's index (a synchronous parallel
swarm, as in Schutte et al., IJNME 61(13), 2004). The finish is
deterministic, so results are reproducible bit for bit for a given seed
regardless of how the caller schedules the work.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, ClassVar, List, Optional, Sequence, Tuple

import numpy as np
import scipy.optimize

__all__ = ["PsoConfig", "Bounds", "OptimResult", "minimize"]


@dataclass(frozen=True)
class PsoConfig:
    """Swarm size and iteration cap, the two settings a run varies.

    The rest are fixed: textbook swarm values (Clerc and Kennedy, IEEE
    TEC 6(1), 2002), inertia adapted within (0.4, 0.9) and equal
    cognitive and social pull of 1.49; a switch rule that leaves the
    swarm at the first iteration, from ``stall_iterations`` on, whose best
    value improved by at most ``tolerance``, relative, over the last
    ``stall_iterations`` iterations; and a cap of ``finish_max_evaluations``
    calls on the Nelder-Mead finish that follows.
    """

    swarm_size: int = 50
    max_iterations: int = 200
    inertia_range: ClassVar[Tuple[float, float]] = (0.4, 0.9)
    cognitive_coeff: ClassVar[float] = 1.49
    social_coeff: ClassVar[float] = 1.49
    stall_iterations: ClassVar[int] = 10
    tolerance: ClassVar[float] = 1e-3
    finish_max_evaluations: ClassVar[int] = 1000

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class Bounds:
    """Axis-aligned search box."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x) -> bool:
        arr = np.asarray(x, dtype=float)
        return bool(np.all(arr >= self.lower) and np.all(arr <= self.upper))


@dataclass(frozen=True, eq=False)
class OptimResult:
    """The swarm's seed, the best point found, its value, the best-value
    trace (one row per swarm iteration, then one for the finish), the
    total number of objective evaluations and the finish's share of them,
    the swarm iterations run, why the swarm stopped: ``"stall"`` (the
    switch rule) or ``"cap"`` (max_iterations), and the inertia it ended
    with."""

    seed: int
    best_theta: np.ndarray
    best_value: float
    trace: Tuple[Tuple[int, float], ...]
    evaluations: int
    finish_evaluations: int
    iterations: int
    stop_reason: str
    inertia: float


def _evaluate_swarm(objective, positions: np.ndarray) -> np.ndarray:
    # The default batch evaluation: one call per row, in particle order.
    # Any replacement must return row i's value at index i, and may rely
    # on the objective being pure apart from its counters (see the module
    # docstring); that is what keeps the result bit for bit the same.
    return np.array([float(objective(x)) for x in positions])


def minimize(
    objective: Callable[[np.ndarray], float],
    bounds: Bounds,
    cfg: PsoConfig,
    seed: int,
    x0: Optional[Sequence[float]] = None,
    *,
    evaluate_swarm: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> OptimResult:
    """Minimize a total objective over a box: global-best PSO seeded by
    ``seed``, then a bounded Nelder-Mead finish from the swarm's best.

    When ``x0`` is given it replaces the first random particle (clipped
    into the box), which guarantees the result is never worse than the
    starting point. The trace records the global best after
    initialization (iteration 0), after every completed swarm iteration,
    and after the finish (one iteration past the swarm's last).

    Velocity update per particle: v <- w v + c1 r1 (pbest - x)
    + c2 r2 (gbest - x), with positions clamped to the box and the
    velocity zeroed on clamped coordinates. The inertia w adapts within
    ``inertia_range``: it doubles after fresh improvement and halves
    once improvement has stalled for more than five iterations.

    The swarm stops on the switch rule of ``PsoConfig`` or at
    ``max_iterations``. The finish is scipy's Nelder-Mead with bounds and
    dimension-adapted coefficients (Gao and Han, Comput. Optim. Appl.
    51(1), 2012), stopped when the simplex spans 1e-8 per coordinate and
    1e-10 of the swarm's best value, or after ``finish_max_evaluations``
    calls. The better of the two points is returned.

    ``evaluate_swarm`` maps an iteration's positions, one row per
    particle, to their objective values in the same order; it defaults to
    calling ``objective`` on each row in turn. The finish always calls
    ``objective`` itself.
    """
    if seed < 0 or int(seed) != seed:
        raise ValueError("seed must be a non-negative integer")
    dim = bounds.dim
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.size != dim:
            raise ValueError(f"x0 has dimension {x0.size}, bounds have {dim}")
    if evaluate_swarm is None:
        evaluate_swarm = functools.partial(_evaluate_swarm, objective)
    rng = np.random.default_rng(seed)
    lo, hi = bounds.lower, bounds.upper
    span = hi - lo
    s = cfg.swarm_size

    positions = rng.uniform(lo, hi, size=(s, dim))
    velocities = rng.uniform(-span, span, size=(s, dim))
    if x0 is not None:
        positions[0] = np.clip(x0, lo, hi)

    values = evaluate_swarm(positions)
    evaluations = s
    pbest = positions.copy()
    pbest_values = values.copy()
    best_index = int(np.argmin(pbest_values))
    gbest = pbest[best_index].copy()
    gbest_value = float(pbest_values[best_index])

    trace: List[Tuple[int, float]] = [(0, gbest_value)]
    w_lo, w_hi = cfg.inertia_range
    w = w_hi
    adapt_counter = 0
    stop_reason = "cap"

    for iteration in range(1, cfg.max_iterations + 1):
        r1 = rng.random((s, dim))
        r2 = rng.random((s, dim))
        velocities = (
            w * velocities
            + cfg.cognitive_coeff * r1 * (pbest - positions)
            + cfg.social_coeff * r2 * (gbest - positions)
        )
        positions = positions + velocities
        below = positions < lo
        above = positions > hi
        positions = np.clip(positions, lo, hi)
        velocities[below | above] = 0.0

        values = evaluate_swarm(positions)
        evaluations += s
        improved_mask = values < pbest_values
        pbest[improved_mask] = positions[improved_mask]
        pbest_values[improved_mask] = values[improved_mask]
        best_index = int(np.argmin(pbest_values))
        new_best = float(pbest_values[best_index])

        if new_best < gbest_value:
            gbest = pbest[best_index].copy()
            gbest_value = new_best
            adapt_counter = max(0, adapt_counter - 1)
            if adapt_counter < 2:
                w = min(w_hi, 2.0 * w)
        else:
            adapt_counter += 1
            if adapt_counter > 5:
                w = max(w_lo, 0.5 * w)
        trace.append((iteration, gbest_value))

        if iteration >= cfg.stall_iterations:
            earlier = trace[iteration - cfg.stall_iterations][1]
            if earlier - gbest_value <= cfg.tolerance * abs(earlier):
                stop_reason = "stall"
                break

    def finish_objective(x):
        # The best point is tracked here rather than read from scipy's
        # result: when the call cap cuts off an expansion, the result
        # drops the better reflected point evaluated just before it.
        nonlocal gbest, gbest_value
        value = float(objective(x))
        if value < gbest_value:
            gbest, gbest_value = x.copy(), value
        return value

    finish = scipy.optimize.minimize(
        finish_objective,
        gbest,
        method="Nelder-Mead",
        bounds=scipy.optimize.Bounds(lo, hi),
        options={
            "adaptive": True,
            "xatol": 1e-8,
            "fatol": 1e-10 * abs(gbest_value),
            "maxfev": cfg.finish_max_evaluations,
        },
    )
    trace.append((iteration + 1, gbest_value))

    return OptimResult(
        seed=seed,
        best_theta=gbest,
        best_value=gbest_value,
        trace=tuple(trace),
        evaluations=evaluations + finish.nfev,
        finish_evaluations=finish.nfev,
        iterations=iteration,
        stop_reason=stop_reason,
        inertia=float(w),
    )
