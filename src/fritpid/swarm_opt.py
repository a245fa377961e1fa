"""Bound-constrained particle swarm minimization.

Global-best PSO with adaptive inertia, clamp-and-zero boundary handling,
and seeded determinism. The objective is treated as a total function on
the box: bad candidates are expected to return large finite penalties
rather than raise. Evaluation order within an iteration is fixed by
particle index, so results are reproducible bit for bit for a given seed
regardless of how the caller schedules the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["PsoConfig", "Bounds", "OptimResult", "minimize"]


@dataclass(frozen=True)
class PsoConfig:
    """Swarm size and iteration cap, the two settings a run varies.

    The rest are fixed textbook values (Clerc and Kennedy, IEEE TEC 6(1),
    2002): inertia adapted within (0.4, 0.9), equal cognitive and social
    pull of 1.49, and a stall counter that stops the search after
    ``stall_iterations`` iterations without a relative improvement larger
    than ``tolerance``.
    """

    swarm_size: int = 50
    max_iterations: int = 200
    inertia_range: ClassVar[Tuple[float, float]] = (0.4, 0.9)
    cognitive_coeff: ClassVar[float] = 1.49
    social_coeff: ClassVar[float] = 1.49
    stall_iterations: ClassVar[int] = 40
    tolerance: ClassVar[float] = 1e-8

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
    """The swarm's seed, the best point found, its value, the
    per-iteration best trace, the total number of objective evaluations,
    the iterations run, why the search stopped: ``"stall"`` or ``"cap"``
    (max_iterations), and the inertia it ended with."""

    seed: int
    best_theta: np.ndarray
    best_value: float
    trace: Tuple[Tuple[int, float], ...]
    evaluations: int
    iterations: int
    stop_reason: str
    inertia: float


def _evaluate_swarm(objective, positions: np.ndarray) -> np.ndarray:
    # Sequential by particle index; this ordering is part of the
    # determinism contract.
    return np.array([float(objective(x)) for x in positions])


def minimize(
    objective: Callable[[np.ndarray], float],
    bounds: Bounds,
    cfg: PsoConfig,
    seed: int,
    x0: Optional[Sequence[float]] = None,
) -> OptimResult:
    """Minimize a total objective over a box with global-best PSO seeded by ``seed``.

    When ``x0`` is given it replaces the first random particle (clipped
    into the box), which guarantees the result is never worse than the
    starting point. The trace records the global best after
    initialization (iteration 0) and after every completed iteration.

    Velocity update per particle: v <- w v + c1 r1 (pbest - x)
    + c2 r2 (gbest - x), with positions clamped to the box and the
    velocity zeroed on clamped coordinates. The inertia w adapts within
    ``inertia_range``: it doubles after fresh improvement and halves
    once improvement has stalled for more than five iterations.
    """
    if seed < 0 or int(seed) != seed:
        raise ValueError("seed must be a non-negative integer")
    dim = bounds.dim
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.size != dim:
            raise ValueError(f"x0 has dimension {x0.size}, bounds have {dim}")
    rng = np.random.default_rng(seed)
    lo, hi = bounds.lower, bounds.upper
    span = hi - lo
    s = cfg.swarm_size

    positions = rng.uniform(lo, hi, size=(s, dim))
    velocities = rng.uniform(-span, span, size=(s, dim))
    if x0 is not None:
        positions[0] = np.clip(x0, lo, hi)

    values = _evaluate_swarm(objective, positions)
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
    stall = 0

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

        values = _evaluate_swarm(objective, positions)
        evaluations += s
        improved_mask = values < pbest_values
        pbest[improved_mask] = positions[improved_mask]
        pbest_values[improved_mask] = values[improved_mask]
        best_index = int(np.argmin(pbest_values))
        new_best = float(pbest_values[best_index])

        improved = (gbest_value - new_best) > cfg.tolerance * max(1.0, abs(gbest_value))
        if new_best < gbest_value:
            gbest = pbest[best_index].copy()
            gbest_value = new_best
        trace.append((iteration, gbest_value))

        if improved:
            stall = 0
            adapt_counter = max(0, adapt_counter - 1)
            if adapt_counter < 2:
                w = min(w_hi, 2.0 * w)
        else:
            stall += 1
            adapt_counter += 1
            if adapt_counter > 5:
                w = max(w_lo, 0.5 * w)
        if stall >= cfg.stall_iterations:
            break

    return OptimResult(
        seed=seed,
        best_theta=gbest,
        best_value=gbest_value,
        trace=tuple(trace),
        evaluations=evaluations,
        iterations=iteration,
        stop_reason="stall" if stall >= cfg.stall_iterations else "cap",
        inertia=float(w),
    )
