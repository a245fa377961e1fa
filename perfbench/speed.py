"""The machine's speed, sampled next to the program while it is timed.

On a shared host a vCPU's speed can swing by a tenth or more over tens
of seconds, and CPU time follows wall time through those swings, so two
runs of the same code read different wall times. ``SpeedProbe`` runs a
fixed kernel on a timer, between the program's bytecodes, and keeps a
clock that stops while the kernel runs. Each sample calls the kernel
twice and keeps the second call, whose caches the first has filled. A
time on that clock, multiplied by the kernel's reference time over its
mean time while that time was measured, is the time at a fixed machine
speed: the speed at which the kernel takes its reference time.

Neither kernel calls anything of the program; both work on fixed inputs.
``ReferenceKernel`` times the workloads' rounds. It mixes the kinds of
work the program does, in shares of similar time: compiled loops over
arrays (a Levinson Toeplitz solve, a cascade of second-order sections),
LAPACK (a small eigenvalue problem, polynomial roots), numpy calls on
five-element arrays, which numpy's dispatch bounds, and a plain
interpreter loop. No single kind followed the program's speed on every
workload (README.md), so the kernel takes them all.
``InterpreterKernel`` is that interpreter loop alone. It times the
import behind ``setup_s``, which runs before numpy is loaded, so this
module imports numpy and scipy only when a ``ReferenceKernel`` is made.
"""

import signal
import time

#: seconds between two samples of ``ReferenceKernel`` during a round
INTERVAL_S = 0.1
#: seconds between two samples of ``InterpreterKernel`` during an import
IMPORT_INTERVAL_S = 0.02
# The kernels' times at the reference speed: about their means on the
# 2-vCPU Xeon VM the figures in README.md come from, so that scaled
# times read close to that VM's seconds.
REFERENCE_S = 1.5e-3
INTERPRETER_REFERENCE_S = 7.0e-5


def interpreter_loop(values) -> None:
    acc, seen = 0.0, {}
    for i, v in enumerate(values):
        acc += v * 1.5 - 2.0
        seen[i] = (v, acc)


class InterpreterKernel:
    """About 70 µs of plain interpreter work; returns its seconds."""

    def __init__(self):
        self.values = [i * 0.37 for i in range(400)]

    def __call__(self) -> float:
        start = time.perf_counter()
        interpreter_loop(self.values)
        return time.perf_counter() - start


class ReferenceKernel:
    """A fixed piece of work of about a millisecond; returns its seconds."""

    def __init__(self):
        import numpy as np
        from scipy import linalg as sla
        from scipy import signal as sig

        self.np, self.sla, self.sig = np, sla, sig
        rng = np.random.default_rng(0)
        self.column = 0.5 ** np.arange(400)
        self.signal = rng.standard_normal(1001)
        self.sections = sig.butter(6, 0.2, output="sos")
        self.matrix = rng.standard_normal((40, 40))
        self.poly = rng.standard_normal(16)
        self.values = [float(v) for v in self.signal[:200]]

    def __call__(self) -> float:
        np = self.np
        start = time.perf_counter()
        # the timer can fire inside a block of the program that raises on
        # floating-point errors; the kernel must never raise
        with np.errstate(all="ignore"):
            self.sla.solve_toeplitz(self.column, self.signal[:400])
            self.sig.sosfilt(self.sections, self.signal)
            np.linalg.eigvals(self.matrix)
            np.roots(self.poly)
            a = self.signal[:5]
            for _ in range(30):
                b = np.clip(np.abs(a) * 2.0 + 1.0, 0.5, 3.0)
                float(np.sum(b))
                a = np.maximum(a, 0.0) + 0.0
            interpreter_loop(self.values)
        return time.perf_counter() - start


class SpeedProbe:
    """Samples ``kernel`` every ``interval`` seconds of the program while entered.

    ``clock`` and ``clock_ns`` read ``time.perf_counter`` less the time
    spent in the kernel, so operations timed with them exclude it.
    ``take`` returns the kernel times sampled since the last call.
    """

    def __init__(self, kernel=None, interval: float = INTERVAL_S):
        self.interval = interval
        self.kernel = ReferenceKernel() if kernel is None else kernel
        self._samples = []
        self._paused_ns = 0
        self._previous_handler = None
        self._active = False

    def clock_ns(self) -> int:
        return time.perf_counter_ns() - self._paused_ns

    def clock(self) -> float:
        return self.clock_ns() / 1e9

    def take(self) -> list:
        samples, self._samples = self._samples, []
        return samples

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.kernel()
        self._samples.append(self.kernel())
        self._paused_ns += time.perf_counter_ns() - start
        # the timer is one-shot and armed again only once the kernel is
        # done, so ticks never nest and the program always gets
        # ``interval`` seconds between two of them
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        self.kernel()  # first call loads what the kernel touches
        self.take()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False


def at_reference_speed(seconds: float, kernel_samples, reference: float = REFERENCE_S) -> float:
    """``seconds`` measured while the kernel took ``kernel_samples``, scaled
    to the speed at which it takes ``reference``."""
    return seconds * reference * len(kernel_samples) / sum(kernel_samples)
