"""A reference kernel that measures the machine's speed while a pass runs.

On a shared virtual machine the CPU's speed drifts by tens of percent within
seconds, and process CPU time drifts with wall time, so it is speed, not
waiting.  A timer signal runs this fixed kernel every ``PERIOD_S`` during a
pass; the kernel's mean time gives the speed during that pass, and the pass's
own time (kernel runs excluded) is rescaled to the reference speed, at which
one kernel run takes ``REFERENCE_S``.  The kernel does the kind of work the
library does: small dense linear algebra and Python float arithmetic.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 1.4e-3  # one kernel run at the reference speed
MATRICES = 40


@dataclass
class PassTiming:
    elapsed: float  # wall seconds of the pass, kernel runs included
    own: float  # wall seconds of the pass without the kernel runs
    kernel_s: float  # mean seconds of one kernel run during the pass

    @property
    def rescaled(self) -> float:
        """``own`` at the reference speed."""
        return rescale(self.own, self.kernel_s)

    @classmethod
    def total(cls, parts) -> "PassTiming":
        """One timing for consecutive parts; its ``kernel_s`` is the
        effective one, so that ``rescaled`` is the sum of the parts'."""
        own = sum(p.own for p in parts)
        kernel_s = own * REFERENCE_S / sum(p.rescaled for p in parts)
        return cls(sum(p.elapsed for p in parts), own, kernel_s)


def rescale(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((MATRICES, 3, 3))
        self.mats = a + a.transpose(0, 2, 1) + 6.0 * np.eye(3)
        self.vecs = rng.standard_normal((MATRICES, 3))
        self._spent, self._runs = 0.0, 0

    def kernel(self) -> float:
        acc = 0.0
        for a, b in zip(self.mats, self.vecs):
            acc += float(np.linalg.eigvalsh(a)[0]) + float(np.linalg.solve(a, b)[0])
            acc += float(np.prod([a[0, 0], a[1, 1], a[2, 2]]))
            acc += sum(0.5 * i for i in range(20))
        return acc

    def _sample(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        self.kernel()
        self._spent += time.perf_counter() - t
        self._runs += 1

    def kernel_seconds(self, runs: int) -> float:
        """Mean time of ``runs`` kernel runs back to back."""
        self._spent, self._runs = 0.0, 0
        for _ in range(runs):
            self._sample()
        return self._spent / self._runs

    def timed(self, fn):
        """Call ``fn()`` with the kernel sampled; return (its result, PassTiming)."""
        self._spent, self._runs = 0.0, 0
        self._sample()  # at least one sample, however short the call
        before = self._spent
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            t = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        own = elapsed - (self._spent - before)
        return result, PassTiming(elapsed, own, self._spent / self._runs)
