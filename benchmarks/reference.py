"""A fixed reference computation, timed beside each workload to gauge the host.

On a shared host the speed of a core drifts with what other tenants run:
on a 2-vCPU Xeon VM the same train-desk step took 27 ms of CPU time for
a few seconds, then 35 ms, then 27 ms again, and run medians minutes
apart spread by up to a third. Right after each timed piece of work (a
batch, a set-up) ``follow`` runs reference units for about ``SHARE`` of
its CPU time, so they find the host as the work did. The work's time
divided by theirs moves much less than either: over ten runs per
workload, where the raw CPU medians spread 0.07-0.26 (quartile distance
over median), the ratios spread 0.03-0.07. In some stretches the host
slows one more than the other, and the ratio spread up to 0.14.

The unit mixes what the workloads spend their time on: BLAS matmuls, a
shifted multiply-accumulate over an EEG-shaped array, elementwise
arithmetic, numpy calls on small arrays and Python calls through small
closures. Its inputs are fixed, not drawn from the workload seed, and it
does not change with the program, so a change to the program moves only
the numerator.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

SHARE = 0.125
# a unit's CPU time on an idle 2-vCPU Xeon VM (numpy 2.4, OpenBLAS 0.3.31);
# it converts set-up time from reference units back to seconds
NOMINAL_UNIT_MS = 1.2


class Reference:
    """Runs reference units after each piece of work and keeps their CPU times.

    ``aside(fn)`` calls ``fn``; a traced run passes one that keeps the
    units' time out of the spans open around them.
    """

    def __init__(self, aside=None):
        self.aside = aside or (lambda fn: fn())
        rng = np.random.default_rng(20240917)
        self.tokens = rng.standard_normal((32 * 17, 64))
        self.weight = rng.standard_normal((64, 128))
        self.signal = rng.standard_normal((8, 17, 250))
        self.taps = rng.standard_normal((8, 17, 5))
        self.small = rng.standard_normal((3, 32, 16))
        self.cpu_ms: list[float] = []
        self.checksum: float | None = None

    def unit(self) -> float:
        hidden = self.tokens @ self.weight
        hidden = np.maximum(hidden, 0.0) * 0.5 + hidden
        acc = float((hidden.T @ self.tokens)[0, 0])
        width = self.signal.shape[-1] - self.taps.shape[-1] + 1
        mixed = np.zeros(self.signal.shape[:2] + (width,))
        for j in range(self.taps.shape[-1]):
            mixed += self.signal[:, :, j:j + width] * self.taps[:, :, j:j + 1]
        acc += float(np.tanh(mixed).sum())
        a, b, c = self.small
        for _ in range(10):
            acc += float((np.exp(-(a * b + c)) @ c.T).sum(axis=0)[0])
        closures = [lambda g, i=i: g * i for i in range(100)]
        acc += sum(f(1.0) for f in closures)
        return acc

    def follow(self, work_cpu_ms: float) -> float:
        """Run units for SHARE of one piece of work's CPU time (one at least); their mean ms.

        Called right after the work, so the units find the host as the
        work did.
        """
        return self.aside(lambda: self._run_units(work_cpu_ms))

    def _run_units(self, work_cpu_ms: float) -> float:
        spent = []
        while not spent or sum(spent) < SHARE * work_cpu_ms:
            start = time.process_time()
            value = self.unit()
            spent.append(1000.0 * (time.process_time() - start))
            if self.checksum is None:
                self.checksum = value
            elif value != self.checksum:
                raise RuntimeError(f"reference unit gave {value!r}, not {self.checksum!r}")
        self.cpu_ms.extend(spent)
        return sum(spent) / len(spent)

    def median_ms(self) -> float:
        return statistics.median(self.cpu_ms) if self.cpu_ms else float("nan")
