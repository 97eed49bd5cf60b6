"""A clock that reads in reference-seconds.

The benchmark shares its processor with other tenants, and their load
changes how fast the same code runs by up to 1.8x, in phases that last
from about a second to several minutes. Raw wall times of one workload
spread by 20-50% between runs, so the benchmark times everything with
this clock instead. While it runs, a timer signal every SAMPLE_EVERY_S
times a small fixed kernel of interpreter work and small numpy calls (no
ltvadapt code); the clock advances by wall time scaled by
NOMINAL_KERNEL_S / (kernel time), the scale interpolated linearly between
samples. A reading therefore measures work in units of the kernel,
expressed in the seconds it takes when the kernel runs at its nominal
speed. The time spent on the kernel itself is not counted.
"""

import signal
import time

import numpy as np

SAMPLE_EVERY_S = 0.025
KERNEL_REPS = 60
# best duration of one kernel sample on an uncontended 2.1 GHz Xeon vCPU
# (Python 3.11, numpy 2.4); it only fixes the scale of every reading
NOMINAL_KERNEL_S = 4.5e-4

_M = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 3.0]])


def kernel_seconds():
    """Wall time of the reference kernel, the faster of two repeats."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(KERNEL_REPS):
            acc += float(np.linalg.eigvalsh(_M + i * 1e-3)[0])
            acc += sum(j * 0.5 for j in range(20))
        best = min(best, time.perf_counter() - t0)
    return best


class RefClock:
    """Callable clock in reference-seconds; sampling runs inside `with`.

    `sample` only appends to a list, so a signal that arrives in the
    middle of a reading cannot corrupt it: the reading folds in the
    samples taken before its own wall time and leaves later ones for the
    next reading.
    """

    def __init__(self, wall=time.perf_counter, kernel=kernel_seconds):
        self._wall = wall
        self._kernel = kernel
        self._samples = []  # (wall before, wall after, rate)
        self._seen = 0
        self._total = 0.0
        self._rate = NOMINAL_KERNEL_S / kernel()
        self._last = wall()
        self._saved = None
        self._sampling = False

    def sample(self):
        if self._sampling:  # a signal that arrived during a sample
            return
        self._sampling = True
        t0 = self._wall()
        rate = NOMINAL_KERNEL_S / self._kernel()
        self._samples.append((t0, self._wall(), rate))
        self._sampling = False

    def __call__(self):
        t = self._wall()
        while self._seen < len(self._samples) and \
                self._samples[self._seen][0] <= t:
            t0, t1, rate = self._samples[self._seen]
            self._total += (t0 - self._last) * 0.5 * (self._rate + rate)
            self._rate, self._last = rate, t1
            self._seen += 1
        self._total += (t - self._last) * self._rate
        self._last = t
        return self._total

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM,
                                    lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False
