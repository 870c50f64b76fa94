"""Fixed reference kernels that measure how fast the host runs right now.

On a shared host the speed of the CPU a process gets changes by up to
about 40% for seconds to minutes at a time, and the process's CPU time
changes with it (the slowdown is not steal time).  A worker pass times its
workload's kernel between its configs and, from a timer signal, every
``PERIOD_S`` seconds while a config runs (that time is taken out of the
config's wall time).  It scales its times by the kernel's reference time
(its median on the host the benchmark was built on, in ``KERNELS``) over
its median time in the pass: the result is the time the pass would have
taken on that host.  The
kernels are part of the benchmark, not of feynlab, so a change to feynlab
cannot change them; only the host's speed moves them.

Interpreter-bound and memory-bound code slow down by different amounts, so
there are two kernels, and each workload names the one whose speed
follows its own: ``interp`` (interpreted arithmetic, numpy calls on small
arrays, n-d FFTs, float formatting into CSV rows) and ``arrays``
(elementwise numpy on arrays larger than the caches).

    python3 -m perfbench.calibrate      # median kernel times on this host
"""

from __future__ import annotations

import csv
import io
import signal
import statistics
import sys
import time

import numpy as np

PERIOD_S = 0.5  # a kernel sample every half second of run time: 5% more time

_RNG = np.random.default_rng(0)
_FIELD = _RNG.standard_normal((128, 128))
_SMALL = _RNG.standard_normal(8)
_LATTICE = _RNG.random(400_000) + 0.5


def _interp() -> float:
    """Interpreter-bound work, as in the ray steps and the artifact writers."""
    acc = 0
    for k in range(60_000):  # interpreted arithmetic
        acc += k * k % 7
    y = _SMALL.copy()
    for _ in range(900):  # numpy call overhead on small arrays
        y = 0.5 * (y + np.sin(y)) + 1e-3 * np.dot(y, y)
    f = _FIELD
    for _ in range(9):  # n-d transforms
        f = np.fft.ifft2(np.fft.fft2(f)).real
    buf = io.StringIO()  # float formatting, as the artifact writers do
    csv.writer(buf).writerows(
        (i, j, repr(0.123456789 * i), repr(1.5e-3 * j)) for i in range(48) for j in range(64)
    )
    return acc + float(y[0]) + float(f[0, 0]) + len(buf.getvalue())


def _arrays() -> float:
    """Elementwise numpy on arrays larger than the caches, as in lattice sums."""
    x = _LATTICE
    for _ in range(5):
        x = np.sqrt(x * x + 1.0) ** 1.3 / np.maximum(x, 0.7)
    return float(x[0])


# name: (kernel, its median seconds on the host the benchmark was built on,
# a 2-vCPU VM with an Intel Xeon, Python 3.11 and numpy 2.4).  The second
# value only sets the scale of the reported seconds.
KERNELS = {"interp": (_interp, 0.025), "arrays": (_arrays, 0.02)}


def sample(kernel: str) -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    KERNELS[kernel][0]()
    return time.perf_counter() - start


def warm() -> None:
    """Run the kernels once untimed, so no sample pays first-call costs."""
    for fn, _ in KERNELS.values():
        fn()


class HostSampler:
    """Kernel times of one pass.  ``take()`` times every kernel; while
    ``timing(True)`` is in force, SIGALRM also times the workload's kernel
    every ``period`` seconds, and ``spent`` adds up the time those samples
    took, to be taken out of the timed span."""

    def __init__(self, kernel: str, period: float | None):
        self.kernel = kernel
        self.period = period
        self.samples: dict = {name: [] for name in KERNELS}
        self.spent = 0.0
        self._active = False
        self._old = None

    def take(self) -> None:
        for name in KERNELS:
            self.samples[name].append(sample(name))

    def _tick(self, signum, frame) -> None:
        if self._active:
            start = time.perf_counter()
            self.samples[self.kernel].append(sample(self.kernel))
            self.spent += time.perf_counter() - start

    def __enter__(self):
        if self.period:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)

    def timing(self, on: bool) -> None:
        self._active = on

    def scale(self, kernel: str | None = None) -> float:
        """The factor that takes times to the reference host speed, by the
        workload's kernel or by the one named."""
        name = kernel or self.kernel
        return KERNELS[name][1] / statistics.median(self.samples[name])


def main() -> int:
    warm()
    for name in KERNELS:
        times = [sample(name) for _ in range(40)]
        q = statistics.quantiles(times, n=4)
        print(f"{name}: median {statistics.median(times) * 1e3:.2f} ms, "
              f"quartiles {q[0] * 1e3:.2f}-{q[2] * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
