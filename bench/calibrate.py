"""Reference kernel that tracks how fast the host runs at the moment.

On a shared host the speed available to one process drifts: other tenants
slow whole stretches of seconds by up to half, so two runs of identical work
minutes apart differ by 30-40 % in wall time.  The kernel below is a fixed
mix of interpreter work and small numpy/LAPACK calls, like the package's
own inner loops.  Timing it next to the measured work and scaling by
REFERENCE_MS / kernel time gives times "at reference speed": over 10 s
windows the scaled time of a fixed batch of solves varied by 4 % while its
wall time varied by 46 %.
"""

import statistics
import time

import numpy as np

# Scaled times read as milliseconds on a host where one kernel call takes
# this long (a 2-core x86 cloud VM runs it in 3.3-5 ms).
REFERENCE_MS = 3.5

# Kernel timings per speed estimate; they are 0.1 s apart.
WINDOW = 6

_A = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0], [1.5, 0.2, -0.7]])


def _kernel():
    x = np.array([0.1, 0.2, 0.3])
    s = 0.0
    for _ in range(150):
        y = _A @ x
        x = y / np.linalg.norm(y)
        w, *_ = np.linalg.lstsq(_A, x, rcond=None)
        s += float(w @ x) + sum(v * v for v in range(30))
    return s


def kernel_ms():
    """Wall time of one kernel call, in ms."""
    t = time.perf_counter()
    _kernel()
    return (time.perf_counter() - t) * 1000.0


class Clock:
    """Times ops and scales each by the host speed measured around it.

    The kernel runs between ops, at most once per ``every`` seconds of wall
    time, so it never sits inside an op's timing.
    """

    def __init__(self, run, every=0.1):
        self._run = run
        self.every = every
        self.kernel = [kernel_ms()]
        self.raw = []
        self._before = []
        self._last = time.perf_counter()

    def time(self, op):
        self._before.append(len(self.kernel) - 1)
        dt, out, err = self._run(op)
        self.raw.append(dt)
        return dt, out, err

    def tick(self):
        """Run the kernel if it is due; call between ops."""
        if time.perf_counter() - self._last >= self.every:
            self.kernel.append(kernel_ms())
            self._last = time.perf_counter()

    def scaled(self):
        """Every op's time at reference speed, in seconds.

        The speed around an op is the median of the WINDOW kernel timings
        nearest to it (about half a second), so a burst that hits one kernel
        call does not rescale the ops next to it.
        """
        if self._before and self._before[-1] + 1 == len(self.kernel):
            self.kernel.append(kernel_ms())
        half = WINDOW // 2
        speed = [
            statistics.median(self.kernel[max(0, i - half + 1) : i + half + 1])
            for i in range(len(self.kernel))
        ]
        return [t * REFERENCE_MS / speed[b] for b, t in zip(self._before, self.raw)]
