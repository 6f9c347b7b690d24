"""Times at a reference machine speed.

The machine this benchmark was built on shares its cores: for tens of
seconds at a time the same code runs up to 1.8 times slower or 1.3 times
faster, so raw wall times of two runs minutes apart are not comparable.
Every reported time is therefore scaled by ``reference / measured``, where
``measured`` is the running median time of a fixed calibration kernel run
next to the operations, and ``reference`` is that kernel's time at the
machine's usual speed.  Each operation is scaled by the kernel of its own
kind.  The kernels use no code of the program, so a faster program shows
as a faster time, and they are written to slow down the way the program's
code does: the Python kernel walks an iterated-log chain over a geometric
grid like the classifiers; the two numpy kernels step SplitMix64 streams
through a threshold table like the walk simulator, one as wide as its wide
runs and one as narrow as its narrow ones; and, since none of those follows
the start-up of a child process, CLI calls are scaled by a fresh
interpreter that imports numpy and mpmath, sampled after every call.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time


def python_kernel() -> float:
    acc, best = 0.0, 0.0
    for i in range(400):
        n = int(math.exp(4.6 + 11.5 * i / 399))
        for depth in (1, 2, 3):
            v, p = float(n), 1.0
            for _ in range(depth):
                v = math.log(v)
                p *= v
            if v > 0.0:
                s = (1.0 / n + acc * 1e-9) * p
                best = max(best, s)
                acc += s
    return best


def numpy_kernel(paths: int, steps: int):
    import numpy as np

    gamma = np.uint64(0x9E3779B97F4A7C15)
    m1, m2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
    thresholds = np.arange(1, 5000, dtype=np.uint64) * np.uint64(1 << 40)
    state = np.arange(1, paths + 1, dtype=np.uint64) * gamma
    pos = np.ones(paths, dtype=np.int64)
    top = np.ones(paths, dtype=np.int64)
    returned = np.zeros(paths, dtype=bool)
    for _ in range(steps):
        state += gamma
        z = state.copy()
        z ^= z >> np.uint64(30)
        z *= m1
        z ^= z >> np.uint64(27)
        z *= m2
        z ^= z >> np.uint64(31)
        up = (z >> np.uint64(11)) < thresholds[pos]
        pos += np.where(up, 1, -1)
        new = (pos == 0) & ~returned
        if new.any():
            returned |= new
        np.maximum(pos, 1, out=pos)
        np.maximum(top, pos, out=top)
    return top


def startup_kernel():
    """A fresh interpreter importing the program's dependencies, not the program."""
    subprocess.run([sys.executable, "-c", "import numpy, mpmath"], check=True, timeout=60)


# name: (kernel, passes per sample, seconds per pass at the usual speed of the
# reference machine with 2 vCPUs, seconds of operations between samples)
KERNELS = {
    "python": (python_kernel, 2, 1.70e-3, 0.1),
    "numpy-wide": (lambda: numpy_kernel(1500, 100), 2, 4.0e-3, 0.1),
    "numpy-narrow": (lambda: numpy_kernel(200, 200), 2, 5.0e-3, 0.1),
    "startup": (startup_kernel, 1, 0.27, 0.0),
}
WINDOW = 3  # samples in the running median


def kernel_seconds(name: str) -> float:
    """The fastest of the passes of one sample, so that one preemption does not count."""
    kernel, passes = KERNELS[name][:2]
    best = math.inf
    for _ in range(passes):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedClock:
    """Turns raw operation times into times at the reference speed.

    Operations are added as they finish, with their index in the run.  Once
    a segment's worth of them has run, the kernel is sampled, and they are
    scaled by the reference time over the median of the last ``WINDOW``
    samples (speed shifts last seconds, single samples can be off), into
    ``out[index]``.
    """

    def __init__(self, kernel: str, out: dict[int, float]):
        self.kernel = kernel
        self.reference, self.segment = KERNELS[kernel][2:]
        self.samples = [kernel_seconds(kernel)]
        self.last = time.perf_counter()
        self.pending: list[tuple[int, float]] = []
        self.out = out

    def add(self, index: int, raw_seconds: float) -> None:
        self.pending.append((index, raw_seconds))
        if time.perf_counter() - self.last >= self.segment:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        self.samples.append(kernel_seconds(self.kernel))
        factor = self.reference / statistics.median(self.samples[-WINDOW:])
        for index, raw in self.pending:
            self.out[index] = raw * factor
        self.pending = []
        self.last = time.perf_counter()


def median_kernel_seconds(name: str, repeats: int = 3) -> float:
    return statistics.median(kernel_seconds(name) for _ in range(repeats))
