"""A fixed reference loop that measures how fast the machine is right now.

The benchmark runs on a few cores of a shared host whose speed swung by
up to a third between runs a few minutes apart: the same seed's
`codec-ladder` run read 1.70 kpx/s once and 2.31 kpx/s later, and
`train` runs moved between 240 and 300 ms per step.  A run's median
cannot average out a swing that lasts longer than the run.  So an
end-to-end run also times this loop between requests, off the timed
path, and reports its timings scaled to a machine on which the loop
takes `NOMINAL_S`: each time is multiplied by `NOMINAL_S` over the
loop's median time in that run.  The loop uses no flowcodec code, so a
change to the package moves the scaled figures as much as the raw ones.

The loop mixes the kinds of work the workloads do: small-array numpy
calls (per-element frequency tables), an interpreted integer loop (range
coding), a matrix product (im2col convolution) and elementwise
transcendentals on a larger array (activations and their gradients).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Scaled timings are those of a machine on which one loop takes this
# long.  It is the loop's typical median on the 2-vCPU virtual machine
# the benchmark was sized on (143 to 197 ms over eleven runs), so scaled
# and unscaled figures read alike there.
NOMINAL_S = 0.18
# Share of a run's time spent in the loop.
SHARE = 0.1


class Reference:
    """Samples of the loop's time, spread over a run in proportion to
    its elapsed time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.probs = rng.random(120) + 0.01
        self.cols = rng.random((1024, 144))
        self.weights = rng.random((144, 16))
        self.acts = rng.random(65536)
        self.loop()  # the first matrix product sets up BLAS; not a sample
        self.samples: list[float] = []
        self.spent = 0.0
        self.start = time.perf_counter()

    def loop(self) -> float:
        """Seconds one pass of the fixed work takes."""
        start = time.perf_counter()
        budget = 65000
        for _ in range(4500):
            p = self.probs / self.probs.sum()
            ideal = p * budget
            base = np.floor(ideal)
            counts = base.astype(np.uint32) + 1
            order = np.argsort(base - ideal, kind="stable")
            counts[order[: budget - int(base.sum())]] += 1
        acc, table = 1, list(range(257))
        for _ in range(40000):
            lo, hi, x = 0, 256, (acc >> 7) & 255
            while hi - lo > 1:
                mid = (lo + hi) >> 1
                if table[mid] <= x:
                    lo = mid
                else:
                    hi = mid
            acc = (acc * 1103515245 + 12345 + lo) & 0x7FFFFFFF
        for _ in range(250):
            self.cols @ self.weights
        for _ in range(60):
            np.exp(-self.acts) * self.acts + 1.0 / (1.0 + self.acts)
        return time.perf_counter() - start

    def keep_up(self) -> None:
        """Sample until the loop has had its share of the run so far."""
        while self.spent <= SHARE * (time.perf_counter() - self.start):
            seconds = self.loop()
            self.samples.append(seconds)
            self.spent += seconds

    @property
    def scale(self) -> float:
        """Factor that turns this run's seconds into nominal seconds."""
        if not self.samples:
            self.keep_up()
        return NOMINAL_S / statistics.median(self.samples)
