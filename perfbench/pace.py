"""The host's speed, read from a fixed reference kernel between measurements.

The hosts this benchmark runs on are shared: the same code runs up to about
2x faster or slower from one run to the next, and every timed figure
follows.  So a run reads the host's pace between its measurement windows
(never during one) by timing :func:`reference_kernel`, which is fixed in the
benchmark and calls nothing of the program.  The run's times are then
scaled to what they would have been on a host that runs the kernel in
:data:`NOMINAL_S`, the way SPEC scores relate times to a reference machine.
A change to the program moves its times and not the kernel's, so it still
shows in full; a slow run of the host moves both and cancels.

The host switches between fast and slow states within a second, so one
reading is a sample of that state, not of a window's average speed.  The
scale is therefore taken once per phase, from the mean of all its readings.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Seconds one :func:`reference_kernel` call takes on the nominal host, a
#: round figure between the 13 and 25 ms it took on a shared 2-CPU x86-64
#: host in its fast and slow states; scaled figures read as on that host.
NOMINAL_S = 0.020
#: Kernel calls per reading.
CALLS = 3

_rng = np.random.default_rng(20241017)
_ACTIVATIONS = _rng.standard_normal((16, 65, 32))
_WEIGHTS = [_rng.standard_normal((32, 32)) / 8.0 for _ in range(4)]
_WORDS = _rng.integers(0, 2**63, size=(256, 64), dtype=np.uint64)


def reference_kernel() -> float:
    """The program's kind of work, in fixed code: small float attention
    layers, Bernoulli bit planes, packed-bit XOR and population counts, and
    an interpreted loop.  Returns a checksum so nothing is optimised away."""
    x = _ACTIVATIONS
    for weight in _WEIGHTS:
        scores = np.einsum("bid,bjd->bij", x @ weight, x)
        scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
        scores /= scores.sum(axis=-1, keepdims=True)
        x = np.tanh(scores @ x) + x
    flips = np.random.default_rng(7).random((256, 4096)) < 0.05
    words = _WORDS ^ np.packbits(flips, axis=1).view(np.uint64)
    for shift in range(1, 9):
        words = words ^ np.roll(words, shift, axis=1)
    total = int(np.bitwise_count(words).sum())
    for value in range(60000):
        total += value & 7
    return float(x.sum()) + total


class Pace:
    """Timed reference-kernel calls, a few between each pair of windows."""

    def __init__(self, calls: int = CALLS) -> None:
        self.calls = calls
        self.readings: List[float] = []
        reference_kernel()  # first call pays for imports and allocation

    def read(self) -> None:
        """Time the kernel ``calls`` times; keep each time."""
        for _ in range(self.calls):
            started = time.perf_counter()
            reference_kernel()
            self.readings.append(time.perf_counter() - started)

    def scale(self) -> float:
        """How much faster than nominal the host ran over the readings
        (< 1 on a slow host).  Multiply a time by it, divide a rate by it."""
        return NOMINAL_S / statistics.fmean(self.readings)
