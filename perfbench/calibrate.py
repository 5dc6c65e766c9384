"""A fixed calibration computation that measures how fast the host runs right now.

The host this benchmark runs on is shared: the same code runs up to 1.8x
slower for stretches of tens of seconds to minutes, depending on what else
the machine is doing.  Timing this computation alongside the operations and
dividing by it cancels that drift, so the gated operation time reflects the
program's own cost.

The computation never touches slabwald, so no change to the program can
change it.  Its three parts mimic the kinds of work slabwald's layers do:
many numpy calls on particle-sized arrays (the ELC mode loop), complex
exponentials on mid-sized arrays (the reciprocal sum) and a special function
streamed over an array larger than the caches (the dense real-space sum).
Its large arrays are allocated once, so its memory is fixed and can be
subtracted from the peak; the two results are released to the kernel before
each use and faulted in afresh, as the program's fresh temporaries are.
"""

from __future__ import annotations

import mmap
import time

import numpy as np
from scipy.special import erfc


class Calibration:
    """The calibration computation, with its arrays allocated once."""

    def __init__(self):
        rng = np.random.default_rng(20250318)
        self._small = rng.random(39)
        self._mid = rng.random(40_000)
        self._mid_out = np.empty(self._mid.shape, dtype=complex)
        self._big = rng.random(5_000_000) + 0.1      # 40 MB
        self._maps = [mmap.mmap(-1, self._big.nbytes) for _ in range(2)]
        self._big_out = [np.frombuffer(m, dtype=float) for m in self._maps]

    @property
    def nbytes(self) -> int:
        """Memory the calibration keeps resident while a run measures."""
        return sum(a.nbytes for a in (self._small, self._mid, self._mid_out,
                                       self._big, *self._big_out))

    def work(self) -> float:
        """The computation itself; returns a checksum so nothing is skipped."""
        total = 0.0
        small = self._small
        for i in range(2000):
            total += float(np.sum(small * np.exp(-small * (i % 7))))
        for i in range(20):
            np.multiply(self._mid, 1j * i, out=self._mid_out)
            np.exp(self._mid_out, out=self._mid_out)
            total += float(self._mid_out.real.sum())
        for m in self._maps:
            m.madvise(mmap.MADV_DONTNEED)
        phi, ratio = self._big_out
        erfc(self._big, out=phi)
        np.divide(phi, self._big, out=ratio)
        total += float(ratio.sum())
        return total

    def seconds(self) -> float:
        """Wall time of one calibration computation."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0
