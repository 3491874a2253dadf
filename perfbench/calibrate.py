"""Machine-speed calibration for the reported times.

The reference machine (a 2-vCPU VM on a shared host) changes speed from
one second to the next as neighbours load the host, and stays fast or
slow for minutes at a time: over 35 back-to-back passes of the same 100
C-off sessions, the total time's spread (IQR over median) was 17%.  That
swamps the differences the benchmark exists to show.

So every run interleaves a fixed kernel with its sessions and scales each
reported time by ``REFERENCE_S`` over the kernel's mean time in that run.
Times are therefore in milliseconds of a machine on which the kernel
takes ``REFERENCE_S``.  The kernel is the kind of NumPy work the
question-selection layers spend their time in (row-unique over small
int8 code matrices, weighted bincounts, argsorts), because the host's
slow state hurts that work more than pure interpreter work: on those 35
passes, scaling by this kernel cut the spread to 2.6% (median session
6.4%), against 4.3% (7.8%) with a Python-loop kernel.  The kernel is part
of the benchmark, not of the program, so no change to the program moves
it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Kernel seconds on the reference machine in its slower state.
REFERENCE_S = 0.0055

_RNG = np.random.default_rng(0)
_CODES = _RNG.integers(-1, 2, (3000, 6)).astype(np.int8)
_VALUES = _RNG.random(1 << 19)
_INDEX = _RNG.integers(0, 1 << 19, 1 << 16)


def kernel_seconds() -> float:
    """Time one run of the fixed calibration kernel."""
    start = time.perf_counter()
    np.unique(_CODES, axis=0, return_inverse=True)
    np.bincount(_INDEX & 4095, weights=_VALUES[: _INDEX.size])
    np.argsort(-_VALUES[:20000])
    return time.perf_counter() - start


class Speed:
    """Kernel samples taken through one run.

    ``spent_s`` and ``spent_cpu_s`` total the wall and CPU time the
    samples took, for subtracting from a window that contains them.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def sample(self) -> None:
        cpu = time.process_time()
        seconds = kernel_seconds()
        self.spent_cpu_s += time.process_time() - cpu
        self.spent_s += seconds
        self.samples.append(seconds)

    @property
    def scale(self) -> float:
        """Factor turning this run's seconds into reference seconds.

        Uses the mean kernel time, not the median: the host flips between
        fast and slow states, a run's total time follows the mean of the
        two, and the median jumps to whichever held more samples.  The
        slowest 5% of samples (interrupted kernels) are dropped first.
        """
        kept = sorted(self.samples)[: max(1, int(len(self.samples) * 0.95))]
        return REFERENCE_S / statistics.fmean(kept)
