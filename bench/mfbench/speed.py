"""Normalisation of timings to a fixed machine speed.

On a shared machine the speed of one core moves with the load of the other
tenants: the same op was measured at 600 us and at 1000 us a minute apart, and
CPU time moves with wall time, so the process is slowed, not descheduled.
Raw times then compare two commits only when both ran in the same minute.

So every batch of ops (10-30 ms of work) lies between two runs of a
calibration kernel that does not touch mfsar: exact ``Fraction`` sums, which
is interpreter, big-integer and allocator work like most of mfsar's.
:func:`factor` is ``NOMINAL_NS`` / kernel time, and the batch's raw times are
multiplied by the mean of the factors before and after it.  That gives the
time on a machine where the kernel takes ``NOMINAL_NS``.  Over 40 s of load
swings that moved raw op times by up to 67 %, this kernel kept the normalised
4 s medians of the dual-stream, echo-chain and config-sweep ops within 1-3 %
(quartile spread).  A numpy FFT kernel tracked the swings worse, on the
FFT-heavy echo-chain too.  The raw times are kept in the run record.

Import work does not follow this kernel, so set-up time has its own
yardstick: numpy's import time in a fresh process, scaled to
``NUMPY_IMPORT_S``.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

NOMINAL_NS = 200_000       # kernel time of the reference machine
NUMPY_IMPORT_S = 0.15      # numpy's import time on the reference machine
SAMPLES = 3


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i, i + 1)
    return total


def factor() -> float:
    """Multiplier from raw time now to time on the reference machine.

    The garbage collector is paused so that the size of the program's heap
    does not enter the kernel's time.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SAMPLES):
            start = time.perf_counter_ns()
            kernel()
            times.append(time.perf_counter_ns() - start)
    finally:
        if enabled:
            gc.enable()
    return NOMINAL_NS / statistics.median(times)
