"""The reference slice: a fixed piece of work that measures the machine.

Imports nothing but `gc`, `time` and `fractions` (which unipdec imports as
well), so that probe.py can time slices before it imports unipdec.
"""

import gc
import time
from fractions import Fraction

# share of the slice times dropped at each end before averaging them: one
# slice that a preemption or a page fault stretched should not set the speed
TRIM_SHARE = 0.1
_OPERANDS = [Fraction(i + 1, 7) for i in range(16)]


def reference_slice():
    """Exact Fraction products summed into a dict: the kind of work unipdec's
    hot paths do.  About 1 ms on a 2-vCPU Xeon VM with Python 3.11."""
    acc = {}
    for i, x in enumerate(_OPERANDS):
        for j, y in enumerate(_OPERANDS):
            k = (i + j) % 5
            acc[k] = acc.get(k, 0) + x * y
    return acc


def timed_slice():
    """(wall s, CPU s) of one reference slice.  The collector is off during
    the slice, so that collections over unipdec's heap fall in the pass's
    time and not in the slice's."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        reference_slice()
        return time.perf_counter() - w0, time.process_time() - c0
    finally:
        if was_enabled:
            gc.enable()


def trimmed_mean(values, share=TRIM_SHARE):
    """Mean of the values without the lowest and highest `share` of them."""
    values = sorted(values)
    k = int(len(values) * share)
    kept = values[k:len(values) - k]
    return sum(kept) / len(kept)
