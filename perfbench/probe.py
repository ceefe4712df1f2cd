"""Set-up probe: one fresh interpreter that imports the whole program.

    python3 perfbench/probe.py MODULE...   (with src/ on PYTHONPATH)

Times PROBE_SLICES reference slices, imports unipdec and each named
submodule of it, reads the system-wide monotonic clock and its own CPU
time, and times PROBE_SLICES slices again; prints one JSON line.  run.py
read the same clock just before it started this interpreter, so the
difference, less the slices before the import, is the wall time from
interpreter start to the end of the import; `cpu` is the CPU time of the
same span.  The slices on both sides of the import give the speed of the
machine while it ran.
"""

import sys
import time

from refslice import reference_slice, timed_slice, trimmed_mean

WARMUP_SLICES = 5
PROBE_SLICES = 30


def slices():
    for _ in range(WARMUP_SLICES):
        reference_slice()
    return [timed_slice() for _ in range(PROBE_SLICES)]


def main():
    wall0, cpu0 = time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time()
    before = slices()
    wall1, cpu1 = time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time()
    import unipdec
    for name in sys.argv[1:]:
        __import__("unipdec." + name)
    end, cpu_end = time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time()
    after = slices()

    import json  # after the clock: not part of the set-up
    print(json.dumps({"end": end - (wall1 - wall0), "cpu": cpu_end - (cpu1 - cpu0),
                      "slice_s": trimmed_mean([w for w, _ in before + after]),
                      "slice_cpu_s": trimmed_mean([c for _, c in before + after]),
                      "file": unipdec.__file__}))


if __name__ == "__main__":
    main()
