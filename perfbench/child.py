"""One fresh process: import unipdec from the checkout, run passes, report JSON.

    python3 perfbench/child.py --workload NAME --trace 0|1 [--spans FILE] < inputs.json

With --trace 0 it times a cold pass, notes the peak RSS so far, and then
times WARM_PASSES warm passes in the same process.  With --trace 1 it
installs the tracer, runs one traced cold pass and writes its spans to
--spans.  Either way the oracle checks every pass
afterwards, outside the timed region, and the last stdout line is a JSON
object.

Every untraced pass runs under the speed sampler (`timed_pass`): every
SLICE_INTERVAL_S a SIGALRM handler times one `reference_slice`
(perfbench/refslice.py), a fixed piece of pure-Python work that uses
nothing from unipdec.  The trimmed mean
slice time says how fast the machine ran this process during the pass, so
pass time / slice time is a measure of the pass's work that does not drift
with the load of other tenants of the machine.  The slices' own time is
subtracted from the pass time.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import signal
import statistics
import sys
import time

from refslice import reference_slice, timed_slice, trimmed_mean

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SLICE_INTERVAL_S = 0.025
# slices timed right before and right after each pass, so that a pass
# shorter than the interval still has a reference
EDGE_SLICES = 10
# warm passes per child, at least about 2 s of them on each workload on a
# 2-vCPU Xeon VM; the warm figures are their medians
WARM_PASSES = {"corpus-verify": 1, "table-checks": 2, "library-checks": 2}


def timed_pass(run, inputs, sample_inside=True):
    """Run one pass under the speed sampler.

    Returns (output or the exception raised, wall s, CPU s, slice wall s,
    slice CPU s), the slice times as trimmed means; the pass times exclude
    the slices taken inside it.  Traced passes take slices only before and
    after, so that span times do not include them.
    """
    slices = []

    def take_slice(*_):
        slices.append(timed_slice())

    for _ in range(EDGE_SLICES):
        take_slice()
    previous = signal.signal(signal.SIGALRM, take_slice)
    if sample_inside:
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S, SLICE_INTERVAL_S)
    try:
        n0 = len(slices)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = run(inputs)
        except Exception as exc:  # a pass that raises fails all its operations
            out = exc
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        inside = slices[n0:]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    for _ in range(EDGE_SLICES):
        take_slice()
    wall -= sum(w for w, _ in inside)
    cpu -= sum(c for _, c in inside)
    return (out, wall, cpu, trimmed_mean([w for w, _ in slices]),
            trimmed_mean([c for _, c in slices]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    inputs = json.load(sys.stdin)

    sys.path.insert(0, str(SRC))
    import unipdec
    if not pathlib.Path(unipdec.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported unipdec from {unipdec.__file__}, not from {SRC}")
    import tracer
    from workloads import WORKLOADS, Outcome

    run, check = WORKLOADS[args.workload]
    for _ in range(EDGE_SLICES):  # first calls pay one-off costs
        reference_slice()
    result = {}
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
        out, wall, cpu, ref, ref_cpu = timed_pass(run, inputs, sample_inside=False)
        tr.uninstall()
        outputs = [out]
        result["layers"] = tr.metrics()
        result["spans"] = len(tr.span_name)
        if args.spans:
            tr.write(args.spans, f"{args.workload}/pid{os.getpid()}")
    else:
        out, wall, cpu, ref, ref_cpu = timed_pass(run, inputs)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        warm = [timed_pass(run, inputs) for _ in range(WARM_PASSES[args.workload])]
        outputs = [out] + [p[0] for p in warm]
        result.update(warm_wall_s=statistics.median(p[1] for p in warm),
                      warm_wall_ref=statistics.median(p[1] / p[3] for p in warm),
                      peak_rss_mb=peak_rss / 1024)
    outcome = Outcome()
    for out in outputs:
        check(inputs, out, outcome)
    result.update(
        wall_s=wall, cpu_s=cpu, ref_s=ref, ref_cpu_s=ref_cpu,
        attempted=outcome.attempted, failed=outcome.failed, notes=outcome.notes,
        tsv_identical=outcome.tsv_identical,
        known_gap_raised=outcome.known_gap_raised // len(outputs))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
