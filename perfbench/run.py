"""unipdec benchmark: run a workload for a fixed time, check it, print metrics.

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from anywhere; it uses the `src/unipdec` next to this directory and
nothing installed.  Load is a closed loop with one client: one fresh child
process at a time (perfbench/child.py), the next started when the previous
one has exited, until --seconds have passed (and at least MIN_CHILDREN
have run).  `setup_s` is timed on fresh interpreters that only import
every module of unipdec (perfbench/probe.py), SETUP_PER_CHILD of them
before each untraced child, and reported at the reference speed.

--trace 0 reports the end-to-end metrics: medians over the children of a
cold pass (`wall_ref`, `cpu_ref`), of the warm passes that follow in the
same process (`warm_wall_ref`) and of the child's peak RSS.  Pass times are in units of
the reference slice that child.py times during each pass; raw seconds are
printed too.  --trace 1 alternates untraced and traced children and
reports the per-layer metrics of the traced cold passes, plus the tracing
overhead.  Every pass is checked by the oracle in perfbench/workloads.py;
the last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import inputs as workload_inputs
import tracer

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_CHILDREN = 3
# with --trace 1: at least this many traced and this many untraced children
MIN_TRACED = 2
# setup_s is sampled before every untraced child, so that its median spans
# the whole run rather than the speed of the machine in one second
SETUP_SAMPLES = 12
SETUP_PER_CHILD = 4
CHILD_TIMEOUT_S = 90
# setup_s is the set-up CPU time in reference slices times this: seconds at
# a speed of one slice per millisecond, near that of a 2-vCPU Xeon VM
REF_SLICE_S = 0.001
# no new child is started after this long, whatever --seconds says, so a
# run ends within 180 s even if a child hangs until CHILD_TIMEOUT_S
LOOP_CAP_S = 60

# name -> (unit, child field, reference field or None)
END_TO_END = {
    "setup_s": ("s", None, None),
    "wall_ref": ("slices", "wall_s", "ref_s"),
    "cpu_ref": ("slices", "cpu_s", "ref_cpu_s"),
    "warm_wall_ref": ("slices", "warm_wall_ref", None),
    "peak_rss_mb": ("MB", "peak_rss_mb", None),
}
# raw seconds, printed and reported as e2e.* per-layer metrics but not gated
RAW_TIMES = ("wall_s", "cpu_s", "warm_wall_s", "ref_s")
EXTRA_LAYERS = (("cli.verify.tsv_identical", "flag"), ("hc.known_gap.raised", "count"),
                ("oracle.failed_ratio", "ratio"), ("trace.wall_s", "s"),
                ("trace.overhead_s", "s"), ("trace.spans", "count"),
                ("e2e.wall_s", "s"), ("e2e.cpu_s", "s"), ("e2e.warm_wall_s", "s"),
                ("e2e.ref_s", "s"))


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup():
    """Set-up of one fresh interpreter that imports every module of unipdec:
    (wall s, CPU s at the reference speed) from interpreter start to the end
    of the import.  The second is the probe's CPU time up to then in units
    of the CPU time of a reference slice, timed on both sides of the
    import, times REF_SLICE_S: CPU time does not count the time the probe waits for
    a core, and the slices take out the speed of the core."""
    modules = sorted(p.stem for p in (SRC / "unipdec").glob("*.py") if p.stem != "__init__")
    probe = [sys.executable, str(ROOT / "perfbench" / "probe.py"), *modules]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(probe, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"import unipdec from {SRC} failed:\n"
                         + proc.stderr.decode(errors="replace")[-2000:])
    result = json.loads(lines[-1])
    if not pathlib.Path(result["file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported unipdec from {result['file']}, not from {SRC}")
    return result["end"] - start, result["cpu"] / result["slice_cpu_s"] * REF_SLICE_S


def run_child(workload, payload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
           "--workload", workload, "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}.tsv")]
    proc = subprocess.Popen(cmd, env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(payload.encode(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: child ran longer than {CHILD_TIMEOUT_S} s")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited {proc.returncode}:\n"
                         + err.decode(errors="replace")[-2000:])
    return json.loads(lines[-1])


def summary(values):
    """(median, q1, q3, n) of a list of numbers."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def end_to_end(workload, setup, plain):
    """End-to-end metrics of the untraced children, with report lines."""
    metrics, lines = {}, []
    for name, (unit, field, ref) in END_TO_END.items():
        if field is None:
            values = [norm for _, norm in setup]
        elif ref is None:
            values = [c[field] for c in plain]
        else:
            values = [c[field] / c[ref] for c in plain]
        med, q1, q3, n = summary(values)
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"{workload:15s} {name:14s} {med:10.4f} {unit:6s} "
                     f"(median; q1 {q1:.4f}, q3 {q3:.4f}; n={n})")
    raw = {name: [c[name] for c in plain] for name in RAW_TIMES}
    raw["setup_raw_s"] = [r for r, _ in setup]
    for name, values in raw.items():
        med, q1, q3, n = summary(values)
        lines.append(f"{workload:15s} {name:14s} {med:10.4f} s      "
                     f"(median; q1 {q1:.4f}, q3 {q3:.4f}; n={n}; not gated)")
    return metrics, lines


def per_layer(workload, plain, traced, attempted, failed):
    """Per-layer metrics of the traced children, with report lines."""
    metrics, lines = {}, []
    for name, unit in tracer.metric_names():
        # counts must repeat exactly (checked below); times are medians
        value = (traced[0]["layers"][name] if unit == "count"
                 else statistics.median(t["layers"][name] for t in traced))
        metrics[name] = {"value": value, "unit": unit}
    for t in traced[1:]:
        for name, unit in tracer.metric_names():
            if unit == "count" and t["layers"][name] != metrics[name]["value"]:
                lines.append(f"{workload}: warning: {name} differs between traced "
                             f"children: {metrics[name]['value']} vs {t['layers'][name]}")
    # the overhead compares different children, so both sides are first put
    # in slices and the difference is converted back at the untraced speed
    ref = statistics.median(c["ref_s"] for c in plain)
    overhead = ref * (statistics.median(t["wall_s"] / t["ref_s"] for t in traced)
                      - statistics.median(c["wall_s"] / c["ref_s"] for c in plain))
    extra = {
        "cli.verify.tsv_identical": min(c["tsv_identical"] for c in plain + traced),
        "hc.known_gap.raised": traced[0]["known_gap_raised"],
        "oracle.failed_ratio": failed / attempted,
        "trace.wall_s": statistics.median(t["wall_s"] for t in traced),
        "trace.overhead_s": overhead,
        "trace.spans": traced[0]["spans"],
    }
    for name in RAW_TIMES:
        extra["e2e." + name] = statistics.median(c[name] for c in plain)
    for name, unit in EXTRA_LAYERS:
        metrics[name] = {"value": extra[name], "unit": unit}
    for name, m in metrics.items():
        lines.append(f"{workload:15s} {name:40s} {m['value']:14.6g} {m['unit']}")
    return metrics, lines


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (correct, attempted, failed, metrics, report lines)."""
    payload = json.dumps(workload_inputs.make_inputs(workload, seed))
    time_setup()  # writes the bytecode cache; not timed
    setup, plain, traced = [], [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACED
        else:
            enough = len(plain) >= MIN_CHILDREN and len(setup) >= SETUP_SAMPLES
        if elapsed >= LOOP_CAP_S or (enough and elapsed >= seconds):
            break
        if trace and len(traced) < len(plain):
            traced.append(run_child(workload, payload, 1))
        else:
            if not trace:
                setup += [time_setup() for _ in range(SETUP_PER_CHILD)]
            plain.append(run_child(workload, payload, 0))
    children = plain + traced
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    if trace:
        metrics, lines = per_layer(workload, plain, traced, attempted, failed)
    else:
        metrics, lines = end_to_end(workload, setup, plain)
    notes = [f"{workload}: failed: {note}" for c in children for note in c["notes"]]
    lines = notes + lines
    lines.append(f"{workload:15s} operations: {attempted} attempted, {failed} failed, "
                 f"over {len(children)} children ({len(traced)} traced)")
    return failed == 0, attempted, failed, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workload_inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unipdec" / "__init__.py").is_file():
        print(f"error: no unipdec package at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = workload_inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, fail, met, lines = run_workload(name, args.seed, args.seconds,
                                                     args.trace)
            print("\n".join(lines), flush=True)
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
            if len(names) == 1:
                metrics = met
            else:
                metrics.update({f"{name}.{k}": v for k, v in met.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
