"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads all --seeds 1-10 --seconds 30 \
        [--trace 0|1] [--out perfbench/baseline.json]

For every workload and metric it prints the median over the runs and the
spread: (q3 - q1) / median, with the quartiles of statistics.quantiles(n=4),
next to the metric's bound from BENCHMARK.json.  With --out it writes the
same figures, and the run-level values, as JSON.  Runs are sequential, one
run.py process at a time.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = ([w["name"] for w in bench["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    section = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in section}
    report = {}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in bounds and bounds[k] is not None),
                  flush=True)
        figures = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            figures[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "unit": runs[0]["metrics"][metric]["unit"]}
            bound = bounds.get(metric)
            if bound is not None:
                flag = "ok" if spread < bound / 3 else "WIDE"
                print(f"{name:15s} {metric:14s} median {med:10.4f}  spread {spread:6.3f}  "
                      f"bound {bound}  {flag}", flush=True)
        report[name] = {"figures": figures, "runs": runs}
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "seeds": args.seeds, "trace": args.trace,
             "workloads": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
