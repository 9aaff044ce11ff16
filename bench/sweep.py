#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 1-10 [--workloads mixed-points,...] [--out FILE]

For every workload it runs ``bench/run.py`` once per seed with tracing
off, then once with tracing on (first seed), one run at a time.  It
prints and optionally writes, per end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, next to the bound in BENCHMARK.json; per-layer metrics and
the failure counts come from the runs as they are.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, args.seconds, 0) for seed in args.seeds]
        traced, traced_detail = one_run(workload, args.seeds[0], args.seconds, 1)
        metrics = {name: summarise([r["metrics"][name]["value"] for r, _ in runs])
                   for name in bounds}
        report[workload] = {
            "seeds": args.seeds,
            "correct": [r["correct"] for r, _ in runs],
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "failures_first_seed": runs[0][1]["failures"],
            "tail": {k: runs[0][1]["latency"][k] for k in ("tail_pct", "beyond", "samples")},
            "end_to_end": metrics,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_failures": traced_detail["failures"],
        }
        print(f"{workload}: correct {report[workload]['correct']}, "
              f"failed/attempted {sum(report[workload]['failed'])}/"
              f"{sum(report[workload]['attempted'])}")
        for name, s in metrics.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:18s} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
