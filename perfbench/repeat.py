"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workload solve-k4 --seeds 1-10 [--seconds 20]
        [--out results.json]

Each run is a fresh interpreter, as the benchmark requires.  For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (upper minus lower quartile, as a share of the median),
next to the metric's bound from BENCHMARK.json.  ``--out`` writes every
run's environment and result line as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_lines(workload, seed, seconds, trace):
    """One run.py call in a fresh interpreter: its stdout lines, parsed."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in out.stdout.strip().splitlines()]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        print("== %s, seeds %s, %g s ==" % (workload, args.seeds, args.seconds))
        for seed in args.seeds:
            start = time.monotonic()
            lines = run_lines(workload, seed, args.seconds, args.trace)
            result = lines[-1]
            records.append({"seed": seed, "wall_s": time.monotonic() - start,
                            "lines": lines})
            print("  seed %-4d %5.1f s  correct %s  attempted %d  failed %d" % (
                seed, records[-1]["wall_s"], result["correct"], result["attempted"],
                result["failed"]), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            if name not in bounds or len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print("  %-18s median %-12.6g quartiles %.6g .. %.6g  spread %.3f  bound %.2f" % (
                name, med, q1, q3, (q3 - q1) / med, bounds[name]))
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
