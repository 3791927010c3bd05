"""Human-readable report: every end-to-end metric and the per-layer table.

    python3 perfbench/report.py [--seed 1] [--seconds S] [--workload NAME ...]

For each workload it makes one untraced run (end-to-end metrics, with the
workload's own names for them) and one traced run (per-layer calls, total
and self seconds), each in a fresh interpreter, and prints the tracing
overhead as the change of the three workload timings between the two.
"""

import argparse
import json
from pathlib import Path

from repeat import run_lines

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve-k4", "exact-k5", "flag-algebra")
COUNTERS = ("solver.round_trip.", "solver.ball.", "tournaments.canonicalize.cache")


def run(workload, seed, seconds, trace):
    lines = run_lines(workload, seed, seconds, trace)
    record = {"result": lines[-1]}
    for line in lines[:-1]:
        record.update(line)
    return record


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    for i, workload in enumerate(args.workload or WORKLOADS):
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        if i == 0:
            env = {k: v for k, v in plain["environment"].items()
                   if k not in ("workload", "trace")}
            print("environment: " + json.dumps(env))
        res = plain["result"]
        print("\n== %s ==" % workload)
        print("correct %s, attempted %d, failed %d" % (
            res["correct"], res["attempted"], res["failed"]))
        for f in plain.get("failures", []):
            print("  failure: " + f)
        for f in plain.get("notes", []):
            print("  note: " + f)
        print("end-to-end metrics:")
        for name, m in res["metrics"].items():
            print("  %-24s %14.6g %s" % (name, m["value"], m["unit"]))
        print("the same, by this workload's names:")
        for name, value in plain["details"].items():
            print("  %-28s %s" % (name, value if isinstance(value, (bool, str, list))
                                  else "%.6g" % value))
        layers = traced["layers"]
        print("per-layer (traced run, %.2f s traced, %d items):" % (
            layers["wall_s"], traced["details"]["items"]))
        print("  %-42s %9s %9s %10s %10s" % (
            "function", "set-up", "calls", "total_s", "self_s"))
        for key, setup_calls, calls, total, self_s in layers["rows"]:
            print("  %-42s %9d %9d %10.4f %10.4f" % (key, setup_calls, calls, total, self_s))
        counters = traced["result"]["metrics"]
        for name, m in counters.items():
            if name.startswith(COUNTERS) and m["value"]:
                print("  %-42s %9.4g %s" % (name, m["value"], m["unit"]))
        print("tracing overhead (traced / untraced - 1):")
        for name in ("primary_s", "secondary_s", "throughput_per_s"):
            base = res["metrics"][name]["value"]
            print("  %-24s %+.1f%%" % (name, 100 * (counters["traced." + name]["value"] / base - 1)))


if __name__ == "__main__":
    main()
