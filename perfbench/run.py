"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload solve-k4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a separate,
traced run of the same workload.  Earlier stdout lines hold the run's
environment record and, for traced runs, the per-layer table in seconds.
The exit code is 2 when the package cannot be found.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120

# run in a fresh interpreter: time from before the import to the end of
# set-up, then scale by the reference work measured right after it
SETUP_CHILD = """
import statistics, sys, time
start = time.perf_counter()
import tourlyn
sys.path.insert(0, sys.argv[2])
import workloads
workloads.setup(sys.argv[1])
raw = time.perf_counter() - start
import reference
ref = reference.Reference()
speed = statistics.median(ref.measure() for _ in range(5))
print(repr(raw), repr(raw * reference.NOMINAL_S / speed))
"""


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "tourlyn" / "__init__.py").is_file():
        die("no package at %s; run from a source checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import tourlyn

    if Path(tourlyn.__file__).resolve().parent != (SRC / "tourlyn").resolve():
        die("imported tourlyn from %s, not from %s" % (tourlyn.__file__, SRC))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(workload):
    """Median set-up seconds over fresh interpreters: (raw, scaled)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, workload, str(HERE)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        r, s = out.stdout.split()
        raw.append(float(r))
        scaled.append(float(s))
    return statistics.median(raw), statistics.median(scaled)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "tourlyn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args):
    from tourlyn.rational import Q

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": "%s.%s" % (Q.__module__, Q.__qualname__),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve-k4", "exact-k5", "flag-algebra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args):
    """Runs the workload in this process; returns (result, metrics, table)."""
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    rng = random.Random(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    setup_start = time.perf_counter()
    if tracer is not None:
        tracer.install()
        tracer.active = True
    state = workloads.setup(args.workload)
    if tracer is not None:
        tracer.active = False
        tracer.end_setup()
    setup_s = time.perf_counter() - setup_start
    res = workloads.WORKLOADS[args.workload](state, rng, args.seconds, tracer)
    timings = {
        "primary_s": (res.metrics["primary_s"], "s"),
        "secondary_s": (res.metrics["secondary_s"], "s"),
        "throughput_per_s": (res.metrics["throughput_per_s"], "1/s"),
    }
    clock = res.clock
    res.details.update(
        items=res.items,
        reference_s=statistics.median(clock.references),
        raw_over_scaled=clock.raw_busy_s / clock.busy_s,
        canonical_cache_hits=clock.canonical_hits,
    )
    if tracer is None:
        setup_raw, setup_scaled = measure_setup(args.workload)
        res.details["setup_raw_s"] = setup_raw
        metrics = {
            "setup_s": (setup_scaled, "s"),
            "peak_rss_mb": (res.peak_rss_mb, "MB"),
        }
        metrics.update(timings)
        table = None
    else:
        tracer.uninstall()
        # the traced window: in-process set-up plus every timed call
        wall = setup_s + clock.raw_busy_s
        metrics = dict(tracer.metrics(wall, res.items))
        metrics.update(workloads.solver_counters(workloads.solver_stats()))
        metrics.update(res.counters)
        metrics["tournaments.canonicalize.cache_hits_per_item"] = (
            clock.canonical_hits / res.items, "hits/item")
        metrics.update({"traced." + k: v for k, v in timings.items()})
        table = {"wall_s": wall, "rows": tracer.table()}
    return res, metrics, table


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")
    import_package()
    print(json.dumps({"environment": environment(args)}))
    res, metrics, table = run(args)
    print(json.dumps({"details": dict(res.details, failed_frac=res.failed / res.attempted)}))
    if table is not None:
        print(json.dumps({"layers": table}))
    if res.failures:
        print(json.dumps({"failures": res.failures}))
    if res.notes:
        print(json.dumps({"notes": res.notes}))
    print(json.dumps({
        "correct": res.wrong == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
