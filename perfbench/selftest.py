"""Smoke-sized self-test of the benchmark itself (not part of the test suite).

    python3 perfbench/selftest.py

For each workload it makes a one-second untraced and traced run on shrunken
inputs and checks that the result line has exactly the contract's keys and
every metric BENCHMARK.json names, with its unit.  Then it runs each workload
once more with a deliberately corrupted library result and checks that the
run counts failures and reports ``correct: false``.  Exits 1 on any problem.

Every run is a fresh interpreter running ``selftest.py --child``, which
shrinks the inputs by setting workload constants (two k = 5 letters instead
of three, no (2, 5) products) before it hands over to ``run.main``.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-k4", "exact-k5", "flag-algebra")
SMALL = {"K5_LETTERS": ("3:101", "4:111101"), "FLAG_PRODUCT_SIZES": ((1, 5), (1, 6))}


def child(workload, trace, corrupt):
    """One small run in this process, printing run.py's lines."""
    sys.path.insert(0, str(HERE))
    import run

    run.import_package()
    import tracing
    import workloads
    from tourlyn import solver, tournamentons
    from tourlyn.rational import Q

    for name, value in SMALL.items():
        setattr(workloads, name, value)
    if corrupt and workload == "solve-k4":
        original = solver.solve

        def corrupted(*a, **kw):
            rep = original(*a, **kw)
            if not rep.converged:
                return rep
            s = tuple(x * (1 + Q(1, 10 ** 6)) for x in rep.s_rational)
            return dataclasses.replace(rep, s_rational=s)
    elif corrupt:
        original = tournamentons.density

        def corrupted(*a, **kw):
            return original(*a, **kw) + Q(1, 1000)
    if corrupt:
        tracing.rebind_everywhere(original, corrupted)
    run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])


def run_child(workload, trace, corrupt=False):
    out = subprocess.run(
        [sys.executable, str(HERE / "selftest.py"), "--child", workload, trace,
         str(int(corrupt))],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode:
        raise AssertionError("%s trace %s exited %d: %s" % (
            workload, trace, out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_shape(result, expected):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is %r" % result.get("attempted"))
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong_unit = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append("missing %s, extra %s, wrong unit %s" % (missing, extra, wrong_unit))
    for k, v in result.get("metrics", {}).items():
        if not isinstance(v["value"], (int, float)):
            problems.append("%s is not a number" % k)
    return problems


def main():
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        child(sys.argv[2], sys.argv[3], sys.argv[4] == "1")
        return
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for workload in WORKLOADS:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            result = run_child(workload, trace)
            problems = check_shape(result, expected)
            if not result.get("correct"):
                problems.append("an unmodified run reported correct: false")
            if trace == "0":
                problems += ["%s reads 0" % k for k, v in result["metrics"].items()
                             if v["value"] == 0]
            status = "ok" if not problems else "; ".join(problems)
            print("%-12s trace %s: %s" % (workload, trace, status))
            failures += problems
        result = run_child(workload, "0", corrupt=True)
        caught = result["failed"] >= 1 and result["correct"] is False
        print("%-12s corrupted: failed %d of %d, correct %s -> %s" % (
            workload, result["failed"], result["attempted"], result["correct"],
            "ok" if caught else "NOT CAUGHT"))
        if not caught:
            failures.append("%s: corrupted result went unnoticed" % workload)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
