"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

    python3 perfbench/steadiness.py [--trace] [--out FILE]

Runs two sets of ten runs of run.py on every workload of BENCHMARK.json,
one seed per run and the run length from BENCHMARK.json; set 1 uses seeds
1..10 and set 2 seeds 11..20.  Reports per set and metric the median, the
quartiles and the spread (Q3 - Q1) / median, with
statistics.quantiles(values, n=4).  A spread at or above a third of the
metric's bound is marked, and so is a second set whose median is worse than
the first set's by more than the bound; either makes the exit code 1.
--trace adds one traced run per workload; --out writes everything as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    prov = next(ln for ln in done.stdout.splitlines() if ln.startswith("provenance "))
    return result, json.loads(prov[len("provenance "):]), time.perf_counter() - t0


def run_set(workload, seeds, bench, bounds):
    """End-to-end runs, one per seed; returns (record, steady)."""
    runs, values = [], {name: [] for name in bounds}
    steady = True
    for seed in seeds:
        result, prov, elapsed = run_once(workload, seed, bench["run_seconds"], 0)
        runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        if not result["correct"]:
            steady = False
            print(f"{workload} seed {seed}: {result['failed']} failed", flush=True)
    summary = {}
    print(f"{workload} seeds {seeds[0]}-{seeds[-1]}: {len(runs)} runs, "
          f"{sum(r['elapsed_s'] for r in runs):.0f} s")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        mark = ""
        if spread >= bounds[name] / 3:
            mark, steady = "  <-- spread >= bound/3", False
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"  {name:14s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
              f"spread {spread:6.2%}  bound {bounds[name]:.0%}{mark}", flush=True)
        print("    runs: " + " ".join(f"{v:.4g}" for v in vals), flush=True)
    return {"summary": summary, "runs": runs, "provenance": prov}, steady


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(SETS):
            seeds = list(range(k * RUNS + 1, (k + 1) * RUNS + 1))
            one, ok = run_set(workload, seeds, bench, bounds)
            sets.append(one)
            steady &= ok
            record["provenance"] = one.pop("provenance")
        first, second = (one["summary"] for one in sets)
        for name, bound in bounds.items():
            change = second[name]["median"] / first[name]["median"] - 1.0
            mark = ""
            if change > bound:
                mark, steady = "  <-- worse than set 1 by more than the bound", False
            print(f"  set 2 vs set 1: {name:14s} median {change:+7.2%}{mark}", flush=True)
        record["workloads"][workload] = {"sets": sets}
        if args.trace:
            result, _, elapsed = run_once(workload, 1, bench["run_seconds"], 1)
            record["workloads"][workload]["traced"] = {"elapsed_s": elapsed, **result}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
