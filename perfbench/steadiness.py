#!/usr/bin/env python3
"""Runs each workload N times, twice over, and reports how steady it is.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Set 1 uses seeds 1..N and set 2 seeds N+1..2N, one run each, one set after
the other. For every end-to-end metric on every workload it prints each
set's median, quartiles and spread (interquartile distance over the median,
as statistics.quantiles(values, n=4) gives the quartiles) next to the
metric's bound in BENCHMARK.json, and the shift of set 2's median against
set 1's in the metric's worse direction. A spread above a third of the
bound, or a shift above the bound, is flagged. setup_s is judged by its
shift only: each run times one cold set-up (a second one in the same
process would be warm), so its spread is that of single cold starts, and
only the median over many runs is meant to be compared.
Raw results go to .perfbench_out/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    raw = {}
    flagged = 0
    for workload in args.workloads.split(","):
        sets = []
        for s in range(2):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            results = [run_once(workload, seed, args.seconds) for seed in seeds]
            sets.append(results)
        raw[workload] = sets
        print(f"\n{workload}")
        for s, results in enumerate(sets):
            bad = [r for r in results if not r["correct"]]
            print(f"  set {s + 1}: {len(results)} runs, {len(bad)} incorrect, "
                  f"failed share {sorted({r['failed'] / r['attempted'] for r in results})}, "
                  f"attempted {sorted({r['attempted'] for r in results})}")
            flagged += len(bad)
        # The share of failed operations must be exactly the same in every run.
        flagged += len({r["failed"] / r["attempted"] for results in sets for r in results}) > 1
        print(f"  {'metric':<42}{'set':>4}{'median':>13}{'q1':>13}{'q3':>13}"
              f"{'spread':>9}{'bound':>8}{'shift':>9}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                median, q1, q3, spread = summary(values)
                medians.append(median)
                shift = ""
                if s == 1 and medians[0]:
                    worse = (medians[0] - median if m["better"] == "higher"
                             else median - medians[0]) / medians[0]
                    shift = f"{worse:+.3f}"
                    if worse > bound:
                        flagged += 1
                        shift += "!"
                mark = ""
                if name != "setup_s" and spread > bound / 3:
                    flagged += 1
                    mark = "!"
                print(f"  {name:<42}{s + 1:>4}{median:>13.5g}{q1:>13.5g}{q3:>13.5g}"
                      f"{spread:>8.3f}{mark:1}{bound:>8.3f}"
                      f"{shift:>9}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(raw, indent=1))
    print(f"\n{flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
