#!/usr/bin/env python3
"""Runs one workload of the view-discovery benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the program from that
checkout (CMake, into $CARGO_TARGET_DIR or .bench_build), runs the answer
checker's own test, generates the workload's lake in a separate process,
runs the measured process, and prints as its last stdout line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics; the traced run also writes its spans to
.perfbench_out/trace-<workload>-seed<N>.json. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STEP_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_step(cmd, **kwargs):
    """Runs one step, passing its stderr through; returns its stdout."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=STEP_TIMEOUT_S, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"exit code {proc.returncode}: {' '.join(map(str, cmd))}")
    return proc.stdout


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail("a step printed no result")
    return json.loads(lines[-1])


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no Ver sources next to {BENCH_DIR.name}/ (CMakeLists.txt, src/)")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                  "-DCMAKE_BUILD_TYPE=Release"])
    run_step(["cmake", "--build", str(build_dir), "-j", jobs])
    return build_dir


def on_term(signum, frame):
    # Raising here lets subprocess.run kill and reap the running step.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_term)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = build()
    binary = str(build_dir / "perfbench")
    run_step([str(build_dir / "answer_check_test")])

    work = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        common = ["--workload", args.workload, "--dir", str(work)]
        run_step([binary, "gen"] + common)
        setup = {}
        if args.workload == "served_paged_sharded":
            # The snapshot is built and saved by its own process, so the
            # serving process's peak RSS reflects serving alone.
            setup = last_json(run_step(
                [binary, "snapshot"] + common +
                ["--t0-ns", str(time.monotonic_ns())]))
        cmd = [binary, "run"] + common + [
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            cmd += ["--spans", str(out_dir / f"trace-{args.workload}-seed{args.seed}.json")]
        result = last_json(run_step(cmd + ["--t0-ns", str(time.monotonic_ns())]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = result["metrics"]
    for key, value in setup.items():
        # set-up spans both processes; the layer timings come from the one
        # that did the work.
        measured[key] = measured.get(key, 0) + value if key == "setup_s" else value
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
