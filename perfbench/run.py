#!/usr/bin/env python3
"""Builds and runs the autostats end-to-end benchmark.

One run (the form BENCHMARK.json's command takes):
    python3 perfbench/run.py --workload adhoc_cold --seed 1 --seconds 15 --trace 0

Every workload, timed then traced, with the built-in correctness checks:
    python3 perfbench/run.py --all

Steadiness report: rerun one workload in K fresh processes (seeds 1..K)
and print each metric's median, quartiles and min-max beside its bound:
    python3 perfbench/run.py --steadiness 5 --workload update_churn

Run from the repository root. The program is built from source into
.bench_build/ (build output goes to stderr only on failure); WAL scratch
and trace files go to .bench_work/. The last line of stdout is the run's
JSON result. Exits non-zero when the build fails (printing no result) or
a correctness check fails (the result then reads "correct": false).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["adhoc_cold", "update_churn", "tenant_fleet"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            sys.exit(f"run.py: cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs one benchmark process; returns (exit code, parsed result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result


def bounds():
    """Metric name -> bound (None for per-layer metrics)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out.update({m["name"]: None for m in spec["per_layer"]})
    return out


def steadiness(workload, runs, seconds, trace):
    values = {}
    for seed in range(1, runs + 1):
        code, result = run_once(workload, seed, seconds, trace, echo=False)
        if code != 0 or result is None or not result["correct"]:
            sys.exit(f"run.py: {workload} seed {seed} failed (exit {code})")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    limits = bounds()
    print(f"\n{workload}: {runs} runs of {seconds} s, trace {trace}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
    worst = 0.0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = limits.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else (
                "WIDE" if spread <= bound else "NOISY")
            if name != "setup_s":
                worst = max(worst, spread / bound)
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g} "
              f"{max(vals):12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6} {flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, timed and traced")
    parser.add_argument("--steadiness", type=int, metavar="K",
                        help="rerun --workload in K fresh processes")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")

    build()
    if args.steadiness:
        steadiness(args.workload, args.steadiness, args.seconds, args.trace)
        return 0
    if args.all:
        status = 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                print(f"\n=== {workload}, trace {trace} ===", flush=True)
                code, result = run_once(workload, args.seed, args.seconds,
                                        trace)
                if code != 0 or result is None or not result["correct"]:
                    status = 1
        print("\nall checks passed" if status == 0 else "\nCHECKS FAILED")
        return status
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
