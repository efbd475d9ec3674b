#!/usr/bin/env python3
"""Build and run the newsdiff benchmark.

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

  --trace 0 builds and runs the end-to-end driver (`perfbench`, which
  starts the `perfserve` child); --trace 1 builds and runs the traced
  in-process replay (`perftrace`). The traced code is a separate binary,
  so the end-to-end build does not contain it. The last line of stdout
  is the JSON result.

Steadiness mode:
    python3 perfbench/run.py --steady <name> --runs <N> [--seconds <s>] [--first-seed <k>]

  runs one workload N times with seeds k..k+N-1 and prints, per metric,
  the median, quartiles and spread (Q3 - Q1) / median, quartiles as
  Python's statistics.quantiles(values, n=4) gives them. The bounds in
  BENCHMARK.json are set from this output.

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`).
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


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else Path.cwd() / path


def build(bins):
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")]
    for b in bins:
        cmd += ["--bin", b]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    # Cargo's own output goes to stderr; stdout carries only the result.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def run_once(workload, seed, seconds, trace, capture=False):
    if not (HERE / "Cargo.toml").exists() or not (ROOT / "crates").is_dir():
        print("perfbench: repository sources not found next to perfbench/", file=sys.stderr)
        return 1, ""
    binary = "perftrace" if trace else "perfbench"
    if not build(["perftrace"] if trace else ["perfbench", "perfserve"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1, ""
    cmd = [str(target_dir() / "release" / binary),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    proc = subprocess.run(cmd, cwd=Path.cwd(), env=env,
                          stdout=subprocess.PIPE if capture else None, text=True)
    return proc.returncode, proc.stdout or ""


def steady(workload, runs, seconds, first_seed):
    results = []
    for seed in range(first_seed, first_seed + runs):
        code, out = run_once(workload, seed, seconds, False, capture=True)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print(f"seed {seed}: run failed (exit {code})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"seed {seed}: {line}")
        print(f"seed {seed}: {json.dumps(result)}", flush=True)
        results.append(result)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}  correct: {all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        print(f"{name:14s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  spread {(q3 - q1) / med:.4f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.steady:
        return steady(args.steady, args.runs, args.seconds, args.first_seed)
    if not args.workload:
        ap.error("--workload or --steady is required")
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
