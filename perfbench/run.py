#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (offline, release)
into $CARGO_TARGET_DIR (default .bench_build), runs one workload, and passes
its output through: the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is nonzero if
the build fails, an audit finds a violation, or the run breaks.

--workload all runs every workload in turn and ends with one JSON object whose
metrics are prefixed by workload name.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["tpcc-hot", "tpcc-readmostly", "smallbank-open"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "acc-perfbench")


def run_one(binary, root, out_dir, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(stdout)
        fail(f"{workload}: exited {proc.returncode} without a result")
    return proc.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    binary = build(root, target)
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload != "all":
        code, lines, _ = run_one(binary, root, out_dir, args.workload, args)
        print("\n".join(lines))
        sys.exit(code)

    codes, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, lines, result = run_one(binary, root, out_dir, workload, args)
        print("\n".join(lines))
        codes.append(code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
