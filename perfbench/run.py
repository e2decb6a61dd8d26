#!/usr/bin/env python3
"""Serve-level benchmark entry point.

Builds the `serve` binary and the `perfbench` harness from source, then
runs one workload:

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0

Run it from the repository root. Build output and run scratch go to
$CARGO_TARGET_DIR (default: .bench_build at the repository root). The
harness prints a metric report whose last line is one JSON object; see
perfbench/DESIGN.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("query_mix", "durable_churn", "standing_churn")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (
        os.path.isfile(os.path.join(root, "Cargo.toml"))
        and os.path.isdir(os.path.join(root, "crates", "serve"))
    ):
        print("perfbench: repository sources (Cargo.toml, crates/) not found", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    # the engine's thread knobs read UDB_* variables: build and run with
    # the defaults serve ships with
    env = {k: v for k, v in os.environ.items() if not k.startswith("UDB_")}
    env["CARGO_TARGET_DIR"] = target
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "udb-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    )
    for cmd in builds:
        # build chatter goes to stderr: stdout ends with the result line
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--serve", os.path.join(release, "serve"),
        "--out", os.path.join(target, "perfbench-out"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # the harness and every serve process it spawns share one process
    # group, so nothing outlives this script even if it is interrupted
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)

    def stop(signum, _frame):
        # unwind out of proc.wait(); the finally below kills and reaps
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
