#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <dijkstra|triangles|pvwatts_durable>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The binary is built in release mode
from `perfbench/Cargo.toml`, into `$CARGO_TARGET_DIR` when set. Build
output goes to stderr; the benchmark's report goes to stdout, and its
last line is the JSON result. Checkpoints and Chrome traces are written
under `perfbench/out/`. The exit code is non-zero if the build fails, a
result disagrees with its reference, or the report is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
OUT = os.path.join(HERE, "out")
# The benchmark itself measures for --seconds; this only bounds a hang.
RUN_TIMEOUT_S = 170


def build():
    """Builds the binary and returns its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST,
           "--message-format=json-render-diagnostics"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            exe = msg["executable"]
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["dijkstra", "triangles", "pvwatts_durable"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stdout.write(proc.stdout)
        print("perfbench: malformed report", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
