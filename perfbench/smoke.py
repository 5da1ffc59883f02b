#!/usr/bin/env python3
"""Second-seed smoke run of the benchmark.

    python3 perfbench/smoke.py [--seeds 1,2] [--seconds 3]

Runs every workload of BENCHMARK.json on each seed, untraced and traced,
and checks that each run exits 0 with correct results, that every run
prints exactly the metric names BENCHMARK.json lists, and that layers a
workload bypasses read 0 (`index.*` and `rule.*` off `triangles`,
`persist.*` off `pvwatts_durable`). Prints the count-stability marks the
traced runs report. Run from the root of a checkout; exits non-zero on
any failed check.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Layer prefix -> the one workload allowed to read non-zero on it.
BYPASS = {"index.": "triangles", "rule.": "triangles", "persist.": "pvwatts_durable"}


def run(workload, seed, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, lines, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, lines, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--seconds", type=int, default=3)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        for seed in (int(s) for s in args.seeds.split(",")):
            for trace in (0, 1):
                code, lines, result = run(w, seed, args.seconds, trace)
                tag = "%s seed=%d trace=%d" % (w, seed, trace)
                if code != 0 or not result or not result["correct"]:
                    problems.append("%s: exit %d, result %s" % (tag, code, result))
                    continue
                if set(result["metrics"]) != names[trace]:
                    problems.append("%s: metric names differ from BENCHMARK.json" % tag)
                for name, m in result["metrics"].items():
                    for prefix, owner in BYPASS.items():
                        if trace and name.startswith(prefix) and w != owner and m["value"] != 0:
                            problems.append("%s: %s = %s on a bypassing workload"
                                            % (tag, name, m["value"]))
                marks = [l.split(None, 1)[1] for l in lines if l.startswith("count ")]
                print("%s: correct, %d of %d attempts failed, %d metrics"
                      % (tag, result["failed"], result["attempted"], len(result["metrics"])))
                for mark in marks:
                    print("    " + mark)
    for p in problems:
        print("FAILED " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
