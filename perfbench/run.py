#!/usr/bin/env python3
"""SPECTR benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/spectr_bench.exe with
dune, runs it, and re-prints its output; the last line of stdout is the
JSON result.  Exits nonzero, printing no result, when the build fails,
the program fails or times out, or its result line is malformed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "spectr_bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(argv, timeout, **kw):
    """Run argv in its own process group; on timeout kill the whole
    group (the benchmark spawns set-up probes) and wait for it."""
    proc = subprocess.Popen(argv, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"run.py: {argv[0]} timed out after {timeout} s")
    return proc.returncode, out


def valid_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(r, dict)
        and set(r) == RESULT_KEYS
        and isinstance(r["correct"], bool)
        and isinstance(r["attempted"], int)
        and r["attempted"] >= 1
        and isinstance(r["failed"], int)
        and isinstance(r["metrics"], dict)
        and len(r["metrics"]) > 0
    )


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()

    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.exit("run.py: run from the root of a SPECTR checkout")
    code, _ = run(
        ["dune", "build", "--root", ".", "./perfbench/spectr_bench.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if code != 0:
        sys.exit(f"run.py: build failed (exit {code})")

    code, out = run(
        [EXE, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace)],
        RUN_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if code != 0:
        sys.exit(f"run.py: benchmark exited {code}")
    if not valid_result(lines[-1]):
        sys.exit("run.py: malformed result line")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
