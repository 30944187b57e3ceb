#!/usr/bin/env python3
"""Compare two sets of perfbench runs against BENCHMARK.json's bounds.

    python3 bench/compare.py A B [--benchmark BENCHMARK.json]

A is the baseline (usually the parent commit), B the candidate.  Each
names a set of `perfbench/run.py` result lines, either

  - a file of JSON lines: a bare run.py result line, or one wrapped as
    {"workload": W, "seed": N, "result": {...}} (a bare line counts as
    workload "?" and is matched by its position), or
  - FILE#SIDE: the "runs" list of SIDE ("parent" or "change") in a
    committed BENCH_*.json trajectory.

For every workload present on both sides and every end-to-end metric
BENCHMARK.json lists, it prints both medians, quartiles and the
relative change, counts the seed-matched pairs B wins, and flags a
metric that moved the wrong way by more than its bound.  Allocation
metrics (units B and MB) are gated: a flagged one makes the exit status
1.  Wall-clock metrics (units s and 1/s) are reported, never gated — a
shared machine's timing spread is not a verdict.  A run with failed
operations or "correct": false is also gated.
"""

import argparse
import json
import statistics
import sys

GATED_UNITS = {"B", "MB"}


def load_runs(spec):
    """[(workload, seed, result)] for one side."""
    path, _, side = spec.partition("#")
    with open(path) as f:
        if side:
            runs = json.load(f)[side]["runs"]
        else:
            runs = [json.loads(line) for line in f if line.strip()]
    out = []
    for i, r in enumerate(runs):
        if "result" in r:
            out.append((r.get("workload", "?"), r.get("seed", i), r["result"]))
        else:
            out.append(("?", i, r))
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def by_workload(runs):
    w = {}
    for name, seed, result in runs:
        w.setdefault(name, []).append((seed, result))
    return w


def value(result, metric):
    m = result["metrics"].get(metric)
    return None if m is None else float(m["value"])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", help="baseline runs: JSONL file or BENCH_*.json#side")
    p.add_argument("b", help="candidate runs: JSONL file or BENCH_*.json#side")
    p.add_argument("--benchmark", default="BENCHMARK.json")
    args = p.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    a, b = by_workload(load_runs(args.a)), by_workload(load_runs(args.b))

    gate_failures = []
    for side, runs in (("A", a), ("B", b)):
        for w, rs in runs.items():
            for seed, r in rs:
                if r.get("failed", 0) != 0 or not r.get("correct", False):
                    gate_failures.append(
                        f"{side} {w} seed {seed}: failed={r.get('failed')} "
                        f"correct={r.get('correct')}")

    header = (f"{'workload':<14} {'metric':<15} {'unit':<5} {'A median':>12} "
              f"{'A IQR':>10} {'B median':>12} {'change':>8} {'bound':>6} "
              f"{'B wins':>7}  verdict")
    print(header)
    print("-" * len(header))
    for w in sorted(set(a) & set(b)):
        pairs = dict(b[w])
        for m in metrics:
            name, unit, bound = m["name"], m["unit"], m["bound"]
            higher = m["better"] == "higher"
            av = [v for _, r in a[w] if (v := value(r, name)) is not None]
            bv = [v for _, r in b[w] if (v := value(r, name)) is not None]
            if not av or not bv:
                continue
            am, bm = statistics.median(av), statistics.median(bv)
            q1, q3 = quartiles(av)
            rel = (bm - am) / am if am else 0.0
            worse = -rel if higher else rel
            wins = total = 0
            for seed, ra in a[w]:
                if seed in pairs:
                    x, y = value(ra, name), value(pairs[seed], name)
                    if x is None or y is None:
                        continue
                    total += 1
                    wins += (y > x) if higher else (y < x)
            if worse > bound:
                gated = unit in GATED_UNITS
                verdict = "REGRESSION" if gated else "flag (wall-clock, not gated)"
                if gated:
                    gate_failures.append(
                        f"{w} {name}: {rel:+.1%} beyond its {bound:.0%} bound")
            elif worse < 0 and abs(bm - am) > q3 - q1:
                verdict = "better, beyond A's IQR"
            else:
                verdict = "within bound"
            print(f"{w:<14} {name:<15} {unit:<5} {am:>12.6g} {q3 - q1:>10.4g} "
                  f"{bm:>12.6g} {rel:>+8.1%} {bound:>6.0%} "
                  f"{f'{wins}/{total}':>7}  {verdict}")
    only = sorted(set(a) ^ set(b))
    if only:
        print(f"\nworkloads on one side only (not compared): {', '.join(only)}")
    if gate_failures:
        print("\nGATE FAILED:")
        for g in gate_failures:
            print(f"  {g}")
        sys.exit(1)
    print("\ncompare: allocation gates passed")


if __name__ == "__main__":
    main()
