#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

Usage, from any directory:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload eval-1x6 --pairs 10 --seconds 20 --seed-base 2001 \\
        --out BENCH_N.json

Pair i runs `perfbench/run.py --seed <seed-base + i>` once in each checkout,
each run in a fresh process; even pairs run the parent first, odd pairs the
change first. The workload's entry (seeds, operation counts, and per metric
both lists, the medians, the parent's interquartile range, the relative
change of the medians and the pairs the change won, by the metric's
direction in the parent's BENCHMARK.json) goes under "end_to_end" (or
"traced" with --trace 1) of the --out record, which is created or updated in
place, together with perfbench's environment record of each side. Without
--out the record is printed. Standard library only; a failed run stops the
comparison with its output.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`; returns (result, environment)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}\n{proc.stdout}{proc.stderr}")
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    return json.loads(lines[-1]), env


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(parent, change, workload, pairs, seconds, seed_base, trace):
    """Run the pairs; returns (the workload's entry, environment records)."""
    spec = json.loads((Path(parent) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = [seed_base + i for i in range(pairs)]
    runs = {"parent": [], "change": []}
    envs = {}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            result, envs[side] = run_once(checkout, workload, seed, seconds,
                                          trace)
            runs[side].append(result)
    metrics = {}
    for name, first in runs["parent"][0]["metrics"].items():
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if better[name] == "higher" else -1.0
        med_p, med_c = statistics.median(p), statistics.median(c)
        metrics[name] = {
            "unit": first["unit"],
            "better": better[name],
            "parent": p,
            "change": c,
            "median_parent": med_p,
            "median_change": med_c,
            "parent_iqr": iqr(p),
            "median_rel_change": (round((med_c - med_p) / med_p, 4)
                                  if med_p else None),
            "change_wins": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
        }
    entry = {
        "seeds": seeds,
        "pairs": pairs,
        "order": "alternating; the first pair runs the parent first",
        "run_seconds": seconds,
        "attempted_operations": {side: sum(r["attempted"] for r in rs)
                                 for side, rs in runs.items()},
        "failed_operations": {side: sum(r["failed"] for r in rs)
                              for side, rs in runs.items()},
        "correct": all(r["correct"] for rs in runs.values() for r in rs),
        "metrics": metrics,
    }
    return entry, envs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    entry, envs = compare(args.parent, args.change, args.workload,
                          args.pairs, args.seconds, args.seed_base,
                          args.trace)
    record = {}
    if args.out is not None and args.out.is_file():
        record = json.loads(args.out.read_text())
    record.setdefault("environment", {}).update(envs)
    record.setdefault("traced" if args.trace else "end_to_end",
                      {})[args.workload] = entry
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
