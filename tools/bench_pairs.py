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

The entry's "uncalibrated" key holds, in the same per-metric form and lower
being better, what perfbench's calibration hides: each run's median wall
time per iteration before calibration and median reference-loop time (both
from the run's file in `<checkout>/.perfbench_out/`), and the run's user
plus system CPU seconds per attempted operation. Each metric in `s` or
`1/s` also gets "raw_agrees": whether the uncalibrated wall time per
iteration moved the way of the metric's median change (down for a faster
median) in more than half of the pairs; null for other units and for equal
medians. A speed claim counts only when it is true.
"""
import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def child_cpu_s():
    """User plus system CPU seconds of the waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`; returns (result, environment), the
    result carrying the run's "uncalibrated" values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    cpu_s = child_cpu_s()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    cpu_s = child_cpu_s() - cpu_s
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}\n{proc.stdout}{proc.stderr}")
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    result = json.loads(lines[-1])
    detail = json.loads((Path(checkout) / ".perfbench_out"
                         / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    result["uncalibrated"] = {
        "wall_iter_s.p50": statistics.median(
            row[1] for row in detail["iterations"]),
        "reference_s.p50": statistics.median(detail["reference_s"]),
        "cpu_s_per_op": cpu_s / result["attempted"],
    }
    return result, env


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(p, c, unit, better):
    """One metric's entry from the parent's and the change's values."""
    sign = 1.0 if better == "higher" else -1.0
    med_p, med_c = statistics.median(p), statistics.median(c)
    return {
        "unit": unit,
        "better": better,
        "parent": p,
        "change": c,
        "median_parent": med_p,
        "median_change": med_c,
        "parent_iqr": iqr(p),
        "median_rel_change": (round((med_c - med_p) / med_p, 4)
                              if med_p else None),
        "change_wins": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
    }


def raw_agrees(metric, wall):
    """The "raw_agrees" value of a summarized `metric` against the
    summarized uncalibrated wall time per iteration `wall`."""
    if (metric["unit"] not in ("s", "1/s")
            or metric["median_change"] == metric["median_parent"]):
        return None
    # a time rises with the wall time, a rate falls
    wall_up = ((metric["median_change"] > metric["median_parent"])
               == (metric["unit"] == "s"))
    moved = sum((c > p) if wall_up else (c < p)
                for p, c in zip(wall["parent"], wall["change"]))
    return moved > len(wall["parent"]) / 2


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
    metrics = {
        name: summarize([r["metrics"][name]["value"] for r in runs["parent"]],
                        [r["metrics"][name]["value"] for r in runs["change"]],
                        first["unit"], better[name])
        for name, first in runs["parent"][0]["metrics"].items()}
    uncalibrated = {
        name: summarize([r["uncalibrated"][name] for r in runs["parent"]],
                        [r["uncalibrated"][name] for r in runs["change"]],
                        "s", "lower")
        for name in runs["parent"][0]["uncalibrated"]}
    for metric in metrics.values():
        metric["raw_agrees"] = raw_agrees(metric,
                                          uncalibrated["wall_iter_s.p50"])
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
        "uncalibrated": uncalibrated,
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
