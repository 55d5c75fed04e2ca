#!/usr/bin/env python3
"""cotraffic benchmark: end-to-end throughput, or a per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload eval-1x6 --seed 1 --seconds 20 --trace 0

Workloads: train-1x1, eval-1x6, baseline-1x6 (see NOTES.md). With --trace 0
it times the workload for --seconds and reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes for --seconds and reports
the per-layer metrics. The program is imported from ``src/`` of the checkout
this script lives in. Human-readable lines come first; the last line of
standard output is one JSON object. Full results, with the environment
record and sample counts, go to ``.perfbench_out/``.
"""
import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def import_program():
    """Import cotraffic from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "cotraffic" / "__init__.py").is_file():
        raise SystemExit(f"error: no cotraffic sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import cotraffic.cli  # noqa: F401  (imports every layer)
    elapsed = time.perf_counter() - t0
    if Path(cotraffic.cli.__file__).resolve().parent.parent != src:
        raise SystemExit("error: cotraffic was not imported from the checkout")
    return elapsed


def openblas_threads(np):
    """Thread count of numpy's bundled OpenBLAS, read without changing it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return None


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    from cotraffic import kernels
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernel_backend": kernels.active_backend().name,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def setup(name, seed, rec, cal):
    """Repeated set-up: scenario build, checkpoint load and check, and one
    warm-up operation. Returns the workload and the calibrated times."""
    import workloads
    times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed)
        wl.setup(rec)
        times.append((time.perf_counter() - t0) * cal.factor())
    return wl, times


def measure(wl, rec, seconds, cal):
    """Repeat the workload's pass until `seconds` have elapsed (at least
    one pass); every operation is calibrated on its own."""
    rec.cal = cal
    deadline = time.perf_counter() + seconds
    while True:
        wl.run_pass(rec)
        rec.end_pass()
        if time.perf_counter() >= deadline:
            break
    rec.cal = None


def end_to_end(rec, wl, setup_s):
    """Rates and iteration times are medians over passes, so that every
    sample holds the same work (the 16 training seeds of a train-1x1 pass
    differ in vehicles and agents)."""
    passes = rec.passes()
    rate = lambda col: statistics.median(s[col] / s[0] for _, s in passes)
    return {
        "setup_s": setup_s,
        "env_steps_per_s": rate(2),
        "vehicle_steps_per_s": rate(3),
        "agent_steps_per_s": rate(4),
        "iter_s.p50": statistics.median(s[0] / n for n, s in passes),
        "episode_s.p50": statistics.median(x[0] for x in rec.episodes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
        "success_rate": 1.0 - rec.failed / rec.attempted,
        "mean_travel_time_s": wl.travel_time_s(),
    }


def traced(rec, wl, seconds, cal, out_stem):
    """Alternate untraced and traced passes for `seconds` (at least one
    each). Operations are calibrated as in the untraced runs, and every
    span is scaled by the factor of the operation it ran in."""
    import numpy as np
    import tracer
    tr = tracer.Tracer(tracer.LAYER_WRAPS)
    traced_pass = []
    traced_wall = untimed = 0.0
    rec.cal = cal
    deadline = time.perf_counter() + seconds
    while not traced_pass or time.perf_counter() < deadline:
        for on in (False, True):
            if not on:
                wl.run_pass(rec)
            else:
                refs = len(cal.samples)
                t0 = time.perf_counter()
                with tr:
                    wl.run_pass(rec)
                traced_wall += time.perf_counter() - t0
                untimed += sum(cal.samples[refs:])
            rec.end_pass()
            traced_pass.append(on)
    rec.cal = None
    errors = [] if tr.restored() else ["a wrapped attribute was not restored"]
    pool = wl.pool(rec)
    mark_t, mark_f = (np.array(col) for col in zip(*cal.marks))
    start = tr.arrays()[2]
    scale = mark_f[np.minimum(np.searchsorted(mark_t, start), len(mark_f) - 1)]
    summary = tracer.SpanSummary(tr, traced_wall, untimed, scale)
    errors += summary.errors
    layers = tracer.layer_metrics(summary, sum(traced_pass))
    layers["rollout.pool.workers1_s"] = pool[0] if pool else 0.0
    layers["rollout.pool.workers2_s"] = pool[1] if pool else 0.0
    pass_s = {True: [], False: []}
    for on, (_, sums) in zip(traced_pass, rec.passes()):
        pass_s[on].append(sums[0])
    layers["trace.overhead_ratio"] = (statistics.median(pass_s[True])
                                      / statistics.median(pass_s[False]))
    tr.save(f"{out_stem}-spans.npz")
    counts = {"traced_passes": len(pass_s[True]),
              "untraced_passes": len(pass_s[False]), "spans": len(tr.name_id)}
    return layers, counts, errors


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_wall = import_program()
    import workloads
    from calibrate import REF_S, Calibrator
    cal = Calibrator()
    import_s = import_wall * REF_S / cal.last
    rec = workloads.Recorder()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        wl, setup_samples = setup(args.workload, args.seed, rec, cal)
    except workloads.SetupError as exc:
        print(f"error: set-up: {exc}", file=sys.stderr)
        return 2
    errors = []
    counts = {"setup_repeats": len(setup_samples)}
    OUT_DIR.mkdir(exist_ok=True)
    out_stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            values, trace_counts, errors = traced(
                rec, wl, args.seconds, cal, out_stem)
            values["setup.import_s"] = import_s
            counts.update(trace_counts)
        else:
            measure(wl, rec, args.seconds, cal)
            values = end_to_end(
                rec, wl, import_s + statistics.median(setup_samples))
            counts.update(passes=len(rec.pass_ends),
                          iterations=len(rec.iterations),
                          episodes=len(rec.episodes))
    except Exception:  # an unexpected program error: report, do not time
        traceback.print_exc()
        return 3

    correct = rec.failed == 0 and not errors
    env_record = environment()
    metric_values = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                     for m in declared}
    for name, m in metric_values.items():
        print(f"{name:45s} {m['value']:14.6g} {m['unit']}")
    print(f"error_rate {rec.failed / rec.attempted:.6g} "
          f"({rec.failed} of {rec.attempted} operations failed)")
    print("samples", json.dumps(counts))
    print("environment", json.dumps(env_record))
    for msg in rec.failures + errors:
        print("check failed:", msg)
    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metric_values,
    }
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, samples=counts,
                  environment=env_record, failures=rec.failures + errors,
                  iterations=rec.iterations, episodes=rec.episodes,
                  setup_s=setup_samples, import_s=import_s,
                  import_wall_s=import_wall, reference_s=cal.samples)
    with open(f"{out_stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if not all(math.isfinite(m["value"]) for m in metric_values.values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
