"""Experiment runner: train, evaluate, baseline, sweep, report.

Every run writes into one output directory with a manifest.json carrying the
resolved configuration, seed, and config hash, enough to reproduce the run
exactly. Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""
import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, metrics, ppo, rollout
from .env import cav_obs_dim, tl_obs_dim
from .methods import get_method, resolve_penetration
from .network import (STANDARD_GRIDS, ConfigError, grid_scenario,
                      load_scenario, parse_scenario_text, scenario_to_text)
from .policy import load_checkpoint, save_checkpoint

EVAL_SEED_OFFSET = 100_000


def _resolve_scenario(args, method):
    """The --config scenario (the --grid one without it) with --horizon,
    --seed and `method`'s penetration rate for --penetration applied."""
    scenario = (load_scenario(args.config) if args.config
                else grid_scenario(args.grid))
    penetration = resolve_penetration(
        method, args.penetration, scenario.penetration_rate)
    return scenario.with_overrides(horizon=args.horizon,
                                   penetration=penetration, seed=args.seed)


def _profile_config(args):
    overrides = {"iterations": args.iterations,
                 "episodes_per_iter": args.train_episodes,
                 "horizon": args.horizon}
    return dataclasses.replace(
        ppo.PROFILES[args.profile](),
        **{k: v for k, v in overrides.items() if v is not None})


def _eval_seeds(args):
    """The --episodes evaluation seeds, counted up from --seed."""
    return [args.seed + EVAL_SEED_OFFSET + i for i in range(args.episodes)]


# manifest fields that describe one run rather than its configuration; the
# host record of `_host` is merged in after the hash
_UNHASHED = ("created_unix", "command", "wall_time_s", "halted_early",
             "blas_threads")


def _host():
    """The class of host a run's numbers are bit-reproducible on: numpy's
    version, the SIMD features it dispatches to, its BLAS (None on a numpy
    older than 1.26, which has no dict form of its build config) and the
    BLAS's kernel family (None without numpy's bundled OpenBLAS)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x keeps the module under numpy.core
        from numpy.core._multiarray_umath import __cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:
        blas = None
    return {"numpy": np.__version__,
            "numpy_cpu_features": [name for name, on in __cpu_features__.items()
                                   if on],
            "blas": blas,
            "blas_core": ppo.openblas_core()}


def _manifest(args, scenario, method, extra):
    payload = {
        "version": __version__,
        "created_unix": int(time.time()),
        "command": " ".join(sys.argv),
        "method": method.name,
        "method_notes": method.notes,
        "seed": args.seed,
        "scenario_text": scenario_to_text(scenario),
        **extra,
    }
    digest_src = json.dumps(
        {k: v for k, v in payload.items() if k not in _UNHASHED},
        sort_keys=True)
    payload.update(_host())
    payload["config_sha256"] = hashlib.sha256(digest_src.encode()).hexdigest()
    return payload


def _out_path(args, default_name):
    """The --out directory (`default_name` without one), not made yet; a
    path that is a file or lies under one is a ConfigError."""
    out = Path(args.out or default_name)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out {out}: {path} is not a directory")
            break
    return out


def _out_dir(args, default_name):
    """`_out_path`, made if missing."""
    out = _out_path(args, default_name)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _trace_file(args):
    """The --trace file opened for writing, or a context yielding None."""
    if args.trace:
        try:
            return open(args.trace, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"--trace {args.trace}: cannot open for "
                              f"writing: {exc.strerror}") from None
    return contextlib.nullcontext()


def cmd_train(args):
    method = get_method(args.method)
    if not method.rl:
        raise ConfigError(f"method {args.method} is not trainable; "
                          "use the baseline subcommand")
    scenario = _resolve_scenario(args, method)
    cfg = _profile_config(args)
    out = _out_dir(args, f"runs/train-{args.method}")

    def progress(entry):
        rewards = " ".join(f"{kind}_reward={entry[kind + '_reward']:.3f}"
                           for kind in method.env_cfg.learned)
        print(f"iter {entry['iteration'] + 1}/{cfg.iterations} {rewards}",
              flush=True)

    result = ppo.train(scenario, method.env_cfg, cfg, seed=args.seed,
                       workers=args.workers,
                       progress=progress if args.verbose else None)

    curve_keys = sorted({k for c in result.curves for k in c})
    metrics.write_csv(out / "reward_curves.csv", curve_keys,
                      ([entry.get(k) for k in curve_keys]
                       for entry in result.curves))

    checkpoints = {}
    for kind, params in (("tl", result.tl_params), ("cav", result.cav_params)):
        if params is not None:
            checkpoints[kind] = f"checkpoint_{kind}.npz"
            save_checkpoint(out / checkpoints[kind], params)

    manifest = _manifest(args, scenario, method, {
        "profile": args.profile,
        "penetration": scenario.penetration_rate,
        "ppo": dataclasses.asdict(cfg),
        "checkpoints": checkpoints,
        "wall_time_s": result.wall_time_s,
        "halted_early": result.halted_early,
        "blas_threads": result.blas_threads,
    })
    metrics.write_json(out / "manifest.json", manifest)
    print(f"trained {args.method}: {len(result.curves)} iterations, "
          f"{result.wall_time_s:.1f}s, outputs in {out}")
    if result.halted_early:
        print("warning: training halted early on a non-finite loss",
              file=sys.stderr)
    return 0


# value kinds of run-directory JSON fields: (accepted types, description)
_TEXT = ((str,), "a string")
_NUMBER = ((int, float), "a number")
_NUMBER_OR_NULL = ((int, float, type(None)), "a number or null")


def _read_json_object(path, fields):
    """The JSON object in the file at `path`, checked to hold every key of
    `fields` with a value of that key's kind (a JSON boolean is no number);
    anything else is a ConfigError naming the file and the field."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object, got "
                          f"{type(data).__name__}")
    for key, (types, name) in fields.items():
        if key not in data:
            raise ConfigError(f"{path}: missing field {key!r}")
        if isinstance(data[key], bool) or not isinstance(data[key], types):
            raise ConfigError(f"{path}: field {key!r} must be {name}, got "
                              f"{data[key]!r:.40}")
    return data


def _load_run(args, rates):
    """The --checkpoint-dir run, read once: its method, its scenario with
    --seed and --horizon, that scenario at each of `rates` (None: the
    manifest's rate) and its networks (None for a type with a plan). A bad
    manifest, an unreadable or mislabelled network file (whatever the
    method) and a missing or unfit learned network are ConfigErrors."""
    ckpt_dir = Path(args.checkpoint_dir)
    manifest_path = ckpt_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"{args.checkpoint_dir} has no manifest.json")
    manifest = _read_json_object(
        manifest_path,
        {"method": _TEXT, "scenario_text": _TEXT, "penetration": _NUMBER})
    params = {}
    for kind in ("tl", "cav"):
        path = ckpt_dir / f"checkpoint_{kind}.npz"
        if path.exists():
            try:
                params[kind], _ = load_checkpoint(path)
            except Exception as exc:  # any unreadable file is bad input
                raise ConfigError(f"cannot load {path}: {exc}") from exc
            if params[kind].kind != kind:
                raise ConfigError(f"{path} holds a {params[kind].kind} "
                                  f"network, not a {kind} one")
    try:
        method = get_method(manifest["method"])
        scenario = parse_scenario_text(manifest["scenario_text"])
        penetrations = [resolve_penetration(method, rate,
                                            manifest["penetration"])
                        for rate in rates]
    except ConfigError as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from None
    scenario = scenario.with_overrides(seed=args.seed, horizon=args.horizon)

    env_cfg = method.env_cfg
    networks = dict.fromkeys(("tl", "cav"))
    for kind in env_cfg.learned:
        name = "signal" if kind == "tl" else "vehicle"
        net = networks[kind] = params.get(kind)
        if net is None:
            raise ConfigError(
                f"checkpoint directory lacks the {name}-agent network")
        want = (tl_obs_dim(scenario.network, env_cfg.mode) if kind == "tl"
                else cav_obs_dim(env_cfg.mode))
        if net.obs_dim != want:
            raise ConfigError(
                f"{name} checkpoint expects {net.obs_dim} inputs but the "
                f"scenario/mode needs {want}")
    return (method, scenario,
            [scenario.with_overrides(penetration=p) for p in penetrations],
            networks["tl"], networks["cav"])


def _shown(value, template):
    """`value` put into the format string `template`, or n/a when it is not
    finite: the rule of every metric value the subcommands print."""
    return template.format(value) if np.isfinite(value) else "n/a"


def _write_eval_outputs(out, method, scenario, reports, label=""):
    prefix = f"{label}_" if label else ""
    aggregate = metrics.aggregate_reports(reports)
    for i, report in enumerate(reports):
        metrics.write_report_json(out / f"{prefix}episode_{i:02d}.json", report,
                                  extra={"episode": i})
    metrics.write_report_json(out / f"{prefix}aggregate.json", aggregate,
                              extra={"episodes": len(reports),
                                     "method": method.name,
                                     "method_notes": method.notes,
                                     "penetration": scenario.penetration_rate})
    metrics.write_csv(out / f"{prefix}travel_times.csv", ["travel_time_s"],
                      ([t] for t in aggregate.travel_times))
    return aggregate


def _evaluate(args, default_out, verb, method, scenario, tl_params,
              cav_params, extra):
    """Run the --episodes greedy episodes of `method` (None networks for an
    agent type it does not learn), write their reports and the manifest
    with `extra` fields into --out (`default_out` without one), and print
    the mean travel time. --out is checked before the --trace file is
    opened, and made after it, so that either refused path leaves nothing
    behind."""
    seeds = _eval_seeds(args)
    out = _out_path(args, default_out)
    with _trace_file(args) as trace_fh:
        out.mkdir(parents=True, exist_ok=True)
        reports = rollout.evaluate_policy(
            scenario, method.env_cfg, tl_params, cav_params, seeds,
            trace_fh=trace_fh)
    aggregate = _write_eval_outputs(out, method, scenario, reports)
    metrics.write_json(out / "manifest.json", _manifest(
        args, scenario, method,
        {"episodes": args.episodes, "penetration": scenario.penetration_rate,
         "eval_seeds": seeds, **extra}))
    print(f"{verb} {method.name}: mean travel time "
          f"{_shown(aggregate.mean_travel_time, '{:.2f}s')} over "
          f"{args.episodes} episodes; "
          f"outputs in {out}")
    return 0


def cmd_evaluate(args):
    method, _, (scenario,), tl_params, cav_params = _load_run(
        args, [args.penetration])
    return _evaluate(args, f"runs/eval-{method.name}", "evaluated", method,
                     scenario, tl_params, cav_params,
                     {"checkpoint_dir": str(args.checkpoint_dir),
                      "greedy_actions": True})


def cmd_baseline(args):
    method = get_method(args.method)
    if method.rl:
        raise ConfigError(f"method {args.method} is learned; use train/evaluate")
    return _evaluate(args, f"runs/baseline-{args.method}", "baseline", method,
                     _resolve_scenario(args, method), None, None, {})


def cmd_sweep(args):
    method, run_scenario, scenarios, tl_params, cav_params = _load_run(
        args, args.rates)
    out = _out_dir(args, "runs/sweep")
    seeds = _eval_seeds(args)
    rows = []
    for rate, scenario in zip(args.rates, scenarios):
        reports = rollout.evaluate_policy(
            scenario, method.env_cfg, tl_params, cav_params, seeds)
        aggregate = _write_eval_outputs(out, method, scenario, reports,
                                        label=f"rate{rate:0.2f}")
        rows.append((rate, aggregate))
        print(f"penetration {rate:.2f}: mean travel time "
              f"{_shown(aggregate.mean_travel_time, '{:.2f}s')}")
    keys = metrics.EpisodeReport.METRIC_KEYS
    metrics.write_csv(out / "sweep.csv", ["penetration", *keys],
                      ([f"{rate:.2f}", *(getattr(agg, k) for k in keys)]
                       for rate, agg in rows))
    # the penetration rates are listed on their own
    metrics.write_json(out / "manifest.json", _manifest(
        args, run_scenario, method,
        {"rates": args.rates, "episodes": args.episodes,
         "checkpoint_dir": str(args.checkpoint_dir), "eval_seeds": seeds}))
    print(f"sweep outputs in {out}")
    return 0


def cmd_report(args):
    runs = {}
    for spec in [args.baseline] + (args.run or []):
        name, sep, path = spec.partition("=")
        if not (sep and name and path):
            raise ConfigError(f"expected NAME=DIR with a non-empty NAME and "
                              f"DIR, got {spec!r}")
        if name in runs:
            raise ConfigError(f"run name {name!r} repeated in {spec!r}")
        agg_path = Path(path) / "aggregate.json"
        if not agg_path.exists():
            raise ConfigError(f"{path} has no aggregate.json")
        data = _read_json_object(
            agg_path, dict.fromkeys(metrics.EpisodeReport.METRIC_KEYS,
                                    _NUMBER_OR_NULL))
        values = {k: (float("nan") if data[k] is None else data[k])
                  for k in metrics.EpisodeReport.METRIC_KEYS}
        runs[name] = metrics.EpisodeReport(travel_times=[], **values)
    baseline_name = args.baseline.partition("=")[0]
    table = metrics.compare_table(runs, baseline_name)
    out = _out_dir(args, "runs/report")
    metrics.write_compare_csv(out / "comparison.csv", table, baseline_name)
    metrics.write_json(
        out / "comparison.json",
        {m: {k: {"value": v, "pct_change": p} for k, (v, p) in row.items()}
         for m, row in table.items()})
    for method in sorted(table):
        tt, pct = table[method]["mean_travel_time"]
        suffix = ("" if method == baseline_name
                  else f" ({_shown(pct, '{:+.2f}%')})")
        print(f"{method}: travel time {_shown(tt, '{:.2f}s')}{suffix}")
    print(f"report outputs in {out}")
    return 0


def _int_at_least(low, kind):
    """argparse type of an integer flag of at least `low`, named `kind`
    integer in its error message."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected a {kind} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")   # the count flags
_seed = _int_at_least(0, "non-negative")


def _rates(text):
    """argparse type of --rates: comma-separated fractions in [0, 1], no two
    with the same two-decimal label, which names a rate's sweep files."""
    entries = [entry.strip() for entry in text.split(",")]
    try:
        rates = [float(entry) for entry in entries]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    labels = {}
    for entry, rate in zip(entries, rates):
        if not 0.0 <= rate <= 1.0:
            raise argparse.ArgumentTypeError(
                f"penetration rate {rate} outside [0, 1]")
        label = f"{rate:.2f}"
        if label in labels:
            raise argparse.ArgumentTypeError(
                f"rates {labels[label]} and {entry} share the label {label}")
        labels[label] = entry
    return rates


# the flags that only some subcommands take, by name
_FLAGS = {
    "--config": dict(help="scenario file path"),
    "--grid": dict(choices=list(STANDARD_GRIDS), default="1x1",
                   help="built-in scenario (default 1x1)"),
    "--penetration": dict(type=float, help="CAV fraction in [0, 1]"),
    "--episodes": dict(type=_positive_int, default=18,
                       help="evaluation episodes"),
    "--trace": dict(metavar="PATH",
                    help="write a per-step vehicle and light trace of the "
                         "first episode"),
}


def _add_common(p, *flags):
    """--seed, --out and --horizon, then each of `flags` from _FLAGS."""
    p.add_argument("--seed", type=_seed, default=0,
                   help="run seed, a non-negative integer")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--horizon", type=_positive_int, default=None,
                   help="override episode length in seconds")
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cotraffic",
        description="Grid traffic control experiments: cooperative "
                    "signal+vehicle RL against classical baselines.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an RL method")
    p.add_argument("--method", required=True)
    p.add_argument("--profile", choices=sorted(ppo.PROFILES), default="ci")
    p.add_argument("--iterations", type=_positive_int, default=None,
                   help="override the profile's iteration count")
    p.add_argument("--train-episodes", type=_positive_int, default=None,
                   help="override the profile's parallel episodes per iteration")
    # a string default goes through `type` too, so a bad variable is refused
    p.add_argument("--workers", type=_positive_int,
                   default=os.environ.get("COTRAFFIC_WORKERS", "1"),
                   help="rollout processes (default: $COTRAFFIC_WORKERS or 1)")
    p.add_argument("--verbose", action="store_true")
    _add_common(p, "--config", "--grid", "--penetration")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained checkpoint")
    p.add_argument("--checkpoint-dir", required=True)
    _add_common(p, "--penetration", "--episodes", "--trace")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="run a non-learned method")
    p.add_argument("--method", required=True)
    _add_common(p, "--config", "--grid", "--penetration", "--episodes",
                "--trace")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sweep", help="penetration-rate sweep of a checkpoint")
    p.add_argument("--checkpoint-dir", required=True)
    p.add_argument("--rates", type=_rates, default="0,0.2,0.4,0.6,0.8,1.0")
    _add_common(p, "--episodes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="comparison table from run directories")
    p.add_argument("--baseline", required=True, metavar="NAME=DIR")
    p.add_argument("--run", action="append", metavar="NAME=DIR")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
