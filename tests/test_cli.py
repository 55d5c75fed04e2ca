"""Command-line workflows: manifests, constraint checks, reproducibility."""
import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cotraffic import cli, ppo
from cotraffic.cli import main
from cotraffic.methods import METHODS
from cotraffic.metrics import EpisodeReport
from cotraffic.network import parse_scenario_text
from cotraffic.policy import init_params, save_checkpoint


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = run_cli("train", "--method", "cotv", "--grid", "1x1",
                   "--profile", "ci", "--seed", "3", "--out", str(out),
                   "--horizon", "40", "--iterations", "2",
                   "--train-episodes", "1")
    assert code == 0
    return out


def test_identical_trainings_share_config_hash(train_dir, tmp_path):
    # the run's wall time and halt flag stay in the manifest but out of the
    # configuration hash
    code = run_cli("train", "--method", "cotv", "--grid", "1x1",
                   "--profile", "ci", "--seed", "3", "--out", str(tmp_path),
                   "--horizon", "40", "--iterations", "2",
                   "--train-episodes", "1")
    assert code == 0
    first = json.loads((train_dir / "manifest.json").read_text())
    second = json.loads((tmp_path / "manifest.json").read_text())
    assert "wall_time_s" in second and "halted_early" in second
    assert second["config_sha256"] == first["config_sha256"]


def test_train_outputs_and_manifest(train_dir):
    assert (train_dir / "checkpoint_tl.npz").exists()
    assert (train_dir / "checkpoint_cav.npz").exists()
    curves = (train_dir / "reward_curves.csv").read_text().strip().split("\n")
    assert len(curves) == 1 + 2  # header + one row per iteration
    manifest = json.loads((train_dir / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["method"] == "cotv"
    assert len(manifest["config_sha256"]) == 64
    assert "scenario_text" in manifest and "version" in manifest


@pytest.fixture(scope="module")
def presslight_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("presslight")
    code = run_cli("train", "--method", "presslight", "--grid", "1x1",
                   "--profile", "ci", "--seed", "3", "--out", str(out),
                   "--horizon", "40", "--iterations", "1",
                   "--train-episodes", "1")
    assert code == 0
    return out


def test_presslight_trains_tl_checkpoint_only(presslight_dir):
    assert sorted(p.name for p in presslight_dir.glob("checkpoint_*")) == [
        "checkpoint_tl.npz"]


def curve_rows(run):
    """The header and the first row of a run's reward_curves.csv, as a
    column -> text dict."""
    header, row = (run / "reward_curves.csv").read_text().split("\n")[:2]
    return header, dict(zip(header.split(","), row.split(",")))


def test_presslight_curves_have_no_vehicle_entries(presslight_dir):
    header, row = curve_rows(presslight_dir)
    assert header == (
        "cav_reward,cav_steps,collisions,iteration,rollout_s,tl_approx_kl,"
        "tl_clip_fraction,tl_entropy,tl_explained_variance,tl_loss,"
        "tl_mean_ratio,tl_policy_loss,tl_reward,tl_steps,tl_value_loss,"
        "update_s,wall_s")
    assert row["cav_reward"] == "nan" and row["cav_steps"] == "0"
    assert row["tl_steps"] == "40"


# the agent types each method learns, read off README's method table (a
# type learns when its plan is None); a method without any runs under the
# baseline subcommand
LEARNED = {"baseline-static": (), "actuated": (), "max-pressure": (),
           "glosa": (), "flowcav": ("cav",), "presslight": ("tl",),
           **dict.fromkeys(("cotv", "cotv-star", "i-cotv", "m-cotv"),
                           ("tl", "cav"))}


def test_method_roster_splits_learned_from_baselines(tmp_path, capsys):
    assert {name: spec.env_cfg.learned
            for name, spec in METHODS.items()} == LEARNED
    assert {name: spec.rl for name, spec in METHODS.items()} == {
        name: bool(kinds) for name, kinds in LEARNED.items()}
    for name, spec in METHODS.items():
        command = "baseline" if spec.rl else "train"
        out = tmp_path / name
        assert run_cli(command, "--method", name, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: config: ")
        assert not out.exists()


@pytest.mark.parametrize("method", ["cotv", "flowcav", "presslight"])
def test_verbose_training_prints_the_learned_rewards(tmp_path, capsys,
                                                     method):
    run = tmp_path / method
    assert run_cli("train", "--method", method, "--grid", "1x1", "--seed",
                   "3", "--out", str(run), "--horizon", "30", "--iterations",
                   "1", "--train-episodes", "1", "--verbose") == 0
    progress = capsys.readouterr().out.splitlines()[0].split()
    assert progress[:2] == ["iter", "1/1"]
    printed = dict(entry.split("=") for entry in progress[2:])
    assert list(printed) == [f"{kind}_reward" for kind in LEARNED[method]]
    _, row = curve_rows(run)
    for key, text in printed.items():
        assert float(text) == pytest.approx(float(row[key]), abs=5e-4)


def test_flowcav_trains_vehicles_under_the_static_plan(tmp_path):
    run = tmp_path / "fc"
    assert run_cli("train", "--method", "flowcav", "--grid", "1x1",
                   "--seed", "3", "--out", str(run), "--horizon", "30",
                   "--iterations", "1", "--train-episodes", "1") == 0
    assert sorted(p.name for p in run.glob("checkpoint_*")) == [
        "checkpoint_cav.npz"]
    header, row = curve_rows(run)
    assert header == (
        "cav_approx_kl,cav_clip_fraction,cav_entropy,cav_explained_variance,"
        "cav_loss,cav_mean_ratio,cav_policy_loss,cav_reward,cav_steps,"
        "cav_value_loss,collisions,iteration,rollout_s,tl_reward,tl_steps,"
        "update_s,wall_s")
    assert row["tl_reward"] == "nan" and row["tl_steps"] == "0"
    assert int(row["cav_steps"]) > 0
    trace = tmp_path / "trace.txt"
    assert run_cli("evaluate", "--checkpoint-dir", str(run), "--episodes",
                   "1", "--horizon", "200", "--trace", str(trace),
                   "--out", str(tmp_path / "eval")) == 0
    phases = [int(line.split()[3]) for line in trace.read_text().splitlines()
              if line.split()[1] == "light"]
    assert len(phases) == 200
    runs = [(phase, len(list(group)))
            for phase, group in itertools.groupby(phases)]
    # every finished phase showed for its planned 40 or 3 s, in order
    assert runs[:-1] == [(0, 40), (1, 3), (2, 40), (3, 3)] * 2


def test_evaluate_deterministic(train_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = run_cli("evaluate", "--checkpoint-dir", str(train_dir),
                       "--episodes", "2", "--seed", "5", "--out", str(out),
                       "--horizon", "120")
        assert code == 0
    agg_a = (out_a / "aggregate.json").read_text()
    agg_b = (out_b / "aggregate.json").read_text()
    assert agg_a == agg_b
    payload = json.loads(agg_a)
    assert payload["episodes"] == 2
    assert (out_a / "travel_times.csv").exists()
    assert (out_a / "episode_00.json").exists()


def test_baseline_run(tmp_path):
    out = tmp_path / "b"
    code = run_cli("baseline", "--method", "baseline-static", "--grid", "1x1",
                   "--episodes", "1", "--seed", "2", "--out", str(out))
    assert code == 0
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["completed"] == 70.0
    assert agg["fuel_aggregation"] == "fleet-aggregate"


def test_method_constraint_rejections(tmp_path, capsys):
    assert run_cli("train", "--method", "baseline-static",
                   "--out", str(tmp_path / "x")) == 2
    assert "error: config" in capsys.readouterr().err
    assert run_cli("baseline", "--method", "cotv",
                   "--out", str(tmp_path / "y")) == 2
    assert run_cli("baseline", "--method", "glosa", "--penetration", "0.5",
                   "--out", str(tmp_path / "z")) == 2
    assert run_cli("train", "--method", "nonesuch",
                   "--out", str(tmp_path / "w")) == 2


def test_presslight_penetration_forced(tmp_path):
    assert run_cli("train", "--method", "presslight", "--penetration", "0.8",
                   "--out", str(tmp_path / "p"), "--iterations", "1",
                   "--train-episodes", "1", "--horizon", "20") == 2


def copy_run(src, dst, method=None):
    """A copy of the run directory `src` at `dst`, its manifest's method
    replaced by `method` if given."""
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    if method is not None:
        manifest = json.loads((src / "manifest.json").read_text())
        (dst / "manifest.json").write_text(json.dumps({**manifest,
                                                       "method": method}))
    return dst


def test_evaluate_checkpoint_mismatch(train_dir, tmp_path, capsys):
    cases = [
        # m-cotv observes one more entry per incoming road, and its
        # vehicles the light's previous action: the cotv networks are short
        ("m-cotv", None,
         "signal checkpoint expects 37 inputs but the scenario/mode needs 41"),
        # a cotv run holding an m-cotv vehicle network
        (None, "cav",
         "vehicle checkpoint expects 8 inputs but the scenario/mode needs 7"),
    ]
    for i, (method, replaced, message) in enumerate(cases):
        run = copy_run(train_dir, tmp_path / f"bad{i}", method)
        if replaced is not None:
            save_checkpoint(run / f"checkpoint_{replaced}.npz",
                            init_params(replaced, 8, (64, 64), seed=0))
        out = tmp_path / f"out{i}"
        assert run_cli("evaluate", "--checkpoint-dir", str(run),
                       "--episodes", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not out.exists()


def test_evaluate_refuses_a_network_of_the_other_kind(train_dir, tmp_path,
                                                      capsys):
    # a signal network with the vehicle input count, saved under the
    # vehicle file name, would have its 0/1 switches drive the vehicles
    run = copy_run(train_dir, tmp_path / "run")
    save_checkpoint(run / "checkpoint_cav.npz",
                    init_params("tl", 7, (64, 64), seed=0))
    assert run_cli("evaluate", "--checkpoint-dir", str(run), "--episodes",
                   "1", "--horizon", "20", "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"error: config: {run / 'checkpoint_cav.npz'} holds a tl network, "
        "not a cav one\n")


def _truncate(path):
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def _edit_arrays(path, edit):
    with np.load(path) as data:
        arrays = dict(data)
    edit(arrays)
    np.savez(path, **arrays)


@pytest.mark.parametrize("damage,named", [
    (_truncate, "checkpoint_tl.npz"),
    (lambda p: _edit_arrays(p, lambda a: a.pop("param_b_value")),
     "param_b_value"),
    (lambda p: _edit_arrays(
        p, lambda a: a.update(param_w1=a["param_w1"][:, 1:])), "param_w1"),
    (lambda p: _edit_arrays(p, lambda a: a.update(
        param_w0=np.full_like(a["param_w0"], np.nan))), "param_w0"),
], ids=["truncated", "missing-array", "misshaped-array", "non-finite-array"])
def test_evaluate_rejects_damaged_checkpoint(train_dir, tmp_path, capsys,
                                             damage, named):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("manifest.json", "checkpoint_tl.npz", "checkpoint_cav.npz"):
        (run / name).write_bytes((train_dir / name).read_bytes())
    damage(run / "checkpoint_tl.npz")
    assert run_cli("evaluate", "--checkpoint-dir", str(run), "--episodes",
                   "1", "--horizon", "20", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: cannot load ")
    assert str(run / "checkpoint_tl.npz") in err and named in err


@pytest.mark.parametrize("text,named", [
    ("network { grid: 1x1, road_length: abc }",
     "network: road_length 'abc'"),
    ("network { grid: 1x1 }\nflow { origin: nowhere, destination: J0-0:N0, "
     "count: 3, start: 1, period: 10 }", "origin 'nowhere'"),
    ("network { grid: 1x1, road_length: nan }",
     "network: road_length must be finite"),
    # the second block would silently replace the first one's horizon
    ("network { grid: 1x1 }\nsim { horizon: 40 }\nsim { penetration: 0.0 }",
     "duplicate sim block"),
], ids=["unparseable-number", "unknown-flow-road", "nan-length",
        "repeated-sim"])
def test_baseline_rejects_bad_scenario_file(tmp_path, capsys, text, named):
    path = tmp_path / "scenario.txt"
    path.write_text(text)
    assert run_cli("baseline", "--method", "actuated", "--config", str(path),
                   "--episodes", "1", "--horizon", "20",
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["train", "--method", "cotv", "--iterations", "1", "--train-episodes",
     "1"],
    ["baseline", "--method", "actuated", "--episodes", "1"],
], ids=["train", "baseline"])
def test_roads_too_short_for_one_vehicle_exit_2(tmp_path, capsys, command):
    path = tmp_path / "scenario.txt"
    path.write_text("network { grid: 1x1, road_length: 5 }\n"
                    "flow { origin: W0:J0-0, destination: J0-0:E0, "
                    "count: 3, start: 1, period: 10 }")
    assert run_cli(*command, "--config", str(path), "--horizon", "20",
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: road_length 5 m")
    assert "minimum is 7.5 m" in err
    assert not (tmp_path / "o").exists()


def test_roads_crossable_within_one_step_exit_2(tmp_path, capsys):
    # at 30 m/s a vehicle covers 30 m in one 1 s step; a transfer puts it
    # `x_new - length` into the next road without checking that road's
    # length, so on 8 m roads it would stand past the road's end
    path = tmp_path / "scenario.txt"
    path.write_text(
        "network { grid: 1x3, road_length: 8, speed_limit: 30 }\n"
        "flow { name: WE, origin: W0:J0-0, destination: J0-2:E0, count: 5, "
        "start: 1, period: 3 }\n"
        "flow { name: NS, origin: N0:J0-0, destination: J0-0:S0, count: 5, "
        "start: 1, period: 3 }")
    assert run_cli("baseline", "--method", "baseline-static", "--config",
                   str(path), "--episodes", "1", "--horizon", "20",
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: road_length 8 m")
    assert "speed_limit 30 m/s" in err and "minimum is 30 m" in err
    assert not (tmp_path / "o").exists()


def test_sweep_and_report(train_dir, tmp_path):
    sweep_out = tmp_path / "sweep"
    code = run_cli("sweep", "--checkpoint-dir", str(train_dir),
                   "--rates", "0,1.0", "--episodes", "1", "--seed", "5",
                   "--out", str(sweep_out), "--horizon", "120")
    assert code == 0
    lines = (sweep_out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("penetration,")

    base_out = tmp_path / "basestat"
    assert run_cli("baseline", "--method", "baseline-static", "--grid", "1x1",
                   "--episodes", "1", "--seed", "5", "--horizon", "120",
                   "--out", str(base_out)) == 0
    eval_out = tmp_path / "eval"
    assert run_cli("evaluate", "--checkpoint-dir", str(train_dir),
                   "--episodes", "1", "--seed", "5", "--horizon", "120",
                   "--out", str(eval_out)) == 0
    report_out = tmp_path / "rep"
    assert run_cli("report", "--baseline", f"static={base_out}",
                   "--run", f"cotv={eval_out}", "--out", str(report_out)) == 0
    table = json.loads((report_out / "comparison.json").read_text())
    assert "cotv" in table and "static" in table
    base_tt = table["static"]["mean_travel_time"]["value"]
    cotv_tt = table["cotv"]["mean_travel_time"]["value"]
    pct = table["cotv"]["mean_travel_time"]["pct_change"]
    assert pct == pytest.approx(100 * (cotv_tt - base_tt) / base_tt, rel=1e-9)
    assert (report_out / "comparison.csv").exists()


def test_travel_time_without_trips_prints_n_a(tmp_path, capsys):
    # no trip completes within 30 s, so no travel time is finite
    run = tmp_path / "run"
    assert run_cli("baseline", "--method", "actuated", "--horizon", "30",
                   "--episodes", "2", "--out", str(run)) == 0
    agg = json.loads((run / "aggregate.json").read_text())
    assert agg["mean_travel_time"] is None and agg["completed"] == 0.0
    assert run_cli("report", "--baseline", f"a={run}", "--run", f"b={run}",
                   "--out", str(tmp_path / "rep")) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    assert "mean travel time n/a over 2 episodes" in out
    assert "a: travel time n/a\n" in out
    assert "b: travel time n/a (n/a)\n" in out


def test_run_tables_are_lf_comma_separated(tmp_path):
    """Every table a run writes ends its lines in LF alone and reads back
    through csv.reader, a report NAME holding a comma as one cell."""
    train = tmp_path / "train"
    assert run_cli("train", "--method", "cotv", "--grid", "1x1",
                   "--profile", "ci", "--seed", "3", "--out", str(train),
                   "--horizon", "40", "--iterations", "1",
                   "--train-episodes", "1") == 0
    base = tmp_path / "base"
    assert run_cli("baseline", "--method", "baseline-static", "--episodes",
                   "1", "--horizon", "120", "--out", str(base)) == 0
    assert run_cli("sweep", "--checkpoint-dir", str(train), "--rates",
                   "0,1.0", "--episodes", "1", "--horizon", "120",
                   "--out", str(tmp_path / "sweep")) == 0
    assert run_cli("report", "--baseline", f"static={base}", "--run",
                   f"static, again={base}",
                   "--out", str(tmp_path / "rep")) == 0
    tables = sorted(tmp_path.rglob("*.csv"))
    assert {t.name for t in tables} == {
        "reward_curves.csv", "travel_times.csv", "rate0.00_travel_times.csv",
        "rate1.00_travel_times.csv", "sweep.csv", "comparison.csv"}
    for table in tables:
        data = table.read_bytes()
        assert b"\r" not in data, table.name
        with open(table, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1 and {len(r) for r in rows} == {len(rows[0])}
    with open(tmp_path / "rep" / "comparison.csv", newline="",
              encoding="utf-8") as fh:
        methods = {row[0] for row in csv.reader(fh)}
    assert methods == {"method", "static", "static, again"}


def test_negative_scenario_seed_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.txt"
    path.write_text("network { grid: 1x1 }\n"
                    "flow { name: WE, origin: W0:J0-0, destination: J0-0:E0, "
                    "count: 2, start: 1, period: 8 }\n"
                    "sim { horizon: 40, seed: -1 }")
    assert run_cli("baseline", "--method", "baseline-static", "--config",
                   str(path), "--episodes", "1",
                   "--out", str(tmp_path / "o")) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_parses_its_run_scenario_once(train_dir, tmp_path,
                                           monkeypatch):
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_scenario_text(text)

    monkeypatch.setattr(cli, "parse_scenario_text", counted)
    assert run_cli("sweep", "--checkpoint-dir", str(train_dir), "--rates",
                   "0,0.5,1", "--episodes", "1", "--horizon", "10",
                   "--out", str(tmp_path / "sweep")) == 0
    assert len(parsed) == 1


@pytest.mark.parametrize("command,name,text,named", [
    ("sweep", "manifest.json", "[1]", "expected a JSON object, got list"),
    ("sweep", "manifest.json", '{"method": "cotv", "scenario_text": 5}',
     "field 'scenario_text' must be a string"),
    ("sweep", "manifest.json", '{"method": "flowcav"}',
     "missing field 'scenario_text'"),
    ("sweep", "manifest.json", '{"method": "cotv", "scenario_te',
     "cannot read"),
    ("sweep", "manifest.json", json.dumps(
        {"method": "cotv", "scenario_text": "network { grid: 1x1 }",
         "penetration": "all"}), "field 'penetration' must be a number"),
    ("report", "aggregate.json", "[1]", "expected a JSON object, got list"),
    ("report", "aggregate.json",
     json.dumps({k: 1.0 for k in EpisodeReport.METRIC_KEYS
                 if k != "mean_delay"}), "missing field 'mean_delay'"),
], ids=["manifest-list", "manifest-scenario-number", "manifest-no-scenario",
        "manifest-truncated", "manifest-penetration-text", "aggregate-list",
        "aggregate-no-metric"])
def test_malformed_run_json_exits_2_naming_the_file(tmp_path, capsys, command,
                                                   name, text, named):
    run = tmp_path / "run"
    run.mkdir()
    (run / name).write_text(text)
    out = tmp_path / "o"
    argv = (["sweep", "--checkpoint-dir", str(run), "--rates", "1",
             "--episodes", "1", "--horizon", "20"] if command == "sweep"
            else ["report", "--baseline", f"b={run}"])
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert str(run / name) in err and named in err
    assert not out.exists()


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_report_with_a_zero_baseline_metric_writes_strict_json(tmp_path):
    # a metric that is 0 under the baseline has no percentage change
    for name, collided in (("base", 0.0), ("run", 2.0)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "aggregate.json").write_text(json.dumps(
            {**dict.fromkeys(EpisodeReport.METRIC_KEYS, 50.0),
             "collided": collided}))
    out = tmp_path / "rep"
    assert run_cli("report", "--baseline", f"base={tmp_path / 'base'}",
                   "--run", f"run={tmp_path / 'run'}", "--out", str(out)) == 0
    table = _strict_json(out / "comparison.json")
    assert table["run"]["collided"] == {"value": 2.0, "pct_change": None}
    assert table["run"]["mean_delay"] == {"value": 50.0, "pct_change": 0.0}


def _garbage_run(tmp_path, presslight_dir):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(json.dumps(
        {"method": "cotv", "scenario_text": "garbage", "penetration": 1}))
    return run


@pytest.mark.parametrize("command,make_run,named", [
    ("sweep", lambda tmp_path, pl: pl,
     "method presslight fixes the penetration rate at 0.0"),
    ("sweep", _garbage_run, "unparseable scenario content: 'garbage'"),
    ("evaluate", _garbage_run, "unparseable scenario content: 'garbage'"),
], ids=["sweep-forced-penetration", "sweep-garbage-scenario",
        "evaluate-garbage-scenario"])
def test_bad_checkpoint_run_exits_2_before_writing(
        tmp_path, capsys, presslight_dir, command, make_run, named):
    # every rate is resolved before the output directory is made, and the
    # message names the manifest that holds the bad entry
    run = make_run(tmp_path, presslight_dir)
    out = tmp_path / "o"
    assert run_cli(command, "--checkpoint-dir", str(run), "--episodes", "1",
                   "--horizon", "20", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {run / 'manifest.json'}: ")
    assert named in err
    assert not out.exists()


def test_report_rejects_missing_dir(tmp_path):
    assert run_cli("report", "--baseline", f"b={tmp_path}/nope",
                   "--out", str(tmp_path / "r")) == 2


@pytest.mark.parametrize("baseline,run,bad", [
    ("a={base}", "a={run}", "a={run}"),
    ("={base}", "b={run}", "={base}"),
    ("a={base}", "b=", "b="),
], ids=["repeated-name", "empty-name", "empty-dir"])
def test_report_refuses_a_repeated_or_empty_name_or_dir(tmp_path, capsys,
                                                        baseline, run, bad):
    # a repeated NAME would replace the baseline, and an empty DIR would
    # read ./aggregate.json
    dirs = {"base": tmp_path / "base", "run": tmp_path / "run"}
    for path in dirs.values():
        path.mkdir()
        (path / "aggregate.json").write_text(json.dumps(
            dict.fromkeys(EpisodeReport.METRIC_KEYS, 50.0)))
    out = tmp_path / "rep"
    assert run_cli("report", "--baseline", baseline.format(**dirs), "--run",
                   run.format(**dirs), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert repr(bad.format(**dirs)) in err
    assert not out.exists()


@pytest.mark.parametrize("command,method", [("baseline", "baseline-static"),
                                            ("train", "cotv")])
def test_repeated_flow_name_exits_2_before_writing(tmp_path, capsys, command,
                                                   method):
    # the flows' vehicle ids `A.<k>` would collide in the simulator
    config = tmp_path / "repeated.cfg"
    config.write_text(
        "network { grid: 1x1 }\n"
        "flow { name: A, origin: W0:J0-0, destination: J0-0:E0, count: 2, "
        "start: 1, period: 8 }\n"
        "flow { name: A, origin: N0:J0-0, destination: J0-0:S0, count: 2, "
        "start: 1, period: 8 }")
    out = tmp_path / "o"
    assert run_cli(command, "--method", method, "--config", str(config),
                   "--horizon", "20", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        "error: config: flow A: name used by an earlier flow")
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "baseline"])
@pytest.mark.parametrize("trace", ["", "missing/trace.txt"],
                         ids=["directory", "missing-directory"])
def test_unopenable_trace_exits_2_before_writing(train_dir, tmp_path, capsys,
                                                 command, trace):
    source = (["--checkpoint-dir", str(train_dir)] if command == "evaluate"
              else ["--method", "baseline-static"])
    out = tmp_path / "o"
    assert run_cli(command, *source, "--episodes", "1", "--horizon", "20",
                   "--trace", str(tmp_path / trace), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: --trace {tmp_path / trace}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "baseline", "sweep",
                                     "report"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_out_that_cannot_be_a_directory_exits_2(train_dir, tmp_path, capsys,
                                                command, under):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / "o" if under else afile
    trace = tmp_path / "trace.txt"
    run = tmp_path / "run"
    run.mkdir()
    (run / "aggregate.json").write_text(json.dumps(
        dict.fromkeys(EpisodeReport.METRIC_KEYS, 50.0)))
    short = ["--episodes", "1", "--horizon", "20"]
    argv = {
        "train": ["--method", "cotv", "--iterations", "1",
                  "--train-episodes", "1", "--horizon", "20"],
        "evaluate": ["--checkpoint-dir", str(train_dir), *short,
                     "--trace", str(trace)],
        "baseline": ["--method", "baseline-static", *short,
                     "--trace", str(trace)],
        "sweep": ["--checkpoint-dir", str(train_dir), "--rates", "1", *short],
        "report": ["--baseline", f"base={run}"],
    }[command]
    assert run_cli(command, *argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: config: --out {out}: {afile} is not a directory\n")
    assert afile.read_text() == "kept"
    assert not trace.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


def assert_usage_error(capsys, argv, named):
    """argparse refuses `argv`: exit 2, with `named` in the message."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err or "unrecognized arguments" in err
    assert named in err


@pytest.mark.parametrize("argv,flag", [
    (["train", "--method", "cotv", "--iterations", "0"], "--iterations"),
    (["train", "--method", "cotv", "--train-episodes", "0"],
     "--train-episodes"),
    (["train", "--method", "cotv", "--horizon", "0"], "--horizon"),
    (["train", "--method", "cotv", "--workers", "0"], "--workers"),
    (["baseline", "--method", "actuated", "--horizon", "0"], "--horizon"),
    (["baseline", "--method", "actuated", "--episodes", "0"], "--episodes"),
    (["baseline", "--method", "actuated", "--episodes", "-2"], "--episodes"),
    (["baseline", "--method", "actuated", "--episodes", "two"], "--episodes"),
    (["evaluate", "--checkpoint-dir", "nowhere", "--episodes", "0"],
     "--episodes"),
    (["sweep", "--checkpoint-dir", "nowhere", "--rates", "0,abc"], "--rates"),
    (["sweep", "--checkpoint-dir", "nowhere", "--rates", "0,1.5"], "--rates"),
    (["sweep", "--checkpoint-dir", "nowhere", "--rates", "0,,1"], "--rates"),
    # sweep names a rate's files by its two-decimal label
    (["sweep", "--checkpoint-dir", "nowhere", "--rates", "0.5,0.5"],
     "--rates: rates 0.5 and 0.5 share the label 0.50"),
    (["sweep", "--checkpoint-dir", "nowhere", "--rates", "0, 0.501,0.504"],
     "--rates: rates 0.501 and 0.504 share the label 0.50"),
], ids=["iterations", "train-episodes", "train-horizon", "workers",
        "baseline-horizon", "episodes-0", "episodes-negative",
        "episodes-word", "evaluate-episodes", "rates-word", "rates-range",
        "rates-empty", "rates-same", "rates-same-label"])
def test_bad_numbers_exit_2_naming_the_flag(tmp_path, capsys, argv, flag):
    assert_usage_error(capsys, argv + ["--out", str(tmp_path / "o")], flag)
    assert not (tmp_path / "o").exists()


def test_bad_workers_variable_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COTRAFFIC_WORKERS", "many")
    assert_usage_error(capsys, ["train", "--method", "cotv",
                                "--out", str(tmp_path / "o")], "--workers")


@pytest.mark.parametrize("argv,flag", [
    (["train", "--method", "cotv", "--trace", "t.txt"], "--trace"),
    (["train", "--method", "cotv", "--episodes", "3"], "--episodes"),
    (["sweep", "--checkpoint-dir", "nowhere", "--trace", "t.txt"], "--trace"),
    (["sweep", "--checkpoint-dir", "nowhere", "--penetration", "0.5"],
     "--penetration"),
], ids=["train-trace", "train-episodes", "sweep-trace", "sweep-penetration"])
def test_flags_a_subcommand_does_not_read_are_refused(tmp_path, capsys, argv,
                                                      flag):
    assert_usage_error(capsys, argv + ["--out", str(tmp_path / "o")], flag)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--method", "cotv", "--seed", "-1"],
    ["evaluate", "--checkpoint-dir", "nowhere", "--seed", "-200000"],
    ["baseline", "--method", "actuated", "--seed", "-1"],
    ["sweep", "--checkpoint-dir", "nowhere", "--seed", "-1"],
    ["train", "--method", "cotv", "--seed", "one"],
], ids=["train", "evaluate", "baseline", "sweep", "train-word"])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, argv):
    assert_usage_error(capsys, argv + ["--out", str(tmp_path / "o")],
                       "--seed")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_manifest_records_the_horizon_that_ran(train_dir, tmp_path, command):
    extra = ["--rates", "1.0"] if command == "sweep" else []
    manifests = []
    for horizon in ([], ["--horizon", "20"]):
        out = tmp_path / f"h{len(horizon)}"
        assert run_cli(command, "--checkpoint-dir", str(train_dir),
                       "--episodes", "1", "--out", str(out),
                       *extra, *horizon) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    default, short = manifests
    assert parse_scenario_text(default["scenario_text"]).horizon == 40
    assert parse_scenario_text(short["scenario_text"]).horizon == 20
    assert default["config_sha256"] != short["config_sha256"]


def test_sweep_and_evaluate_record_the_same_seeds(train_dir, tmp_path):
    # the checkpoint was trained at --seed 3; both runs evaluate at --seed 5
    manifests = []
    for command, extra in (("evaluate", []), ("sweep", ["--rates", "1.0"])):
        out = tmp_path / command
        assert run_cli(command, "--checkpoint-dir", str(train_dir),
                       "--episodes", "2", "--seed", "5", "--out", str(out),
                       *extra) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    evaluated, swept = manifests
    assert evaluated["seed"] == swept["seed"] == 5
    assert parse_scenario_text(swept["scenario_text"]).seed == 5
    assert swept["scenario_text"] == evaluated["scenario_text"]
    assert swept["eval_seeds"] == evaluated["eval_seeds"]
    assert len(swept["eval_seeds"]) == 2


def test_manifest_records_the_host_outside_the_hash(train_dir, tmp_path,
                                                    monkeypatch):
    from numpy._core._multiarray_umath import __cpu_features__
    trained = json.loads((train_dir / "manifest.json").read_text())
    assert trained["numpy"] == np.__version__
    assert trained["numpy_cpu_features"] == [
        name for name, on in __cpu_features__.items() if on]
    assert trained["blas"].split()[0]
    # training pins numpy's OpenBLAS to one thread when it can
    assert trained["blas_threads"] in (1, None)

    def baseline_manifest(out):
        assert run_cli("baseline", "--method", "actuated", "--episodes", "1",
                       "--horizon", "20", "--out", str(out)) == 0
        return json.loads((out / "manifest.json").read_text())

    here = baseline_manifest(tmp_path / "here")
    assert "blas_threads" not in here
    # a host field the real `_host` lacks stays out of the hash too
    monkeypatch.setattr(cli, "_host", lambda: {
        "numpy": "0.0", "numpy_cpu_features": [], "blas": "other 0",
        "blas_core": "Other", "cpu_model": "Other CPU"})
    elsewhere = baseline_manifest(tmp_path / "elsewhere")
    assert elsewhere["numpy"] == "0.0" != here["numpy"]
    assert elsewhere["cpu_model"] == "Other CPU"
    assert elsewhere["config_sha256"] == here["config_sha256"]


def test_manifest_records_the_blas_core_the_run_used(tmp_path):
    # OpenBLAS reads OPENBLAS_CORETYPE when it loads, so the run is a child
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "cotraffic.cli", "baseline", "--method",
         "actuated", "--episodes", "1", "--horizon", "5", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads((out / "manifest.json").read_text())["blas_core"]
    # null where numpy's bundled OpenBLAS or its core-name symbol is missing
    assert recorded == ("Haswell" if ppo.openblas_core() is not None
                        else None)
