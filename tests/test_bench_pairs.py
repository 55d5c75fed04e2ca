"""tools/bench_pairs.py: the alternating-pairs comparison of two checkouts."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import bench_pairs
    return bench_pairs


def test_head_against_head_record_shape(tmp_path):
    out = tmp_path / "record.json"
    subprocess.run([sys.executable, str(TOOL), "--parent", str(ROOT),
                    "--change", str(ROOT), "--workload", "baseline-1x6",
                    "--pairs", "1", "--seconds", "1", "--seed-base", "5",
                    "--out", str(out)], check=True, capture_output=True)
    record = json.loads(out.read_text())
    assert set(record) == {"environment", "end_to_end"}
    for side in ("parent", "change"):
        assert record["environment"][side]["nproc"] >= 1
    entry = record["end_to_end"]["baseline-1x6"]
    assert entry["seeds"] == [5] and entry["pairs"] == 1
    assert entry["correct"] is True
    assert entry["failed_operations"] == {"parent": 0, "change": 0}
    assert set(entry["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, m in entry["metrics"].items():
        assert len(m["parent"]) == len(m["change"]) == 1
        moved = m["median_change"] != m["median_parent"]
        if m["unit"] in ("s", "1/s") and moved:
            assert type(m["raw_agrees"]) is bool
        else:
            assert m["raw_agrees"] is None
        assert m["median_parent"] == m["parent"][0]
        assert m["parent_iqr"] == 0.0
        assert m["change_wins"] in (0, 1)
    # the same code on both sides computes the same trips
    travel = entry["metrics"]["mean_travel_time_s"]
    assert travel["parent"] == travel["change"]
    hidden = entry["uncalibrated"]
    assert set(hidden) == {"wall_iter_s.p50", "reference_s.p50",
                           "cpu_s_per_op"}
    for m in hidden.values():
        assert m["unit"] == "s" and m["better"] == "lower"
        assert len(m["parent"]) == len(m["change"]) == 1
        assert m["median_change"] == m["change"][0] > 0.0
        assert m["parent_iqr"] == 0.0


def test_pairs_alternate_and_wins_follow_the_direction(monkeypatch):
    tool = load_tool(monkeypatch)
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout, seed))
        fast = checkout == "change"
        metrics = {"env_steps_per_s": {"value": 2.0 if fast else 1.0,
                                       "unit": "1/s"},
                   "setup_s": {"value": 1.0 if fast else 2.0, "unit": "s"},
                   # slower while the raw wall time falls: disagrees
                   "iter_s.p50": {"value": 0.3 if fast else 0.2, "unit": "s"},
                   "mean_travel_time_s": {"value": 60.0, "unit": "s"},
                   "peak_rss_mb": {"value": 2.0 if fast else 1.0,
                                   "unit": "MB"}}
        hidden = {"wall_iter_s.p50": 0.5 if fast else 0.75,
                  "reference_s.p50": 0.04, "cpu_s_per_op": seed - 39.0}
        return ({"correct": True, "attempted": 3, "failed": 0,
                 "metrics": metrics, "uncalibrated": hidden}, {"nproc": 1})

    monkeypatch.setattr(tool, "run_once", fake_run)
    # the parent checkout's BENCHMARK.json gives each metric's direction
    entry, envs = tool.compare(ROOT, "change", "eval-1x6", 3, 1.0, 40, 0)
    assert calls == [(ROOT, 40), ("change", 40), ("change", 41),
                     (ROOT, 41), (ROOT, 42), ("change", 42)]
    assert entry["seeds"] == [40, 41, 42]
    assert entry["attempted_operations"] == {"parent": 9, "change": 9}
    for name in ("env_steps_per_s", "setup_s"):
        assert entry["metrics"][name]["change_wins"] == 3
    assert entry["metrics"]["setup_s"]["median_rel_change"] == -0.5
    # the raw wall time fell in every pair: it agrees with a faster rate
    # and a shorter time, not with a longer time; equal medians and a
    # memory figure get no verdict
    assert {name: m["raw_agrees"] for name, m in entry["metrics"].items()} == {
        "env_steps_per_s": True, "setup_s": True, "iter_s.p50": False,
        "mean_travel_time_s": None, "peak_rss_mb": None}
    # the uncalibrated values sit apart from the benchmark's names, lower
    # being better
    hidden = entry["uncalibrated"]
    assert not set(hidden) & set(entry["metrics"])
    wall = hidden["wall_iter_s.p50"]
    assert (wall["parent"], wall["change"]) == ([0.75] * 3, [0.5] * 3)
    assert wall["change_wins"] == 3 and wall["median_rel_change"] == -0.3333
    assert hidden["reference_s.p50"]["change_wins"] == 0
    cpu = hidden["cpu_s_per_op"]
    assert cpu["parent"] == cpu["change"] == [1.0, 2.0, 3.0]
    assert cpu["median_parent"] == 2.0 and cpu["parent_iqr"] == 1.0
    assert envs == {"parent": {"nproc": 1}, "change": {"nproc": 1}}
