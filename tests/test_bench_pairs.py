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
        assert m["median_parent"] == m["parent"][0]
        assert m["parent_iqr"] == 0.0
        assert m["change_wins"] in (0, 1)
    # the same code on both sides computes the same trips
    travel = entry["metrics"]["mean_travel_time_s"]
    assert travel["parent"] == travel["change"]


def test_pairs_alternate_and_wins_follow_the_direction(monkeypatch):
    tool = load_tool(monkeypatch)
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout, seed))
        fast = checkout == "change"
        metrics = {"env_steps_per_s": {"value": 2.0 if fast else 1.0,
                                       "unit": "1/s"},
                   "setup_s": {"value": 1.0 if fast else 2.0, "unit": "s"}}
        return ({"correct": True, "attempted": 3, "failed": 0,
                 "metrics": metrics}, {"nproc": 1})

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
    assert envs == {"parent": {"nproc": 1}, "change": {"nproc": 1}}
