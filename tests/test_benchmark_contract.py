"""The names the benchmark's tracer wraps and records must exist, and the
checkpoint it evaluates must load to the fingerprints it pins."""
from pathlib import Path

from cotraffic import kernels
from cotraffic.policy import load_checkpoint

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_layer_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    with tracer.Tracer(tracer.LAYER_WRAPS) as t:
        kernels.collision_followers([1.0, -1.0], [True, True])
    assert t.restored()
    assert t.names[t.name_id[-1]] == "kernels.collision_followers"
    assert t.rows[-1] == 2


def test_kernel_backend_record():
    assert kernels.active_backend().name == "python"


def test_benchmark_checkpoint_fingerprints(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for kind, want in workloads.CHECKPOINT_FINGERPRINTS.items():
        params, _ = load_checkpoint(
            workloads.CHECKPOINT_DIR / f"checkpoint_{kind}.npz")
        assert params.fingerprint() == want
