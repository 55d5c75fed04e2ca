"""The names the benchmark's tracer wraps and records must exist."""
from pathlib import Path

import numpy as np

from cotraffic import kernels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_layer_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    with tracer.Tracer(tracer.LAYER_WRAPS) as t:
        kernels.collision_followers(np.array([1.0, -1.0]),
                                    np.array([True, True]))
    assert t.restored()
    assert t.names[t.name_id[-1]] == "kernels.collision_followers"
    assert t.rows[-1] == 2


def test_kernel_backend_record():
    assert kernels.active_backend().name == "numpy"
