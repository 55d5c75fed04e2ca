"""The names the benchmark's tracer wraps and records must exist, the
calls its workloads make must still bind, the checkpoint it evaluates must
load to the fingerprints it pins, and the episode results its pool probe
compares must keep the fields it reads."""
import dataclasses
import inspect
from pathlib import Path

from cotraffic import kernels, ppo, rollout
from cotraffic.env import CooperationMode, EnvConfig, cav_obs_dim, tl_obs_dim
from cotraffic.network import grid_scenario
from cotraffic.policy import init_params, load_checkpoint

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_layer_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    with tracer.Tracer(tracer.LAYER_WRAPS) as t:
        kernels.collision_followers([1.0, -1.0], [True, True])
    assert t.restored()
    assert t.names[t.name_id[-1]] == "kernels.collision_followers"
    assert t.rows[-1] == 2


def test_workload_call_forms_bind():
    # the argument forms perfbench/workloads.py calls the package with; a
    # trimmed signature fails here rather than in the benchmark
    def binds(fn, *args, **kwargs):
        inspect.signature(fn).bind(*args, **kwargs)

    scen = grid_scenario("1x6", penetration=1.0)
    cfg = dataclasses.replace(ppo.ci_profile(), iterations=1)
    cotv = EnvConfig(CooperationMode.COTV)
    binds(rollout.run_baseline_episode, scen, "glosa", 1)
    binds(rollout.run_episode, scen, cotv, None, None, 1, scen.horizon,
          sample=False, collect=True)
    binds(ppo.train, scen, cotv, cfg, seed=1, workers=1,
          progress=print)
    binds(grid_scenario, "1x6", penetration=1.0)


def test_kernel_backend_record():
    assert kernels.active_backend().name == "python"


def test_benchmark_checkpoint_fingerprints(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for kind, want in workloads.CHECKPOINT_FINGERPRINTS.items():
        params, _ = load_checkpoint(
            workloads.CHECKPOINT_DIR / f"checkpoint_{kind}.npz")
        assert params.fingerprint() == want


def test_pool_probe_reads_every_result_field(monkeypatch):
    # perfbench's pool probe compares two collect_episodes results with
    # workloads.segments_equal, which reads EpisodeResult.collisions,
    # .completed and .ttc_events and every attribute of every record
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    scen = grid_scenario("1x1", penetration=1.0, seed=3)
    tl = init_params("tl", tl_obs_dim(scen.network, workloads.COTV.mode),
                     seed=1)
    cav = init_params("cav", cav_obs_dim(workloads.COTV.mode), seed=1)
    a, b = (rollout.collect_episodes(scen, workloads.COTV, tl, cav, [1, 2],
                                     60, workers=1) for _ in range(2))
    assert workloads.segments_equal(a, b)
    for name in ("collisions", "completed", "ttc_events"):
        changed = [dataclasses.replace(b[0], **{name: getattr(b[0], name) + 1})]
        assert not workloads.segments_equal(a[:1], changed)
    b[0].segments["TL"][0][-1].reward += 1.0
    assert not workloads.segments_equal(a, b)
