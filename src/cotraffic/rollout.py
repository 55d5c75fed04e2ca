"""Episode execution shared by training, evaluation, and baseline runs.

An episode owns its environment and simulator end to end, so episodes can
run in worker processes; per-episode seeds make the results independent of
scheduling. Collection groups agent records into time-contiguous trajectory
segments (one agent's tenure between selection and retirement) for the
advantage estimator.
"""
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baselines
from .env import TrafficEnv
from .metrics import build_episode_report
from .policy import Policy
from .simulation import TraceWriter


@dataclass
class EpisodeResult:
    segments: dict       # "TL"/"CAV" -> list of AgentStep lists
    collisions: int
    completed: int
    ttc_events: int


def run_episode(scenario, env_cfg, tl_params, cav_params, seed, horizon,
                sample=True, tl_plan=None, collect=True, trace=None):
    """Run one episode; returns (EpisodeResult, final sim state).

    `seed` replaces the scenario seed (demand draw and, when sampling, the
    action noise). Segments are closed when an agent's record carries done,
    and any still-open segment is closed at the horizon with done set on its
    final record.
    """
    if isinstance(seed, np.random.SeedSequence):
        seed_seq = seed
    else:
        seed_seq = np.random.SeedSequence((int(seed),))
    scen_seed, act_seed = seed_seq.generate_state(2)
    episode_scenario = scenario.with_overrides(seed=int(scen_seed) % (2 ** 31))
    env = TrafficEnv(episode_scenario, env_cfg)
    env.reset()
    rng = np.random.default_rng(np.random.SeedSequence(int(act_seed)))

    tl_policy = Policy(tl_params) if (env_cfg.tl_agents and tl_params) else None
    cav_policy = Policy(cav_params) if (env_cfg.cav_agents and cav_params) else None
    override = (baselines.make_light_controller(tl_plan)
                if tl_plan is not None and tl_policy is None else None)

    open_segments = {}
    closed = {"TL": [], "CAV": []}
    for _ in range(horizon):
        records = env.step(tl_policy, cav_policy, rng=rng, sample=sample,
                           tl_override=override, trace=trace)
        if not collect:
            continue
        for rec in records:
            key = (rec.agent_type, rec.agent_id)
            open_segments.setdefault(key, []).append(rec)
            if rec.done:
                closed[rec.agent_type].append(open_segments.pop(key))
    for (agent_type, _), seg in sorted(open_segments.items(),
                                       key=lambda kv: (kv[0][0], kv[0][1])):
        seg[-1].done = True
        closed[agent_type].append(seg)

    sim = env.sim
    result = EpisodeResult(closed, sim.collided_count, len(sim.completed),
                           sim.ttc_event_count)
    return result, sim


def _episode_task(args):
    (scenario, env_cfg, tl_params, cav_params, seed, horizon, tl_plan) = args
    result, _ = run_episode(scenario, env_cfg, tl_params, cav_params, seed,
                            horizon, sample=True, tl_plan=tl_plan)
    return result


def collect_episodes(scenario, env_cfg, tl_params, cav_params, seeds, horizon,
                     tl_plan=None, workers=1):
    """Training episodes for one iteration, serial or across processes."""
    tasks = [(scenario, env_cfg, tl_params, cav_params, seed, horizon, tl_plan)
             for seed in seeds]
    if workers <= 1 or len(tasks) == 1:
        return [_episode_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_episode_task, tasks))


def evaluate_policy(scenario, env_cfg, tl_params, cav_params, seeds,
                    horizon=None, tl_plan=None, trace_fh=None):
    """Greedy-action evaluation episodes; returns one report per seed.

    When a trace file handle is given, the first episode's per-step vehicle
    records are written to it.
    """
    horizon = horizon or scenario.horizon
    reports = []
    for i, seed in enumerate(seeds):
        trace = TraceWriter(trace_fh) if (trace_fh is not None and i == 0) else None
        _, sim = run_episode(scenario, env_cfg, tl_params, cav_params, seed,
                             horizon, sample=False, tl_plan=tl_plan,
                             collect=False, trace=trace)
        reports.append(build_episode_report(sim))
    return reports


def run_baseline_episode(scenario, method, seed, horizon=None, trace_fh=None):
    """One non-learned episode (static, actuated, max-pressure, or glosa)."""
    horizon = horizon or scenario.horizon
    seed_seq = np.random.SeedSequence((int(seed),))
    scen_seed = int(seed_seq.generate_state(1)[0]) % (2 ** 31)
    episode_scenario = scenario.with_overrides(seed=scen_seed)
    controller = baselines.BaselineController(method)
    sim = controller.new_sim(episode_scenario)
    trace = TraceWriter(trace_fh) if trace_fh is not None else None
    for _ in range(horizon):
        controller.step(sim, trace=trace)
    return build_episode_report(sim), sim


def evaluate_baseline(scenario, method, seeds, horizon=None, trace_fh=None):
    return [run_baseline_episode(scenario, method, seed, horizon,
                                 trace_fh=trace_fh if i == 0 else None)[0]
            for i, seed in enumerate(seeds)]
