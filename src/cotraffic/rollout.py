"""Episode execution shared by training, evaluation, and baseline runs.

An episode owns its environment and simulator end to end, so episodes can
run in worker processes; per-episode seeds make the results independent of
scheduling. Collection groups agent records into time-contiguous trajectory
segments (one agent's tenure between selection and retirement) for the
advantage estimator.
"""
from dataclasses import dataclass

import numpy as np

from .env import TrafficEnv
from .methods import get_method
from .metrics import build_episode_report
from .policy import Policy
from .simulation import write_trace


@dataclass
class EpisodeResult:
    segments: dict       # "TL"/"CAV" -> list of AgentStep lists
    collisions: int
    completed: int
    ttc_events: int


def _episode_seeds(seed):
    """(demand seed, action seed) of an episode `seed`, an int or a
    SeedSequence; the demand seed replaces the scenario's seed."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence((int(seed),))
    scen_seed, act_seed = seed.generate_state(2)
    return int(scen_seed) % (2 ** 31), int(act_seed)


def run_episode(scenario, env_cfg, tl_params, cav_params, seed, horizon,
                sample=True, collect=True, trace_fh=None):
    """Run one episode; returns (EpisodeResult, final sim state).

    `seed` replaces the scenario seed (demand draw and, when sampling, the
    action noise). Segments are closed when an agent's record carries done,
    and any still-open segment is closed at the horizon with done set on its
    final record. With a trace file handle, the state after each step is
    written to it (`write_trace`).
    """
    scen_seed, act_seed = _episode_seeds(seed)
    env = TrafficEnv(scenario.with_overrides(seed=scen_seed), env_cfg)
    sim = env.reset()
    rng = np.random.default_rng(np.random.SeedSequence(act_seed))

    tl_policy = Policy(tl_params) if tl_params else None
    cav_policy = Policy(cav_params) if cav_params else None

    open_segments = {}
    closed = {"TL": [], "CAV": []}
    for _ in range(horizon):
        records = env.step(tl_policy, cav_policy, rng=rng, sample=sample)
        if trace_fh is not None:
            write_trace(trace_fh, sim)
        if not collect:
            continue
        for rec in records:
            key = (rec.agent_type, rec.agent_id)
            open_segments.setdefault(key, []).append(rec)
            if rec.done:
                closed[rec.agent_type].append(open_segments.pop(key))
    for (agent_type, _), seg in sorted(open_segments.items()):
        seg[-1].done = True
        closed[agent_type].append(seg)

    result = EpisodeResult(closed, sim.collided_count, len(sim.completed),
                           sim.ttc_event_count)
    return result, sim


def _episode_task(args):
    """A sampled episode's EpisodeResult, from `run_episode`'s positional
    arguments."""
    return run_episode(*args)[0]


def collect_episodes(scenario, env_cfg, tl_params, cav_params, seeds, horizon,
                     workers=1):
    """Training episodes for one iteration, serial or across processes."""
    tasks = [(scenario, env_cfg, tl_params, cav_params, seed, horizon)
             for seed in seeds]
    if workers <= 1 or len(tasks) == 1:
        return [_episode_task(t) for t in tasks]
    # imported here so that a serial run never loads the pool stack
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_episode_task, tasks))


def evaluate_policy(scenario, env_cfg, tl_params, cav_params, seeds,
                    horizon, trace_fh=None):
    """Greedy-action evaluation episodes; returns one report per seed.

    An agent type the configuration does not learn takes None for its
    network.
    When a trace file handle is given, the first episode's per-step vehicle
    and light records are written to it.
    """
    reports = []
    for i, seed in enumerate(seeds):
        _, sim = run_episode(scenario, env_cfg, tl_params, cav_params, seed,
                             horizon, sample=False, collect=False,
                             trace_fh=trace_fh if i == 0 else None)
        reports.append(build_episode_report(sim))
    return reports


def run_baseline_episode(scenario, method, seed, horizon=None, trace_fh=None):
    """One episode of a non-learned method (baseline-static, actuated,
    max-pressure or glosa); returns (report, final sim state)."""
    spec = get_method(method)
    if spec.rl:
        raise ValueError(f"method {method!r} is learned")
    _, sim = run_episode(scenario, spec.env_cfg, None, None, seed,
                         horizon or scenario.horizon, sample=False,
                         collect=False, trace_fh=trace_fh)
    return build_episode_report(sim), sim
