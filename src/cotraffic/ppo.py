"""PPO training loop with per-type parameter sharing.

Each iteration runs E independent episodes of H steps, pools every agent's
trajectory segments into one buffer per agent type, computes generalized
advantage estimates segment by segment, and applies K epochs of shuffled
minibatch clipped-surrogate updates, signal type first, then vehicles. The
buffer is emptied after every iteration. Everything is deterministic given
the seed, including episode scheduling across worker processes.
"""
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import rollout
from .env import CooperationMode, EnvConfig, cav_obs_dim, tl_obs_dim
from .policy import Adam, init_params, ppo_loss_and_grads


class NonFiniteLossError(RuntimeError):
    """Raised when an update produces a non-finite loss; aborts cleanly."""


@dataclass(frozen=True)
class PpoConfig:
    iterations: int = 150
    episodes_per_iter: int = 18
    horizon: int = 720
    epochs: int = 10
    minibatch_size: int = 512
    clip_eps: float = 0.2
    gamma: float = 0.99
    gae_lambda: float = 0.95
    learning_rate: float = 3e-4
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    max_grad_norm: float = 0.5
    hidden: tuple = (64, 64)
    update_order: tuple = ("TL", "CAV")

    def __post_init__(self):
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must lie in (0, 1)")
        if not 0.0 < self.gamma <= 1.0 or not 0.0 < self.gae_lambda <= 1.0:
            raise ValueError("gamma and gae_lambda must lie in (0, 1]")
        for name in ("iterations", "episodes_per_iter", "horizon", "epochs",
                     "minibatch_size", "learning_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


# per-minibatch statistics of `ppo_loss_and_grads` that `train` records,
# averaged over the iteration's minibatches, as `{tl,cav}_<name>` entries
DIAGNOSTICS = ("loss", "policy_loss", "value_loss", "entropy", "mean_ratio",
               "approx_kl", "clip_fraction")


def paper_profile():
    return PpoConfig()


def ci_profile():
    """Desk-scale profile: same algorithm, reduced rollout budget."""
    return PpoConfig(iterations=30, episodes_per_iter=4, horizon=360)


PROFILES = {"paper": paper_profile, "ci": ci_profile}


def compute_gae(rewards, values, last_value, gamma, lam):
    """Exponentially weighted TD-residual advantages and value targets.

    delta_t = r_t + gamma * v_{t+1} - v_t, with v after the segment end equal
    to last_value (0 for terminated segments). A_t = delta_t + gamma * lam *
    A_{t+1}; returns_t = A_t + v_t.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.shape != values.shape:
        raise ValueError("rewards and values must have equal length")
    if not (np.all(np.isfinite(rewards)) and np.all(np.isfinite(values))):
        raise ValueError("rewards and values must be finite")
    n = rewards.shape[0]
    adv = np.empty(n)
    next_value = float(last_value)
    running = 0.0
    for t in range(n - 1, -1, -1):
        delta = rewards[t] + gamma * next_value - values[t]
        running = delta + gamma * lam * running
        adv[t] = running
        next_value = values[t]
    return adv, adv + values


@dataclass
class RolloutBuffer:
    """Per-type trajectory segments plus their flattened training arrays."""
    segments: list = field(default_factory=list)

    def add_segment(self, steps):
        if steps:
            self.segments.append(steps)

    def __len__(self):
        return sum(len(s) for s in self.segments)

    def build_batch(self, gamma, lam):
        obs, actions, logps, advs, rets = [], [], [], [], []
        for seg in self.segments:
            rewards = [s.reward for s in seg]
            values = [s.value for s in seg]
            # every segment ends for its agent (done), so bootstrap with 0
            adv, ret = compute_gae(rewards, values, 0.0, gamma, lam)
            for s, a, r in zip(seg, adv, ret):
                obs.append(s.obs)
                actions.append(s.action)
                logps.append(s.log_prob)
                advs.append(a)
                rets.append(r)
        return {
            "obs": np.asarray(obs, dtype=np.float64),
            "actions": np.asarray(actions, dtype=np.float64),
            "old_logp": np.asarray(logps, dtype=np.float64),
            "advantages": np.asarray(advs, dtype=np.float64),
            "returns": np.asarray(rets, dtype=np.float64),
        }

    def clear(self):
        self.segments = []


def ppo_update(params, optimizer, batch, cfg, rng):
    """K epochs of shuffled minibatch updates on one agent type's batch.

    Advantages are normalized to zero mean and unit variance over the whole
    batch before the epochs. Mutates params/optimizer in place and returns
    aggregate diagnostics.
    """
    n = batch["obs"].shape[0]
    if n == 0:
        raise ValueError("empty batch")
    adv = batch["advantages"]
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    stats_acc = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            idx = order[start:start + cfg.minibatch_size]
            loss, grad, stats = ppo_loss_and_grads(
                params, batch["obs"][idx], batch["actions"][idx],
                batch["old_logp"][idx], adv[idx], batch["returns"][idx],
                cfg.clip_eps, cfg.value_coef, cfg.entropy_coef)
            if grad is None:
                raise NonFiniteLossError(
                    f"non-finite loss {loss!r} on a {params.kind} minibatch "
                    f"of {len(idx)} samples")
            optimizer.step(params, grad, cfg.max_grad_norm)
            stats_acc.append(stats)
    keys = stats_acc[0].keys()
    out = {k: float(np.mean([s[k] for s in stats_acc])) for k in keys}
    out["samples"] = n
    out["updates"] = len(stats_acc)
    return out


@dataclass
class TrainResult:
    tl_params: object
    cav_params: object
    curves: list              # one dict per iteration
    wall_time_s: float
    config: PpoConfig
    seed: int
    halted_early: bool = False

    def curve(self, key):
        return [c[key] for c in self.curves]


def episode_seed(seed, iteration, episode):
    """Deterministic per-episode seed, independent of worker scheduling."""
    return np.random.SeedSequence((seed, iteration, episode))


def train(scenario, env_cfg=None, cfg=None, seed=0, tl_plan=None,
          workers=None, progress=None):
    """Run the full training loop; returns parameters and reward curves.

    `tl_plan` names a non-learned signal plan ("static"/"actuated") for
    configurations whose lights are not agents. Worker count comes from the
    argument, else COTRAFFIC_WORKERS, else 1; results are identical for any
    value.
    """
    env_cfg = env_cfg or EnvConfig()
    cfg = cfg or PpoConfig()
    if workers is None:
        workers = int(os.environ.get("COTRAFFIC_WORKERS", "1"))

    tl_params = cav_params = None
    optimizers = {}
    if env_cfg.tl_agents:
        tl_params = init_params("tl", tl_obs_dim(scenario.network, env_cfg.mode),
                                cfg.hidden, seed)
        optimizers["TL"] = Adam(tl_params, cfg.learning_rate)
    if env_cfg.cav_agents:
        cav_params = init_params("cav", cav_obs_dim(env_cfg.mode),
                                 cfg.hidden, seed)
        optimizers["CAV"] = Adam(cav_params, cfg.learning_rate)
    if not optimizers:
        raise ValueError("training needs at least one agent type")

    update_rng = np.random.default_rng(np.random.SeedSequence((seed, 999)))
    curves = []
    halted = False
    t0 = time.perf_counter()
    for iteration in range(cfg.iterations):
        seeds = [episode_seed(seed, iteration, ep)
                 for ep in range(cfg.episodes_per_iter)]
        episodes = rollout.collect_episodes(
            scenario, env_cfg, tl_params, cav_params, seeds, cfg.horizon,
            tl_plan=tl_plan, workers=workers)

        buffers = {"TL": RolloutBuffer(), "CAV": RolloutBuffer()}
        reward_sums = {"TL": [], "CAV": []}
        collision_count = 0
        for ep in episodes:
            collision_count += ep.collisions
            for agent_type in ("TL", "CAV"):
                total = 0.0
                for seg in ep.segments[agent_type]:
                    buffers[agent_type].add_segment(seg)
                    total += sum(s.reward for s in seg)
                reward_sums[agent_type].append(total)

        entry = {
            "iteration": iteration,
            "tl_reward": float(np.mean(reward_sums["TL"])) if env_cfg.tl_agents else float("nan"),
            "cav_reward": (float(np.mean(reward_sums["CAV"]))
                           if env_cfg.cav_agents and len(buffers["CAV"]) else float("nan")),
            "tl_steps": len(buffers["TL"]),
            "cav_steps": len(buffers["CAV"]),
            "collisions": collision_count,
        }

        try:
            for agent_type in cfg.update_order:
                if agent_type not in optimizers:
                    continue
                buffer = buffers[agent_type]
                if len(buffer) == 0:
                    continue  # e.g. zero CAV penetration: nothing to update
                params = tl_params if agent_type == "TL" else cav_params
                batch = buffer.build_batch(cfg.gamma, cfg.gae_lambda)
                stats = ppo_update(params, optimizers[agent_type], batch,
                                   cfg, update_rng)
                for key in DIAGNOSTICS:
                    entry[f"{agent_type.lower()}_{key}"] = stats[key]
                buffer.clear()
        except NonFiniteLossError:
            halted = True
        for buffer in buffers.values():
            buffer.clear()

        entry["wall_s"] = time.perf_counter() - t0
        curves.append(entry)
        if progress is not None:
            progress(entry)
        if halted:
            break

    return TrainResult(tl_params, cav_params, curves,
                       time.perf_counter() - t0, cfg, seed, halted)
