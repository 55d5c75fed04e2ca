"""PPO training loop with per-type parameter sharing.

Each iteration runs E independent episodes of H steps, pools every agent's
trajectory segments into one buffer per agent type, computes generalized
advantage estimates in one sweep over all segments, and applies K epochs of
shuffled minibatch clipped-surrogate updates, signal type first, then
vehicles. Every iteration fills fresh buffers. Everything is deterministic
given the seed, including episode scheduling across worker processes.
"""
import contextlib
import ctypes
import functools
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rollout
from .env import cav_obs_dim, tl_obs_dim
from .policy import Adam, GradWorkspace, init_params, ppo_loss_and_grads


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

    A 1-D call is one segment. A (segments x time) call sweeps all rows at
    once; a row shorter than the time axis is right-padded with zero rewards
    and values, which keeps its advantage at exactly 0 until its last step
    and bootstraps that step with 0, so `last_value` must then be 0.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.shape != values.shape:
        raise ValueError("rewards and values must have equal length")
    if not (np.all(np.isfinite(rewards)) and np.all(np.isfinite(values))):
        raise ValueError("rewards and values must be finite")
    next_values = np.full_like(values, float(last_value))
    next_values[..., :-1] = values[..., 1:]
    deltas = rewards + gamma * next_values - values
    decay = gamma * lam
    adv = np.empty_like(rewards)
    running = np.zeros(rewards.shape[:-1])
    for t in range(rewards.shape[-1] - 1, -1, -1):
        running = deltas[..., t] + decay * running
        adv[..., t] = running
    return adv, adv + values


def explained_variance(values, returns):
    """1 - var(returns - values) / var(returns); nan when the returns are
    constant."""
    var_returns = np.var(returns)
    if var_returns == 0.0:
        return float("nan")
    return float(1.0 - np.var(returns - values) / var_returns)


@dataclass
class RolloutBuffer:
    """One agent type's trajectory segments, a list of non-empty AgentStep
    lists in batch order, plus their flattened training arrays."""
    segments: list

    def __len__(self):
        return sum(len(s) for s in self.segments)

    def build_batch(self, gamma, lam):
        """Training arrays and value estimates of every step in segment
        order, with GAE computed in one sweep over the segments right-padded
        to the longest one."""
        steps = [s for seg in self.segments for s in seg]
        lengths = np.array([len(seg) for seg in self.segments])
        mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
        rewards, values = np.zeros(mask.shape), np.zeros(mask.shape)
        rewards[mask] = [s.reward for s in steps]
        values[mask] = [s.value for s in steps]
        # every segment ends for its agent (done), so bootstrap with 0
        adv, ret = compute_gae(rewards, values, 0.0, gamma, lam)
        return {
            "obs": np.asarray([s.obs for s in steps], dtype=np.float64),
            "actions": np.asarray([s.action for s in steps], dtype=np.float64),
            "old_logp": np.asarray([s.log_prob for s in steps],
                                   dtype=np.float64),
            "advantages": adv[mask],
            "returns": ret[mask],
            "values": values[mask],
        }


def ppo_update(optimizer, batch, cfg, rng):
    """K epochs of shuffled minibatch updates on one agent type's batch.

    Advantages are normalized to zero mean and unit variance over the whole
    batch before the epochs. Mutates the optimizer and the network it owns
    in place and returns aggregate diagnostics.
    """
    params = optimizer.params
    n = batch["obs"].shape[0]
    if n == 0:
        raise ValueError("empty batch")
    adv = batch["advantages"]
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    columns = (batch["obs"], batch["actions"], batch["old_logp"], adv,
               batch["returns"])
    work = GradWorkspace(params, min(n, cfg.minibatch_size))
    stats_acc = []
    for _ in range(cfg.epochs):
        # one gather per epoch; each minibatch is then a contiguous slice
        # holding the rows of order[start:end]
        order = rng.permutation(n)
        shuffled = [col[order] for col in columns]
        for start in range(0, n, cfg.minibatch_size):
            end = start + cfg.minibatch_size
            loss, grad, stats = ppo_loss_and_grads(
                params, *(col[start:end] for col in shuffled),
                cfg.clip_eps, cfg.value_coef, cfg.entropy_coef, work)
            if grad is None:
                raise NonFiniteLossError(
                    f"non-finite loss {loss!r} on a {params.kind} minibatch "
                    f"of {min(end, n) - start} samples")
            optimizer.step(grad, cfg.max_grad_norm)
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
    halted_early: bool = False
    blas_threads: int = None  # None: no OpenBLAS thread control was found


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, looked up and loaded once per process, or
    None when it is not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    try:
        return ctypes.CDLL(str(found[0]))
    except (IndexError, OSError):
        return None


def _openblas_function(name, restype, *argtypes):
    """The typed function `name` of numpy's bundled OpenBLAS, or None when
    the library or the symbol is not found."""
    try:
        fn = getattr(_openblas(), name)
    except AttributeError:
        return None
    fn.restype, fn.argtypes = restype, list(argtypes)
    return fn


def openblas_core():
    """The kernel family numpy's bundled OpenBLAS runs on this CPU (such as
    'SkylakeX'; `OPENBLAS_CORETYPE` overrides its choice), or None when the
    library or its symbol is not found."""
    corename = _openblas_function("scipy_openblas_get_corename64_",
                                  ctypes.c_char_p)
    return None if corename is None else corename().decode()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread, yielding
    that count, 1, then restore the previous thread count.

    With two or more threads OpenBLAS splits the inner axis of a product
    such as the (64 x K) @ (K x 64) hidden-weight gradient and sums the
    parts, so for some minibatch sizes K (the first is 385) the result
    differs in the last bit from the one-thread result. One thread makes
    training independent of the host's core count. Without the bundled
    library's thread control the block runs at the BLAS's own count and
    yields None, and a note on stderr says so.
    """
    get_threads = _openblas_function("scipy_openblas_get_num_threads64_",
                                     ctypes.c_int)
    set_threads = _openblas_function("scipy_openblas_set_num_threads64_",
                                     None, ctypes.c_int)
    if get_threads is None or set_threads is None:
        print("note: numpy's OpenBLAS thread control "
              "(scipy_openblas_set_num_threads64_) was not found; training "
              "runs at the BLAS's own thread count, and its result may "
              "depend on that count", file=sys.stderr)
        yield None
        return
    before = get_threads()
    set_threads(1)
    try:
        yield 1
    finally:
        set_threads(before)


def episode_seed(seed, iteration, episode):
    """Deterministic per-episode seed, independent of worker scheduling."""
    return np.random.SeedSequence((seed, iteration, episode))


def train(scenario, env_cfg, cfg, seed=0, workers=1, progress=None):
    """Run the full training loop; returns parameters and reward curves.

    The agent types `env_cfg` has no plan for are trained; a type's
    `{tl,cav}_reward` (the mean over an iteration's episodes of its summed
    rewards) is NaN when it is not trained or took no step. `workers`
    episode processes run each iteration's rollouts; results are identical
    for any value. It runs on one BLAS thread (`one_blas_thread`), whose
    count the result records, so results are identical for any thread
    count.
    """
    with one_blas_thread() as blas_threads:
        learned = {}  # agent type -> Adam owning its network, signals first
        for kind in env_cfg.learned:
            dim = (tl_obs_dim(scenario.network, env_cfg.mode) if kind == "tl"
                   else cav_obs_dim(env_cfg.mode))
            learned[kind.upper()] = Adam(
                init_params(kind, dim, cfg.hidden, seed), cfg.learning_rate)
        if not learned:
            raise ValueError("training needs at least one agent type")
        tl_params, cav_params = (learned[t].params if t in learned else None
                                 for t in ("TL", "CAV"))

        update_rng = np.random.default_rng(np.random.SeedSequence((seed, 999)))
        curves = []
        halted = False
        t0 = time.perf_counter()
        for iteration in range(cfg.iterations):
            seeds = [episode_seed(seed, iteration, ep)
                     for ep in range(cfg.episodes_per_iter)]
            rollout_begin = time.perf_counter()
            episodes = rollout.collect_episodes(
                scenario, env_cfg, tl_params, cav_params, seeds, cfg.horizon,
                workers=workers)
            rollout_s = time.perf_counter() - rollout_begin

            entry = {"iteration": iteration}
            buffers = {}
            for agent_type in ("TL", "CAV"):
                segments, reward_sums = [], []
                for ep in episodes:
                    total = 0.0
                    for seg in ep.segments[agent_type]:
                        segments.append(seg)
                        total += sum(s.reward for s in seg)
                    reward_sums.append(total)
                buffer = buffers[agent_type] = RolloutBuffer(segments)
                prefix = agent_type.lower()
                entry[f"{prefix}_reward"] = (
                    float(np.mean(reward_sums))
                    if agent_type in learned and len(buffer) else float("nan"))
                entry[f"{prefix}_steps"] = len(buffer)
            entry["collisions"] = sum(ep.collisions for ep in episodes)

            update_begin = time.perf_counter()
            try:
                for agent_type, optimizer in learned.items():
                    buffer = buffers[agent_type]
                    if len(buffer) == 0:
                        continue  # e.g. zero CAV penetration: nothing to update
                    batch = buffer.build_batch(cfg.gamma, cfg.gae_lambda)
                    prefix = agent_type.lower()
                    entry[f"{prefix}_explained_variance"] = explained_variance(
                        batch["values"], batch["returns"])
                    stats = ppo_update(optimizer, batch, cfg, update_rng)
                    for key in DIAGNOSTICS:
                        entry[f"{prefix}_{key}"] = stats[key]
            except NonFiniteLossError:
                halted = True

            entry["rollout_s"] = rollout_s
            entry["update_s"] = time.perf_counter() - update_begin
            entry["wall_s"] = time.perf_counter() - t0
            curves.append(entry)
            if progress is not None:
                progress(entry)
            if halted:
                break

        return TrainResult(tl_params, cav_params, curves,
                           time.perf_counter() - t0, halted, blas_threads)
