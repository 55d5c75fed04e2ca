"""Networks, GAE, the clipped update, and training-loop bookkeeping."""
import contextlib
import copy
import ctypes
import itertools
import json
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from cotraffic import ppo
from cotraffic.env import AgentStep, CooperationMode, EnvConfig
from cotraffic.network import grid_scenario
from cotraffic.policy import (ACTION_SCALE, ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                              LOG_2PI, Adam, GradWorkspace, MlpParams, Policy,
                              _sigmoid, _softplus, forward, init_params,
                              load_checkpoint, ppo_loss_and_grads,
                              save_checkpoint)
from cotraffic.ppo import (NonFiniteLossError, PpoConfig, RolloutBuffer,
                           ci_profile, compute_gae, explained_variance,
                           ppo_update, train)


def zero_params(kind, obs_dim, hidden=(4, 3)):
    params = init_params(kind, obs_dim, hidden, seed=0)
    for _, arr in params.arrays():
        arr[...] = 0.0
    if params.log_std is not None:
        params.log_std[...] = np.log(1.5)
    return params


# --- reference action distributions ------------------------------------------
# Whole-array forms of the distributions `Policy.act` samples and scores row
# by row; `act` must give their bits.

@dataclass(frozen=True)
class BernoulliAction:
    """Keep/switch distribution; `logit` is a float or one per agent."""
    logit: float

    @property
    def p_switch(self):
        return _sigmoid(np.asarray(self.logit, dtype=np.float64))

    def sample(self, rng):
        draws = rng.random(np.shape(self.logit))
        return (draws < self.p_switch).astype(np.int64)

    def greedy(self):
        return (np.asarray(self.logit) > 0.0).astype(np.int64)

    def log_prob(self, action):
        z = np.asarray(self.logit, dtype=np.float64)
        return np.where(action, -_softplus(-z), -_softplus(z))

    def entropy(self):
        z = np.asarray(self.logit, dtype=np.float64)
        s = _sigmoid(z)
        return s * _softplus(-z) + (1.0 - s) * _softplus(z)


@dataclass(frozen=True)
class GaussianAction:
    """Acceleration distribution; `mean` is a float or one per agent."""
    mean: float
    log_std: float

    def sample(self, rng):
        noise = rng.standard_normal(np.shape(self.mean))
        raw = self.mean + np.exp(self.log_std) * noise
        return np.clip(raw, -ACTION_SCALE, ACTION_SCALE)

    def greedy(self):
        return self.mean

    def log_prob(self, action):
        z = (action - self.mean) / np.exp(self.log_std)
        return -0.5 * z * z - self.log_std - 0.5 * LOG_2PI

    def entropy(self):
        return 0.5 + 0.5 * LOG_2PI + self.log_std


def _distribution(params, head_pre):
    """Action distribution over one head output or an array of them."""
    if params.kind == "tl":
        return BernoulliAction(head_pre)
    return GaussianAction(ACTION_SCALE * np.tanh(head_pre),
                          float(params.log_std[0]))


def reference_act(params, obs, rng, sample):
    """`Policy.act` through the whole-array distributions."""
    head_pre, values, _ = forward(params, obs)
    dist = _distribution(params, head_pre)
    actions = dist.sample(rng) if sample else dist.greedy()
    log_probs = dist.log_prob(actions)
    return actions.tolist(), log_probs.tolist(), values.tolist()


# --- forward pass ------------------------------------------------------------

def policy_forward(params, obs):
    """Distribution and value estimate for one observation, through the
    batched `forward` that `Policy.act` runs."""
    head_pre, values, _ = forward(params, np.asarray(obs)[None, :])
    return _distribution(params, float(head_pre[0])), float(values[0])


def matmul_forward(params, obs, out=None):
    """`forward` as it was on `@` and `np.matmul`, kept verbatim as the
    reference that the `dot` forward must match bit for bit."""
    x = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    hs = [x]
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = hs[-1] @ w if out is None else np.matmul(hs[-1], w, out=out[k])
        z += b
        hs.append(np.tanh(z, out=z))
    h = hs[-1]
    head_pre = h @ params.w_policy
    head_pre += params.b_policy
    values = h @ params.w_value
    values += params.b_value
    return head_pre[:, 0], values[:, 0], hs


def forward_bytes(result):
    head_pre, values, hs = result
    return [head_pre.tobytes(), values.tobytes()] + [h.tobytes() for h in hs]


CHECKPOINT = Path(__file__).resolve().parent.parent / "perfbench" / "checkpoint"


@pytest.mark.parametrize("one_thread", [False, True])
@pytest.mark.parametrize("kind, dim", [("tl", 37), ("cav", 12)])
def test_forward_matches_matmul_reference_bit_for_bit(kind, dim, one_thread):
    checkpoint, _ = load_checkpoint(CHECKPOINT / f"checkpoint_{kind}.npz")
    nets = [init_params(kind, dim, seed=3), wide_head_params(kind, dim, 4),
            checkpoint]
    data = np.random.default_rng(11)
    blas = ppo.one_blas_thread if one_thread else contextlib.nullcontext
    with blas():
        for params in nets:
            work = GradWorkspace(params, 64)
            for n in range(1, 65):
                obs = data.normal(size=(n, params.obs_dim))
                want = forward_bytes(matmul_forward(params, obs))
                assert forward_bytes(forward(params, obs)) == want
                out = [a[:n] for a in work.hidden]
                assert forward_bytes(forward(params, obs, out=out)) == want


def test_policy_forward_zero_weights():
    dist, value = policy_forward(zero_params("tl", 5), np.zeros(5))
    assert isinstance(dist, BernoulliAction)
    assert dist.logit == 0.0 and dist.p_switch == 0.5
    assert value == 0.0

    dist, value = policy_forward(zero_params("cav", 7), np.ones(7))
    assert isinstance(dist, GaussianAction)
    assert dist.mean == 0.0 and value == 0.0


def test_policy_forward_deterministic():
    params = init_params("tl", 9, seed=3)
    obs = np.random.default_rng(0).normal(size=9)
    a = policy_forward(params, obs)
    b = policy_forward(params, obs)
    assert a == b


def test_dead_input_does_not_change_output():
    params = init_params("tl", 6, seed=1)
    params.weights[0][4, :] = 0.0  # kill input slot 4
    obs = np.random.default_rng(1).normal(size=6)
    base = policy_forward(params, obs)
    obs[4] += 123.0
    assert policy_forward(params, obs) == base


def test_forward_shape_mismatch():
    with pytest.raises(ValueError):
        policy_forward(init_params("tl", 6, seed=1), np.zeros(7))


def test_action_distributions():
    rng = np.random.default_rng(0)
    b = BernoulliAction(logit=2.0)
    assert b.greedy() == 1
    assert b.log_prob(1) == pytest.approx(np.log(b.p_switch))
    assert b.log_prob(0) == pytest.approx(np.log(1 - b.p_switch))

    g = GaussianAction(mean=1.0, log_std=np.log(0.5))
    samples = [g.sample(rng) for _ in range(200)]
    assert all(-3.0 <= s <= 3.0 for s in samples)
    assert g.greedy() == 1.0
    assert np.isfinite(g.log_prob(3.0)) and np.isfinite(g.log_prob(-3.0))
    assert g.entropy() == pytest.approx(0.5 + 0.5 * np.log(2 * np.pi) + np.log(0.5))


@pytest.mark.parametrize("kind, dim", [("tl", 9), ("cav", 7)])
@pytest.mark.parametrize("sample", [True, False])
def test_batched_act_matches_row_by_row(kind, dim, sample):
    policy = Policy(init_params(kind, dim, seed=4))
    obs = np.random.default_rng(5).normal(size=(23, dim))
    rng_rows, rng_batch = np.random.default_rng(6), np.random.default_rng(6)
    rows = [policy.act(o[None, :], rng_rows, sample) for o in obs]
    actions, logps, values = policy.act(obs, rng_batch, sample)
    assert len(actions) == len(logps) == len(values) == 23
    for result in rows + [(actions, logps, values)]:
        assert all(type(a) is (int if kind == "tl" else float)
                   for a in result[0])
        assert all(type(x) is float for x in result[1] + result[2])
    row_actions, row_logps, row_values = (
        np.array([row[k][0] for row in rows]) for k in range(3))
    if kind == "tl":
        np.testing.assert_array_equal(actions, row_actions)
    else:  # a batched matmul rounds differently from a 1-row one
        np.testing.assert_allclose(actions, row_actions, rtol=0, atol=1e-12)
    np.testing.assert_allclose(logps, row_logps, rtol=0, atol=1e-12)
    np.testing.assert_allclose(values, row_values, rtol=0, atol=1e-12)
    assert rng_batch.bit_generator.state == rng_rows.bit_generator.state


def wide_head_params(kind, dim, seed):
    """A network whose head outputs reach past +-700: signal logits that
    saturate softplus and tanh, and vehicle means at the +-3 bounds."""
    params = init_params(kind, dim, seed=seed)
    params.w_policy[...] = np.random.default_rng(seed).normal(
        0.0, 150.0, size=params.w_policy.shape)
    return params


def act_key(result):
    """Each number of an `act` result by type and repr, so that equal keys
    mean equal bits."""
    return [[(type(x), repr(x)) for x in col] for col in result]


@pytest.mark.parametrize("kind, dim", [("tl", 9), ("cav", 7)])
@pytest.mark.parametrize("sample", [True, False])
def test_act_matches_reference_distributions_bit_for_bit(kind, dim, sample):
    params = wide_head_params(kind, dim, seed=8)
    policy = Policy(params)
    data = np.random.default_rng(9)
    rng, ref_rng = np.random.default_rng(10), np.random.default_rng(10)
    heads, clipped = [], 0
    for n in range(1, 65):
        obs = data.normal(size=(n, dim))
        got = policy.act(obs, rng, sample)
        want = reference_act(params, obs, ref_rng, sample)
        assert act_key(got) == act_key(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        heads += forward(params, obs)[0].tolist()
        if kind == "cav" and sample:
            clipped += sum(abs(a) == ACTION_SCALE for a in got[0])
    assert max(heads) > 700.0 and min(heads) < -700.0
    if kind == "cav" and sample:
        assert clipped > 0


def test_sampling_without_rng_is_rejected():
    policy = Policy(init_params("cav", 7, seed=4))
    with pytest.raises(ValueError, match="rng"):
        policy.act(np.zeros((3, 7)))
    actions, _, _ = policy.act(np.zeros((3, 7)), sample=False)
    assert actions == [0.0, 0.0, 0.0]


# --- generalized advantage estimation ----------------------------------------

def test_gae_undiscounted_terminal():
    adv, ret = compute_gae([1.0, 1.0], [0.0, 0.0], 0.0, 1.0, 1.0)
    np.testing.assert_allclose(adv, [2.0, 1.0])
    np.testing.assert_allclose(ret, [2.0, 1.0])


def test_gae_lambda_zero_is_td_residual():
    rng = np.random.default_rng(2)
    r = rng.normal(size=6)
    v = rng.normal(size=6)
    adv, _ = compute_gae(r, v, 0.3, 0.9, 0.0)
    v_next = np.append(v[1:], 0.3)
    np.testing.assert_allclose(adv, r + 0.9 * v_next - v, rtol=1e-12)


def test_gae_matches_direct_sum_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = 8
        r = rng.normal(size=n)
        v = rng.normal(size=n)
        last = rng.normal()
        gamma, lam = rng.uniform(0.8, 1.0), rng.uniform(0.5, 1.0)
        adv, ret = compute_gae(r, v, last, gamma, lam)
        v_ext = np.append(v, last)
        delta = r + gamma * v_ext[1:] - v_ext[:-1]
        for t in range(n):
            direct = sum((gamma * lam) ** k * delta[t + k] for k in range(n - t))
            assert adv[t] == pytest.approx(direct, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(ret, adv + v, rtol=1e-12)


def test_gae_fully_monte_carlo_equals_reward_to_go():
    rng = np.random.default_rng(4)
    r = rng.normal(size=10)
    v = rng.normal(size=10)
    adv, ret = compute_gae(r, v, 0.0, 1.0, 1.0)
    to_go = np.cumsum(r[::-1])[::-1]
    np.testing.assert_allclose(adv, to_go - v, rtol=1e-12)
    np.testing.assert_allclose(ret, to_go, rtol=1e-12)


def test_gae_input_validation():
    with pytest.raises(ValueError):
        compute_gae([1.0], [1.0, 2.0], 0.0, 0.9, 0.9)
    with pytest.raises(ValueError):
        compute_gae([np.inf], [0.0], 0.0, 0.9, 0.9)


# --- clipped surrogate -------------------------------------------------------

def sample_batch(params, n=12, seed=0):
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(n, params.obs_dim))
    policy = Policy(params)
    actions, logps = [], []
    for o in obs:
        (a,), (lp,), _ = policy.act(o[None, :], rng)
        actions.append(a)
        logps.append(lp)
    return {
        "obs": obs,
        "actions": np.array(actions, dtype=float),
        "old_logp": np.array(logps),
        "advantages": rng.normal(size=n),
        "returns": rng.normal(size=n),
    }


def test_ratio_one_gives_unclipped_surrogate():
    params = init_params("tl", 5, (8, 8), seed=2)
    batch = sample_batch(params, n=64, seed=1)
    loss, _, stats = ppo_loss_and_grads(
        params, batch["obs"], batch["actions"], batch["old_logp"],
        batch["advantages"], batch["returns"],
        clip_eps=0.2, value_coef=0.0, entropy_coef=0.0,
        work=GradWorkspace(params, 64))
    assert stats["mean_ratio"] == pytest.approx(1.0)
    assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-12)
    assert stats["clip_fraction"] == 0.0
    assert loss == pytest.approx(-np.mean(batch["advantages"]))


def test_clip_engages_at_ratio_limits():
    params = init_params("tl", 4, (6,), seed=5)
    batch = sample_batch(params, n=16, seed=2)
    adv = np.abs(batch["advantages"]) + 0.1  # all positive
    old = batch["old_logp"] - np.log(1.5)    # makes every ratio 1.5
    loss, _, stats = ppo_loss_and_grads(
        params, batch["obs"], batch["actions"], old, adv, batch["returns"],
        clip_eps=0.2, value_coef=0.0, entropy_coef=0.0,
        work=GradWorkspace(params, 16))
    assert stats["clip_fraction"] == 1.0
    assert stats["approx_kl"] == pytest.approx(0.5 - np.log(1.5))
    assert loss == pytest.approx(-np.mean(1.2 * adv))


@pytest.mark.parametrize("kind,obs_dim", [("tl", 5), ("cav", 7)])
def test_gradients_match_finite_differences(kind, obs_dim):
    params = init_params(kind, obs_dim, (6, 5), seed=7)
    batch = sample_batch(params, n=10, seed=3)
    # move away from ratio == 1 so the clip mask is exercised
    old = batch["old_logp"] + np.random.default_rng(4).normal(0, 0.1, 10)
    work = GradWorkspace(params, 10)

    def loss_at(flat):
        params.flat[...] = flat
        loss, _, _ = ppo_loss_and_grads(
            params, batch["obs"], batch["actions"], old,
            batch["advantages"], batch["returns"], 0.2, 0.5, 0.01, work)
        return loss

    flat0 = params.flat.copy()
    # a copy: the next call overwrites the workspace's gradient
    _, analytic, _ = ppo_loss_and_grads(
        params, batch["obs"], batch["actions"], old,
        batch["advantages"], batch["returns"], 0.2, 0.5, 0.01, work)
    analytic = analytic.copy()

    h = 1e-5
    fd = np.empty_like(flat0)
    for i in range(flat0.size):
        up, down = flat0.copy(), flat0.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (loss_at(up) - loss_at(down)) / (2 * h)
    params.flat[...] = flat0

    denom = np.maximum(np.abs(fd) + np.abs(analytic), 1e-8)
    rel = np.abs(fd - analytic) / denom
    assert rel.max() < 1e-4


def test_nonfinite_loss_aborts_update():
    params = init_params("tl", 4, (6,), seed=1)
    batch = sample_batch(params, n=8, seed=5)
    batch["returns"][0] = np.nan
    cfg = PpoConfig(iterations=1, episodes_per_iter=1, horizon=1,
                    epochs=1, minibatch_size=8)
    with pytest.raises(NonFiniteLossError):
        ppo_update(params, Adam(params, cfg.learning_rate), batch, cfg,
                   np.random.default_rng(0))


class PerArrayAdam:
    """Reference: Adam with one moment pair per named array and the clip norm
    summed array by array, as the optimizer was before the flat layout."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(a) for name, a in params.arrays()}
        self.v = {name: np.zeros_like(a) for name, a in params.arrays()}

    def step(self, params, grads, max_grad_norm):
        total = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
        if total > max_grad_norm:
            scale = max_grad_norm / (total + 1e-12)
            grads = {k: g * scale for k, g in grads.items()}
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, arr in params.arrays():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g ** 2
            arr -= self.lr * (self.m[name] / b1c) / (np.sqrt(self.v[name] / b2c)
                                                     + self.eps)


@pytest.mark.parametrize("kind,obs_dim", [("tl", 5), ("cav", 7)])
@pytest.mark.parametrize("max_grad_norm,clips", [(1e6, False), (0.5, True)])
def test_adam_matches_per_array_reference(kind, obs_dim, max_grad_norm, clips):
    params = init_params(kind, obs_dim, (6, 5), seed=3)
    ref_params = copy.deepcopy(params)
    opt, ref = Adam(params, lr=1e-2), PerArrayAdam(ref_params, lr=1e-2)
    rng = np.random.default_rng(21)
    for _ in range(20):
        grad = rng.normal(0.0, rng.uniform(0.1, 10.0), params.flat.size)
        layout = MlpParams(kind, obs_dim, (6, 5))
        layout.flat[...] = grad
        named = layout.arrays()
        opt.step(params, grad, max_grad_norm)
        ref.step(ref_params, dict(named), max_grad_norm)
    ref_m = np.concatenate([ref.m[name].ravel() for name, _ in named])
    ref_v = np.concatenate([ref.v[name].ravel() for name, _ in named])
    if clips:
        for got, want in ((params.flat, ref_params.flat), (opt.m, ref_m),
                          (opt.v, ref_v)):
            np.testing.assert_allclose(got, want, rtol=1e-13)
    else:
        assert np.array_equal(params.flat, ref_params.flat)
        assert np.array_equal(opt.m, ref_m) and np.array_equal(opt.v, ref_v)


# --- parity with the allocating update ---------------------------------------
#
# The forms below are the update as it was before it reused its arrays, kept
# verbatim as the reference: a forward that allocates every activation, a
# backward whose head products are K=1 matmuls, Adam with a temporary per
# operation, a scalar GAE loop per segment, and a per-minibatch index gather.
# The current code must match them bit for bit.

def ref_loss_and_grads(params, obs, actions, old_logp, advantages, returns,
                       clip_eps, value_coef, entropy_coef):
    x = np.asarray(obs, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    old_logp = np.asarray(old_logp, dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    ret = np.asarray(returns, dtype=np.float64)
    n = x.shape[0]

    hs = [x]
    for w, b in zip(params.weights, params.biases):
        hs.append(np.tanh(hs[-1] @ w + b))
    h = hs[-1]
    head_pre = (h @ params.w_policy + params.b_policy)[:, 0]
    values = (h @ params.w_value + params.b_value)[:, 0]
    grads = MlpParams(params.kind, params.obs_dim, params.hidden)

    if params.kind == "tl":
        z = head_pre
        sig = _sigmoid(z)
        logp = np.where(actions > 0.5, -_softplus(-z), -_softplus(z))
        dlogp_dpre = actions - sig
        entropy = sig * _softplus(-z) + (1.0 - sig) * _softplus(z)
        dent_dpre = -z * sig * (1.0 - sig)
    else:
        t = np.tanh(head_pre)
        mean = ACTION_SCALE * t
        std = np.exp(params.log_std[0])
        zscore = (actions - mean) / std
        logp = -0.5 * zscore ** 2 - params.log_std[0] - 0.5 * LOG_2PI
        dlogp_dmean = zscore / std
        dlogp_dpre = dlogp_dmean * ACTION_SCALE * (1.0 - t ** 2)
        dlogp_dlogstd = zscore ** 2 - 1.0
        entropy = np.full(n, 0.5 + 0.5 * LOG_2PI + params.log_std[0])

    log_ratio = logp - old_logp
    ratio = np.exp(log_ratio)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv
    pg_loss = -np.minimum(unclipped, clipped)
    v_err = values - ret
    loss = float(np.mean(pg_loss + value_coef * v_err ** 2
                         - entropy_coef * entropy))
    if not np.isfinite(loss):
        return loss, None, {"loss": loss}

    use_unclipped = unclipped <= clipped
    g_logp = np.where(use_unclipped, -adv * ratio, 0.0) / n
    g_value = 2.0 * value_coef * v_err / n

    if params.kind == "tl":
        g_pre = g_logp * dlogp_dpre + (-entropy_coef / n) * dent_dpre
    else:
        g_pre = g_logp * dlogp_dpre
        grads.log_std[0] = np.sum(g_logp * dlogp_dlogstd) - entropy_coef

    gp = g_pre[:, None]
    gv = g_value[:, None]
    grads.w_policy[...] = h.T @ gp
    grads.b_policy[...] = gp.sum(axis=0)
    grads.w_value[...] = h.T @ gv
    grads.b_value[...] = gv.sum(axis=0)
    g_h = gp @ params.w_policy.T + gv @ params.w_value.T
    for i in range(len(params.weights) - 1, -1, -1):
        g_z = g_h * (1.0 - hs[i + 1] ** 2)
        grads.weights[i][...] = hs[i].T @ g_z
        grads.biases[i][...] = g_z.sum(axis=0)
        if i > 0:
            g_h = g_z @ params.weights[i].T

    stats = {
        "loss": loss,
        "policy_loss": float(np.mean(pg_loss)),
        "value_loss": float(np.mean(v_err ** 2)),
        "entropy": float(np.mean(entropy)),
        "mean_ratio": float(np.mean(ratio)),
        "approx_kl": float(np.mean((ratio - 1.0) - log_ratio)),
        "clip_fraction": float(np.mean(~use_unclipped)),
    }
    return loss, grads.flat, stats


class TemporariesAdam(Adam):
    """Reference: `Adam.step` with a new temporary per operation."""

    def step(self, params, grad, max_grad_norm):
        total = np.sqrt(np.sum(grad ** 2))
        if total > max_grad_norm:
            grad = grad * (max_grad_norm / (total + 1e-12))
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        self.m *= ADAM_BETA1
        self.m += (1 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1 - ADAM_BETA2) * grad ** 2
        params.flat -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c)
                                                   + ADAM_EPS)
        return params


def ref_compute_gae(rewards, values, last_value, gamma, lam):
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
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


def ref_build_batch(segments, gamma, lam):
    obs, actions, logps, advs, rets = [], [], [], [], []
    for seg in segments:
        rewards = [s.reward for s in seg]
        values = [s.value for s in seg]
        adv, ret = ref_compute_gae(rewards, values, 0.0, gamma, lam)
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


def ref_ppo_update(params, optimizer, batch, cfg, rng):
    n = batch["obs"].shape[0]
    adv = batch["advantages"]
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    stats_acc = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            idx = order[start:start + cfg.minibatch_size]
            _, grad, stats = ref_loss_and_grads(
                params, batch["obs"][idx], batch["actions"][idx],
                batch["old_logp"][idx], adv[idx], batch["returns"][idx],
                cfg.clip_eps, cfg.value_coef, cfg.entropy_coef)
            optimizer.step(params, grad, cfg.max_grad_norm)
            stats_acc.append(stats)
    return {k: float(np.mean([s[k] for s in stats_acc]))
            for k in stats_acc[0]}


def random_segments(kind, obs_dim, lengths, seed):
    rng = np.random.default_rng(seed)
    segments = []
    for length in lengths:
        segments.append([
            AgentStep("a", kind, rng.normal(size=obs_dim),
                      float(rng.integers(2)) if kind == "TL"
                      else float(rng.normal()),
                      float(rng.normal() - 1.0), float(rng.normal()),
                      reward=float(rng.normal()), t=t)
            for t in range(length)])
    return segments


@pytest.mark.parametrize("kind,obs_dim", [("tl", 37), ("cav", 7)])
def test_loss_and_grads_match_allocating_reference(kind, obs_dim):
    params = init_params(kind, obs_dim, seed=13)
    # one workspace for every size: smaller minibatches use its leading rows
    work = GradWorkspace(params, 512)
    # 385 is the first size at which two OpenBLAS threads split the inner
    # axis of the hidden-weight gradient
    for n, blas in itertools.product(
            (1, 7, 385, 416, 512),
            (contextlib.nullcontext, ppo.one_blas_thread)):
        batch = sample_batch(params, n=n, seed=n)
        old = batch["old_logp"] + np.random.default_rng(n).normal(0, 0.3, n)
        args = (params, batch["obs"], batch["actions"], old,
                batch["advantages"], batch["returns"], 0.2, 0.5, 0.01)
        with blas():
            want_loss, want_grad, want_stats = ref_loss_and_grads(*args)
            loss, grad, stats = ppo_loss_and_grads(*args, work)
            assert float(loss).hex() == float(want_loss).hex()
            assert ({k: float(v).hex() for k, v in stats.items()}
                    == {k: float(v).hex() for k, v in want_stats.items()})
            assert grad.tobytes() == want_grad.tobytes()


def test_build_batch_matches_per_segment_gae():
    rng = np.random.default_rng(8)
    lengths = [1, 360, 1] + list(rng.integers(1, 80, size=40)) + [1]
    for kind, obs_dim in (("TL", 37), ("CAV", 7)):
        segments = random_segments(kind, obs_dim, lengths, seed=len(kind))
        buf = RolloutBuffer(segments)
        for gamma, lam in ((0.99, 0.95), (1.0, 1.0), (0.9, 0.0)):
            got = buf.build_batch(gamma, lam)
            want = ref_build_batch(segments, gamma, lam)
            for key, arr in want.items():
                assert got[key].shape == arr.shape
                assert got[key].tobytes() == arr.tobytes(), key


@pytest.mark.parametrize("kind,obs_dim", [("tl", 37), ("cav", 7)])
def test_ppo_update_matches_index_gather_reference(kind, obs_dim):
    segments = random_segments(kind.upper(), obs_dim,
                               [1, 90, 7, 120, 30, 52], seed=5)
    batch = RolloutBuffer(segments).build_batch(0.99, 0.95)
    # 300 samples: the last minibatch of every epoch is a short one
    cfg = PpoConfig(epochs=4, minibatch_size=64)
    params = init_params(kind, obs_dim, seed=2)
    ref_params = copy.deepcopy(params)
    opt, ref_opt = (Adam(params, cfg.learning_rate),
                    TemporariesAdam(ref_params, cfg.learning_rate))
    stats = ppo_update(params, opt, batch, cfg, np.random.default_rng(4))
    want = ref_ppo_update(ref_params, ref_opt, batch, cfg,
                          np.random.default_rng(4))
    assert stats["updates"] == 4 * 5
    assert {k: stats[k] for k in want} == want
    for got, ref in ((params.flat, ref_params.flat), (opt.m, ref_opt.m),
                     (opt.v, ref_opt.v)):
        assert got.tobytes() == ref.tobytes()


def test_explained_variance_by_hand():
    # returns (1, 2, 3, 6): mean 3, var (4 + 1 + 0 + 9) / 4 = 3.5;
    # residuals (0, 1, -1, 2): mean 0.5, var (0.25 + 0.25 + 2.25 + 2.25) / 4
    # = 1.25; 1 - 1.25 / 3.5 = 9 / 14
    values = np.array([1.0, 1.0, 4.0, 4.0])
    returns = np.array([1.0, 2.0, 3.0, 6.0])
    assert explained_variance(values, returns) == pytest.approx(9 / 14,
                                                                rel=1e-15)
    assert explained_variance(returns, returns) == 1.0
    assert np.isnan(explained_variance(values, np.full(4, 2.0)))


# --- buffers and training loop -----------------------------------------------

def test_rollout_buffer_hygiene():
    from cotraffic.env import AgentStep
    seg = [AgentStep("a", "TL", np.zeros(3), 1.0, -0.1, 0.0, reward=1.0,
                     done=(i == 2), t=i) for i in range(3)]
    buf = RolloutBuffer([seg])
    assert len(buf) == 3
    batch = buf.build_batch(0.99, 0.95)
    assert batch["obs"].shape == (3, 3)


def smoke_train(seed=7, mode=CooperationMode.COTV, penetration=1.0, **kw):
    scen = grid_scenario("1x1", penetration=penetration, seed=3)
    cfg = PpoConfig(iterations=kw.pop("iterations", 3),
                    episodes_per_iter=kw.pop("episodes", 2),
                    horizon=kw.pop("horizon", 50), **kw)
    return train(scen, EnvConfig(mode), cfg, seed=seed)


def test_train_smoke_bookkeeping():
    res = smoke_train()
    assert len(res.curves) == 3
    assert all(np.isfinite(c["tl_reward"]) for c in res.curves)
    assert all(c["tl_steps"] == 2 * 50 for c in res.curves)
    assert res.tl_params is not None and res.cav_params is not None
    for c in res.curves:
        for prefix in ("tl", "cav"):
            for key in ("loss", "policy_loss", "value_loss", "entropy",
                        "mean_ratio", "approx_kl", "clip_fraction"):
                assert np.isfinite(c[f"{prefix}_{key}"])
            assert c[f"{prefix}_approx_kl"] >= 0.0
    # an iteration's rollout and update fit in its share of the wall time,
    # which runs from the previous iteration's end
    previous = 0.0
    for c in res.curves:
        assert c["rollout_s"] >= 0.0 and c["update_s"] >= 0.0
        assert c["wall_s"] > previous
        assert c["rollout_s"] + c["update_s"] <= c["wall_s"] - previous
        previous = c["wall_s"]


def test_train_zero_penetration_skips_cav_update():
    res = smoke_train(penetration=0.0)
    before = init_params("cav", 7, (64, 64), seed=7).fingerprint()
    assert res.cav_params.fingerprint() == before  # untouched by updates
    assert all(c["cav_steps"] == 0 for c in res.curves)
    assert all(np.isnan(c["cav_reward"]) for c in res.curves)


def test_train_deterministic_across_runs():
    a = smoke_train(seed=11)
    b = smoke_train(seed=11)
    assert ([(e["tl_reward"], e["cav_reward"]) for e in a.curves]
            == [(e["tl_reward"], e["cav_reward"]) for e in b.curves])
    assert a.tl_params.fingerprint() == b.tl_params.fingerprint()
    assert a.cav_params.fingerprint() == b.cav_params.fingerprint()
    c = smoke_train(seed=12)
    assert ([e["tl_reward"] for e in a.curves]
            != [e["tl_reward"] for e in c.curves])


def test_train_worker_count_does_not_change_results():
    a = smoke_train(seed=5)
    scen = grid_scenario("1x1", penetration=1.0, seed=3)
    cfg = PpoConfig(iterations=3, episodes_per_iter=2, horizon=50)
    b = train(scen, EnvConfig(CooperationMode.COTV), cfg, seed=5, workers=2)
    assert ([e["tl_reward"] for e in a.curves]
            == [e["tl_reward"] for e in b.curves])
    assert a.tl_params.fingerprint() == b.tl_params.fingerprint()


@pytest.fixture
def fresh_openblas_lookup():
    """Empties the per-process OpenBLAS lookup before and after the test, so
    that a patched `ctypes.CDLL` is consulted and what it returned does not
    outlive the test."""
    ppo._openblas.cache_clear()
    yield
    ppo._openblas.cache_clear()


def test_openblas_is_looked_up_once_per_process(monkeypatch,
                                                fresh_openblas_lookup):
    loads = []
    real = ctypes.CDLL

    def counted(*args, **kwargs):
        loads.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", counted)
    for _ in range(2):
        with ppo.one_blas_thread():
            pass
    assert len(loads) <= 1


# Trains cotv with the PpoConfig fields given as JSON in argv[1] and prints
# the OpenBLAS thread count before and after `train`, then the final
# fingerprints and the reward curves without their wall-clock columns.
TRAINING = """
import ctypes, json, sys
from pathlib import Path
import numpy as np
from cotraffic.env import CooperationMode, EnvConfig
from cotraffic.network import grid_scenario
from cotraffic.ppo import PpoConfig, train
def threads():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        get_threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return get_threads()
before = threads()
res = train(grid_scenario("1x1", penetration=1.0, seed=3),
            EnvConfig(CooperationMode.COTV),
            PpoConfig(**json.loads(sys.argv[1])), seed=7)
print(json.dumps([before, threads()]))
print(json.dumps({"tl": res.tl_params.fingerprint(),
                  "cav": res.cav_params.fingerprint(),
                  "curves": [{k: v for k, v in c.items()
                              if k not in ("wall_s", "rollout_s", "update_s")}
                             for c in res.curves]}))
"""


def train_at_two_blas_settings(**cfg):
    """Runs TRAINING in child processes with OPENBLAS_NUM_THREADS=1 and with
    the variable unset; returns (thread counts, result) of each run."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for pinned in (True, False):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        if pinned:
            env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run([sys.executable, "-c", TRAINING, json.dumps(cfg)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        threads, result = proc.stdout.strip().split("\n")
        outputs.append((json.loads(threads), json.loads(result)))
    return outputs


def test_training_does_not_depend_on_blas_thread_count():
    (pinned_threads, pinned_result), (_, default_result) = (
        train_at_two_blas_settings(iterations=3, episodes_per_iter=2,
                                   horizon=120, minibatch_size=256))
    assert pinned_threads in ([1, 1], [None, None])
    assert pinned_result == default_result


def test_thread_sensitive_minibatch_does_not_depend_on_blas_thread_count():
    # One CAV minibatch of 385-511 rows. With two or more threads OpenBLAS
    # splits the K axis of the (64 x K) @ (K x 64) hidden-weight gradient
    # for many K from 385 on and sums the parts, which moves the last bit;
    # the minibatches of the test above hold at most 256 rows.
    (pinned_threads, pinned_result), (default_threads, default_result) = (
        train_at_two_blas_settings(iterations=1, episodes_per_iter=2,
                                   horizon=100, minibatch_size=512))
    assert 385 <= pinned_result["curves"][0]["cav_steps"] < 512
    assert pinned_threads in ([1, 1], [None, None])
    # `train` hands back the thread count it found
    assert default_threads[0] == default_threads[1]
    assert pinned_result == default_result


def test_missing_blas_thread_control_is_reported(monkeypatch, capsys,
                                                 fresh_openblas_lookup):
    def no_library(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(ppo.ctypes, "CDLL", no_library)
    ran = []
    with ppo.one_blas_thread():
        ran.append(True)
    assert ran == [True]
    assert "scipy_openblas_set_num_threads64_" in capsys.readouterr().err


def test_parameter_sharing_single_set_per_type():
    res = smoke_train()
    pol_a = Policy(res.tl_params)
    pol_b = Policy(res.tl_params)
    assert pol_a.params is pol_b.params
    assert res.tl_params.fingerprint() == res.tl_params.fingerprint()


def test_checkpoint_round_trip(tmp_path):
    params = init_params("cav", 7, seed=9)
    save_checkpoint(tmp_path / "c.npz", params, meta={"method": "cotv", "seed": 9})
    loaded, meta = load_checkpoint(tmp_path / "c.npz")
    assert meta["method"] == "cotv"
    obs = np.random.default_rng(1).normal(size=7)
    assert policy_forward(loaded, obs) == policy_forward(params, obs)
    assert loaded.fingerprint() == params.fingerprint()


@pytest.mark.parametrize("kind,obs_dim", [("tl", 5), ("cav", 7)])
def test_parameter_arrays_are_views_of_flat(kind, obs_dim, tmp_path):
    params = init_params(kind, obs_dim, (6, 5), seed=9)
    save_checkpoint(tmp_path / "c.npz", params)
    loaded, _ = load_checkpoint(tmp_path / "c.npz")
    unpickled = pickle.loads(pickle.dumps(params))
    for p in (params, loaded, unpickled):
        assert all(np.shares_memory(a, p.flat) for _, a in p.arrays())
        # the views tile `flat` in arrays() order with no gap or overlap
        assert np.array_equal(
            np.concatenate([a.ravel() for _, a in p.arrays()]), p.flat)
        assert p.fingerprint() == params.fingerprint()
    unpickled.flat[:] = 0.5
    assert unpickled.weights[0][0, 0] == unpickled.b_value[0] == 0.5


def test_ci_profile_values():
    cfg = ci_profile()
    assert (cfg.iterations, cfg.episodes_per_iter, cfg.horizon) == (30, 4, 360)
    full = PpoConfig()
    assert (full.iterations, full.episodes_per_iter, full.horizon) == (150, 18, 720)
    assert full.clip_eps == 0.2 and full.gamma == 0.99 and full.gae_lambda == 0.95


def test_config_validation():
    with pytest.raises(ValueError):
        PpoConfig(clip_eps=1.5)
    with pytest.raises(ValueError):
        PpoConfig(gamma=0.0)
    with pytest.raises(ValueError):
        PpoConfig(iterations=0)
