"""Shared-parameter policy/value networks and their exact gradients.

One parameter set per agent type: a tanh MLP trunk (training takes its
widths from `PpoConfig.hidden`) with a policy head and a value head. The
signal head is a Bernoulli logit over {keep, switch}; the vehicle head is a
Gaussian whose mean is tanh-squashed to the command box +-CMD_ACCEL_MAX m/s^2
with a learned state-independent log-std. Each network keeps all its
parameters in one flat vector, and its gradient and Adam moments are vectors
in the same layout, so an update is a few whole-vector operations.
Forward and backward passes are written out by hand in numpy so the training
step can be checked against central finite differences parameter by
parameter. `Policy.act` serves a step's agents of one type with one forward,
then samples and scores each row on Python floats. At a few rows per call
numpy's per-call overhead outweighs the arithmetic, so each product is an
`ndarray.dot`: cheaper per call than `@`, with the same bits (tests pin both).
"""
import hashlib
import json
import math

import numpy as np

from .kernels import CMD_ACCEL_MAX

LOG_STD_INIT = float(np.log(0.5 * CMD_ACCEL_MAX))
LOG_2PI = float(np.log(2.0 * np.pi))
# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class MlpParams:
    """One agent type's network, held in one float64 vector `flat`.

    The named arrays (`log_std` is None for "tl") are reshaped views into
    `flat` in `arrays()` order; gradients and Adam moments share the layout.
    """

    def __init__(self, kind, obs_dim, hidden):
        if kind not in ("tl", "cav"):
            raise ValueError(f"unknown agent kind {kind!r}")
        self.kind, self.obs_dim, self.hidden = kind, int(obs_dim), tuple(hidden)
        widths = (self.obs_dim,) + self.hidden
        shapes = []
        for i, (fan_in, width) in enumerate(zip(widths, widths[1:])):
            shapes += [(f"w{i}", (fan_in, width)), (f"b{i}", (width,))]
        shapes += [("w_policy", (widths[-1], 1)), ("b_policy", (1,)),
                   ("w_value", (widths[-1], 1)), ("b_value", (1,))]
        if kind == "cav":
            shapes.append(("log_std", (1,)))
        sizes = [math.prod(shape) for _, shape in shapes]
        self.flat = np.zeros(sum(sizes))
        self._arrays, offset = [], 0
        for (name, shape), size in zip(shapes, sizes):
            self._arrays.append(
                (name, self.flat[offset:offset + size].reshape(shape)))
            offset += size
        views = dict(self._arrays)
        self.weights = [views[f"w{i}"] for i in range(len(self.hidden))]
        self.biases = [views[f"b{i}"] for i in range(len(self.hidden))]
        self.w_policy, self.b_policy = views["w_policy"], views["b_policy"]
        self.w_value, self.b_value = views["w_value"], views["b_value"]
        self.log_std = views.get("log_std")

    def arrays(self):
        """Named parameter views in `flat` order."""
        return list(self._arrays)

    def __reduce__(self):
        # pickle would copy each view on its own, unbound from `flat`; send
        # `flat` alone and fill a fresh network's vector with it
        return MlpParams, (self.kind, self.obs_dim, self.hidden), self.flat

    def __setstate__(self, flat):
        self.flat[...] = flat

    def fingerprint(self):
        h = hashlib.sha256()
        for name, arr in self.arrays():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


def init_params(kind, obs_dim, hidden, seed):
    params = MlpParams(kind, obs_dim, hidden)
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, 0 if kind == "tl" else 1)))
    for w in params.weights:
        w[...] = rng.normal(0.0, np.sqrt(1.0 / w.shape[0]), size=w.shape)
    scale = np.sqrt(1.0 / params.w_policy.shape[0])
    # small policy head keeps the initial policy near uniform/zero-mean
    params.w_policy[...] = rng.normal(0.0, scale,
                                      size=params.w_policy.shape) * 0.01
    params.w_value[...] = rng.normal(0.0, scale, size=params.w_value.shape)
    if kind == "cav":
        params.log_std[...] = LOG_STD_INIT
    return params


def forward(params, obs, out=None):
    """Batched forward pass over an (n, obs_dim) matrix; returns
    (head_pre, values, cache).

    head_pre is the raw policy-head output (logit for "tl", pre-squash mean
    for "cav"); cache holds the activations the backward pass needs. `out`,
    if given, holds one (rows, width) array per hidden layer to write the
    activations into. One loop serves `Policy.act` and the update. A 64x64
    `dot` at 1-2 rows costs 0.8 us against 1.1 us for `np.matmul`; the heads
    stay two (width, 1) products, as one (width, 2) product rounds otherwise.
    """
    x = np.asarray(obs, dtype=np.float64)
    if x.shape[1] != params.obs_dim:
        raise ValueError(f"observation length {x.shape[1]} does not match "
                         f"network input {params.obs_dim}")
    hs = [x]
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = hs[-1].dot(w) if out is None else hs[-1].dot(w, out[k])
        z += b
        hs.append(np.tanh(z, out=z))
    h = hs[-1]
    head_pre = h.dot(params.w_policy)
    head_pre += params.b_policy
    values = h.dot(params.w_value)
    values += params.b_value
    return head_pre[:, 0], values[:, 0], hs


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _softplus(z):
    return np.logaddexp(0.0, z)


class Policy:
    """Binds one agent type's shared params to the sample/greedy action API.

    Every agent of the type acts through the same network, so a step stacks
    their observations into one matrix and serves them with one forward.
    """

    def __init__(self, params):
        self.params = params

    def act(self, obs, rng=None):
        """Actions, log-probs and values for an (n, obs_dim) matrix.

        Returns three lists of n Python numbers (int actions for signals,
        float accelerations for vehicles). One forward serves all n rows.
        Given a generator `rng`, the actions are sampled: n numbers drawn in
        row order, `rng.random(n)` for signals and `rng.standard_normal(n)`
        for vehicles, which are the numbers n one-row calls would draw.
        Without one they are greedy, and nothing is drawn.

        A signal switches with probability sigmoid(z) of its logit z and has
        log-prob -softplus(-z) or -softplus(z); a vehicle's acceleration is
        CMD_ACCEL_MAX tanh(z) plus exp(log_std) times its draw, clipped to
        the command box, with the Gaussian log-prob. At a few rows per call
        numpy's per-call cost outweighs the arithmetic, so each row's
        arithmetic runs on Python floats, which round as numpy does. Only
        `tanh`, `logaddexp` and `exp` stay in numpy: numpy computes them with
        its own code (SIMD `tanh` and `exp`), which can differ from Python's
        `math` in the last bit, and training output keeps numpy's bits.
        Greedy, a signal's log-prob is -softplus(-|z|), the sampled form's
        bits; a vehicle's z-score is 0, so its log-prob is the constant
        -log_std - log(2 pi)/2.
        """
        head_pre, values, _ = forward(self.params, obs)
        n = len(head_pre)
        if self.params.kind == "tl":
            # log-prob = -softplus(-z) for a switch, -softplus(z) for a keep
            if rng is not None:
                halves = np.tanh(0.5 * head_pre).tolist()
                actions = [1 if u < 0.5 * (1.0 + t) else 0 for u, t in
                           zip(rng.random(n).tolist(), halves)]
                softplus = np.logaddexp(0.0, [-z if a else z for z, a in
                                              zip(head_pre.tolist(), actions)])
            else:
                actions = [1 if z > 0.0 else 0 for z in head_pre.tolist()]
                softplus = np.logaddexp(0.0, -np.abs(head_pre))
            log_probs = [-s for s in softplus.tolist()]
        else:
            log_std = float(self.params.log_std[0])
            means = [CMD_ACCEL_MAX * t for t in np.tanh(head_pre).tolist()]
            if rng is not None:
                std = float(np.exp(log_std))
                actions = [min(max(m + std * e, -CMD_ACCEL_MAX), CMD_ACCEL_MAX)
                           for m, e in zip(
                               means, rng.standard_normal(n).tolist())]
                log_probs = []
                for a, m in zip(actions, means):
                    z = (a - m) / std
                    log_probs.append(-0.5 * z * z - log_std - 0.5 * LOG_2PI)
            else:
                actions = means
                log_probs = [-log_std - 0.5 * LOG_2PI] * n
        return actions, log_probs, values.tolist()


class GradWorkspace:
    """The (rows x width) arrays of one `ppo_loss_and_grads` call on up to
    `rows` samples, and the gradient it returns.

    One workspace serves every minibatch of an update, so a minibatch
    allocates, and page-faults in, none of its large temporaries. The
    gradient it returns is overwritten by the next call.
    """

    def __init__(self, params, rows):
        self.hidden = [np.empty((rows, width)) for width in params.hidden]
        self.grad_hidden = [np.empty((rows, width))
                            for width in params.hidden]
        self.head = np.empty((rows, params.hidden[-1]))
        self.grads = MlpParams(params.kind, params.obs_dim, params.hidden)


def ppo_loss_and_grads(params, obs, actions, old_logp, advantages, returns,
                       clip_eps, value_coef, entropy_coef, work):
    """Clipped-surrogate loss with exact gradients for every parameter.

    Loss per sample: -min(rho*A, clip(rho, 1-eps, 1+eps)*A)
                     + value_coef * (v - R)^2 - entropy_coef * H,
    averaged over the batch; rho = exp(logp_new - logp_old).
    Returns (loss, gradient laid out like params.flat, stats); the gradient
    is None when the loss is not finite. `work` is a `GradWorkspace` of at
    least as many rows as `obs`.
    """
    x = np.asarray(obs, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    old_logp = np.asarray(old_logp, dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    ret = np.asarray(returns, dtype=np.float64)
    n = x.shape[0]

    head_pre, values, hs = forward(params, x,
                                   out=[a[:n] for a in work.hidden])
    grads = work.grads

    if params.kind == "tl":
        z = head_pre
        sig = _sigmoid(z)
        sp_neg, sp_pos = _softplus(-z), _softplus(z)
        logp = np.where(actions > 0.5, -sp_neg, -sp_pos)
        dlogp_dpre = actions - sig
        entropy = sig * sp_neg + (1.0 - sig) * sp_pos
        dent_dpre = -z * sig * (1.0 - sig)
    else:
        t = np.tanh(head_pre)
        mean = CMD_ACCEL_MAX * t
        std = np.exp(params.log_std[0])
        zscore = (actions - mean) / std
        zsq = zscore ** 2
        logp = -0.5 * zsq - params.log_std[0] - 0.5 * LOG_2PI
        dlogp_dmean = zscore / std
        dlogp_dpre = dlogp_dmean * CMD_ACCEL_MAX * (1.0 - t ** 2)
        dlogp_dlogstd = zsq - 1.0
        entropy = np.full(n, 0.5 + 0.5 * LOG_2PI + params.log_std[0])

    log_ratio = logp - old_logp
    ratio = np.exp(log_ratio)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv
    pg_loss = -np.minimum(unclipped, clipped)
    v_err = values - ret
    v_sq = v_err ** 2
    loss = float(np.mean(pg_loss + value_coef * v_sq - entropy_coef * entropy))
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

    h = hs[-1]
    gp = g_pre[:, None]
    gv = g_value[:, None]
    np.matmul(h.T, gp, out=grads.w_policy)
    np.sum(gp, axis=0, out=grads.b_policy)
    np.matmul(h.T, gv, out=grads.w_value)
    np.sum(gv, axis=0, out=grads.b_value)
    # the heads are rank one: einsum's outer product is one multiply per
    # element, as a broadcast multiply, and writes 512 rows in 2/3 the time
    g_h = np.einsum("i,j->ij", g_pre, params.w_policy[:, 0],
                    out=work.grad_hidden[-1][:n])
    g_h += np.einsum("i,j->ij", g_value, params.w_value[:, 0],
                     out=work.head[:n])
    for i in range(len(params.weights) - 1, -1, -1):
        # g_z = g_h * (1 - h^2), overwriting the cached activation h, which
        # no later step reads
        d = hs[i + 1]
        np.square(d, out=d)
        np.subtract(1.0, d, out=d)
        g_h *= d
        np.matmul(hs[i].T, g_h, out=grads.weights[i])
        np.sum(g_h, axis=0, out=grads.biases[i])
        if i > 0:
            g_h = np.matmul(g_h, params.weights[i].T,
                            out=work.grad_hidden[i - 1][:n])

    stats = {
        "loss": loss,
        "policy_loss": float(np.mean(pg_loss)),
        "value_loss": float(np.mean(v_sq)),
        "entropy": float(np.mean(entropy)),
        "mean_ratio": float(np.mean(ratio)),
        # the (r - 1) - log r estimator of KL(old || new): unbiased, >= 0
        "approx_kl": float(np.mean((ratio - 1.0) - log_ratio)),
        "clip_fraction": float(np.mean(~use_unclipped)),
    }
    return loss, grads.flat, stats


class Adam:
    """Adaptive-moment optimizer of the network it owns, `params`."""

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        # scratch vectors, so that a step allocates no temporary
        self._s1 = np.empty_like(params.flat)
        self._s2 = np.empty_like(params.flat)

    def step(self, grad, max_grad_norm):
        """Update the owned network's `flat` in place, first scaling `grad`
        down to a global norm of at most `max_grad_norm`.

        The operations are those of
        `m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
        flat -= lr * (m/b1c) / (sqrt(v/b2c) + eps)`, in that order, written
        into the two scratch vectors.
        """
        s1, s2 = self._s1, self._s2
        total = np.sqrt(np.sum(np.square(grad, out=s1)))
        if total > max_grad_norm:
            grad = np.multiply(grad, max_grad_norm / (total + 1e-12), out=s2)
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        self.m *= ADAM_BETA1
        self.m += np.multiply(1 - ADAM_BETA1, grad, out=s1)
        self.v *= ADAM_BETA2
        np.square(grad, out=s1)
        s1 *= 1 - ADAM_BETA2
        self.v += s1
        np.divide(self.m, b1c, out=s1)
        s1 *= self.lr
        np.divide(self.v, b2c, out=s2)
        np.sqrt(s2, out=s2)
        s2 += ADAM_EPS
        s1 /= s2
        self.params.flat -= s1


def save_checkpoint(path, params):
    """Versioned npz dump of a network's arrays and a header of its format
    and shape; reload reproduces identical forward outputs."""
    payload = {f"param_{name}": arr for name, arr in params.arrays()}
    header = {
        "format_version": 1,
        "kind": params.kind,
        "obs_dim": params.obs_dim,
        "hidden": list(params.hidden),
    }
    payload["header_json"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **payload)


def load_checkpoint(path):
    """Rebuild a saved network; returns it and the file's header (older
    files' headers also hold an unread `meta`). Raises ValueError naming a
    missing, misshaped or non-finite array."""
    with np.load(path) as data:
        header = json.loads(bytes(data["header_json"].tobytes()).decode())
        if header.get("format_version") != 1:
            raise ValueError("unsupported checkpoint format_version "
                             f"{header.get('format_version')!r}")
        params = MlpParams(header["kind"], int(header["obs_dim"]),
                           tuple(header["hidden"]))
        for name, arr in params.arrays():
            key = f"param_{name}"
            if key not in data:
                raise ValueError(f"array {key} is missing")
            stored = data[key]
            if stored.shape != arr.shape:
                raise ValueError(f"array {key} has shape {stored.shape}, but "
                                 f"the header's network needs {arr.shape}")
            arr[...] = stored
            if not np.isfinite(arr).all():
                raise ValueError(f"array {key} holds a non-finite value")
    return params, header
