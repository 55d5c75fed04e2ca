"""Outside-in span tracer for the cotraffic layers.

The tracer replaces module and class attributes with timing wrappers and puts
the originals back when it exits. Each call of a wrapped function becomes one
span: name, start, end, parent span and an optional row count. Spans are kept
in flat in-memory arrays and are only summarised or written out after the
traced region ends, so the per-call cost is a few list appends.

Functions are wrapped at the name their caller looks up. Several modules
import by name (``from .simulation import step``), so such a function is
wrapped in every importing module, under one span name.

Spans of forked pool workers stay in the workers and are not collected.
"""
from array import array
from collections import defaultdict
import time

import numpy as np

from cotraffic import (baselines, env, kernels, metrics, policy, ppo, rollout,
                       simulation)

KERNELS = ("vehicle_accels", "kinematics", "ttc_events", "collision_followers",
           "fuel_co2")


def _first_len(args, out):
    return len(args[0])


def _forward_rows(args, out):
    return out[0].shape[0]


def _records(args, out):
    return len(out)


# (owner, attribute, span name, row counter or None). The owner is the
# namespace the caller resolves the name in.
LAYER_WRAPS = [
    (ppo, "ppo_update", "ppo.ppo_update", None),
    (ppo.RolloutBuffer, "build_batch", "ppo.build_batch", None),
    (ppo, "ppo_loss_and_grads", "policy.ppo_loss_and_grads", None),
    (policy.Adam, "step", "policy.Adam.step", None),
    (policy.Policy, "act", "policy.Policy.act", None),
    (policy, "forward", "policy.forward", _forward_rows),
    (rollout, "collect_episodes", "rollout.collect_episodes", None),
    (rollout, "run_episode", "rollout.run_episode", None),
    (rollout, "run_baseline_episode", "rollout.run_baseline_episode", None),
    (rollout, "build_episode_report", "metrics.build_episode_report", None),
    (metrics, "build_episode_report", "metrics.build_episode_report", None),
    (env.TrafficEnv, "step", "env.TrafficEnv.step", _records),
    (env, "tl_observation", "env.tl_observation", None),
    (env, "cav_observation", "env.cav_observation", None),
    (env, "tl_reward", "env.tl_reward", None),
    (env, "cav_reward", "env.cav_reward", None),
    (env, "select_cav_agents", "env.select_cav_agents", None),
    (env, "step", "simulation.step", None),
    (baselines, "step", "simulation.step", None),
    (env, "build_sim", "simulation.build_sim", None),
    (baselines, "build_sim", "simulation.build_sim", None),
    (simulation, "detect_collisions", "simulation.detect_collisions", None),
    (simulation, "count_ttc_events", "simulation.count_ttc_events", None),
    (simulation, "build_insertion_schedule",
     "network.build_insertion_schedule", None),
    (baselines.GlosaController, "commands", "baselines.GlosaController.commands",
     None),
    (baselines, "idm_accel", "baselines.idm_accel", None),
    (baselines, "static_tick", "baselines.static_tick", None),
    (baselines.ActuatedController, "tick", "baselines.ActuatedController.tick",
     None),
    (baselines, "max_pressure_tick", "baselines.max_pressure_tick", None),
] + [(kernels, k, f"kernels.{k}", _first_len) for k in KERNELS]


class Tracer:
    """Context manager that wraps the given attributes while it is open.

    `wraps` is a list of (owner, attribute, span name, row counter); the row
    counter, when given, maps (args, result) to a count stored on the span.
    """

    def __init__(self, wraps):
        self.wraps = wraps
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self._stack = []
        self._patched = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrapper(self, original, name, counter):
        nid = self._id(name)
        name_id, parent, start, end, rows = (self.name_id, self.parent,
                                             self.start, self.end, self.rows)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            rows.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if counter is not None:
                rows[idx] = counter(args, out)
            return out

        return traced

    def __enter__(self):
        self._patched = []
        for owner, attr, name, counter in self.wraps:
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, counter))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        return False

    def restored(self):
        """True when every wrapped attribute is the original object again."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self._patched)

    def arrays(self):
        """Spans as numpy arrays: (name ids, parents, starts, ends, rows)."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.rows, dtype=np.int64))

    def save(self, path):
        nid, par, start, end, rows = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            parent=par, start=start, end=end, rows=rows)


class SpanSummary:
    """Per-name totals of a finished trace, plus its consistency checks.

    `wall_s` is the wall time of the traced region, of which `untimed_s`
    went to the benchmark's reference loop, outside every span. `scale`
    multiplies each span's times in the totals (the calibration factor of
    its operation); the checks use the unscaled times.
    """

    def __init__(self, tracer, wall_s, untimed_s, scale):
        nid, par, start, end, rows = tracer.arrays()
        self.names = tracer.names
        dur = end - start
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        self.errors = self._check(par, start, end, self_s, wall_s)
        self.wall_s = wall_s
        self.untimed_s = untimed_s
        self.remainder_s = wall_s - float(dur[~has_parent].sum())
        dur, self_s = dur * scale, self_s * scale
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.rows = defaultdict(int)
        for i, name in enumerate(self.names):
            mine = nid == i
            self.calls[name] = int(mine.sum())
            self.total[name] = float(dur[mine].sum())
            self.self_time[name] = float(self_s[mine].sum())
            self.rows[name] = int(rows[mine].sum())
        parent_name = np.where(has_parent, nid[np.maximum(par, 0)], -1)
        self._nid, self._parent_name, self._rows = nid, parent_name, rows

    @staticmethod
    def _check(par, start, end, self_s, wall_s):
        errors = []
        tol = 1e-9
        if np.any(self_s < -tol):
            errors.append("a span's children outlast it")
        has_parent = par >= 0
        p = par[has_parent]
        if np.any(start[has_parent] < start[p] - tol) or np.any(
                end[has_parent] > end[p] + tol):
            errors.append("a child span lies outside its parent")
        remainder = wall_s - float((end - start)[~has_parent].sum())
        if remainder < -tol * max(1.0, wall_s):
            errors.append("top-level spans exceed the traced wall time")
        if abs(float(self_s.sum()) + remainder - wall_s) > 1e-6 * max(
                1.0, wall_s):
            errors.append("self times plus the untraced remainder do not sum "
                          "to the traced wall time")
        return errors

    def rows_under(self, name, parent, exclude=False):
        """(row total, span count) of `name` spans whose direct parent is, or
        with exclude=True is not, the `parent` span name."""
        if name not in self.names:
            return 0, 0
        mine = self._nid == self.names.index(name)
        pid = self.names.index(parent) if parent in self.names else -2
        under = self._parent_name == pid
        sel = mine & (~under if exclude else under)
        return int(self._rows[sel].sum()), int(sel.sum())


def layer_metrics(summary, passes):
    """Per-layer metrics, per traced pass, from a span summary."""
    calls = {k: v / passes for k, v in summary.calls.items()}
    total = {k: v / passes for k, v in summary.total.items()}
    self_s = {k: v / passes for k, v in summary.self_time.items()}
    c = lambda name: calls.get(name, 0)
    s = lambda name: total.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    vehicle_rows, _ = summary.rows_under("kernels.vehicle_accels",
                                         "simulation.step")
    vehicle_steps = vehicle_rows / passes
    act_rows, act_forwards = summary.rows_under(
        "policy.forward", "policy.ppo_loss_and_grads", exclude=True)
    kernel_rows = sum(summary.rows.get(f"kernels.{k}", 0) for k in KERNELS)
    kernel_calls = sum(summary.calls.get(f"kernels.{k}", 0) for k in KERNELS)

    out = {
        "simulation.step.calls": c("simulation.step"),
        "simulation.step.self_s": self_s.get("simulation.step", 0.0),
        "simulation.detect_collisions.self_s":
            self_s.get("simulation.detect_collisions", 0.0),
        "simulation.count_ttc_events.self_s":
            self_s.get("simulation.count_ttc_events", 0.0),
        "simulation.build_sim.s": s("simulation.build_sim"),
        "simulation.vehicle_steps": vehicle_steps,
        "simulation.us_per_vehicle_step":
            1e6 * ratio(s("simulation.step"), vehicle_steps),
    }
    for k in KERNELS:
        out[f"kernels.{k}.calls"] = c(f"kernels.{k}")
        out[f"kernels.{k}.s"] = s(f"kernels.{k}")
    out["kernels.rows_per_call"] = ratio(kernel_rows, kernel_calls)
    out["env.TrafficEnv.step.self_s"] = self_s.get("env.TrafficEnv.step", 0.0)
    for f in ("tl_observation", "cav_observation", "tl_reward", "cav_reward",
              "select_cav_agents"):
        out[f"env.{f}.calls"] = c(f"env.{f}")
        out[f"env.{f}.s"] = s(f"env.{f}")
    out["env.agent_steps"] = summary.rows.get("env.TrafficEnv.step", 0) / passes
    minibatches = c("policy.ppo_loss_and_grads")
    out.update({
        "policy.Policy.act.calls": c("policy.Policy.act"),
        "policy.Policy.act.s": s("policy.Policy.act"),
        "policy.rows_per_forward": ratio(act_rows, act_forwards),
        "policy.ppo_loss_and_grads.calls": minibatches,
        "policy.ppo_loss_and_grads.ms_per_minibatch":
            1e3 * ratio(s("policy.ppo_loss_and_grads"), minibatches),
        "policy.Adam.step.s": s("policy.Adam.step"),
        "ppo.rollout_s": s("rollout.collect_episodes"),
        "ppo.update_s": s("ppo.ppo_update"),
        "ppo.update_share": ratio(
            s("ppo.ppo_update"),
            s("ppo.ppo_update") + s("rollout.collect_episodes")),
        "ppo.build_batch.s": s("ppo.build_batch"),
        "ppo.minibatches": minibatches,
        "rollout.run_episode.calls": c("rollout.run_episode"),
        "rollout.run_episode.s": s("rollout.run_episode"),
        "rollout.collect_episodes.s": s("rollout.collect_episodes"),
        "baselines.GlosaController.commands.s":
            s("baselines.GlosaController.commands"),
        "baselines.idm_accel.calls": c("baselines.idm_accel"),
        "baselines.static_tick.s": s("baselines.static_tick"),
        "baselines.ActuatedController.tick.s":
            s("baselines.ActuatedController.tick"),
        "baselines.max_pressure_tick.s": s("baselines.max_pressure_tick"),
        "metrics.build_episode_report.s": s("metrics.build_episode_report"),
        "network.build_insertion_schedule.s":
            s("network.build_insertion_schedule"),
        "trace.remainder_share": ratio(summary.remainder_s - summary.untimed_s,
                                       summary.wall_s - summary.untimed_s),
    })
    return out
