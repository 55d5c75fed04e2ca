"""Acceptance suite: every shipping criterion at its stated tolerance.

Runs the reduced desk-scale training profile end to end (twice, for the
reproducibility check), evaluates against the static baseline, the all-CAV
variant, and the no-cooperation ablation, and prints one PASS/FAIL line per
criterion (run with `pytest -s tests/test_acceptance.py` to see them live).
Training fixtures take a few minutes total on one core.
"""
import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from cotraffic.cli import main as cli_main
from cotraffic.env import (CooperationMode, EnvConfig, TrafficEnv,
                           cav_reward, max_road_capacity, tl_reward)
from cotraffic.methods import get_method
from cotraffic.metrics import aggregate_reports, compare_table, write_compare_csv
from cotraffic.network import build_grid, build_insertion_schedule, grid_scenario
from cotraffic.policy import (GradWorkspace, Policy, init_params,
                              load_checkpoint, ppo_loss_and_grads)
from cotraffic.ppo import ci_profile, compute_gae, one_blas_thread, train
from cotraffic.rollout import evaluate_policy
from cotraffic.simulation import Vehicle, build_sim, idm_accel, step

SEED = 7
EVAL_SEEDS = [SEED + 100_000 + i for i in range(18)]
EVAL_HORIZON = 720
# CPU seconds of the criterion-10 trainings, filled in by their fixtures.
# They are taken with OpenBLAS on one thread: `time.process_time()` counts
# every thread of the process, OpenBLAS's workers included, so their spinning
# would be charged to the training that happens to run a matmul.
TRAIN_CPU_S = {}


def _crit(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


def _put(sim, vid, road, position, speed=0.0, accel=0.0, kind="HDV"):
    veh = Vehicle(vid, kind, road, position, speed, (road,))
    veh.accel = accel
    sim.vehicles[vid] = veh
    order = sim.road_order[road]
    keys = [sim.vehicles[o].position for o in order]
    order.insert(int(np.searchsorted(keys, position)), vid)
    sim.inserted_count += 1
    return veh


def _fresh_sim():
    sim = build_sim(grid_scenario("1x1", penetration=0.0, seed=1))
    sim.pending = []
    return sim


# --- training fixtures (shared across the slow criteria) ----------------------

@pytest.fixture(scope="module")
def cotv_dirs(tmp_path_factory):
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"cotv_{tag}")
        with one_blas_thread():
            cpu0 = time.process_time()
            code = cli_main(["train", "--method", "cotv", "--grid", "1x1",
                             "--profile", "ci", "--seed", str(SEED),
                             "--out", str(out)])
            TRAIN_CPU_S.setdefault("cotv", time.process_time() - cpu0)
        assert code == 0
        dirs.append(out)
    return dirs


def _read_curves(run_dir):
    with open(Path(run_dir) / "reward_curves.csv", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def cotv_params(cotv_dirs):
    tl, _ = load_checkpoint(Path(cotv_dirs[0]) / "checkpoint_tl.npz")
    cav, _ = load_checkpoint(Path(cotv_dirs[0]) / "checkpoint_cav.npz")
    return tl, cav


@pytest.fixture(scope="module")
def star_result():
    scen = grid_scenario("1x1", penetration=1.0, seed=SEED)
    with one_blas_thread():
        cpu0 = time.process_time()
        result = train(scen, EnvConfig(CooperationMode.COTV_STAR),
                       ci_profile(), seed=SEED)
        TRAIN_CPU_S["cotv-star"] = time.process_time() - cpu0
    return result


@pytest.fixture(scope="module")
def icotv_result():
    scen = grid_scenario("1x1", penetration=1.0, seed=SEED)
    return train(scen, EnvConfig(CooperationMode.I_COTV), ci_profile(),
                 seed=SEED)


@pytest.fixture(scope="module")
def static_agg():
    scen = grid_scenario("1x1", penetration=0.0, seed=SEED)
    return aggregate_reports(evaluate_policy(
        scen, get_method("baseline-static").env_cfg, None, None, EVAL_SEEDS,
        EVAL_HORIZON))


def _eval_cotv(params, penetration):
    scen = grid_scenario("1x1", penetration=penetration, seed=SEED)
    reports = evaluate_policy(scen, EnvConfig(CooperationMode.COTV),
                              params[0], params[1], EVAL_SEEDS, EVAL_HORIZON)
    return aggregate_reports(reports)


@pytest.fixture(scope="module")
def cotv_agg(cotv_params):
    return _eval_cotv(cotv_params, 1.0)


# --- criterion 1: reward oracles ----------------------------------------------

def test_criterion_01_reward_oracles():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        sim = _fresh_sim()
        inter = sim.network.intersections["J0-0"]
        n_in = n_out = 0
        for rid in inter.incoming:
            k = int(rng.integers(0, 8))
            n_in += k
            for j in range(k):
                _put(sim, f"{rid}.{j}", rid, 2.0 + 35 * j,
                     float(rng.uniform(0, 16)), float(rng.uniform(-4.5, 3)))
        for rid in inter.outgoing:
            k = int(rng.integers(0, 8))
            n_out += k
            for j in range(k):
                _put(sim, f"{rid}.{j}", rid, 2.0 + 35 * j,
                     float(rng.uniform(0, 16)), float(rng.uniform(-4.5, 3)))
        got = tl_reward(sim, sim.lights["J0-0"])
        want = -(n_in - n_out) / 40.0
        if want != 0.0:
            worst = max(worst, abs(got - want) / abs(want))
        else:
            assert got == 0.0

        road = inter.incoming[0]
        if sim.road_order[road]:
            members = [sim.vehicles[v] for v in sim.road_order[road]]
            k = len(members)
            r1 = -sum((15.0 - min(m.speed, 15.0)) / 15.0 for m in members) / k
            r2 = -math.sqrt(sum((max(m.accel, 0.0) / 9.0) ** 2
                                 for m in members) / k ** 2)
            got_c = cav_reward(sim, members[0].id)
            want_c = r1 + r2
            if want_c != 0.0:
                worst = max(worst, abs(got_c - want_c) / abs(want_c))
            assert -2.0 <= got_c <= 0.0
    _crit(1, "reward oracles", worst <= 1e-12,
          f"max relative error {worst:.2e} over 1000 randomized states")


# --- criterion 2: capacity constant -------------------------------------------

def test_criterion_02_capacity_constant():
    c1 = max_road_capacity(build_grid(1, 1, 300, 15))
    c6 = max_road_capacity(build_grid(1, 6, 300, 15))
    _crit(2, "capacity constant", c1 == 40 and c6 == 40,
          f"c(1x1)={c1}, c(1x6)={c6} with 5 m vehicles and 2.5 m gaps")


# --- criterion 3: demand fidelity ---------------------------------------------

def test_criterion_03_demand_fidelity():
    s1 = grid_scenario("1x1", seed=SEED)
    s6 = grid_scenario("1x6", seed=SEED)
    total1 = sum(f.count for f in s1.flows)
    total6 = sum(f.count for f in s6.flows)
    ns_start = min(e.time for e in build_insertion_schedule(s1)
                   if e.vehicle_id.startswith("NS."))

    from cotraffic.baselines import static_tick
    sim = build_sim(s1.with_overrides(penetration=0.0))
    light = sim.lights["J0-0"]
    entries, last = [], light.phase_index
    for _ in range(EVAL_HORIZON):
        step(sim, {"J0-0": static_tick(light)}, {})
        if light.phase_index == 0 and last != 0:
            entries.append(sim.clock)
        last = light.phase_index
    cycles = set(np.diff(entries).tolist())
    ok = total1 == 70 and total6 == 240 and ns_start == 45.0 and cycles == {86}
    _crit(3, "demand fidelity", ok,
          f"totals {total1}/{total6}, heavy NS flow starts {ns_start:g}s, "
          f"observed static cycle(s) {sorted(cycles)}")


# --- criterion 4: platoon safety ----------------------------------------------

def test_criterion_04_platoon_safety():
    n = 11
    pos = np.array([300.0 - 10.0 * i for i in range(n)])
    vel = np.zeros(n)
    ok = True
    for t in range(720):
        vel[0] = 15.0 if (t // 40) % 2 == 0 else 0.0
        for i in range(1, n):
            gap = pos[i - 1] - 5.0 - pos[i]
            if gap <= 0.0:
                ok = False
                break
            a = idm_accel(vel[i], vel[i - 1], gap, 15.0)
            vel[i] = min(max(vel[i] + a, 0.0), 15.0)
        pos += vel
        gaps = pos[:-1] - 5.0 - pos[1:]
        ok = ok and np.all(gaps > 0) and np.all(vel >= 0) and np.all(vel <= 15)
        if not ok:
            break
    _crit(4, "platoon safety", bool(ok),
          "10 followers, stop-and-go leader, 720 steps: no collision, "
          "speeds within [0, 15]")


# --- criterion 5: TTC oracle ----------------------------------------------------

def _ttc_rescan(sim, threshold=3.0):
    count = 0
    for road_id in sim.network.roads:
        vehs = sorted((sim.vehicles[v] for v in sim.road_order[road_id]),
                      key=lambda v: v.position)
        for f, l in zip(vehs, vehs[1:]):
            gap = l.position - l.length - f.position
            if gap > 0 and f.speed > l.speed and gap / (f.speed - l.speed) < threshold:
                count += 1
    return count


def test_criterion_05_ttc_oracle():
    sim = build_sim(grid_scenario("1x1", penetration=0.3, seed=31))
    rng = np.random.default_rng(31)
    total = 0
    exact = True
    for _ in range(100):
        before = sim.ttc_event_count
        cavs = {vid: float(rng.uniform(-3, 3))
                for vid, v in sim.vehicles.items() if v.kind == "CAV"}
        step(sim, {"J0-0": int(rng.random() < 0.3)}, cavs)
        rescan = _ttc_rescan(sim)
        total += rescan
        exact = exact and (sim.ttc_event_count - before == rescan)
    exact = exact and sim.ttc_event_count == total
    _crit(5, "TTC oracle", exact,
          f"counter matches pairwise re-scan on 100 random steps "
          f"({sim.ttc_event_count} events)")


# --- criterion 6: GAE and gradient correctness ----------------------------------

def test_criterion_06_gae_and_gradients():
    rng = np.random.default_rng(61)
    gae_err = 0.0
    for _ in range(50):
        n = 9
        r, v = rng.normal(size=n), rng.normal(size=n)
        last = rng.normal()
        gamma, lam = rng.uniform(0.8, 1.0), rng.uniform(0.5, 1.0)
        adv, _ = compute_gae(r, v, last, gamma, lam)
        v_ext = np.append(v, last)
        delta = r + gamma * v_ext[1:] - v_ext[:-1]
        for t in range(n):
            direct = sum((gamma * lam) ** k * delta[t + k] for k in range(n - t))
            gae_err = max(gae_err, abs(adv[t] - direct))

    grad_err = 0.0
    for kind, dim in (("tl", 5), ("cav", 7)):
        params = init_params(kind, dim, (6, 5), seed=17)
        obs = rng.normal(size=(10, dim))
        policy = Policy(params)
        actions, logps = [], []
        for o in obs:
            (a,), (lp,), _ = policy.act(o[None, :], rng)
            actions.append(a)
            logps.append(lp)
        actions = np.array(actions, dtype=float)
        old = np.array(logps) + rng.normal(0, 0.1, 10)
        adv, ret = rng.normal(size=10), rng.normal(size=10)
        work = GradWorkspace(params, 10)

        def loss_at(flat):
            params.flat[...] = flat
            return ppo_loss_and_grads(params, obs, actions, old, adv, ret,
                                      0.2, 0.5, 0.01, work)[0]

        flat0 = params.flat.copy()
        # a copy: the next call overwrites the workspace's gradient
        analytic = ppo_loss_and_grads(params, obs, actions, old, adv, ret,
                                      0.2, 0.5, 0.01, work)[1].copy()
        h = 1e-5
        for i in range(flat0.size):
            up, down = flat0.copy(), flat0.copy()
            up[i] += h
            down[i] -= h
            fd = (loss_at(up) - loss_at(down)) / (2 * h)
            denom = max(abs(fd) + abs(analytic[i]), 1e-8)
            grad_err = max(grad_err, abs(fd - analytic[i]) / denom)
        params.flat[...] = flat0

    ok = gae_err <= 1e-12 and grad_err < 1e-4
    _crit(6, "GAE and gradient correctness", ok,
          f"GAE max abs error {gae_err:.2e}, gradient max relative error "
          f"{grad_err:.2e} vs central differences")


# --- criterion 7: determinism ----------------------------------------------------

def test_criterion_07_determinism(cotv_dirs, tmp_path):
    def strip_timing(rows):
        return [{k: v for k, v in row.items()
                 if k not in ("wall_s", "rollout_s", "update_s")}
                for row in rows]

    curves_a = strip_timing(_read_curves(cotv_dirs[0]))
    curves_b = strip_timing(_read_curves(cotv_dirs[1]))
    same_curves = curves_a == curves_b

    evals = []
    for tag in ("x", "y"):
        out = tmp_path / tag
        code = cli_main(["evaluate", "--checkpoint-dir", str(cotv_dirs[0]),
                         "--episodes", "3", "--seed", str(SEED),
                         "--out", str(out)])
        assert code == 0
        evals.append((out / "aggregate.json").read_text())
    same_eval = evals[0] == evals[1]
    _crit(7, "determinism", same_curves and same_eval,
          f"reward curves identical: {same_curves}; "
          f"evaluation reports identical: {same_eval}")


# --- criterion 8: convergence trend ----------------------------------------------

def test_criterion_08_convergence_trend(cotv_dirs):
    curves = _read_curves(cotv_dirs[0])
    tl = [float(c["tl_reward"]) for c in curves]
    cav = [float(c["cav_reward"]) for c in curves]
    tl_first, tl_last = np.mean(tl[:10]), np.mean(tl[-10:])
    cav_first, cav_last = np.mean(cav[:10]), np.mean(cav[-10:])
    ok = tl_last > tl_first and cav_last > cav_first
    _crit(8, "convergence trend", ok,
          f"signal agents {tl_first:.2f} -> {tl_last:.2f}, "
          f"vehicle agents {cav_first:.2f} -> {cav_last:.2f} "
          "(mean episode reward, first vs final 10 iterations)")


# --- criterion 9: directional efficiency ------------------------------------------

def test_criterion_09_directional_efficiency(cotv_agg, static_agg):
    tt_change = 100 * (cotv_agg.mean_travel_time / static_agg.mean_travel_time - 1)
    ttc_change = 100 * (cotv_agg.ttc_events / static_agg.ttc_events - 1)
    ok = tt_change <= -10.0 and ttc_change <= -50.0
    _crit(9, "directional efficiency", ok,
          f"travel time {static_agg.mean_travel_time:.2f}s -> "
          f"{cotv_agg.mean_travel_time:.2f}s ({tt_change:+.2f}%), "
          f"TTC events {static_agg.ttc_events:.1f} -> "
          f"{cotv_agg.ttc_events:.1f} ({ttc_change:+.2f}%), "
          "18 evaluation episodes")


# --- criterion 10: scalability ------------------------------------------------------

def test_criterion_10_scalability(cotv_dirs, cotv_params, cotv_agg, star_result):
    curves = _read_curves(cotv_dirs[0])
    cotv_steps = np.mean([float(c["cav_steps"]) for c in curves])
    star_steps = np.mean([c["cav_steps"] for c in star_result.curves])

    with open(Path(cotv_dirs[0]) / "manifest.json") as fh:
        cotv_wall = json.load(fh)["wall_time_s"]
    star_wall = star_result.wall_time_s
    # the gate reads CPU time, which host load does not inflate as it does
    # wall time, taken with OpenBLAS on one thread; both are printed
    cotv_cpu, star_cpu = TRAIN_CPU_S["cotv"], TRAIN_CPU_S["cotv-star"]

    # per-step agent bound in the closest-only mode
    scen = grid_scenario("1x1", penetration=1.0, seed=SEED)
    env = TrafficEnv(scen, EnvConfig(CooperationMode.COTV))
    env.reset()
    tl_pol, cav_pol = Policy(cotv_params[0]), Policy(cotv_params[1])
    rng = np.random.default_rng(0)
    max_agents = 0
    for _ in range(EVAL_HORIZON):
        records = env.step(tl_pol, cav_pol, rng=rng, sample=False)
        max_agents = max(max_agents,
                         sum(r.agent_type == "CAV" for r in records))

    star_agg = _eval_cotv_star(star_result)
    tt_gap = abs(cotv_agg.mean_travel_time - star_agg.mean_travel_time)
    ok = (cotv_steps < star_steps and max_agents <= 4
          and cotv_cpu < star_cpu
          and tt_gap <= 0.10 * star_agg.mean_travel_time)
    _crit(10, "scalability", ok,
          f"vehicle-agent steps/iter {cotv_steps:.0f} vs {star_steps:.0f} "
          f"(all-CAV), peak agents/step {max_agents} (bound 4), CPU "
          f"{cotv_cpu:.1f}s vs {star_cpu:.1f}s, wall {cotv_wall:.1f}s vs "
          f"{star_wall:.1f}s, travel time "
          f"{cotv_agg.mean_travel_time:.2f}s vs {star_agg.mean_travel_time:.2f}s")


def _eval_cotv_star(star_result):
    scen = grid_scenario("1x1", penetration=1.0, seed=SEED)
    reports = evaluate_policy(scen, EnvConfig(CooperationMode.COTV_STAR),
                              star_result.tl_params, star_result.cav_params,
                              EVAL_SEEDS, EVAL_HORIZON)
    return aggregate_reports(reports)


# --- criterion 11: ablation separability ---------------------------------------------

def test_criterion_11_ablation_separability(cotv_agg, icotv_result, static_agg,
                                            tmp_path):
    scen = grid_scenario("1x1", penetration=1.0, seed=SEED)
    icotv_agg = aggregate_reports(evaluate_policy(
        scen, EnvConfig(CooperationMode.I_COTV), icotv_result.tl_params,
        icotv_result.cav_params, EVAL_SEEDS, EVAL_HORIZON))
    table = compare_table({"baseline-static": static_agg, "cotv": cotv_agg,
                           "i-cotv": icotv_agg}, "baseline-static")
    out = tmp_path / "ablation.csv"
    write_compare_csv(out, table, "baseline-static")
    emitted = out.exists() and "i-cotv" in out.read_text()
    ok = (cotv_agg.mean_travel_time <= icotv_agg.mean_travel_time) and emitted
    # travel time covers completed trips only, so a mode that crashes or
    # starves vehicles can look faster; print both counts beside it
    _crit(11, "ablation separability", ok,
          f"travel time with cooperation {cotv_agg.mean_travel_time:.2f}s vs "
          f"without {icotv_agg.mean_travel_time:.2f}s; completed "
          f"{cotv_agg.completed:.2f} vs {icotv_agg.completed:.2f} and crashed "
          f"{cotv_agg.collided:.2f} vs {icotv_agg.collided:.2f} vehicles per "
          f"episode; comparison table written ({emitted})")


# --- criterion 12: penetration trend ---------------------------------------------------

def test_criterion_12_penetration_trend(cotv_params):
    rates = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    tts = {}
    for rate in rates:
        tts[rate] = _eval_cotv(cotv_params, rate).mean_travel_time
    ok = tts[1.0] <= tts[0.0]
    detail = ", ".join(f"{r:.1f}: {tts[r]:.2f}s" for r in rates)
    _crit(12, "penetration trend", ok, detail)
