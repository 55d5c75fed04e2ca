"""Agent selection, observation layouts, rewards, and the env transition."""
import hashlib
import io
import math

import numpy as np
import pytest

from cotraffic import env as env_module
from cotraffic import policy, rollout, simulation
from cotraffic.env import (CooperationMode, EnvConfig, TrafficEnv, cav_obs_dim,
                           cav_observation, max_road_capacity,
                           select_cav_agents, tl_obs_dim, tl_observation,
                           tl_reward, cav_reward)
from cotraffic.network import build_grid, grid_scenario
from cotraffic.policy import Policy, init_params
from cotraffic.simulation import step

from reference import empty_sim, episode_state, put_vehicle, ref_env_step

COTV = CooperationMode.COTV
STAR = CooperationMode.COTV_STAR
ICOTV = CooperationMode.I_COTV
MCOTV = CooperationMode.M_COTV


def agent_ids(agents):
    return [vid for vid, _ in agents]


def tl_obs(sim, mode, prev_commands=None):
    """The one 1x1 light's row of the signal observation matrix."""
    (row,) = tl_observation(sim, mode, max_road_capacity(sim.network),
                            prev_commands or {})
    return row


def cav_obs(sim, vid, mode, prev_tl_action=None):
    """Vehicle agent `vid`'s row of the vehicle observation matrix."""
    rows = cav_observation(sim, mode, prev_tl_action or {})
    return rows[agent_ids(select_cav_agents(sim, mode)).index(vid)]


def test_capacity_constant():
    assert max_road_capacity(build_grid(1, 1, 300, 15)) == 40
    assert max_road_capacity(build_grid(1, 6, 300, 15)) == 40
    assert max_road_capacity(build_grid(1, 1, 299.9, 15)) == 39


# --- agent selection ---------------------------------------------------------

def selection_fixture():
    sim = empty_sim()
    put_vehicle(sim, "far", "N0:J0-0", 50.0, 5.0, kind="CAV")     # 250 m out
    put_vehicle(sim, "mid", "N0:J0-0", 150.0, 5.0, kind="CAV")    # 150 m out
    put_vehicle(sim, "near", "N0:J0-0", 250.0, 5.0, kind="CAV")   # 50 m out
    return sim


def test_select_closest_only():
    assert agent_ids(select_cav_agents(selection_fixture(), COTV)) == ["near"]


def test_select_star_takes_all():
    assert agent_ids(select_cav_agents(selection_fixture(), STAR)) == [
        "near", "mid", "far"]


def test_select_returns_each_agents_road():
    sim = selection_fixture()
    put_vehicle(sim, "west", "W0:J0-0", 100.0, 5.0, kind="CAV")
    assert select_cav_agents(sim, STAR) == [
        ("near", "N0:J0-0"), ("mid", "N0:J0-0"), ("far", "N0:J0-0"),
        ("west", "W0:J0-0")]


def test_select_skips_hdv_only_roads():
    sim = empty_sim()
    put_vehicle(sim, "h1", "N0:J0-0", 250.0, 5.0, kind="HDV")
    put_vehicle(sim, "c1", "W0:J0-0", 100.0, 5.0, kind="CAV")
    assert agent_ids(select_cav_agents(sim, COTV)) == ["c1"]


def test_hdv_closer_than_cav_does_not_block_selection():
    sim = empty_sim()
    put_vehicle(sim, "h", "N0:J0-0", 280.0, 5.0, kind="HDV")
    put_vehicle(sim, "c", "N0:J0-0", 100.0, 5.0, kind="CAV")
    assert agent_ids(select_cav_agents(sim, COTV)) == ["c"]


# --- observations ------------------------------------------------------------

def test_tl_observation_empty_intersection():
    sim = empty_sim()
    obs = tl_obs(sim, COTV)
    assert obs.shape == (tl_obs_dim(sim.network, COTV),)
    assert obs.shape == (1 + 4 + 4 + 4 * 7,)
    assert obs[0] == 0.0
    assert np.all(obs[1:9] == 0.0)
    blocks = obs[9:].reshape(4, 7)
    for slot, block in enumerate(blocks):
        assert block[0] == 0.0 and block[1] == 0.0 and block[2] == 1.0
        one_hot = block[3:]
        assert one_hot[slot] == 1.0 and one_hot.sum() == 1.0


def test_tl_observation_counts_normalized():
    sim = empty_sim()
    for k in range(10):
        put_vehicle(sim, f"v{k}", "N0:J0-0", 10.0 + 20 * k, 3.0)
    obs = tl_obs(sim, COTV)
    inter = sim.network.intersections["J0-0"]
    slot = inter.incoming.index("N0:J0-0")
    assert obs[1 + slot] == pytest.approx(10 / 40)


def test_tl_observation_closest_vehicle_block():
    sim = empty_sim()
    put_vehicle(sim, "back", "N0:J0-0", 100.0, 6.0)
    near = put_vehicle(sim, "front", "N0:J0-0", 270.0, 12.0)
    near.accel = -1.5
    obs = tl_obs(sim, COTV)
    inter = sim.network.intersections["J0-0"]
    slot = inter.incoming.index("N0:J0-0")
    block = obs[9 + 7 * slot: 9 + 7 * (slot + 1)]
    assert block[0] == pytest.approx(12.0 / 15.0)
    assert block[1] == pytest.approx(-0.5)
    assert block[2] == pytest.approx(30.0 / 300.0)


def test_icotv_zeroes_vehicle_blocks_but_not_counts():
    sim = empty_sim()
    put_vehicle(sim, "v", "N0:J0-0", 270.0, 12.0)
    obs = tl_obs(sim, ICOTV)
    assert np.all(obs[9:] == 0.0)
    assert obs[1:9].sum() > 0.0


def test_icotv_mode_ablation_property():
    """Perturbing only instantaneous vehicle state leaves I-CoTV unchanged."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        sim = empty_sim()
        for k in range(6):
            put_vehicle(sim, f"v{k}", "N0:J0-0", 20.0 + 40 * k,
                        float(rng.uniform(0, 15)))
        before_i = tl_obs(sim, ICOTV)
        before_c = tl_obs(sim, COTV)
        for veh in sim.vehicles.values():
            veh.speed = float(rng.uniform(0, 15))
            veh.accel = float(rng.uniform(-3, 3))
        after_i = tl_obs(sim, ICOTV)
        after_c = tl_obs(sim, COTV)
        np.testing.assert_array_equal(before_i, after_i)
        assert not np.array_equal(before_c, after_c)


def test_mcotv_extends_with_previous_commands():
    sim = empty_sim()
    assert tl_obs_dim(sim.network, MCOTV) == tl_obs_dim(sim.network, COTV) + 4
    obs = tl_obs(sim, MCOTV, prev_commands={"N0:J0-0": 1.5})
    inter = sim.network.intersections["J0-0"]
    slot = inter.incoming.index("N0:J0-0")
    tail = obs[-4:]
    assert tail[slot] == pytest.approx(0.5)
    assert tail.sum() == pytest.approx(0.5)


def test_cav_observation_sentinels_and_signal():
    sim = empty_sim()
    put_vehicle(sim, "solo", "N0:J0-0", 150.0, 9.0, kind="CAV")
    obs = cav_obs(sim, "solo", COTV)
    assert obs.shape == (7,)
    assert obs[0] == pytest.approx(0.6)
    assert obs[2] == 0.0 and obs[3] == 0.0 and obs[4] == 1.0  # leader sentinels
    assert obs[5] == pytest.approx(0.5)
    assert obs[6] == 1.0  # green NS

    sim.lights["J0-0"].phase_index = 1
    assert cav_obs(sim, "solo", COTV)[6] == 0.5  # yellow
    sim.lights["J0-0"].phase_index = 2
    assert cav_obs(sim, "solo", COTV)[6] == 0.0  # red
    assert cav_obs(sim, "solo", ICOTV)[6] == 0.0  # ablated

    assert cav_obs_dim(MCOTV) == 8
    obs_m = cav_obs(sim, "solo", MCOTV, prev_tl_action={"J0-0": 1})
    assert obs_m[7] == 1.0


def test_cav_observation_leader_gap():
    sim = empty_sim()
    put_vehicle(sim, "me", "N0:J0-0", 100.0, 9.0, kind="CAV")
    put_vehicle(sim, "lead", "N0:J0-0", 135.0, 12.0)
    obs = cav_obs(sim, "me", COTV)
    assert obs[2] == pytest.approx(0.8)
    assert obs[4] == pytest.approx(30.0 / 300.0)


def test_cav_observation_front_vehicle_sees_next_road_tail():
    sim = empty_sim()
    put_vehicle(sim, "me", "N0:J0-0", 280.0, 9.0, kind="CAV",
                route=["N0:J0-0", "J0-0:S0"])
    np.testing.assert_array_equal(cav_obs(sim, "me", COTV)[2:5],
                                  [0.0, 0.0, 1.0])  # next road empty
    put_vehicle(sim, "tail", "J0-0:S0", 12.0, 6.0)
    put_vehicle(sim, "ahead", "J0-0:S0", 60.0, 12.0)
    sim.vehicles["tail"].accel = -1.5
    obs = cav_obs(sim, "me", COTV)
    assert obs[2] == pytest.approx(6.0 / 15.0)
    assert obs[3] == pytest.approx(-0.5)
    assert obs[4] == pytest.approx((20.0 + 12.0 - 5.0) / 300.0)
    sim.lights["J0-0"].phase_index = 2  # red: still the vehicle ahead
    assert cav_obs(sim, "me", ICOTV)[4] == pytest.approx(27.0 / 300.0)


def test_observation_length_constant_during_run():
    scen = grid_scenario("1x1", penetration=0.5, seed=4)
    env = TrafficEnv(scen, EnvConfig(COTV))
    env.reset()
    tl_p = Policy(init_params("tl", tl_obs_dim(scen.network, COTV), seed=0))
    cav_p = Policy(init_params("cav", cav_obs_dim(COTV), seed=0))
    rng = np.random.default_rng(0)
    lengths_tl, lengths_cav = set(), set()
    for _ in range(120):
        for rec in env.step(tl_p, cav_p, rng=rng):
            (lengths_tl if rec.agent_type == "TL" else lengths_cav).add(
                rec.obs.shape)
    assert lengths_tl == {(tl_obs_dim(scen.network, COTV),)}
    assert lengths_cav <= {(cav_obs_dim(COTV),)}


# --- rewards -----------------------------------------------------------------

def test_tl_reward_examples():
    sim = empty_sim()
    for k in range(10):
        put_vehicle(sim, f"in{k}", "N0:J0-0", 10.0 + 25 * k, 3.0)
    for k in range(4):
        put_vehicle(sim, f"out{k}", "J0-0:S0", 10.0 + 25 * k, 3.0)
    assert tl_reward(sim, sim.lights["J0-0"]) == pytest.approx(-0.15)

    sim2 = empty_sim()
    for k in range(3):
        put_vehicle(sim2, f"i{k}", "W0:J0-0", 10.0 + 30 * k, 3.0)
        put_vehicle(sim2, f"o{k}", "J0-0:E0", 10.0 + 30 * k, 3.0)
    assert tl_reward(sim2, sim2.lights["J0-0"]) == pytest.approx(0.0)

    sim3 = empty_sim()
    for k in range(12):
        put_vehicle(sim3, f"o{k}", "J0-0:W0", 10.0 + 20 * k, 3.0)
    assert tl_reward(sim3, sim3.lights["J0-0"]) == pytest.approx(0.30)


def test_cav_reward_examples():
    sim = empty_sim()
    a = put_vehicle(sim, "a", "N0:J0-0", 100.0, 15.0, kind="CAV")
    a.accel = 0.0
    assert cav_reward(sim, "a") == pytest.approx(0.0)

    sim2 = empty_sim()
    b = put_vehicle(sim2, "b", "N0:J0-0", 100.0, 7.5, kind="CAV")
    b.accel = 0.0
    assert cav_reward(sim2, "b") == pytest.approx(-0.5)

    sim3 = empty_sim()
    c = put_vehicle(sim3, "c", "N0:J0-0", 100.0, 15.0, kind="CAV")
    d = put_vehicle(sim3, "d", "N0:J0-0", 200.0, 15.0, kind="CAV")
    c.accel = 3.0
    d.accel = -2.0  # clipped to zero in the norm term
    assert cav_reward(sim3, "c") == pytest.approx(-1.0 / 6.0, rel=1e-12)


def eq_tl_oracle(speeds_in_counts, out_counts, c):
    """Direct transcription of the pressure penalty."""
    return -(sum(speeds_in_counts) - sum(out_counts)) / c


def eq_cav_oracle(speeds, accels, v_star, a_star):
    k = len(speeds)
    r1 = -sum((v_star - min(v, v_star)) / v_star for v in speeds) / k
    r2 = -math.sqrt(sum((max(a, 0.0) / a_star) ** 2 for a in accels) / k ** 2)
    return r1 + r2


def test_reward_oracle_equivalence_randomized():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        sim = empty_sim()
        inter = sim.network.intersections["J0-0"]
        in_counts, out_counts = [], []
        for rid in inter.incoming:
            n = int(rng.integers(0, 6))
            in_counts.append(n)
            for k in range(n):
                put_vehicle(sim, f"{rid}_{k}", rid, 5.0 + 40 * k,
                            float(rng.uniform(0, 15)))
        for rid in inter.outgoing:
            n = int(rng.integers(0, 6))
            out_counts.append(n)
            for k in range(n):
                put_vehicle(sim, f"{rid}_{k}", rid, 5.0 + 40 * k,
                            float(rng.uniform(0, 15)))
        got = tl_reward(sim, sim.lights["J0-0"])
        want = eq_tl_oracle(in_counts, out_counts, 40)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert -4.0 <= got <= 4.0

        road = "N0:J0-0"
        if sim.road_order[road]:
            speeds, accels = [], []
            for vid in sim.road_order[road]:
                veh = sim.vehicles[vid]
                veh.accel = float(rng.uniform(-4.5, 3.0))
                veh.speed = float(rng.uniform(0, 16.0))  # may exceed the cap
                speeds.append(veh.speed)
                accels.append(veh.accel)
            agent = sim.road_order[road][0]
            got = cav_reward(sim, agent)
            want = eq_cav_oracle(speeds, accels, 15.0, 9.0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert -2.0 <= got <= 0.0


# --- environment transition --------------------------------------------------

def make_policies(network, mode, seed=0):
    return (Policy(init_params("tl", tl_obs_dim(network, mode), seed=seed)),
            Policy(init_params("cav", cav_obs_dim(mode), seed=seed)))


def test_env_step_tl_only_at_zero_penetration():
    scen = grid_scenario("1x1", penetration=0.0, seed=2)
    env = TrafficEnv(scen, EnvConfig(COTV))
    env.reset()
    tl_p, cav_p = make_policies(scen.network, COTV)
    rng = np.random.default_rng(0)
    for _ in range(60):
        records = env.step(tl_p, cav_p, rng=rng)
        assert len(records) == 1
        assert records[0].agent_type == "TL"


def test_env_step_cotv_agent_count():
    scen = grid_scenario("1x1", penetration=1.0, seed=2)
    env = TrafficEnv(scen, EnvConfig(COTV))
    sim = env.reset()
    for slot, rid in enumerate(sim.network.intersections["J0-0"].incoming):
        for k in range(3):
            put_vehicle(sim, f"{slot}_{k}", rid, 50.0 + 60 * k, 5.0, kind="CAV")
    sim.pending = []
    tl_p, cav_p = make_policies(scen.network, COTV)
    records = env.step(tl_p, cav_p, rng=np.random.default_rng(0))
    assert len(records) == 5  # 1 signal + 4 closest vehicles


def test_env_step_star_agent_count():
    scen = grid_scenario("1x1", penetration=1.0, seed=2)
    env = TrafficEnv(scen, EnvConfig(STAR))
    sim = env.reset()
    for slot, rid in enumerate(sim.network.intersections["J0-0"].incoming):
        for k in range(3):
            put_vehicle(sim, f"{slot}_{k}", rid, 50.0 + 60 * k, 5.0, kind="CAV")
    sim.pending = []
    tl_p, cav_p = make_policies(scen.network, STAR)
    records = env.step(tl_p, cav_p, rng=np.random.default_rng(0))
    assert len(records) == 13  # 1 signal + all 12 vehicles


def test_cotv_agent_count_bound_over_episode():
    scen = grid_scenario("1x1", penetration=1.0, seed=6)
    env = TrafficEnv(scen, EnvConfig(COTV))
    env.reset()
    tl_p, cav_p = make_policies(scen.network, COTV)
    rng = np.random.default_rng(1)
    for _ in range(300):
        records = env.step(tl_p, cav_p, rng=rng)
        n_cav = sum(r.agent_type == "CAV" for r in records)
        assert n_cav <= 4


def test_retirement_closes_segment_with_done():
    scen = grid_scenario("1x1", penetration=1.0, seed=2)
    env = TrafficEnv(scen, EnvConfig(COTV))
    sim = env.reset()
    sim.pending = []
    veh = put_vehicle(sim, "c", "N0:J0-0", 298.0, 15.0,
                      route=["N0:J0-0", "J0-0:S0"], kind="CAV")
    tl_p, cav_p = make_policies(scen.network, COTV)

    class KeepPolicy:
        def act(self, obs, rng, sample):
            n = len(obs)
            return np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n)

    records = env.step(KeepPolicy(), cav_p, rng=np.random.default_rng(0))
    cav_recs = [r for r in records if r.agent_type == "CAV"]
    assert len(cav_recs) == 1
    assert cav_recs[0].done  # crossed the stop line, left the control set
    assert veh.road == "J0-0:S0"
    assert np.isfinite(cav_recs[0].reward)


def counting_forward(monkeypatch):
    """Patch policy.forward to record the row count of every call."""
    rows = []
    real = policy.forward

    def counted(params, obs):
        out = real(params, obs)
        rows.append((params.kind, len(out[0])))
        return out

    monkeypatch.setattr(policy, "forward", counted)
    return rows


def test_env_step_one_forward_per_agent_type(monkeypatch):
    scen = grid_scenario("1x6", penetration=1.0, seed=3)
    env = TrafficEnv(scen, EnvConfig(COTV))
    env.reset()
    tl_p, cav_p = make_policies(scen.network, COTV)
    rows = counting_forward(monkeypatch)
    rng = np.random.default_rng(0)
    most_cav_rows = 0
    for _ in range(60):
        del rows[:]
        records = env.step(tl_p, cav_p, rng=rng)
        assert [kind for kind, _ in rows] in (["tl"], ["tl", "cav"])
        assert rows[0] == ("tl", 6)
        assert sum(n for _, n in rows) == len(records)
        most_cav_rows = max([most_cav_rows] + [n for _, n in rows[1:]])
    assert most_cav_rows > 1


def test_env_step_without_cav_draws_nothing(monkeypatch):
    scen = grid_scenario("1x1", penetration=0.0, seed=2)
    env = TrafficEnv(scen, EnvConfig(COTV, tl_plan="static"))
    env.reset()
    _, cav_p = make_policies(scen.network, COTV)
    rows = counting_forward(monkeypatch)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for _ in range(30):
        assert env.step(None, cav_p, rng=rng) == []
    assert rows == []
    assert rng.bit_generator.state == state


def test_env_step_selects_vehicle_agents_once_per_step(monkeypatch):
    scen = grid_scenario("1x6", penetration=1.0, seed=3)
    env = TrafficEnv(scen, EnvConfig(COTV))
    tl_p, cav_p = make_policies(scen.network, COTV)
    calls = []
    real = env_module.observe

    def counted(sim, *args):
        calls.append(sim.clock)
        return real(sim, *args)

    monkeypatch.setattr(env_module, "observe", counted)
    rng = np.random.default_rng(0)
    for _ in range(2):
        env.reset()
        del calls[:]
        n_cav = 0
        for _ in range(60):
            records = env.step(tl_p, cav_p, rng=rng)
            n_cav += sum(r.agent_type == "CAV" for r in records)
        assert n_cav > 0
        # a reset step observes before it moves; every step observes after
        assert calls == [0] + list(range(1, 61))
    # the config makes both types agents: a step missing either policy
    # is refused before it observes or moves
    del calls[:]
    for policies in ((tl_p, None), (None, cav_p), (None, None)):
        with pytest.raises(ValueError, match="agents need a"):
            env.step(*policies, rng=rng)
    assert calls == [] and env.sim.clock == 60
    # a config without agents never observes
    env = TrafficEnv(scen, EnvConfig(COTV, tl_plan="static", cav_plan="idm"))
    env.reset()
    for _ in range(5):
        assert env.step() == []
    assert calls == []


def test_env_builds_one_fleet_view_per_step(monkeypatch):
    # each step hands the view of the state it leaves to the next step: an
    # episode of H steps builds H + 1 views, plus one per step with a crash
    scen = grid_scenario("1x6", penetration=1.0, seed=3)
    env = TrafficEnv(scen, EnvConfig(COTV))
    tl_p, cav_p = make_policies(scen.network, COTV)
    calls = []
    real = simulation.scan_view

    def counted(sim):
        calls.append(sim.clock)
        return real(sim)

    monkeypatch.setattr(simulation, "scan_view", counted)
    rng = np.random.default_rng(0)
    crash_steps = []
    for _ in range(2):
        sim = env.reset()   # the first step after a reset builds its own
        del calls[:]
        for _ in range(120):
            env.step(tl_p, cav_p, rng=rng)
        crash_steps.append(len({event.time for event in sim.collisions}))
        assert len(calls) == 120 + 1 + crash_steps[-1]
    assert sum(crash_steps) > 0


def test_env_episode_with_handed_views_equals_fresh_views(monkeypatch):
    # a sampled cotv episode where every step is handed no view, so builds
    # its own, gives the same states and agent records bit for bit
    scen = grid_scenario("1x6", penetration=1.0, seed=3)
    tl_p, cav_p = make_policies(scen.network, COTV)

    def run():
        env = TrafficEnv(scen, EnvConfig(COTV))
        sim = env.reset()
        rng = np.random.default_rng(5)
        records = []
        for _ in range(300):
            records += [(r.agent_id, r.obs.tobytes(), r.action, r.log_prob,
                         r.value, r.reward, r.done, r.t)
                        for r in env.step(tl_p, cav_p, rng=rng)]
        return episode_state(sim), records

    handed = run()
    with monkeypatch.context() as m:
        m.setattr(env_module, "step",
                  lambda *args, view=None, **kwargs: step(*args, **kwargs))
        fresh = run()
    assert handed[0][4], "no collision in the episode"
    assert repr(handed) == repr(fresh)


class RulePolicy:
    """Acts on each observation row by `rule`, a function of the row's Python
    floats: no numpy arithmetic, so no dependence on numpy's SIMD code."""

    def __init__(self, rule):
        self.rule = rule

    def act(self, obs, rng, sample):
        actions = [self.rule(row.tolist()) for row in obs]
        zeros = [0.0] * len(actions)
        return actions, zeros, zeros


# a signal switches while its first two incoming roads hold more vehicles
# than the next two; a vehicle speeds up with its gap and brakes off green
TL_RULE = RulePolicy(lambda r: int(r[1] + r[2] > r[3] + r[4]))
CAV_RULE = RulePolicy(lambda r: 3.0 * r[4] - 1.5 * (1.0 - r[6]))
# SHA-256 of every record of a 360 s rule-driven 1x6 episode per mode, taken
# with numpy 2.4.6, whose Generator draws the insertion schedule: a change
# to the env that claims identical outputs must leave them as they are
ENV_EPISODE_SHA256 = {
    COTV: "924cd4542896d8aba2553412fd44cf94de02d8e21482eddb403938ab78eb950e",
    STAR: "4461922385e1aafe91a6fa928bc9cdff638b8db06441296f99ae6a067baf3719",
    ICOTV: "02c5288b9581ba21940e94e7e9a30da576c6249f678a3340a59761fdeb4f8de9",
    MCOTV: "4574db481e9e60a8a7728b133b904215e1b46c3c2ad7878c967885c8afca2adc",
}


@pytest.mark.parametrize("mode", list(CooperationMode))
def test_env_episode_outputs_pinned_by_digest(mode):
    scen = grid_scenario("1x6", horizon=360, penetration=0.5, seed=11)
    env = TrafficEnv(scen, EnvConfig(mode))
    env.reset()
    digest = hashlib.sha256()
    n_cav = 0
    for _ in range(scen.horizon):
        for rec in env.step(TL_RULE, CAV_RULE):
            n_cav += rec.agent_type == "CAV"
            digest.update(repr((rec.agent_id, rec.obs.tobytes(), rec.action,
                                rec.reward, rec.done)).encode())
    assert n_cav > 0
    assert digest.hexdigest() == ENV_EPISODE_SHA256[mode]


# SHA-256 of the `--trace` text of two 360 s 1x6 episodes, taken as
# ENV_EPISODE_SHA256 was: the glosa baseline, and M_COTV under the rule
# policies
EPISODE_TRACE_SHA256 = {
    "glosa": "0175d3f6f920b23a0cd7a1359ec63f1a5f3215c61b7c8cdf6b5ee9c9552bf8d0",
    "m-cotv": "16803b14ad39818b7cf84296684eb946c7039b8e495b2503d3c7f495e2168999",
}


@pytest.mark.parametrize("method", sorted(EPISODE_TRACE_SHA256))
def test_episode_traces_pinned_by_digest(monkeypatch, method):
    scen = grid_scenario("1x6", horizon=360, penetration=0.5, seed=11)
    fh = io.StringIO()
    if method == "glosa":
        rollout.run_baseline_episode(scen, method, 11, trace_fh=fh)
    else:
        # run_episode wraps each network in a Policy; the rules act as one
        monkeypatch.setattr(rollout, "Policy", lambda rule: rule)
        rollout.run_episode(scen, EnvConfig(MCOTV), TL_RULE, CAV_RULE, 11,
                            scen.horizon, sample=False, collect=False,
                            trace_fh=fh)
    text = fh.getvalue()
    assert len(text.splitlines()) > 360 * 6
    assert hashlib.sha256(text.encode()).hexdigest() == (
        EPISODE_TRACE_SHA256[method])


# --- parity with the per-agent observations ----------------------------------

def record_key(rec):
    """Every AgentStep field, floats by repr and the observation by bytes."""
    return (rec.agent_id, rec.agent_type, rec.obs.dtype, rec.obs.shape,
            rec.obs.tobytes(), repr(rec.action), repr(rec.log_prob),
            repr(rec.value), repr(rec.reward), rec.done, rec.t)


@pytest.mark.parametrize("mode", list(CooperationMode))
@pytest.mark.parametrize("grid,penetration",
                         [("1x1", 0.3), ("1x1", 1.0), ("1x6", 0.3),
                          ("1x6", 1.0)])
def test_matrix_observations_match_per_agent_reference(mode, grid, penetration):
    scen = grid_scenario(grid, penetration=penetration, seed=11)
    env = TrafficEnv(scen, EnvConfig(mode))
    ref = TrafficEnv(scen, EnvConfig(mode))
    env.reset()
    ref.reset()
    tl_p, cav_p = make_policies(scen.network, mode, seed=5)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    n_cav = 0
    for _ in range(300):
        got = env.step(tl_p, cav_p, rng=rng)
        want = ref_env_step(ref, tl_p, cav_p, ref_rng)
        assert [record_key(r) for r in got] == [record_key(r) for r in want]
        n_cav += sum(r.agent_type == "CAV" for r in got)
    assert n_cav > 0
    assert env.sim.completed == ref.sim.completed
    assert env.sim.collisions == ref.sim.collisions
    assert env.sim.ttc_event_count == ref.sim.ttc_event_count
