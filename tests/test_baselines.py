"""Static, actuated, max-pressure light plans and the speed advisory."""
import io
from pathlib import Path

import numpy as np
import pytest

from cotraffic import rollout, simulation
from cotraffic.baselines import (STATIC_GREEN_S, ActuatedController,
                                 GlosaController, make_light_controller,
                                 max_pressure_tick, static_tick)
from cotraffic.env import (CooperationMode, EnvConfig, TrafficEnv, cav_obs_dim,
                           tl_obs_dim)
from cotraffic.methods import get_method
from cotraffic.metrics import build_episode_report
from cotraffic.network import build_grid, grid_scenario, load_scenario
from cotraffic.policy import init_params
from cotraffic.simulation import (MIN_GREEN, YELLOW_DURATION, Vehicle,
                                  build_sim, idm_accel, make_light, scan_view,
                                  step, write_trace)

from reference import (empty_sim, episode_state, glosa_advice, put_vehicle,
                       ref_advice)


# the light plan each non-learned method runs; glosa advises on top of the
# actuated plan
BASELINE_PLANS = {"baseline-static": "static", "actuated": "actuated",
                  "max-pressure": "max-pressure", "glosa": "actuated"}


def ref_baseline_episode(scenario, method, seed, horizon, trace_fh):
    """Reference for `rollout.run_baseline_episode`: the light plan and,
    for glosa, the advisory's commands on a fresh view, stepped directly on
    the simulator, each step handed the view the last one returned."""
    scen_seed, _ = rollout._episode_seeds(seed)
    sim = build_sim(scenario.with_overrides(seed=scen_seed))
    lights = make_light_controller(BASELINE_PLANS[method])
    glosa = GlosaController() if method == "glosa" else None
    view = None
    for _ in range(horizon):
        commands = glosa.commands(sim, scan_view(sim)) if glosa else {}
        view = step(sim, lights(sim), commands, view=view)
        write_trace(trace_fh, sim)
    return build_episode_report(sim)


def baseline_env(scenario, method):
    """A reset TrafficEnv running the non-learned `method`."""
    env = TrafficEnv(scenario, get_method(method).env_cfg)
    env.reset()
    return env


@pytest.mark.parametrize("grid", ["1x1", "1x6"])
@pytest.mark.parametrize("method", sorted(BASELINE_PLANS))
def test_baseline_episode_matches_the_direct_loop(grid, method):
    # the method's EnvConfig through TrafficEnv, against the plan stepped
    # directly: reports and traces bit for bit
    scen = grid_scenario(grid, penetration=0.5)
    for seed in (1, 12345):
        want, got = io.StringIO(), io.StringIO()
        ref = ref_baseline_episode(scen, method, seed, scen.horizon, want)
        report, _ = rollout.run_baseline_episode(scen, method, seed,
                                                 trace_fh=got)
        assert repr(report) == repr(ref)
        assert got.getvalue() == want.getvalue()


def test_run_baseline_episode_refuses_learned_methods():
    scen = grid_scenario("1x1", horizon=1, penetration=1.0)
    for method in ("cotv", "flowcav", "presslight"):
        with pytest.raises(ValueError, match="learned"):
            rollout.run_baseline_episode(scen, method, 1)


def test_unknown_vehicle_plan_raises_at_reset():
    env = TrafficEnv(grid_scenario("1x1"), EnvConfig(tl_plan="static",
                                                     cav_plan="advisory"))
    with pytest.raises(ValueError, match="unknown vehicle plan 'advisory'"):
        env.reset()


def test_static_tick_fires_at_planned_duration():
    light = make_light("J")
    light.time_in_phase = 12
    assert static_tick(light) == 0
    light.time_in_phase = 40
    assert static_tick(light) == 1


def test_static_cycle_is_86_seconds_observed():
    sim = empty_sim()
    light = sim.lights["J0-0"]
    entries = []  # clock at each entry into phase 0
    last_index = light.phase_index
    for _ in range(720):
        step(sim, {"J0-0": static_tick(light)}, {})
        if light.phase_index == 0 and last_index != 0:
            entries.append(sim.clock)
        last_index = light.phase_index
    assert len(entries) >= 7
    periods = np.diff(entries)
    assert np.all(periods == 86)


def test_static_phase_durations_observed():
    sim = empty_sim()
    light = sim.lights["J0-0"]
    shown = {0: 0, 1: 0, 2: 0, 3: 0}
    for _ in range(86):
        step(sim, {"J0-0": static_tick(light)}, {})
        shown[light.phase_index] += 1
    assert shown == {0: 40, 1: 3, 2: 40, 3: 3}


def test_actuated_gap_out_and_max_out():
    ctrl = ActuatedController()
    sim = empty_sim()
    light = sim.lights["J0-0"]  # green NS, no traffic at all
    light.time_in_phase = 6
    ticks = [ctrl.tick(light, sim) for _ in range(4)]
    assert ticks == [0, 0, 1, 1]  # empty run reaches the 3 s threshold

    ctrl2 = ActuatedController()
    put_vehicle(sim, "close", "N0:J0-0", 280.0, 5.0)  # 20 m from the line
    assert [ctrl2.tick(light, sim) for _ in range(6)] == [0] * 6

    light.time_in_phase = 45
    assert ctrl2.tick(light, sim) == 1  # max-out despite occupancy


def test_actuated_detection_distance():
    ctrl = ActuatedController()
    sim = empty_sim()
    light = sim.lights["J0-0"]
    light.time_in_phase = 10
    put_vehicle(sim, "far", "N0:J0-0", 100.0, 5.0)  # 200 m out: not detected
    assert [ctrl.tick(light, sim) for _ in range(3)] == [0, 0, 1]


def test_max_pressure_rules():
    sim = empty_sim()
    light = sim.lights["J0-0"]  # green NS
    light.time_in_phase = 6
    # NS pressure 2, WE pressure 7
    for k in range(2):
        put_vehicle(sim, f"n{k}", "N0:J0-0", 10.0 + 30 * k, 3.0)
    for k in range(7):
        put_vehicle(sim, f"w{k}", "W0:J0-0", 10.0 + 30 * k, 3.0)
    assert max_pressure_tick(light, sim) == 1

    light.time_in_phase = 2  # below the green floor
    assert max_pressure_tick(light, sim) == 0

    sim2 = empty_sim()
    light2 = sim2.lights["J0-0"]
    light2.time_in_phase = 10
    for k in range(4):
        put_vehicle(sim2, f"n{k}", "N0:J0-0", 10.0 + 30 * k, 3.0)
        put_vehicle(sim2, f"w{k}", "W0:J0-0", 10.0 + 30 * k, 3.0)
    assert max_pressure_tick(light2, sim2) == 0  # tie keeps the phase


def test_max_pressure_counts_downstream_occupancy():
    sim = empty_sim()
    light = sim.lights["J0-0"]
    light.time_in_phase = 10
    for k in range(3):
        put_vehicle(sim, f"w{k}", "W0:J0-0", 10.0 + 30 * k, 3.0)
    for k in range(3):
        put_vehicle(sim, f"e{k}", "J0-0:E0", 10.0 + 30 * k, 3.0)
    # WE pressure is 3 - 3 = 0, NS pressure 0: no switch
    assert max_pressure_tick(light, sim) == 0


def glosa_fixture(phase_index, time_in_phase):
    net = build_grid(1, 1, 300, 15)
    light = make_light("J0-0")
    light.phase_index = phase_index
    light.time_in_phase = time_in_phase
    durations = [STATIC_GREEN_S if p.kind == "green" else YELLOW_DURATION
                 for p in light.phases]
    road = net.roads["N0:J0-0"]
    return net, light, road, durations


def test_glosa_red_far_from_line_brakes_hard():
    # red with 10 s to the NS green: yellow shows 1 more second, then 40+3 WE,
    # so craft it via the WE yellow with 1 s shown: 2 s yellow + ... simpler:
    # drive the numbers directly with the WE green showing 33 s of 40.
    net, light, road, durations = glosa_fixture(2, 33)
    # time to NS green: (40 - 33) + 3 = 10 s
    veh = Vehicle("v", "CAV", road.id, 200.0, 15.0, (road.id,))
    advice = glosa_advice(veh, light, 100.0, road, durations)
    # constant-speed target 100 m / 10 s = 10 m/s; clamp(10 - 15) = -3
    assert advice == pytest.approx(-3.0)


def test_glosa_red_close_to_line_creeps():
    # WE green just started: the NS green is 40 + 3 = 43 s away
    net, light, road, durations = glosa_fixture(2, 0)
    veh = Vehicle("v", "CAV", road.id, 270.0, 2.0, (road.id,))
    advice = glosa_advice(veh, light, 30.0, road, durations)
    v_target = 30.0 / 43.0
    assert advice == pytest.approx(max(min(v_target - 2.0, 3.0), -3.0))
    assert -3.0 <= advice <= 0.0  # decelerates smoothly, no full stop demanded


def test_glosa_green_feasible_is_carfollowing():
    net, light, road, durations = glosa_fixture(0, 5)  # green NS, 35 s left
    veh = Vehicle("v", "CAV", road.id, 100.0, 10.0, (road.id,))
    advice = glosa_advice(veh, light, 200.0, road, durations)
    assert advice == pytest.approx(idm_accel(10.0, None, None, 15.0))


def test_glosa_respects_leader():
    net, light, road, durations = glosa_fixture(0, 5)
    veh = Vehicle("v", "CAV", road.id, 100.0, 12.0, (road.id,))
    leader = (2.0, 8.0)
    advice = glosa_advice(veh, light, 200.0, road, durations, leader=leader)
    follow = idm_accel(12.0, 2.0, 8.0, 15.0)
    assert advice == pytest.approx(max(follow, -3.0))
    assert advice <= 0.0


def test_glosa_bounds_property():
    rng = np.random.default_rng(9)
    net, light, road, durations = glosa_fixture(0, 0)
    for _ in range(300):
        light.phase_index = int(rng.integers(0, 4))
        light.time_in_phase = int(rng.integers(0, 40))
        v = float(rng.uniform(0, 15))
        veh = Vehicle("v", "CAV", road.id, float(rng.uniform(0, 299)), v,
                      (road.id,))
        if rng.random() < 0.5:
            leader = (float(rng.uniform(0, 15)), float(rng.uniform(0.5, 100)))
        else:
            leader = None
        a = glosa_advice(veh, light, 300.0 - veh.position, road, durations,
                         leader=leader)
        assert -3.0 <= a <= 3.0
        assert v + a <= 15.0 + 1e-9  # never commands past the limit


def test_glosa_controller_commands_all_cavs_on_approaches():
    scen = grid_scenario("1x1", penetration=1.0, seed=3)
    sim = build_sim(scen)
    put_vehicle(sim, "a", "N0:J0-0", 100.0, 5.0, kind="CAV")
    put_vehicle(sim, "b", "W0:J0-0", 200.0, 5.0, kind="CAV")
    put_vehicle(sim, "c", "J0-0:E0", 50.0, 5.0, kind="CAV")  # exit road
    commands = GlosaController().commands(sim, scan_view(sim))
    assert set(commands) == {"a", "b"}


def test_glosa_commands_match_scalar_rule_bitwise():
    # the batched controller against glosa_advice per vehicle (ref_advice),
    # on a mixed fleet: HDV leaders, empty roads and road-front CAVs occur
    scen = grid_scenario("1x6", penetration=0.5, seed=4)
    sim = build_sim(scen)
    glosa, lights = GlosaController(), make_light_controller("actuated")
    seen = {"hdv_leader": 0, "empty_road": 0, "front_cav": 0}
    for _ in range(200):
        for road in sim.network.roads.values():
            if road.approach_intersection is None:
                continue
            kinds = [sim.vehicles[vid].kind for vid in sim.road_order[road.id]]
            seen["empty_road"] += not kinds
            seen["front_cav"] += kinds[-1:] == ["CAV"]
            seen["hdv_leader"] += ("CAV", "HDV") in zip(kinds, kinds[1:])
        want = ref_advice(sim)
        got = glosa.commands(sim, scan_view(sim))
        assert got.keys() == want.keys()
        assert all(got[vid] == want[vid] for vid in want)
        step(sim, lights(sim), got)
    assert all(seen.values()), seen


def test_baseline_episode_builds_one_fleet_view_per_step(monkeypatch):
    # each step hands the view of the state it leaves to the next step: an
    # episode of H steps builds H + 1 views, plus one per step with a crash
    calls = []
    real = simulation.scan_view

    def counted(sim):
        calls.append(sim.clock)
        return real(sim)

    monkeypatch.setattr(simulation, "scan_view", counted)
    # the env builds the first view of a glosa episode for the advisory
    monkeypatch.setattr("cotraffic.env.scan_view", counted)
    scen = grid_scenario("1x6", horizon=120, penetration=1.0, seed=11)
    for method in ("actuated", "glosa"):
        del calls[:]
        _, sim = rollout.run_baseline_episode(scen, method, seed=11)
        crash_steps = len({event.time for event in sim.collisions})
        assert len(calls) == 120 + 1 + crash_steps


def test_glosa_episode_with_handed_views_equals_fresh_views():
    # TrafficEnv stepping and advising with the view the last step
    # returned, and the simulator stepped with none and the advisory handed
    # a fresh one, give the same states bit for bit; the
    # direct loop has its own actuated plan, which keeps per-light state
    scen = grid_scenario("1x6", penetration=1.0, seed=11)
    env = baseline_env(scen, "glosa")
    fresh = build_sim(scen)
    glosa, lights = GlosaController(), make_light_controller("actuated")
    for _ in range(300):
        env.step()
        step(fresh, lights(fresh), glosa.commands(fresh, scan_view(fresh)))
    handed = env.sim
    assert len(handed.completed) > 100
    assert repr(episode_state(handed)) == repr(episode_state(fresh))


def test_glosa_episode_runs_safely():
    env = baseline_env(grid_scenario("1x1", penetration=1.0, seed=5), "glosa")
    for _ in range(720):
        env.step()
    sim = env.sim
    assert sim.collided_count == 0
    assert len(sim.completed) == 70


def test_static_baseline_completes_all_trips():
    env = baseline_env(grid_scenario("1x1", penetration=0.0, seed=9),
                       "baseline-static")
    for _ in range(720):
        env.step()
    sim = env.sim
    assert len(sim.completed) == 70
    assert sim.collided_count == 0


def test_actuated_episode_on_the_3x3_config_conserves_vehicles():
    scen = load_scenario(Path(__file__).resolve().parent.parent
                         / "configs" / "grid3x3.cfg")
    _, sim = rollout.run_baseline_episode(
        scen.with_overrides(penetration=0.0), "actuated", seed=7)
    assert sim.conservation_ok()
    assert sim.inserted_count == len(sim.completed) == 210
    assert sim.collided_count == 0


def test_max_pressure_respects_min_green_in_sim():
    env = baseline_env(grid_scenario("1x1", penetration=0.0, seed=9),
                       "max-pressure")
    sim = env.sim
    green_entry = sim.clock
    last_index = sim.lights["J0-0"].phase_index
    for _ in range(400):
        env.step()
        light = sim.lights["J0-0"]
        if light.phase_index != last_index:
            if light.phases[last_index].kind == "green":
                assert sim.clock - green_entry >= MIN_GREEN
            if light.phase.kind == "green":
                green_entry = sim.clock
            last_index = light.phase_index


def test_baseline_and_policy_episodes_of_a_seed_share_their_demand(
        monkeypatch):
    # methods are compared at the same evaluation seeds, so an integer seed
    # must give a baseline episode and a policy episode the same insertions:
    # ids, times, kinds, routes and depart speeds
    scen = grid_scenario("1x1", penetration=0.5, seed=0)
    env_cfg = EnvConfig(CooperationMode.COTV)
    tl = init_params("tl", tl_obs_dim(scen.network, env_cfg.mode), (64, 64),
                     seed=1)
    cav = init_params("cav", cav_obs_dim(env_cfg.mode), (64, 64), seed=1)
    schedules = []
    real = simulation.build_insertion_schedule

    def recorded(scenario):
        schedules.append(real(scenario))
        return schedules[-1]

    monkeypatch.setattr(simulation, "build_insertion_schedule", recorded)
    # the schedule covers every flow whatever the horizon; one step builds it
    one_step = scen.with_overrides(horizon=1)
    for seed in (100_007, 100_008):
        rollout.run_baseline_episode(one_step, "actuated", seed)
        rollout.evaluate_policy(one_step, env_cfg, tl, cav, [seed])
    first, first_rl, second, second_rl = schedules
    assert first == first_rl and second == second_rl
    assert first != second
    assert {ins.kind for ins in first} == {"CAV", "HDV"}
