"""Static, actuated, max-pressure light plans and the speed advisory."""
import numpy as np
import pytest

from cotraffic.baselines import (ActuatedConfig, ActuatedController,
                                 BaselineController, GlosaController,
                                 StaticPlan, glosa_advice, max_pressure_tick,
                                 static_tick)
from cotraffic.network import build_grid, grid_scenario
from cotraffic.simulation import IdmParams, Vehicle, idm_accel, make_light, step

from test_simulation import empty_sim, put_vehicle


def test_static_tick_fires_at_planned_duration():
    plan = StaticPlan()
    light = make_light("J")
    light.time_in_phase = 12
    assert static_tick(light, plan) == 0
    light.time_in_phase = 40
    assert static_tick(light, plan) == 1


def test_static_cycle_is_86_seconds_observed():
    sim = empty_sim()
    plan = StaticPlan()
    light = sim.lights["J0-0"]
    entries = []  # clock at each entry into phase 0
    last_index = light.phase_index
    for _ in range(720):
        step(sim, {"J0-0": static_tick(light, plan)}, {})
        if light.phase_index == 0 and last_index != 0:
            entries.append(sim.clock)
        last_index = light.phase_index
    assert len(entries) >= 7
    periods = np.diff(entries)
    assert np.all(periods == 86)
    assert plan.cycle_length == 86


def test_static_phase_durations_observed():
    sim = empty_sim()
    plan = StaticPlan()
    light = sim.lights["J0-0"]
    shown = {0: 0, 1: 0, 2: 0, 3: 0}
    for _ in range(86):
        step(sim, {"J0-0": static_tick(light, plan)}, {})
        shown[light.phase_index] += 1
    assert shown == {0: 40, 1: 3, 2: 40, 3: 3}


def test_actuated_gap_out_and_max_out():
    cfg = ActuatedConfig(max_green=45, gap_threshold=3, detection_distance=50)
    ctrl = ActuatedController(cfg)
    sim = empty_sim()
    light = sim.lights["J0-0"]  # green NS, no traffic at all
    light.time_in_phase = 6
    ticks = [ctrl.tick(light, sim) for _ in range(4)]
    assert ticks == [0, 0, 1, 1]  # empty run reaches the 3 s threshold

    ctrl2 = ActuatedController(cfg)
    put_vehicle(sim, "close", "N0:J0-0", 280.0, 5.0)  # 20 m from the line
    assert [ctrl2.tick(light, sim) for _ in range(6)] == [0] * 6

    light.time_in_phase = 45
    assert ctrl2.tick(light, sim) == 1  # max-out despite occupancy


def test_actuated_detection_distance():
    cfg = ActuatedConfig()
    ctrl = ActuatedController(cfg)
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
    plan = StaticPlan()
    durations = [plan.duration(p) for p in light.phases]
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
    assert advice == pytest.approx(idm_accel(10.0, None, None, 15.0, IdmParams()))


def test_glosa_respects_leader():
    net, light, road, durations = glosa_fixture(0, 5)
    veh = Vehicle("v", "CAV", road.id, 100.0, 12.0, (road.id,))
    leader = (2.0, 8.0)
    advice = glosa_advice(veh, light, 200.0, road, durations, leader=leader)
    follow = idm_accel(12.0, 2.0, 8.0, 15.0, IdmParams())
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
    sim = BaselineController("glosa").new_sim(scen)
    put_vehicle(sim, "a", "N0:J0-0", 100.0, 5.0, kind="CAV")
    put_vehicle(sim, "b", "W0:J0-0", 200.0, 5.0, kind="CAV")
    put_vehicle(sim, "c", "J0-0:E0", 50.0, 5.0, kind="CAV")  # exit road
    ctrl = GlosaController("static")
    commands = ctrl.commands(sim)
    assert set(commands) == {"a", "b"}


def test_glosa_episode_runs_safely():
    scen = grid_scenario("1x1", penetration=1.0, seed=5)
    ctrl = BaselineController("glosa")
    sim = ctrl.new_sim(scen)
    for _ in range(720):
        ctrl.step(sim)
    assert sim.collided_count == 0
    assert len(sim.completed) == 70


def test_static_baseline_completes_all_trips():
    scen = grid_scenario("1x1", penetration=0.0, seed=9)
    ctrl = BaselineController("baseline-static")
    sim = ctrl.new_sim(scen)
    for _ in range(720):
        ctrl.step(sim)
    assert len(sim.completed) == 70
    assert sim.collided_count == 0


def test_max_pressure_respects_min_green_in_sim():
    scen = grid_scenario("1x1", penetration=0.0, seed=9)
    ctrl = BaselineController("max-pressure")
    sim = ctrl.new_sim(scen)
    green_entry = sim.clock
    last_index = sim.lights["J0-0"].phase_index
    for _ in range(400):
        ctrl.step(sim)
        light = sim.lights["J0-0"]
        if light.phase_index != last_index:
            if light.phases[last_index].kind == "green":
                assert sim.clock - green_entry >= light.min_green
            if light.phase.kind == "green":
                green_entry = sim.clock
            last_index = light.phase_index
