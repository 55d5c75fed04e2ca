"""Micro-simulation dynamics: car following, signals, collisions, energy."""
import dataclasses
import io
import math

import numpy as np
import pytest

from cotraffic import kernels, simulation
from cotraffic.network import Insertion, build_grid, grid_scenario
from cotraffic.kernels import (IDM_A_MAX, IDM_B_COMFORT, IDM_DELTA,
                               IDM_HEADWAY, IDM_S0)
from cotraffic.simulation import (TraceWriter, Vehicle, apply_tl_action,
                                  build_sim, count_ttc_events,
                                  detect_collisions, idm_accel, make_light,
                                  red_light_virtual_leader, step)


def fuel_rate(v, a):
    """Fuel burn in l/s of one vehicle, through the `fuel_co2` kernel."""
    return kernels.fuel_co2([float(v)], [float(a)])[0][0]


def co2_rate(v, a):
    """CO2 in g/s of one vehicle, through the `fuel_co2` kernel."""
    return kernels.fuel_co2([float(v)], [float(a)])[1][0]


def put_vehicle(sim, vid, road, position, speed, route=None, kind="HDV"):
    """Drop a vehicle into the state keeping the per-road order sorted."""
    veh = Vehicle(vid, kind, road, position, speed,
                  tuple(route or [road]), route_index=(route or [road]).index(road))
    sim.vehicles[vid] = veh
    order = sim.road_order[road]
    keys = [sim.vehicles[o].position for o in order]
    idx = int(np.searchsorted(keys, position))
    order.insert(idx, vid)
    sim.inserted_count += 1
    return veh


def episode_state(sim):
    """Every vehicle field, counter and trip record of a state."""
    return (sim.clock, [dataclasses.astuple(v) for v in sim.vehicles.values()],
            sim.road_order, sim.completed, sim.collisions, sim.inserted_count,
            sim.collided_count, sim.ttc_event_count)


def empty_sim(grid="1x1"):
    scen = grid_scenario(grid, penetration=0.0, seed=1)
    sim = build_sim(scen)
    sim.pending = []  # no scheduled demand; tests place vehicles directly
    return sim


# --- car following -----------------------------------------------------------

def test_idm_standstill_free_road():
    assert idm_accel(0.0, None, None, 15.0) == pytest.approx(1.0)


def test_idm_equilibrium_at_jam_distance():
    assert idm_accel(0.0, 0.0, 2.0, 15.0) == pytest.approx(0.0)


def test_idm_free_flow_at_limit():
    assert idm_accel(15.0, None, None, 15.0) == pytest.approx(0.0)


def test_idm_matches_closed_form_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.uniform(0, 15)
        vl = rng.uniform(0, 15)
        gap = rng.uniform(0.5, 200)
        vlim = rng.uniform(5, 20)
        s_star = (IDM_S0 + v * IDM_HEADWAY
                  + v * (v - vl) / (2 * math.sqrt(IDM_A_MAX * IDM_B_COMFORT)))
        want = IDM_A_MAX * (1 - (v / vlim) ** IDM_DELTA - (s_star / gap) ** 2)
        want = min(max(want, -4.5), IDM_A_MAX)
        assert idm_accel(v, vl, gap, vlim) == pytest.approx(want, rel=1e-12)


def test_idm_rejects_nonpositive_gap_with_leader():
    with pytest.raises(ValueError):
        idm_accel(5.0, 3.0, 0.0, 15.0)
    with pytest.raises(ValueError):
        idm_accel(5.0, 3.0, -1.0, 15.0)


# --- signal interaction ------------------------------------------------------

def test_virtual_leader_red_and_green():
    net = build_grid(1, 1, 300, 15)
    road = net.roads["N0:J0-0"]
    light = make_light("J0-0")
    veh = Vehicle("x", "HDV", road.id, 250.0, 10.0, (road.id,))
    light.phase_index = 2  # green WE, so the N approach faces red
    assert red_light_virtual_leader(veh, light, road) == (0.0, 50.0)
    light.phase_index = 0  # green NS
    assert red_light_virtual_leader(veh, light, road) is None


def test_virtual_leader_yellow_dilemma():
    net = build_grid(1, 1, 300, 15)
    road = net.roads["N0:J0-0"]
    light = make_light("J0-0")
    light.phase_index = 1  # yellow NS
    committed = Vehicle("a", "HDV", road.id, 295.0, 15.0, (road.id,))
    # needed deceleration 15^2 / (2*5) = 22.5 > comfortable 1.5: proceeds
    assert red_light_virtual_leader(committed, light, road) is None
    far = Vehicle("b", "HDV", road.id, 100.0, 15.0, (road.id,))
    # 15^2 / (2*200) = 0.5625 < 1.5: stops at the line
    assert red_light_virtual_leader(far, light, road) == (0.0, 200.0)


# what each approach arm shows in each phase of `make_light`'s cycle
SIGNALS = {0: {"N": "green", "S": "green", "E": "red", "W": "red"},
           1: {"N": "yellow", "S": "yellow", "E": "red", "W": "red"},
           2: {"N": "red", "S": "red", "E": "green", "W": "green"},
           3: {"N": "red", "S": "red", "E": "yellow", "W": "yellow"}}


@pytest.mark.parametrize("phase_index", sorted(SIGNALS))
@pytest.mark.parametrize("arm", ["N", "E", "S", "W"])
def test_virtual_leader_and_signal_on_every_phase_and_approach(phase_index,
                                                               arm):
    net = build_grid(1, 1, 300, 15)
    road = next(r for r in net.roads.values() if r.approach == arm)
    exit_road = net.roads[road.straight_to]
    light = make_light("J0-0")
    light.phase_index = phase_index
    shown = SIGNALS[phase_index][arm]
    assert light.serves(arm) == (shown != "red")
    assert light.signal_for(arm) == {"green": 1.0, "yellow": 0.5,
                                     "red": 0.0}[shown]

    def leader(position, speed, on=road):
        return red_light_virtual_leader(
            Vehicle("x", "HDV", on.id, position, speed, (on.id,)), light, on)

    # far from the line (15^2 / (2*200) < 1.5), committed to it
    # (15^2 / (2*5) > 1.5), at it, and stopped within the gap floor of it
    want = {"green": [None, None, None, None],
            "yellow": [(0.0, 200.0), None, None, (0.0, 0.1)],
            "red": [(0.0, 200.0), (0.0, 5.0), (0.0, 0.1), (0.0, 0.1)]}[shown]
    assert [leader(100.0, 15.0), leader(295.0, 15.0), leader(300.0, 15.0),
            leader(299.95, 0.0)] == want
    # a road that approaches no light never faces a stop line
    assert leader(100.0, 15.0, exit_road) is None


def test_apply_tl_action_transitions():
    light = make_light("J")
    light.time_in_phase = 10
    apply_tl_action(light, 1)
    assert light.phase_index == 1 and light.time_in_phase == 0

    light = make_light("J")
    light.time_in_phase = 3  # below the 5 s green floor
    apply_tl_action(light, 1)
    assert light.phase_index == 0 and light.time_in_phase == 3

    light = make_light("J")
    light.phase_index = 1
    light.time_in_phase = 3
    apply_tl_action(light, 0)  # yellow auto-advances regardless of action
    assert light.phase_index == 2 and light.time_in_phase == 0


def test_keep_action_advances_timer_by_one_step():
    sim = empty_sim()
    light = sim.lights["J0-0"]
    assert light.time_in_phase == 0
    step(sim, {"J0-0": 0}, {})
    assert light.phase_index == 0 and light.time_in_phase == 1


def test_yellow_duration_is_exactly_three_seconds():
    sim = empty_sim()
    light = sim.lights["J0-0"]
    for _ in range(6):
        step(sim, {"J0-0": 1}, {})  # switch as soon as allowed
    assert light.phase_index == 1  # entered yellow after 5 s minimum green
    shown = 0
    while light.phase_index == 1:
        step(sim, {"J0-0": 0}, {})
        shown += 1
    assert shown == 3
    assert light.phase_index == 2


# --- step mechanics ----------------------------------------------------------

def test_step_empty_network_only_ticks_clock():
    sim = empty_sim()
    step(sim, {}, {})
    assert sim.clock == 1
    assert not sim.vehicles and not sim.completed and not sim.collisions


def test_step_commanded_kinematics():
    sim = empty_sim()
    veh = put_vehicle(sim, "v0", "W0:J0-0", 50.0, 10.0, kind="CAV")
    step(sim, {}, {"v0": 3.0})
    assert veh.speed == pytest.approx(13.0)
    assert veh.position == pytest.approx(63.0)
    assert veh.accel == pytest.approx(3.0)


def test_step_speed_clamped_to_limit_and_zero():
    sim = empty_sim()
    fast = put_vehicle(sim, "fast", "W0:J0-0", 10.0, 14.0, kind="CAV")
    slow = put_vehicle(sim, "slow", "E0:J0-0", 10.0, 1.0, kind="CAV")
    step(sim, {}, {"fast": 3.0, "slow": -3.0})
    assert fast.speed == pytest.approx(15.0)
    assert slow.speed == pytest.approx(0.0)
    assert fast.accel == pytest.approx(1.0)   # realized, not commanded
    assert slow.accel == pytest.approx(-1.0)


def test_step_command_range_enforced():
    sim = empty_sim()
    veh = put_vehicle(sim, "v0", "W0:J0-0", 50.0, 5.0, kind="CAV")
    step(sim, {}, {"v0": 9.9})
    assert veh.speed == pytest.approx(8.0)  # command clamped to +3


def test_step_rejects_unknown_ids():
    sim = empty_sim()
    with pytest.raises(KeyError):
        step(sim, {"nope": 1}, {})
    with pytest.raises(KeyError):
        step(sim, {}, {"ghost": 1.0})


def test_trip_completion_records_travel_time():
    sim = empty_sim()
    route = ["W0:J0-0", "J0-0:E0"]
    veh = put_vehicle(sim, "v0", "J0-0:E0", 295.0, 15.0, route=route)
    veh.depart_time = 0
    sim.clock = 40
    step(sim, {}, {})
    assert "v0" not in sim.vehicles
    trip = sim.completed[-1]
    assert trip.arrival == 41
    assert trip.travel_time == 41 - 0
    assert trip.distance_m <= trip.route_length + 1e-9


def test_vehicle_holds_at_stop_line_on_red():
    sim = empty_sim()
    sim.lights["J0-0"].phase_index = 2  # green WE; N approach red
    veh = put_vehicle(sim, "v0", "N0:J0-0", 299.0, 15.0,
                      route=["N0:J0-0", "J0-0:S0"], kind="CAV")
    step(sim, {}, {"v0": 3.0})  # commanded straight into the red
    assert veh.road == "N0:J0-0"
    assert veh.position == pytest.approx(300.0)
    assert veh.speed == 0.0
    assert veh.accel == pytest.approx(-15.0)  # realized: (0 - 15) / 1 s
    step(sim, {}, {})  # uncontrolled now; still red, still held
    assert veh.road == "N0:J0-0" and veh.speed == 0.0


def test_held_vehicle_is_charged_for_the_held_motion():
    # a slow vehicle commanded over a red line: its clamped command would
    # burn more than idle fuel, its held motion (speed 0) burns idle fuel
    sim = empty_sim()
    sim.lights["J0-0"].phase_index = 2
    veh = put_vehicle(sim, "v0", "N0:J0-0", 298.5, 0.05,
                      route=["N0:J0-0", "J0-0:S0"], kind="CAV")
    step(sim, {}, {"v0": 3.0})
    assert (veh.position, veh.speed, veh.accel) == (300.0, 0.0, -0.05)
    assert fuel_rate(3.05, -0.05) > fuel_rate(0.0, -0.05)
    assert veh.fuel_l == pytest.approx(fuel_rate(0.0, -0.05), rel=1e-12)
    assert veh.distance_m == 1.5


def test_vehicle_crosses_on_green():
    sim = empty_sim()
    sim.lights["J0-0"].phase_index = 0  # green NS
    veh = put_vehicle(sim, "v0", "N0:J0-0", 299.0, 15.0,
                      route=["N0:J0-0", "J0-0:S0"])
    step(sim, {}, {})
    assert veh.road == "J0-0:S0"
    assert veh.position < 20.0


def test_insertions_placed_when_due_and_blocked_ones_retry_in_order():
    sim = empty_sim()
    west, north = ("W0:J0-0", "J0-0:E0"), ("N0:J0-0", "J0-0:S0")
    sim.pending = [Insertion(1.0, "a", "HDV", west, 10.0),
                   Insertion(1.0, "b", "HDV", west, 10.0),
                   Insertion(2.5, "c", "HDV", west, 10.0),
                   Insertion(3.0, "d", "HDV", north, 5.0)]
    step(sim)  # t=1: b is due but blocked by a at the road start
    assert list(sim.vehicles) == ["a"]
    assert [ins.vehicle_id for ins in sim.pending] == ["b", "c", "d"]
    step(sim)  # t=2: a is still inside the entry zone; c is not yet due
    assert list(sim.vehicles) == ["a"]
    step(sim)  # t=3: b enters, c waits behind it, d enters on time
    assert list(sim.vehicles) == ["a", "b", "d"]
    assert sim.vehicles["d"].depart_time == 3
    assert [ins.vehicle_id for ins in sim.pending] == ["c"]
    assert sim.conservation_ok()


# --- collisions and conflicts ------------------------------------------------

def test_collision_pair_removed():
    sim = empty_sim()
    put_vehicle(sim, "a", "W0:J0-0", 100.0, 0.0)
    put_vehicle(sim, "b", "W0:J0-0", 104.5, 0.0)  # gap = 104.5 - 5 - 100 < 0
    events = detect_collisions(sim)
    assert len(events) == 1
    assert not sim.vehicles
    assert sim.collided_count == 2
    assert sim.conservation_ok()


def test_collision_close_but_positive_gap():
    sim = empty_sim()
    put_vehicle(sim, "a", "W0:J0-0", 100.0, 0.0)
    put_vehicle(sim, "b", "W0:J0-0", 105.1, 0.0)  # gap = 0.1
    assert detect_collisions(sim) == []
    assert len(sim.vehicles) == 2


def test_three_vehicle_pileup():
    sim = empty_sim()
    put_vehicle(sim, "a", "W0:J0-0", 100.0, 0.0)
    put_vehicle(sim, "b", "W0:J0-0", 104.0, 0.0)
    put_vehicle(sim, "c", "W0:J0-0", 108.0, 0.0)
    events = detect_collisions(sim)
    assert len(events) == 2
    assert sim.collided_count == 3
    assert not sim.vehicles


def brute_force_collision_pairs(sim):
    """Oracle: sort every road by position, overlap test on each neighbor pair."""
    pairs = []
    for road_id in sim.network.roads:
        vehs = sorted((sim.vehicles[v] for v in sim.road_order[road_id]),
                      key=lambda v: v.position)
        for f, l in zip(vehs, vehs[1:]):
            if l.position - l.length - f.position <= 0:
                pairs.append((f.id, l.id))
    return pairs


def test_collision_scan_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for trial in range(30):
        sim = empty_sim()
        for k in range(rng.integers(2, 12)):
            road = rng.choice(["W0:J0-0", "N0:J0-0"])
            put_vehicle(sim, f"v{trial}_{k}", str(road),
                        float(rng.uniform(0, 300)), 0.0)
        want = brute_force_collision_pairs(sim)
        got = detect_collisions(sim)
        assert len(got) == len(want)
        assert {(e.follower, e.leader) for e in got} == set(want)


def test_ttc_event_arithmetic():
    sim = empty_sim()
    put_vehicle(sim, "f", "W0:J0-0", 100.0, 15.0)
    put_vehicle(sim, "l", "W0:J0-0", 117.0, 10.0)  # gap 12, closing 5 -> 2.4 s
    assert count_ttc_events(sim) == 1
    assert sim.ttc_event_count == 1


def test_ttc_no_event_when_not_closing():
    sim = empty_sim()
    put_vehicle(sim, "f", "W0:J0-0", 100.0, 10.0)
    put_vehicle(sim, "l", "W0:J0-0", 106.0, 10.0)  # tight but not closing
    assert count_ttc_events(sim) == 0
    put_vehicle(sim, "f2", "N0:J0-0", 100.0, 15.0)
    put_vehicle(sim, "l2", "N0:J0-0", 135.0, 10.0)  # gap 30, ttc 6 s
    assert count_ttc_events(sim) == 0


def brute_force_ttc(sim, threshold=3.0):
    count = 0
    for road_id in sim.network.roads:
        vehs = sorted((sim.vehicles[v] for v in sim.road_order[road_id]),
                      key=lambda v: v.position)
        for f, l in zip(vehs, vehs[1:]):
            gap = l.position - l.length - f.position
            if gap > 0 and f.speed > l.speed and gap / (f.speed - l.speed) < threshold:
                count += 1
    return count


def test_ttc_counter_matches_bruteforce_over_random_run():
    scen = grid_scenario("1x1", penetration=0.0, seed=21)
    sim = build_sim(scen)
    rng = np.random.default_rng(5)
    oracle_total = 0
    for t in range(100):
        action = {"J0-0": int(rng.random() < 0.3)}
        before = sim.ttc_event_count
        step(sim, action, {})
        oracle_total += brute_force_ttc(sim)
        assert sim.ttc_event_count - before == brute_force_ttc(sim)
    assert sim.ttc_event_count == oracle_total


def test_collision_and_ttc_in_one_step_rebuild_the_view(monkeypatch):
    # c accelerates into the braking d inside a five-vehicle queue; once the
    # pair is gone, b closes on e, which only a rebuilt view can see
    sim = empty_sim()
    road = "W0:J0-0"
    for vid, pos, speed in (("a", 20.0, 5.0), ("b", 60.0, 14.0),
                            ("c", 80.0, 10.0), ("d", 96.0, 2.0),
                            ("e", 106.0, 0.0)):
        put_vehicle(sim, vid, road, pos, speed, kind="CAV")
    seen = {}
    real_detect = simulation.detect_collisions
    real_ttc = simulation.count_ttc_events

    def detect(s, view=None):
        seen["pairs"] = brute_force_collision_pairs(s)
        seen["stale_ttc"] = brute_force_ttc(s)
        return real_detect(s, view)

    def ttc(s, view=None):
        seen["ttc"] = brute_force_ttc(s)
        return real_ttc(s, view)

    monkeypatch.setattr(simulation, "detect_collisions", detect)
    monkeypatch.setattr(simulation, "count_ttc_events", ttc)
    step(sim, {}, {"b": 0.0, "c": 3.0, "d": -3.0, "e": 0.0})
    events = [(e.follower, e.leader) for e in sim.collisions]
    assert events == seen["pairs"] == [("c", "d")]
    assert sim.ttc_event_count == seen["ttc"] == 1
    assert seen["stale_ttc"] == 0
    assert sim.road_order[road] == ["a", "b", "e"]
    assert sim.conservation_ok()


# --- energy surrogate --------------------------------------------------------

def test_fuel_idle():
    assert fuel_rate(0.0, 0.0) == pytest.approx(1.6e-4)


def test_fuel_cruise_oracle():
    # hand evaluation: P = 1500*9.81*0.01*10 + 0.5*1.2*0.3*2.2*1000 = 1867.5 W
    want = 1.6e-4 + 1867.5 / (0.3 * 3.46e7)
    assert fuel_rate(10.0, 0.0) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(3.40e-4, rel=5e-3)


def test_co2_proportional_to_fuel():
    assert co2_rate(7.0, 0.5) == pytest.approx(fuel_rate(7.0, 0.5) * 2392.0)


def test_fuel_monotone_in_acceleration():
    for v in (1.0, 5.0, 12.0):
        rates = [fuel_rate(v, a) for a in np.linspace(-3, 3, 25)]
        assert all(b >= a - 1e-15 for a, b in zip(rates, rates[1:]))


# --- whole-run properties ----------------------------------------------------

def run_random_episode(seed, steps=200, penetration=0.3):
    scen = grid_scenario("1x1", penetration=penetration, seed=seed)
    sim = build_sim(scen)
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(steps):
        actions = {"J0-0": int(rng.random() < 0.25)}
        cavs = {vid: float(rng.uniform(-3, 3))
                for vid, v in sim.vehicles.items() if v.kind == "CAV"
                if rng.random() < 0.5}
        step(sim, actions, cavs)
        assert sim.conservation_ok()
        for v in sim.vehicles.values():
            road = sim.network.roads[v.road]
            assert 0.0 <= v.position <= road.length + 1e-9
            assert 0.0 <= v.speed <= road.speed_limit + 1e-9
        for road_id in sim.network.roads:
            order = sim.road_order[road_id]
            for f, l in zip(order, order[1:]):
                gap = (sim.vehicles[l].position - sim.vehicles[l].length
                       - sim.vehicles[f].position)
                assert gap > 0.0
        history.append([(v.id, v.position, v.speed)
                        for v in sim.vehicles.values()])
    return sim, history


def test_conservation_speedbox_and_no_overlap():
    run_random_episode(seed=3)


def test_bitwise_determinism():
    _, h1 = run_random_episode(seed=11, steps=150)
    _, h2 = run_random_episode(seed=11, steps=150)
    assert h1 == h2


def test_idm_platoon_stop_and_go_safety():
    """Ten followers behind a leader alternating 15 m/s and a dead stop."""
    n = 11
    pos = np.array([300.0 - 10.0 * i for i in range(n)])  # leader first
    vel = np.zeros(n)
    length = 5.0
    for t in range(720):
        vel[0] = 15.0 if (t // 40) % 2 == 0 else 0.0
        accels = np.zeros(n)
        for i in range(1, n):
            gap = pos[i - 1] - length - pos[i]
            assert gap > 0.0, f"collision at step {t}"
            accels[i] = idm_accel(vel[i], vel[i - 1], gap, 15.0)
        vel[1:] = np.clip(vel[1:] + accels[1:], 0.0, 15.0)
        pos += vel
        assert np.all(vel >= 0.0) and np.all(vel <= 15.0)
        gaps = pos[:-1] - length - pos[1:]
        assert np.all(gaps > 0.0)


def test_trace_writer_field_order():
    sim = empty_sim()
    put_vehicle(sim, "v0", "W0:J0-0", 10.0, 5.0)
    buf = io.StringIO()
    step(sim, {}, {}, trace=TraceWriter(buf))
    vehicle, *lights = [row.split() for row in buf.getvalue().splitlines()]
    assert vehicle[0] == "1" and vehicle[1] == "v0"
    assert vehicle[2] == "W0:J0-0"
    assert float(vehicle[3]) > 10.0 and float(vehicle[4]) >= 5.0
    assert len(vehicle) == 6
    # the light rows follow the vehicle rows, one per light
    assert [row[:3] for row in lights] == [["1", "light", lid]
                                           for lid in sim.lights]
    for row, light in zip(lights, sim.lights.values()):
        assert row[3:] == [str(light.phase_index), str(light.time_in_phase)]
    assert lights
