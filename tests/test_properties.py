"""Simulator invariants on generated states: random vehicle placements on the
1x1 and 1x6 grids and on grids of 1x1 to 3x3 with drawn road lengths and
speed limits and random flows still to be inserted, driven by random light
actions and commanded accelerations. After every step the fleet is
conserved, each road's order is sorted by position, speeds lie in [0,
limit] and positions on the road, every vehicle's kinematic and energy
fields are Python floats, every light shows the phase and timer of the
reference phase machine, and every vehicle the step moved holds, bit for
bit, the speed, acceleration, position, distance, fuel and CO2 of the
reference step: the per-road acceleration inputs of the state after the
lights acted, the `kernels.vehicle_accels` law, then the numpy references
of the kinematics and energy kernels composed with the stop-line hold.
During the step, the collision scan and the TTC counter agree with
brute-force rescans of the state they read, and the view `step` hands each
scan equals the per-vehicle loop it replaced. The view `step` returns
equals a fresh `scan_view` of the state it leaves, and is handed to the
next step. On generated fleets with held, arriving and crossing vehicles,
one step matches the reference step in every row. On the same generated
states, in every cooperation mode, the env's one pass over the incoming
roads yields the agents, their roads and the observation rows of the
per-agent reference forms bit for bit, and the pressures of `tl_reward`.
Over steps of the same states, the actuated plan's actions and empty-run
counters equal those of a scan of every vehicle on the served roads, and
the speed advisory's commands equal, bit for bit and in row order, the
per-vehicle rule on each CAV of an approach road. Every reference form is
in reference.py. The example count is set by the profile in conftest.py."""
from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

from cotraffic import simulation
from cotraffic.baselines import (ActuatedController, GlosaController,
                                 make_light_controller)
from cotraffic.env import (CooperationMode, incoming_layout,
                           max_road_capacity, observe, tl_reward)
from cotraffic.network import (DT, MIN_GAP, VEHICLE_LENGTH, FlowSpec,
                               ScenarioSpec, build_grid, grid_scenario)
from cotraffic.simulation import build_sim, scan_view, step

from reference import (ScanningActuated, brute_force_collision_pairs,
                       brute_force_ttc, empty_sim, loop_view, put_vehicle,
                       ref_advice, ref_cav_observation, ref_select_cav_agents,
                       ref_sim_step, ref_tl_observation, serves)


@st.composite
def random_flows(draw, net):
    """1 to 4 go-straight flows from drawn boundary entry roads of `net`,
    with drawn counts, start times and periods."""
    entries = sorted(road.id for road in net.roads.values()
                     if road.from_node not in net.intersections)
    flows = []
    for k in range(draw(st.integers(1, 4))):
        origin = draw(st.sampled_from(entries))
        flows.append(FlowSpec(f"F{k}", origin, net.straight_route(origin)[-1],
                              draw(st.integers(0, 12)),
                              draw(st.floats(0.0, 20.0)),
                              draw(st.floats(0.5, 15.0))))
    return tuple(flows)


@st.composite
def worlds(draw):
    """The 1x1 or 1x6 grid, optionally with its scheduled demand still to be
    inserted, or a `build_grid` grid of 1 to 3 rows and columns, with a
    speed limit of 1 to 40 m/s and any accepted road length up to 400 m,
    whose random flows are still to be inserted, with vehicles placed
    anywhere on its roads."""
    grid = draw(st.sampled_from(["1x1", "1x6", "RxC"]))
    if grid == "RxC":
        limit = draw(st.floats(1.0, 40.0))
        shortest = max(limit * DT, VEHICLE_LENGTH + MIN_GAP)
        net = build_grid(draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                         draw(st.floats(shortest, 400.0)), limit)
        sim = build_sim(ScenarioSpec(net, draw(random_flows(net)), 1,
                                     draw(st.floats(0.0, 1.0)),
                                     draw(st.integers(0, 99))))
    elif draw(st.booleans()):
        sim = build_sim(grid_scenario(grid, penetration=0.5,
                                      seed=draw(st.integers(0, 99))))
    else:
        sim = empty_sim(grid)
    return place_vehicles(draw, sim)


def place_vehicles(draw, sim):
    """Up to 24 HDVs and CAVs at drawn positions and speeds on drawn roads of
    `sim`, each on the straight route from its road; overlaps are allowed."""
    roads = list(sim.network.roads.values())
    for k in range(draw(st.integers(0, 24))):
        road = draw(st.sampled_from(roads))
        put_vehicle(sim, f"v{k}", road.id,
                    draw(st.floats(0.0, road.length)),
                    draw(st.floats(0.0, road.speed_limit)),
                    route=sim.network.straight_route(road.id),
                    kind=draw(st.sampled_from(["HDV", "CAV"])))
    return sim


def bitwise(col):
    """A column as comparable bit patterns: a float by its hex form, so that
    -0.0 differs from 0.0 and a non-float never equals a float."""
    return [(type(x), x.hex() if type(x) is float else x) for x in col]


def assert_view_is_current(sim, view):
    """The view a scan was handed equals the reference built from the state
    the scan reads, bit for bit, and its row bookkeeping matches it."""
    got = (view.ids, view.speed, view.lead_speed, view.gap, view.has_lead)
    assert list(map(bitwise, got)) == list(map(bitwise, loop_view(sim)))
    assert all(veh is sim.vehicles[vid]
               for vid, veh in zip(view.ids, view.vehs, strict=True))
    assert [road.id for road in view.roads] == [veh.road for veh in view.vehs]
    assert view.fronts == [i for i, lead in enumerate(view.has_lead)
                           if not lead]


def assert_moved_as_referenced(vehs, want):
    """Each of `ref_sim_step`'s expected columns equals the field of the
    vehicles `step` moved, bit for bit."""
    for name, column in want.items():
        got = [getattr(veh, name) for veh in vehs]
        assert bitwise(got) == bitwise(column.tolist()), name


class OracleScans:
    """Wraps the two scans that `step` calls and checks each against its
    brute-force oracle on the state the scan reads."""

    def __init__(self):
        self.detect = simulation.detect_collisions
        self.ttc = simulation.count_ttc_events

    def checked_detect(self, sim, view=None):
        # adjacent pairs whose follower drove past its leader this second
        passed = [(f, l) for order in sim.road_order.values()
                  for f, l in zip(order, order[1:])
                  if sim.vehicles[f].position > sim.vehicles[l].position]
        want = brute_force_collision_pairs(sim)
        assert_view_is_current(sim, view)
        events = self.detect(sim, view)
        got = [(e.follower, e.leader) for e in events]
        if passed:
            # re-sorting by position hides a pass-through from the oracle;
            # the scan must charge every one as a crash
            assert set(passed) <= set(got)
        else:
            assert got == want
        return events

    def checked_ttc(self, sim, view=None):
        want = brute_force_ttc(sim, simulation.TTC_THRESHOLD)
        assert_view_is_current(sim, view)
        got = self.ttc(sim, view)
        assert got == want
        return got

    def patch(self):
        return mock.patch.multiple(simulation,
                                   detect_collisions=self.checked_detect,
                                   count_ttc_events=self.checked_ttc)


def assert_view_equals_fresh(sim, view):
    """The view `step` returned equals a fresh `scan_view` of the state it
    left: the columns bit for bit, each row's Vehicle and Road by
    identity."""
    fresh = scan_view(sim)
    assert view.ids == fresh.ids
    assert view.fronts == fresh.fronts
    for name in ("speed", "lead_speed", "gap", "has_lead"):
        assert bitwise(getattr(view, name)) == bitwise(getattr(fresh, name))
    for name in ("vehs", "roads"):
        assert all(a is b for a, b in zip(getattr(view, name),
                                          getattr(fresh, name), strict=True))


FLOAT_FIELDS = ("position", "speed", "accel", "fuel_l", "co2_g", "distance_m")


def assert_invariants(sim):
    assert sim.conservation_ok()
    for veh in sim.vehicles.values():
        for name in FLOAT_FIELDS:
            # a numpy scalar here would leak into every later computation
            assert type(getattr(veh, name)) is float, (veh.id, name)
    for road_id, order in sim.road_order.items():
        road = sim.network.roads[road_id]
        positions = [sim.vehicles[vid].position for vid in order]
        assert positions == sorted(positions)
        for vid in order:
            veh = sim.vehicles[vid]
            assert veh.road == road_id
            assert 0.0 <= veh.speed <= road.speed_limit
            assert 0.0 <= veh.position <= road.length


@given(worlds(), st.integers(1, 30), st.data())
def test_step_invariants_on_random_placements(sim, steps, data):
    accel = st.floats(-5.0, 5.0)
    view = None
    with OracleScans().patch():
        for _ in range(steps):
            lights = {lid: data.draw(st.integers(0, 1)) for lid in sim.lights}
            cavs = [vid for vid, v in sim.vehicles.items() if v.kind == "CAV"]
            commanded = data.draw(st.lists(st.sampled_from(cavs), unique=True)
                                  if cavs else st.just([]))
            commands = {vid: data.draw(accel) for vid in commanded}
            vehs, _, want, *_, ref_lights = ref_sim_step(sim, lights, commands)
            # the next step reads its acceleration inputs from this view
            view = step(sim, lights, commands, view=view)
            assert_moved_as_referenced(vehs, want)
            assert sim.lights == ref_lights  # phase, then the timer tick
            assert_invariants(sim)
            assert_view_equals_fresh(sim, view)


# --- the step's per-vehicle loop against the numpy references ---------------

@st.composite
def moving_fleets(draw):
    """A 1x1 or 1x6 grid whose lights all show a green, with vehicles that
    must this second be held at a red stop line, arrive at the end of their
    route and cross onto their next road, plus vehicles anywhere. Returns
    the state and its command map: the crossing vehicle is a commanded CAV,
    the arriving one an HDV on the car-following law."""
    sim = empty_sim(draw(st.sampled_from(["1x1", "1x6"])))
    for light in sim.lights.values():
        # a green stays or turns yellow, so the other approaches stay red
        light.phase_index = draw(st.sampled_from([0, 2]))
        light.time_in_phase = draw(st.integers(0, 50))
    roads = list(sim.network.roads.values())
    approaches = [r for r in roads if r.approach_intersection is not None]

    def red(road):
        return not serves(sim.lights[road.approach_intersection], road.approach)

    roles = ["held", "arrive", "cross"] + draw(st.lists(
        st.sampled_from(["held", "arrive", "cross", "free"]), max_size=20))
    commands = {}
    for k, role in enumerate(roles):
        # the first arriving vehicle is an HDV, the first crossing one a CAV
        kind = {1: "HDV", 2: "CAV"}.get(k) or draw(
            st.sampled_from(["HDV", "CAV"]))
        if role == "held":
            road = draw(st.sampled_from([r for r in approaches if red(r)]))
        elif role == "cross":
            road = draw(st.sampled_from([r for r in approaches
                                         if not red(r)]))
        else:
            road = draw(st.sampled_from(roads))
        route = ([road.id] if role == "arrive"
                 else sim.network.straight_route(road.id))
        # within 3 m of the line at 10 m/s or more, a vehicle crosses it
        # even at the emergency deceleration or the command floor
        near = role != "free" or draw(st.booleans())
        position = draw(st.floats(road.length - 3.0, road.length) if near
                        else st.floats(0.0, road.length))
        speed = draw(st.floats(0.0 if role == "free" else 10.0,
                               road.speed_limit))
        veh = put_vehicle(sim, f"v{k}", road.id, position, speed,
                          route=route, kind=kind)
        veh.fuel_l, veh.co2_g, veh.distance_m = (
            draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2000.0)),
            draw(st.floats(0.0, 5000.0)))
        if kind == "CAV" and (k == 2 or draw(st.booleans())):
            commands[veh.id] = draw(st.floats(-5.0, 5.0))
    return sim, commands


@given(moving_fleets(), st.data())
def test_step_loop_matches_kinematics_hold_and_energy_references(fleet, data):
    sim, commands = fleet
    lights = {lid: data.draw(st.integers(0, 1)) for lid in sim.lights}
    vehs, roads, want, arrive, held, moves, _ = ref_sim_step(sim, lights,
                                                             commands)
    commanded = [veh.id in commands for veh in vehs]
    assert any(commanded) and not all(commanded)
    assert arrive.any() and held.any() and moves.any()
    step(sim, lights, commands)
    assert_moved_as_referenced(vehs, want)
    arrived = {trip.vehicle_id: trip for trip in sim.completed}
    assert set(arrived) == {veh.id for veh, a in zip(vehs, arrive) if a}
    for veh, moving, road in zip(vehs, moves, roads):
        # every route that crosses a line is a straight one
        assert veh.road == (road.straight_to if moving else road.id)
        if veh.id in arrived:
            trip = arrived[veh.id]
            assert (trip.fuel_l, trip.co2_g, trip.distance_m) == (
                veh.fuel_l, veh.co2_g, veh.distance_m)


# --- the env's one pass over the incoming roads against its references -----

@st.composite
def observed_worlds(draw):
    """A state of `worlds()` with CAVs overlapping the vehicles they follow,
    and drawn accelerations and light phases; a cooperation mode; and M_COTV
    previous-action maps over drawn roads and lights."""
    sim = draw(worlds())
    for k in range(draw(st.integers(0, 3)) if sim.vehicles else 0):
        # a CAV up to a car length past the tail of the vehicle it follows,
        # so that some agent's gap is negative
        lead = sim.vehicles[draw(st.sampled_from(sorted(sim.vehicles)))]
        limit = sim.network.roads[lead.road].speed_limit
        put_vehicle(sim, f"t{k}", lead.road,
                    max(lead.position - draw(st.floats(0.0, 8.0)), 0.0),
                    draw(st.floats(0.0, min(10.0, limit))), route=lead.route[
                        lead.route_index:], kind="CAV")
    for veh in sim.vehicles.values():
        veh.accel = draw(st.floats(-4.5, 3.0))
    for light in sim.lights.values():
        light.phase_index = draw(st.integers(0, len(light.phases) - 1))
    roads = list(sim.network.roads)
    prev_commands = {rid: draw(st.floats(-3.0, 3.0))
                     for rid in roads if draw(st.booleans())}
    prev_tl_action = {lid: draw(st.integers(0, 1))
                      for lid in sim.lights if draw(st.booleans())}
    mode = draw(st.sampled_from(list(CooperationMode)))
    return sim, mode, prev_commands, prev_tl_action


def assert_same_matrix(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@given(observed_worlds())
def test_observe_matches_the_reference_forms(world):
    sim, mode, prev_commands, prev_tl_action = world
    c = max_road_capacity(sim.network)
    got = observe(sim, incoming_layout(sim.network), mode, c, prev_commands,
                  prev_tl_action)
    vids = ref_select_cav_agents(sim, mode)
    roads = [sim.network.roads[sim.vehicles[vid].road] for vid in vids]
    assert got.agents == [(vid, road.id) for vid, road in zip(vids, roads)]
    assert_same_matrix(got.tl_obs, np.array([
        ref_tl_observation(sim, light, mode, c, prev_commands)
        for light in sim.lights.values()]))
    assert_same_matrix(got.cav_obs, np.array([
        ref_cav_observation(sim, vid, mode,
                            prev_tl_action.get(road.approach_intersection, 0))
        for vid, road in zip(vids, roads)]))
    assert [p.hex() for p in got.pressures] == [
        tl_reward(sim, light, c).hex() for light in sim.lights.values()]


# --- the actuated plan's front-vehicle test against a whole-road scan -------

@given(worlds(), st.integers(1, 30), st.data())
def test_actuated_tick_matches_the_whole_road_scan(sim, steps, data):
    for light in sim.lights.values():
        light.phase_index = data.draw(st.integers(0, len(light.phases) - 1))
        light.time_in_phase = data.draw(st.integers(0, 50))
    actuated, scanning = ActuatedController(), ScanningActuated()
    view = None
    for _ in range(steps):
        want = {lid: scanning.tick(light, sim)
                for lid, light in sim.lights.items()}
        got = {lid: actuated.tick(light, sim)
               for lid, light in sim.lights.items()}
        assert got == want
        assert actuated._empty_run == scanning.empty_run
        view = step(sim, got, {}, view=view)


# --- the speed advisory against its per-vehicle rule -----------------------

@given(worlds(), st.integers(1, 30), st.data())
def test_advisory_matches_the_per_vehicle_rule(sim, steps, data):
    for light in sim.lights.values():
        light.phase_index = data.draw(st.integers(0, len(light.phases) - 1))
        light.time_in_phase = data.draw(st.integers(0, 50))
    glosa, lights = GlosaController(), make_light_controller("actuated")
    # the episode loop's order: the advisory reads the view that the next
    # step consumes
    view = scan_view(sim)
    for _ in range(steps):
        want = ref_advice(sim)
        got = glosa.commands(sim, view)
        assert list(got) == list(want)
        assert bitwise(got.values()) == bitwise(want.values())
        view = step(sim, lights(sim), got, view=view)
