"""Simulator invariants on generated states: random vehicle placements on
the 1x1 and 1x6 grids, driven by random light actions and commanded
accelerations. After every step the fleet is conserved, each road's order
is sorted by position, speeds lie in [0, limit] and positions on the road,
and every vehicle's kinematic and energy fields are Python floats;
during it, the collision scan and the TTC counter agree with brute-force
rescans of the state they read, the view `step` hands each scan equals the
per-vehicle loop it replaced, and the acceleration inputs `step` builds from
its pre-move view equal the per-road construction they replaced. The view
`step` returns equals a fresh `scan_view` of the state it leaves, and is
handed to the next step. On generated fleets with held, arriving and
crossing vehicles, one step's per-vehicle loop equals the numpy references
of the kinematics and energy kernels composed with the stop-line hold. The
example count is set by the profile in conftest.py."""
from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

from cotraffic import kernels, simulation
from cotraffic.network import grid_scenario
from cotraffic.simulation import build_sim, scan_view, step

from test_kernels import ref_fuel_co2, ref_kinematics
from test_simulation import (brute_force_collision_pairs, brute_force_ttc,
                             empty_sim, put_vehicle)


@st.composite
def worlds(draw):
    """A 1x1 or 1x6 grid with vehicles placed anywhere on its roads, and
    optionally its scheduled demand still to be inserted."""
    grid = draw(st.sampled_from(["1x1", "1x6"]))
    if draw(st.booleans()):
        sim = build_sim(grid_scenario(grid, penetration=0.5,
                                      seed=draw(st.integers(0, 99))))
    else:
        sim = empty_sim(grid)
    roads = list(sim.network.roads.values())
    for k in range(draw(st.integers(0, 24))):
        road = draw(st.sampled_from(roads))
        put_vehicle(sim, f"v{k}", road.id,
                    draw(st.floats(0.0, road.length)),
                    draw(st.floats(0.0, road.speed_limit)),
                    route=sim.network.straight_route(road.id),
                    kind=draw(st.sampled_from(["HDV", "CAV"])))
    return sim


def loop_view(sim):
    """Reference for `simulation.scan_view`: the per-vehicle loop it
    replaced, as (ids, speed, lead_speed, gap, has_lead) lists."""
    ids, speed, lead_speed, gap, has_lead = [], [], [], [], []
    for road_id in sim.network.roads:
        order = sim.road_order[road_id]
        for i, vid in enumerate(order):
            veh = sim.vehicles[vid]
            ids.append(vid)
            speed.append(veh.speed)
            if i + 1 < len(order):
                lead = sim.vehicles[order[i + 1]]
                lead_speed.append(lead.speed)
                gap.append(lead.position - lead.length - veh.position)
                has_lead.append(True)
            else:
                lead_speed.append(0.0)
                gap.append(0.0)
                has_lead.append(False)
    return ids, speed, lead_speed, gap, has_lead


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


def ref_accel_inputs(sim, commands):
    """Reference for the inputs `step` hands `kernels.vehicle_accels`: the
    per-road construction it replaced, as (speed, lead_speed, gap, has_lead,
    v_limit, is_cmd, cmd) lists. Gaps are floored at 1e-9 by `max`; a road's
    front row faces its stop-line virtual leader, else the tail of its
    continuation road, else nothing (zero gap and leader speed)."""
    vehs, roads_of, fronts = [], [], []
    for road_id, road in sim.network.roads.items():
        order = sim.road_order[road_id]
        if order:
            vehs += [sim.vehicles[vid] for vid in order]
            roads_of += [road] * len(order)
            fronts.append(len(vehs) - 1)
    speed = [veh.speed for veh in vehs]
    lead_speed = speed[1:] + [0.0]
    gap = [max(lead.position - lead.length - veh.position, 1e-9)
           for veh, lead in zip(vehs, vehs[1:])] + [0.0]
    has_lead = [True] * len(vehs)
    for i in fronts:
        front, road = vehs[i], roads_of[i]
        light = (sim.lights.get(road.approach_intersection)
                 if road.approach_intersection else None)
        virtual = (simulation.red_light_virtual_leader(front, light, road)
                   if light else None)
        if virtual is None and light is not None:
            tail = simulation._cross_boundary_leader(sim, front, road)
            if tail is not None:
                virtual = tail[0].speed, max(tail[1], 1e-9)
        if virtual is None:
            lead_speed[i], gap[i], has_lead[i] = 0.0, 0.0, False
        else:
            lead_speed[i], gap[i] = virtual
    return (speed, lead_speed, gap, has_lead,
            [road.speed_limit for road in roads_of],
            [veh.id in commands for veh in vehs],
            [commands.get(veh.id, 0.0) for veh in vehs])


class CheckedAccels:
    """Wraps `kernels.vehicle_accels` while `step` runs on `sim` and checks
    the inputs it is handed against `ref_accel_inputs` of the state at call
    time. `commands` is the command map of the step being run."""

    def __init__(self, sim):
        self.sim = sim
        self.commands = {}
        self.calls = 0
        self.accels = kernels.vehicle_accels

    def checked(self, *inputs):
        want = ref_accel_inputs(self.sim, self.commands)
        assert list(map(bitwise, inputs)) == list(map(bitwise, want))
        self.calls += 1
        return self.accels(*inputs)

    def patch(self):
        return mock.patch.object(kernels, "vehicle_accels", self.checked)


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
    accels = CheckedAccels(sim)
    view = None
    with OracleScans().patch(), accels.patch():
        for _ in range(steps):
            lights = {lid: data.draw(st.integers(0, 1)) for lid in sim.lights}
            cavs = [vid for vid, v in sim.vehicles.items() if v.kind == "CAV"]
            commanded = data.draw(st.lists(st.sampled_from(cavs), unique=True)
                                  if cavs else st.just([]))
            accels.commands = {vid: data.draw(accel) for vid in commanded}
            moving = bool(sim.vehicles)
            calls = accels.calls
            # the next step reads its acceleration inputs from this view
            view = step(sim, lights, accels.commands, view=view)
            assert accels.calls == calls + moving
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
        return not sim.lights[road.approach_intersection].serves(road.approach)

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


class CapturedAccels:
    """Wraps `kernels.vehicle_accels` for one `step` and keeps, per row, the
    Vehicle and the pre-move fields the loop after the call reads, with the
    accelerations returned."""

    def __init__(self, sim):
        self.sim = sim
        self.rows = self.columns = None
        self.accels = kernels.vehicle_accels

    def captured(self, speed, *inputs):
        assert self.rows is None
        out = self.accels(speed, *inputs)
        v_limit = inputs[3]
        view = scan_view(self.sim)   # the lights already took their actions
        self.rows = [
            (veh, road, veh.position, veh.fuel_l, veh.co2_g, veh.distance_m,
             veh.route_index + 1 >= len(veh.route),
             road.approach is None or self.sim.lights[
                 road.approach_intersection].serves(road.approach))
            for veh, road in zip(view.vehs, view.roads, strict=True)]
        self.columns = speed, out, v_limit
        return out

    def patch(self):
        return mock.patch.object(kernels, "vehicle_accels", self.captured)


@given(moving_fleets(), st.data())
def test_step_loop_matches_kinematics_hold_and_energy_references(fleet, data):
    # ref_kinematics on the returned accelerations, then the stop-line hold,
    # then ref_fuel_co2 on the held speeds and accelerations
    sim, commands = fleet
    lights = {lid: data.draw(st.integers(0, 1)) for lid in sim.lights}
    capture = CapturedAccels(sim)
    with capture.patch():
        step(sim, lights, commands)
    (vehs, roads, position, fuel_l, co2_g, distance_m, route_end,
     served) = map(list, zip(*capture.rows))
    position, fuel_l, co2_g, distance_m = map(
        np.array, (position, fuel_l, co2_g, distance_m))
    length = np.array([road.length for road in roads])
    speed, accel, v_limit = map(np.array, capture.columns)
    commanded = [veh.id in commands for veh in vehs]
    assert any(commanded) and not all(commanded)

    dt = simulation.DT
    new_speed, dx, eff_accel = ref_kinematics(speed, accel, v_limit, dt)
    x_new = position + dx
    crossing = x_new >= length
    arrive = crossing & np.array(route_end)
    held = crossing & ~arrive & ~np.array(served)
    moves = crossing & ~arrive & ~held
    assert arrive.any() and held.any() and moves.any()
    new_speed[held] = 0.0
    eff_accel[held] = -speed[held] / dt
    moved = np.where(arrive | held, length - position, dx)
    want_position = np.where(arrive | held, length,
                             np.where(moves, x_new - length, x_new))
    fuel, co2 = ref_fuel_co2(new_speed, eff_accel)
    want = {"speed": new_speed, "accel": eff_accel,
            "position": want_position, "distance_m": distance_m + moved,
            "fuel_l": fuel_l + fuel * dt, "co2_g": co2_g + co2 * dt}
    for name, column in want.items():
        got = [getattr(veh, name) for veh in vehs]
        assert bitwise(got) == bitwise(column.tolist()), name
    arrived = {trip.vehicle_id: trip for trip in sim.completed}
    assert set(arrived) == {veh.id for veh, a in zip(vehs, arrive) if a}
    for veh, moving, road in zip(vehs, moves, roads):
        # every route that crosses a line is a straight one
        assert veh.road == (road.straight_to if moving else road.id)
        if veh.id in arrived:
            trip = arrived[veh.id]
            assert (trip.fuel_l, trip.co2_g, trip.distance_m) == (
                veh.fuel_l, veh.co2_g, veh.distance_m)
