"""Discrete-time (1 s) microscopic traffic dynamics.

Uncontrolled vehicles follow the intelligent-driver car-following law, with
red/yellow signals folded in as standing virtual leaders at the stop line.
Controlled vehicles apply an externally commanded acceleration. Kinematics
are semi-implicit Euler with the speed clamped to [0, road limit] before the
position update. Collisions (bumper gap <= 0) remove both vehicles so the
vehicle count stays conserved; rear-end conflicts with time-to-collision
under 3 s are counted as safety events. Fuel and CO2 use a tractive-power
surrogate, accumulated per vehicle per second.

A SimState is single-writer: all mutation flows through `step`. Independent
states can run in parallel processes without shared mutable data.
"""
import bisect
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from . import kernels
from .kernels import IDM_B_COMFORT, IDM_S0
from .network import MIN_GAP, VEHICLE_LENGTH, build_insertion_schedule

DT = 1.0
YELLOW_DURATION = 3
MIN_GREEN = 5
TTC_THRESHOLD = 3.0
# Virtual stop-line leaders never report a gap below this, so a vehicle held
# exactly at the line still gets a finite braking demand.
STOPLINE_GAP_FLOOR = 0.1
INSERTION_FREE_ZONE = 10.0


@dataclass
class Vehicle:
    id: str
    kind: str                  # "HDV" | "CAV"
    road: str
    position: float            # front bumper, meters from road start
    speed: float
    route: tuple
    route_index: int = 0
    accel: float = 0.0         # last realized acceleration
    length: float = VEHICLE_LENGTH
    depart_time: int = 0
    fuel_l: float = 0.0
    co2_g: float = 0.0
    distance_m: float = 0.0


@dataclass(frozen=True)
class Phase:
    kind: str        # "green" | "yellow"
    served: frozenset  # approach arms ("N","S",...) allowed to move


@dataclass
class TrafficLight:
    intersection: str
    phases: list
    phase_index: int = 0
    time_in_phase: int = 0

    @property
    def phase(self):
        return self.phases[self.phase_index]

    def serves(self, approach):
        return approach in self.phases[self.phase_index].served

    def signal_for(self, approach):
        """1.0 green, 0.5 yellow, 0.0 red for the given approach arm."""
        phase = self.phases[self.phase_index]
        if approach not in phase.served:
            return 0.0
        return 1.0 if phase.kind == "green" else 0.5


def make_light(intersection_id):
    """Standard two-green cycle: Green-NS, Yellow-NS, Green-WE, Yellow-WE."""
    ns = frozenset(("N", "S"))
    we = frozenset(("E", "W"))
    return TrafficLight(intersection_id, [
        Phase("green", ns), Phase("yellow", ns),
        Phase("green", we), Phase("yellow", we),
    ])


@dataclass(frozen=True)
class CollisionEvent:
    time: int
    road: str
    follower: str
    leader: str


@dataclass(frozen=True)
class TripRecord:
    vehicle_id: str
    kind: str
    depart: int
    arrival: int
    route_length: float
    ideal_time: float
    fuel_l: float
    co2_g: float
    distance_m: float

    @property
    def travel_time(self):
        return self.arrival - self.depart


@dataclass
class SimState:
    """The world at one second. `pending` holds the scheduled insertions not
    yet placed, sorted by time (`build_insertion_schedule`'s order), so the
    entries due at any second are a prefix of it."""
    network: object
    clock: int = 0
    vehicles: dict = field(default_factory=dict)
    road_order: dict = field(default_factory=dict)  # road -> ids by position asc
    lights: dict = field(default_factory=dict)
    pending: list = field(default_factory=list)     # insertions not yet placed
    completed: list = field(default_factory=list)
    collisions: list = field(default_factory=list)
    inserted_count: int = 0
    collided_count: int = 0
    ttc_event_count: int = 0

    def conservation_ok(self):
        return self.inserted_count == (len(self.vehicles) + len(self.completed)
                                       + self.collided_count)


def build_sim(scenario):
    sim = SimState(network=scenario.network)
    for road_id in scenario.network.roads:
        sim.road_order[road_id] = []
    for inter_id in scenario.network.intersections:
        sim.lights[inter_id] = make_light(inter_id)
    sim.pending = list(build_insertion_schedule(scenario))
    return sim


def idm_accel(v, v_leader, gap, v_limit):
    """Car-following acceleration for one vehicle.

    Leaderless calls pass v_leader=None and gap=None and keep only the
    free-road term. Output is clamped to [-4.5, a_max].
    """
    if v < 0:
        raise ValueError("speed must be non-negative")
    has_lead = v_leader is not None
    if has_lead and (gap is None or gap <= 0):
        raise ValueError("gap must be positive when a leader is present")
    out = kernels.vehicle_accels(
        [float(v)], [float(v_leader) if has_lead else 0.0],
        [float(gap) if has_lead else 1.0], [has_lead], [float(v_limit)],
        [False], [0.0])
    return out[0]


def red_light_virtual_leader(vehicle, light, road):
    """Standing virtual leader at the stop line, or None if free to proceed.

    Green for the vehicle's approach: None. Yellow: stop unless the braking
    needed to reach the line exceeds the comfortable rate (the committed
    vehicle proceeds). Red: always stop.
    """
    approach = road.approach
    if approach is None:
        return None
    phase = light.phases[light.phase_index]
    dist = road.length - vehicle.position
    if approach in phase.served and (
            phase.kind == "green" or dist <= 0
            or vehicle.speed ** 2 / (2.0 * dist) > IDM_B_COMFORT):
        return None
    return 0.0, max(dist, STOPLINE_GAP_FLOOR)


def apply_tl_action(light, action):
    """Advance the phase machine one decision.

    time_in_phase counts fully displayed seconds and is advanced by the step
    loop after the movement update, so thresholds read literally: a yellow
    showing 3 s auto-advances, a green showing at least MIN_GREEN may switch.
    """
    if action not in (0, 1):
        raise ValueError(f"traffic light action must be 0 or 1, got {action!r}")
    phase = light.phase
    if phase.kind == "yellow":
        if light.time_in_phase >= YELLOW_DURATION:
            light.phase_index = (light.phase_index + 1) % len(light.phases)
            light.time_in_phase = 0
    elif action == 1 and light.time_in_phase >= MIN_GREEN:
        light.phase_index = (light.phase_index + 1) % len(light.phases)
        light.time_in_phase = 0
    return light


def _cross_boundary_leader(sim, vehicle, road):
    """(rearmost vehicle on the route's next road, bumper gap across the stop
    line), or None at the route's end or when that road is empty."""
    if vehicle.route_index + 1 >= len(vehicle.route):
        return None
    next_order = sim.road_order[vehicle.route[vehicle.route_index + 1]]
    if not next_order:
        return None
    lead = sim.vehicles[next_order[0]]
    return lead, (road.length - vehicle.position) + lead.position - lead.length


def _safe_insertion_speed(drawn, road_front):
    """Cap the scheduled entry speed so a stop behind the current tail is
    possible at comfortable braking (the schedule's draw is kept otherwise)."""
    if road_front is None:
        return drawn
    tail_veh, gap = road_front
    if gap <= IDM_S0:
        return 0.0
    v_safe = math.sqrt(tail_veh.speed ** 2
                       + 2.0 * IDM_B_COMFORT * (gap - IDM_S0))
    return min(drawn, v_safe)


def _attempt_insertions(sim, now):
    """Place due scheduled vehicles; origins with a busy entry zone retry.

    The due entries are the time-sorted `pending` list's prefix; the blocked
    ones among them stay at its front, in schedule order.
    """
    pending = sim.pending
    due = bisect.bisect_right(pending, now, key=operator.attrgetter("time"))
    if not due:
        return
    blocked = []
    for ins in pending[:due]:
        origin = ins.route[0]
        order = sim.road_order[origin]
        if any(sim.vehicles[vid].position - sim.vehicles[vid].length
               < INSERTION_FREE_ZONE for vid in order):
            blocked.append(ins)
            continue
        front = None
        if order:
            tail = sim.vehicles[order[0]]
            front = (tail, tail.position - tail.length - 0.0)
        speed = _safe_insertion_speed(ins.depart_speed, front)
        veh = Vehicle(ins.vehicle_id, ins.kind, origin, 0.0, speed,
                      ins.route, depart_time=now)
        sim.vehicles[veh.id] = veh
        order.insert(0, veh.id)
        sim.inserted_count += 1
    pending[:due] = blocked


class ScanView(NamedTuple):
    """Active vehicles flattened road by road, each road rear to front in
    its `road_order`, with each vehicle's in-road leader: row i + 1 leads
    row i unless row i is the front vehicle of its road (`has_lead` False,
    zero gap and leader speed). `vehs` and `roads` hold each row's Vehicle
    and Road, and `fronts` the row of every road's front vehicle, in road
    order. Every column is a list, of Python floats for `speed`,
    `lead_speed` and `gap` and of bools for `has_lead`.

    A view describes its state until the next write to that state: `step`
    returns the view of the state it leaves, and the caller that writes
    nothing else to the state in between hands it to the next `step`, which
    consumes it: it writes each front row's stop-line or cross-boundary
    leader into that row's `lead_speed`, `gap` and `has_lead`."""
    ids: list
    vehs: list
    roads: list
    fronts: list
    speed: list
    lead_speed: list
    gap: list
    has_lead: list


def scan_view(sim):
    """Build the ScanView of the current state: one walk over the roads
    collects the rows, then each column is one pass over the whole fleet,
    and the front rows are patched afterwards."""
    ids, roads, fronts = [], [], []
    road_order = sim.road_order
    for road_id, road in sim.network.roads.items():
        order = road_order[road_id]
        if order:
            ids += order
            roads += [road] * len(order)
            fronts.append(len(ids) - 1)
    vehs = list(map(sim.vehicles.__getitem__, ids))
    speed = [veh.speed for veh in vehs]
    # the last row is a road front, so its placeholder is always patched
    last = [0.0] if ids else []
    lead_speed = speed[1:] + last
    gap = [lead.position - lead.length - veh.position
           for veh, lead in zip(vehs, vehs[1:])] + last
    has_lead = [True] * len(ids)
    for i in fronts:
        lead_speed[i] = gap[i] = 0.0
        has_lead[i] = False
    return ScanView(ids, vehs, roads, fronts, speed, lead_speed, gap,
                    has_lead)


def detect_collisions(sim, view=None):
    """Remove every same-road adjacent pair with bumper gap <= 0.

    `view` is the current state's ScanView, built here when not given. A
    shared vehicle in a pile-up appears in two events but is removed once;
    the removal count keeps the conservation identity exact.
    """
    if view is None:
        view = scan_view(sim)
    if not view.ids:
        return []
    hit = kernels.collision_followers(view.gap, view.has_lead)
    if not any(hit):
        return []
    events = []
    to_remove = set()
    for i, collided in enumerate(hit):
        if not collided:
            continue
        follower, leader = view.ids[i], view.ids[i + 1]
        events.append(CollisionEvent(sim.clock, sim.vehicles[follower].road,
                                     follower, leader))
        to_remove.update((follower, leader))
    for vid in to_remove:
        veh = sim.vehicles.pop(vid)
        sim.road_order[veh.road].remove(vid)
    sim.collisions.extend(events)
    sim.collided_count += len(to_remove)
    return events


def count_ttc_events(sim, view=None):
    """Count closing adjacent pairs with time-to-collision under
    TTC_THRESHOLD this instant, and add them to the cumulative counter.
    `view` is the current state's ScanView, built here when not given."""
    if view is None:
        view = scan_view(sim)
    if not view.ids:
        return 0
    events = kernels.ttc_events(view.gap, view.speed, view.lead_speed,
                                view.has_lead, TTC_THRESHOLD)
    sim.ttc_event_count += events
    return events


class TraceWriter:
    """Line-oriented per-step trace: one `t vehicle road position speed
    accel` line per vehicle, then one `t light id phase_index time_in_phase`
    line per light."""

    def __init__(self, fh):
        self.fh = fh

    def record(self, sim):
        for road_id in sim.network.roads:
            for vid in sim.road_order[road_id]:
                v = sim.vehicles[vid]
                self.fh.write(f"{sim.clock} {vid} {road_id} "
                              f"{v.position:.3f} {v.speed:.3f} {v.accel:.3f}\n")
        for light_id, light in sim.lights.items():
            self.fh.write(f"{sim.clock} light {light_id} "
                          f"{light.phase_index} {light.time_in_phase}\n")


def step(sim, tl_actions=None, cav_accels=None, trace=None, view=None):
    """Advance the world by one second; returns the ScanView of the state
    it leaves.

    Order: signal transitions, then the stop-line and cross-boundary
    leaders of each road's front row, then one loop over the vehicles that
    computes each one's acceleration (commanded, clamped to the command box,
    or the car-following law of `kernels.vehicle_accels` with the gap
    floored at 1e-9), clamps its speed, moves, transfers, holds or arrives
    it, and charges its fuel and CO2 (a vehicle held at the line for its
    held speed and acceleration); then insertion of the transferred
    vehicles into their new roads, arrivals, insertions, clock, collision
    and conflict scans, phase timers. The acceleration inputs come from
    `view`, the ScanView of the pre-move state, with the front rows patched
    in place, so a caller that also reads it (the speed advisory does)
    reads it first; it is built here when not given. A caller that writes
    to `sim` between two steps passes none. The two
    scans share one ScanView of the settled state, which is built again
    when a collision removed vehicles and is the one returned: it holds
    until the next write to `sim`.
    """
    tl_actions = tl_actions or {}
    cav_accels = cav_accels or {}
    for light_id in tl_actions:
        if light_id not in sim.lights:
            raise KeyError(f"unknown traffic light {light_id!r}")
    for vid in cav_accels:
        if vid not in sim.vehicles:
            raise KeyError(f"unknown vehicle {vid!r} in command map")

    now = sim.clock + 1

    for light_id, light in sim.lights.items():
        apply_tl_action(light, tl_actions.get(light_id, 0))

    # acceleration inputs from the pre-move view: row i + 1 leads row i,
    # except that a road's front row faces a standing virtual leader at the
    # stop line, the tail of its continuation road, or nothing (the view's
    # leaderless row as it stands)
    if view is None:
        view = scan_view(sim)
    vehs, roads_of = view.vehs, view.roads
    if vehs:
        lead_speed, gap, has_lead = view.lead_speed, view.gap, view.has_lead
        for i in view.fronts:
            front, road = vehs[i], roads_of[i]
            light = (sim.lights.get(road.approach_intersection)
                     if road.approach_intersection else None)
            virtual = (red_light_virtual_leader(front, light, road)
                       if light else None)
            if virtual is None and light is not None:
                # free to cross: follow the tail of the continuation road so
                # a discharging queue stays a platoon over the boundary
                tail = _cross_boundary_leader(sim, front, road)
                if tail is not None:
                    virtual = tail[0].speed, max(tail[1], 1e-9)
            if virtual is not None:
                (lead_speed[i], gap[i]), has_lead[i] = virtual, True

        # one pass over the rows: the acceleration (the arithmetic of
        # kernels.vehicle_accels), then clamp the speed, move, transfer,
        # hold or arrive the vehicle, then charge its fuel and CO2 (the
        # arithmetic of kernels.kinematics and kernels.fuel_co2). Transfers
        # are queued so that they are position-inserted against settled
        # (post-move) occupants only
        arrivals = []
        transfers = []
        vehicles, lights, road_order = sim.vehicles, sim.lights, sim.road_order
        a_max, delta, headway, s0 = (kernels.IDM_A_MAX, kernels.IDM_DELTA,
                                     kernels.IDM_HEADWAY, IDM_S0)
        two_sqrt_ab = kernels.IDM_TWO_SQRT_AB
        floor, box = -kernels.EMERGENCY_DECEL, kernels.CMD_ACCEL_MAX
        dt, mass, idle, co2_per_l = (DT, kernels.VEHICLE_MASS_KG,
                                     kernels.IDLE_FUEL_L_S, kernels.CO2_G_PER_L)
        roll, drag = kernels.ROLLING_FORCE_N, kernels.DRAG_FACTOR
        energy_per_l = kernels.ENERGY_PER_L_J
        for vid, veh, road, v, v_lead, s, lead in zip(
                view.ids, vehs, roads_of, view.speed, lead_speed, gap,
                has_lead):
            v_lim = road.speed_limit
            if vid in cav_accels:
                c = cav_accels[vid]
                a = -box if c < -box else box if c > box else c
            else:
                a = a_max * (1.0 - (v / v_lim) ** delta)
                if lead:
                    s = 1e-9 if s < 1e-9 else s
                    ratio = (s0 + v * headway + v * (v - v_lead)
                             / two_sqrt_ab) / s
                    a = a - a_max * (ratio * ratio)
                a = floor if a < floor else a_max if a > a_max else a
            v_new = v + a * dt
            v_new = 0.0 if v_new < 0.0 else v_lim if v_new > v_lim else v_new
            a_new = (v_new - v) / dt
            moved = v_new * dt
            x_new = veh.position + moved
            length = road.length
            if x_new >= length:
                if veh.route_index + 1 >= len(veh.route):
                    moved = length - veh.position
                    veh.position = length
                    arrivals.append(veh)
                elif (road.approach is None or lights[
                        road.approach_intersection].serves(road.approach)):
                    road_order[road.id].remove(veh.id)
                    veh.route_index += 1
                    veh.road = veh.route[veh.route_index]
                    veh.position = x_new - length
                    transfers.append(veh)
                else:
                    # not allowed to cross: pinned at the stop line, and
                    # charged for the held speed and acceleration
                    moved = length - veh.position
                    veh.position = length
                    v_new = 0.0
                    a_new = -v / dt
            else:
                veh.position = x_new
            veh.speed = v_new
            veh.accel = a_new
            veh.distance_m += moved
            power = mass * a_new * v_new + roll * v_new + drag * (
                v_new * v_new * v_new)
            fuel = idle + (0.0 if power < 0.0 else power) / energy_per_l
            veh.fuel_l += fuel * dt
            veh.co2_g += fuel * co2_per_l * dt

        for veh in transfers:
            dest = road_order[veh.road]
            keys = [vehicles[o].position for o in dest]
            dest.insert(bisect.bisect_left(keys, veh.position), veh.id)

        net = sim.network
        for veh in arrivals:
            del vehicles[veh.id]
            road_order[veh.road].remove(veh.id)
            route_len = net.route_length(veh.route)
            ideal = sum(net.roads[r].length / net.roads[r].speed_limit
                        for r in veh.route)
            sim.completed.append(TripRecord(
                veh.id, veh.kind, veh.depart_time, now, route_len, ideal,
                veh.fuel_l, veh.co2_g, veh.distance_m))

    _attempt_insertions(sim, now)
    sim.clock = now
    # both safety scans read one view of the settled state; a removal
    # changes the leaders, so the TTC scan then gets a fresh one
    view = scan_view(sim)
    if detect_collisions(sim, view):
        view = scan_view(sim)
    count_ttc_events(sim, view=view)

    for light in sim.lights.values():
        light.time_in_phase += 1

    if trace is not None:
        trace.record(sim)
    return view
