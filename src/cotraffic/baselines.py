"""Non-learned comparison controllers.

Signal plans: a fixed 40/3/40/3 cycle, a gap-out actuated plan, and a greedy
pressure-comparison plan. Speed advisory: a kinematic green-window rule that
aims each equipped vehicle at its predicted next green, never overriding
car-following safety.
"""
from . import kernels
# build_sim, idm_accel and step are not called here; perfbench/tracer.py
# wraps them at these names
from .simulation import MIN_GREEN, YELLOW_DURATION, build_sim, idm_accel, step

GLOSA_ACCEL_LIMIT = 3.0
# the fixed plan's green; its yellows last YELLOW_DURATION
STATIC_GREEN_S = 40
# gap-out actuation: the longest green, the empty run that ends a green, and
# how far from the stop line a vehicle counts as waiting
ACTUATED_MAX_GREEN = 45
ACTUATED_GAP_S = 3
DETECTION_DISTANCE = 50.0


def static_tick(light):
    """1 exactly when the current phase's planned duration has elapsed."""
    planned = (STATIC_GREEN_S if light.phase.kind == "green"
               else YELLOW_DURATION)
    return int(light.time_in_phase >= planned)


class ActuatedController:
    """Gap-out actuation: switch once the served approaches have shown no
    vehicle within DETECTION_DISTANCE of the stop line for ACTUATED_GAP_S
    consecutive seconds, or at ACTUATED_MAX_GREEN. Holds one empty-run
    counter per light. A served road's front vehicle, the last of its
    position-sorted `road_order`, is its closest to the line, so it alone
    decides whether the road is occupied."""

    def __init__(self):
        self._empty_run = {}
        self._last_phase = {}

    def tick(self, light, sim):
        lid = light.intersection
        if self._last_phase.get(lid) != light.phase_index:
            self._last_phase[lid] = light.phase_index
            self._empty_run[lid] = 0
        phase = light.phase
        if phase.kind != "green":
            return 0
        roads, road_order = sim.network.roads, sim.road_order
        occupied = False
        for rid in sim.network.intersections[lid].incoming:
            road = roads[rid]
            if road.approach not in phase.served:
                continue
            order = road_order[rid]
            if order and (road.length - sim.vehicles[order[-1]].position
                          <= DETECTION_DISTANCE):
                occupied = True
                break
        self._empty_run[lid] = 0 if occupied else self._empty_run[lid] + 1
        if light.time_in_phase >= ACTUATED_MAX_GREEN:
            return 1
        return int(self._empty_run[lid] >= ACTUATED_GAP_S)


def phase_pressure(sim, light, phase):
    """Vehicles queued on the phase's served approaches minus the vehicles
    already on their straight continuations."""
    inter = sim.network.intersections[light.intersection]
    total = 0
    for rid in inter.incoming:
        road = sim.network.roads[rid]
        if road.approach not in phase.served:
            continue
        total += len(sim.road_order[rid])
        if road.straight_to:
            total -= len(sim.road_order[road.straight_to])
    return total


def max_pressure_tick(light, sim):
    """Greedy pressure comparison between the two green phases.

    Switches (after the minimum green) only when the alternative green's
    pressure strictly exceeds the current one's; ties keep the phase.
    """
    current = light.phase
    if current.kind != "green" or light.time_in_phase < MIN_GREEN:
        return 0
    alternative = next(p for p in light.phases
                       if p.kind == "green" and p is not current)
    return int(phase_pressure(sim, light, alternative)
               > phase_pressure(sim, light, current))


def _green_windows(light, durations, approach):
    """Next two green windows for the approach, as (start, end) pairs in
    seconds from now. `durations` maps phase index to projected length; the
    current phase is credited with its elapsed time.
    """
    windows = []
    t = 0.0
    idx = light.phase_index
    remaining = max(durations[idx] - light.time_in_phase, 0)
    for _ in range(3 * len(light.phases)):
        phase = light.phases[idx]
        if phase.kind == "green" and approach in phase.served:
            windows.append((t, t + remaining))
            if len(windows) == 2:
                return windows
        t += remaining
        idx = (idx + 1) % len(light.phases)
        remaining = durations[idx]
    raise RuntimeError("no green phase serves this approach")


def _earliest_arrival(v, dist, v_max):
    """Time to cover dist starting at v, accelerating at GLOSA_ACCEL_LIMIT up
    to v_max."""
    if dist <= 0:
        return 0.0
    a = GLOSA_ACCEL_LIMIT
    d_acc = (v_max ** 2 - v ** 2) / (2.0 * a)
    if d_acc >= dist:
        return (-v + (v * v + 2.0 * a * dist) ** 0.5) / a
    return (v_max - v) / a + (dist - d_acc) / v_max


def _advise(v, dist_to_stop, v_star, windows, follow):
    """The advisory rule for one vehicle, given its next two green windows
    and its car-following acceleration `follow`.

    If the vehicle can reach the line within the current green it follows
    the car-following law; otherwise it aims a constant speed
    dist/time-to-next-green, clamped to [0, v*], as accel = clip(v_t - v,
    -3, 3). A real leader always caps the advice at the car-following
    acceleration. `GlosaController.commands` applies this rule to each
    CAV on an approach road.
    """
    now_window, next_window = windows
    limit = GLOSA_ACCEL_LIMIT
    if now_window[0] == 0.0 and _earliest_arrival(v, dist_to_stop, v_star) <= now_window[1]:
        return -limit if follow < -limit else limit if follow > limit else follow
    start = now_window[0] if now_window[0] > 0.0 else next_window[0]
    v_target = dist_to_stop / start
    v_target = 0.0 if v_target < 0.0 else v_target
    v_target = v_star if v_target > v_star else v_target
    advice = v_target - v
    advice = -limit if advice < -limit else limit if advice > limit else advice
    advice = follow if follow < advice else advice
    return -limit if advice < -limit else advice


class GlosaController:
    """Speed advice for every CAV on a signal approach road.

    Runs on top of the actuated plan and projects its greens at max-green
    length, since its gap-outs are not knowable ahead of time. Each step
    makes one `kernels.vehicle_accels` call over every row of the step's
    fleet view (`simulation.ScanView`), with each in-road gap floored at
    1e-6, then walks the view's roads once: each light's projected
    durations are built once, each occupied approach road's green windows
    once, and `_advise` gives each CAV row on it its advice. The view is
    only read: `step` patches its front rows afterwards.
    """

    def commands(self, sim, view):
        # a front row's zero gap is never read: it has no leader
        follow = kernels.vehicle_accels(
            view.speed, view.lead_speed,
            [1e-6 if g < 1e-6 else g for g in view.gap], view.has_lead,
            [road.speed_limit for road in view.roads])
        vehs, roads, speed = view.vehs, view.roads, view.speed
        durations = {lid: [ACTUATED_MAX_GREEN if p.kind == "green"
                           else YELLOW_DURATION for p in light.phases]
                     for lid, light in sim.lights.items()}
        advice = {}
        start = 0
        # each road's rows run from the row after the last road's front to
        # its own front
        for front in view.fronts:
            rows = range(start, front + 1)
            start = front + 1
            road = roads[front]
            lid = road.approach_intersection
            if lid is None:
                continue
            windows = _green_windows(sim.lights[lid], durations[lid],
                                     road.approach)
            for i in rows:
                veh = vehs[i]
                if veh.kind == "CAV":
                    advice[veh.id] = _advise(
                        speed[i], road.length - veh.position,
                        road.speed_limit, windows, follow[i])
        return advice


def make_light_controller(plan):
    """Per-step action map for non-learned lights ('static', 'actuated' or
    'max-pressure')."""
    if plan == "static":
        return lambda sim: {lid: static_tick(light)
                            for lid, light in sim.lights.items()}
    if plan == "actuated":
        actuated = ActuatedController()
        return lambda sim: {lid: actuated.tick(light, sim)
                            for lid, light in sim.lights.items()}
    if plan == "max-pressure":
        return lambda sim: {lid: max_pressure_tick(light, sim)
                            for lid, light in sim.lights.items()}
    raise ValueError(f"unknown light plan {plan!r}")
