"""Non-learned comparison controllers.

Signal plans: a fixed 40/3/40/3 cycle, a gap-out actuated plan, and a greedy
pressure-comparison plan. Speed advisory: a kinematic green-window rule that
aims each equipped vehicle at its predicted next green, never overriding
car-following safety.
"""
from dataclasses import dataclass

from .simulation import (IdmParams, MIN_GREEN, YELLOW_DURATION, build_sim,
                         idm_accel, step)

GLOSA_ACCEL_LIMIT = 3.0


@dataclass(frozen=True)
class StaticPlan:
    """Fixed-cycle durations aligned with the light's phase list."""
    green_s: int = 40
    yellow_s: int = 3

    def duration(self, phase):
        return self.green_s if phase.kind == "green" else self.yellow_s

    @property
    def cycle_length(self):
        return 2 * (self.green_s + self.yellow_s)


def static_tick(light, plan):
    """1 exactly when the current phase's planned duration has elapsed."""
    return int(light.time_in_phase >= plan.duration(light.phase))


@dataclass(frozen=True)
class ActuatedConfig:
    max_green: int = 45
    gap_threshold: int = 3
    detection_distance: float = 50.0

    def __post_init__(self):
        if self.max_green <= MIN_GREEN:
            raise ValueError("max_green must exceed the minimum green time")


class ActuatedController:
    """Gap-out actuation: switch once the served approaches have shown no
    vehicle near the stop line for gap_threshold consecutive seconds, or at
    max_green. Holds one empty-run counter per light."""

    def __init__(self, cfg=None):
        self.cfg = cfg or ActuatedConfig()
        self._empty_run = {}
        self._last_phase = {}

    def tick(self, light, sim):
        lid = light.intersection
        if self._last_phase.get(lid) != light.phase_index:
            self._last_phase[lid] = light.phase_index
            self._empty_run[lid] = 0
        if light.phase.kind != "green":
            return 0
        inter = sim.network.intersections[lid]
        occupied = False
        for rid in inter.incoming:
            road = sim.network.roads[rid]
            if road.approach not in light.phase.served:
                continue
            for vid in sim.road_order.get(rid, []):
                if road.length - sim.vehicles[vid].position <= self.cfg.detection_distance:
                    occupied = True
                    break
            if occupied:
                break
        self._empty_run[lid] = 0 if occupied else self._empty_run[lid] + 1
        if light.time_in_phase >= self.cfg.max_green:
            return 1
        return int(self._empty_run[lid] >= self.cfg.gap_threshold)


def phase_pressure(sim, light, phase):
    """Vehicles queued on the phase's served approaches minus the vehicles
    already on their straight continuations."""
    inter = sim.network.intersections[light.intersection]
    total = 0
    for rid in inter.incoming:
        road = sim.network.roads[rid]
        if road.approach not in phase.served:
            continue
        total += len(sim.road_order.get(rid, []))
        if road.straight_to:
            total -= len(sim.road_order.get(road.straight_to, []))
    return total


def max_pressure_tick(light, sim, min_green=None):
    """Greedy pressure comparison between the two green phases.

    Switches (after the minimum green) only when the alternative green's
    pressure strictly exceeds the current one's; ties keep the phase.
    """
    min_green = light.min_green if min_green is None else min_green
    if light.phase.kind != "green":
        return 0
    if light.time_in_phase < min_green:
        return 0
    greens = [p for p in light.phases if p.kind == "green"]
    current = light.phase
    alternative = next(p for p in greens if p is not current)
    return int(phase_pressure(sim, light, alternative)
               > phase_pressure(sim, light, current))


def _green_windows(light, durations, approach, count=2):
    """Next `count` green windows for the approach, as (start, end) pairs in
    seconds from now. `durations` maps phase index to projected length; the
    current phase is credited with its elapsed time.
    """
    windows = []
    t = 0.0
    idx = light.phase_index
    remaining = max(durations[idx] - light.time_in_phase, 0)
    for _ in range(count * len(light.phases) + len(light.phases)):
        phase = light.phases[idx]
        if phase.kind == "green" and approach in phase.served:
            windows.append((t, t + remaining))
            if len(windows) == count:
                return windows
        t += remaining
        idx = (idx + 1) % len(light.phases)
        remaining = durations[idx]
    raise RuntimeError("no green phase serves this approach")


def _earliest_arrival(v, dist, v_max, a=GLOSA_ACCEL_LIMIT):
    """Time to cover dist starting at v, accelerating at a up to v_max."""
    if dist <= 0:
        return 0.0
    d_acc = (v_max ** 2 - v ** 2) / (2.0 * a)
    if d_acc >= dist:
        return (-v + (v * v + 2.0 * a * dist) ** 0.5) / a
    return (v_max - v) / a + (dist - d_acc) / v_max


def glosa_advice(vehicle, light, dist_to_stop, road, durations,
                 leader=None, idm=None):
    """Target acceleration from the predicted signal schedule.

    If the vehicle can reach the line within the current green it follows the
    car-following law; otherwise it aims a constant speed dist/time-to-next-
    green, clamped to [0, v*], as accel = clip(v_t - v, -3, 3). A real leader
    always caps the advice at the car-following acceleration.
    """
    idm = idm or IdmParams()
    v = vehicle.speed
    v_star = road.speed_limit
    now_window, next_window = _green_windows(light, durations, road.approach)

    if leader is not None:
        follow = idm_accel(v, leader[0], leader[1], v_star, idm)
    else:
        follow = idm_accel(v, None, None, v_star, idm)

    if now_window[0] == 0.0 and _earliest_arrival(v, dist_to_stop, v_star) <= now_window[1]:
        return max(min(follow, GLOSA_ACCEL_LIMIT), -GLOSA_ACCEL_LIMIT)
    start = now_window[0] if now_window[0] > 0.0 else next_window[0]
    v_target = min(max(dist_to_stop / start, 0.0), v_star)
    advice = max(min(v_target - v, GLOSA_ACCEL_LIMIT), -GLOSA_ACCEL_LIMIT)
    return max(min(advice, follow), -GLOSA_ACCEL_LIMIT)


class GlosaController:
    """Speed advice for every signal-approaching vehicle.

    Runs on top of a predictable light plan: exact projection for the static
    plan, a max-green projection for the actuated plan (its gap-outs are not
    knowable ahead of time).
    """

    def __init__(self, lights_plan, static_plan=None, actuated_cfg=None):
        self.static_plan = static_plan or StaticPlan()
        self.actuated_cfg = actuated_cfg or ActuatedConfig()
        if lights_plan == "static":
            self._green = self.static_plan.green_s
        elif lights_plan == "actuated":
            self._green = self.actuated_cfg.max_green
        else:
            raise ValueError("speed advisory requires a static or actuated plan")

    def commands(self, sim):
        out = {}
        for road_id, road in sim.network.roads.items():
            if road.approach_intersection is None:
                continue
            light = sim.lights[road.approach_intersection]
            durations = [self._green if p.kind == "green" else YELLOW_DURATION
                         for p in light.phases]
            order = sim.road_order.get(road_id, [])
            for i, vid in enumerate(order):
                veh = sim.vehicles[vid]
                if veh.kind != "CAV":
                    continue
                if i + 1 < len(order):
                    lead = sim.vehicles[order[i + 1]]
                    leader = (lead.speed, max(lead.position - lead.length
                                              - veh.position, 1e-6))
                else:
                    leader = None
                out[vid] = glosa_advice(veh, light, road.length - veh.position,
                                        road, durations, leader, sim.idm)
        return out


def make_light_controller(plan):
    """Per-step action map for non-learned lights ('static', 'actuated' or
    'max-pressure')."""
    if plan == "static":
        static = StaticPlan()
        return lambda sim: {lid: static_tick(light, static)
                            for lid, light in sim.lights.items()}
    if plan == "actuated":
        actuated = ActuatedController()
        return lambda sim: {lid: actuated.tick(light, sim)
                            for lid, light in sim.lights.items()}
    if plan == "max-pressure":
        return lambda sim: {lid: max_pressure_tick(light, sim)
                            for lid, light in sim.lights.items()}
    raise ValueError(f"unknown light plan {plan!r}")


# baseline method -> light plan; glosa advises on top of the actuated plan
_BASELINE_PLANS = {"baseline-static": "static", "actuated": "actuated",
                   "max-pressure": "max-pressure", "glosa": "actuated"}


class BaselineController:
    """Bundles a light plan and optional speed advisory into one stepper."""

    def __init__(self, method):
        if method not in _BASELINE_PLANS:
            raise ValueError(f"unknown baseline method {method!r}")
        self.method = method
        plan = _BASELINE_PLANS[method]
        self.lights = make_light_controller(plan)
        self.glosa = GlosaController(plan) if method == "glosa" else None

    def new_sim(self, scenario):
        return build_sim(scenario)

    def step(self, sim, trace=None):
        commands = self.glosa.commands(sim) if self.glosa else {}
        return step(sim, self.lights(sim), commands, trace=trace)
