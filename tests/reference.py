"""Every reference form the tests compare the package against, and the
state builders they share (pytest collects only test_*.py). The kernels'
numpy forms take the one power per element in Python: an array `**` can
differ from the C library's `pow` in the last bit. The per-agent
observation forms are the ones the matrix forms replaced, kept verbatim."""
import copy
import dataclasses

import numpy as np

from cotraffic import baselines, kernels, simulation
from cotraffic.baselines import (ACTUATED_GAP_S, ACTUATED_MAX_GREEN,
                                 DETECTION_DISTANCE)
from cotraffic.env import (ACCEL_NORM, COLLISION_REWARD, AgentStep,
                           CooperationMode, cav_reward, tl_reward)
from cotraffic.kernels import (AIR_DENSITY, CMD_ACCEL_MAX, CO2_G_PER_L,
                               DRAG_COEF, EMERGENCY_DECEL, ENGINE_EFFICIENCY,
                               FRONTAL_AREA_M2, FUEL_ENERGY_J_L, GRAVITY,
                               IDLE_FUEL_L_S, IDM_B_COMFORT, ROLLING_COEF,
                               VEHICLE_MASS_KG)
from cotraffic.network import grid_scenario
from cotraffic.simulation import (MIN_GREEN, STOPLINE_GAP_FLOOR,
                                  YELLOW_DURATION, Vehicle, build_sim,
                                  idm_accel, step)


def empty_sim(grid="1x1"):
    scen = grid_scenario(grid, penetration=0.0, seed=1)
    sim = build_sim(scen)
    sim.pending = []  # no scheduled demand; tests place vehicles directly
    return sim


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


def serves(light, approach):
    """Whether the current phase lets the approach arm cross. Reference
    form of the transfer test in `step`'s vehicle loop."""
    return approach in light.phases[light.phase_index].served


def signal_for(light, approach):
    """1.0 green, 0.5 yellow, 0.0 red for the given approach arm.
    Reference form of the approach signal in `env.observe`'s agent rows."""
    phase = light.phases[light.phase_index]
    if approach not in phase.served:
        return 0.0
    return 1.0 if phase.kind == "green" else 0.5


def red_light_virtual_leader(vehicle, light, road):
    """Standing virtual leader at the stop line, or None if free to proceed.

    Green for the vehicle's approach: None. Yellow: stop unless the braking
    needed to reach the line exceeds the comfortable rate (the committed
    vehicle proceeds). Red: always stop. Reference form of the stop-line
    rule in `step`'s front-row loop.
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
    Reference form of `step`'s light loop.
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


def cross_boundary_leader(sim, vehicle, road):
    """(rearmost vehicle on the route's next road, bumper gap across the stop
    line), or None at the route's end or when that road is empty. Reference
    form of the crossing leader in `step`'s front-row loop and in
    `env.observe`'s agent rows."""
    if vehicle.route_index + 1 >= len(vehicle.route):
        return None
    next_order = sim.road_order[vehicle.route[vehicle.route_index + 1]]
    if not next_order:
        return None
    lead = sim.vehicles[next_order[0]]
    return lead, (road.length - vehicle.position) + lead.position - lead.length


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


def ref_vehicle_accels(speed, lead_speed, gap, has_lead, v_limit, a_max,
                       b_comfort, delta, headway, s0):
    two_sqrt_ab = 2.0 * np.sqrt(a_max * b_comfort)
    free = np.array([x ** delta for x in (speed / v_limit).tolist()])
    a = a_max * (1.0 - free)
    safe_gap = np.where(has_lead, gap, 1.0)
    s_star = s0 + speed * headway + speed * (speed - lead_speed) / two_sqrt_ab
    ratio = s_star / safe_gap
    a = a - np.where(has_lead, a_max * (ratio * ratio), 0.0)
    return np.clip(a, -EMERGENCY_DECEL, a_max)


def ref_kinematics(speed, accel, v_limit, dt=1.0):
    new_speed = np.clip(speed + accel * dt, 0.0, v_limit)
    return new_speed, new_speed * dt, (new_speed - speed) / dt


def ref_ttc_events(gap, speed, lead_speed, has_lead, threshold):
    closing = speed - lead_speed
    ok = has_lead & (closing > 0.0) & (gap > 0.0)
    safe = np.where(closing > 0.0, closing, 1.0)
    return int(np.count_nonzero(ok & (gap / safe < threshold)))


def ref_collision_followers(gap, has_lead):
    return has_lead & (gap <= 0.0)


def ref_fuel_co2(speed, accel):
    drag = 0.5 * AIR_DENSITY * DRAG_COEF * FRONTAL_AREA_M2
    roll = VEHICLE_MASS_KG * GRAVITY * ROLLING_COEF
    power = (VEHICLE_MASS_KG * accel * speed + roll * speed
             + drag * (speed * speed * speed))
    fuel = (IDLE_FUEL_L_S
            + np.maximum(power, 0.0) / (ENGINE_EFFICIENCY * FUEL_ENERGY_J_L))
    return fuel, fuel * CO2_G_PER_L


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


def ref_accel_inputs(sim):
    """The `kernels.vehicle_accels` inputs of the rows `step` moves, built
    road by road as (speed, lead_speed, gap, has_lead, v_limit) lists.
    Gaps are floored at 1e-9 by `max`; a road's front row faces its
    stop-line virtual leader, else the tail of its continuation road, else
    nothing (zero gap and leader speed)."""
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
        virtual = (red_light_virtual_leader(front, light, road)
                   if light else None)
        if virtual is None and light is not None:
            tail = cross_boundary_leader(sim, front, road)
            if tail is not None:
                virtual = tail[0].speed, max(tail[1], 1e-9)
        if virtual is None:
            lead_speed[i], gap[i], has_lead[i] = 0.0, 0.0, False
        else:
            lead_speed[i], gap[i] = virtual
    return (speed, lead_speed, gap, has_lead,
            [road.speed_limit for road in roads_of])


def ref_sim_step(sim, tl_actions, commands):
    """What `step(sim, tl_actions, commands)` must leave in the vehicles it
    moves: `ref_accel_inputs` of a copy of `sim` whose lights took the
    actions, then `kernels.vehicle_accels` (a commanded row takes its
    command, clamped to +-CMD_ACCEL_MAX, instead), `ref_kinematics`, the
    stop-line hold and `ref_fuel_co2`. Returns the rows' Vehicles of `sim`
    and their Roads, the expected field columns by name, the masks of the
    rows that arrive, are held at the line and cross onto their next road,
    and the copy's lights after the actions and the step's closing timer
    tick."""
    ref = copy.deepcopy(sim, {id(sim.network): sim.network})
    for light_id, light in ref.lights.items():
        apply_tl_action(light, tl_actions.get(light_id, 0))
    ids = [vid for road_id in ref.network.roads
           for vid in ref.road_order[road_id]]
    rows = [ref.vehicles[vid] for vid in ids]
    roads = [ref.network.roads[veh.road] for veh in rows]
    inputs = ref_accel_inputs(ref)
    accel = np.array(kernels.vehicle_accels(*inputs), dtype=float)
    for i, vid in enumerate(ids):
        if vid in commands:
            accel[i] = np.clip(commands[vid], -CMD_ACCEL_MAX, CMD_ACCEL_MAX)
    speed, v_limit = (np.array(col, dtype=float)
                      for col in (inputs[0], inputs[4]))
    position, fuel_l, co2_g, distance_m = (
        np.array([getattr(veh, name) for veh in rows], dtype=float)
        for name in ("position", "fuel_l", "co2_g", "distance_m"))
    length = np.array([road.length for road in roads], dtype=float)
    route_end = np.array([veh.route_index + 1 >= len(veh.route)
                          for veh in rows], dtype=bool)
    served = np.array([road.approach is None or serves(ref.lights[
        road.approach_intersection], road.approach) for road in roads],
        dtype=bool)

    dt = simulation.DT
    new_speed, dx, eff_accel = ref_kinematics(speed, accel, v_limit, dt)
    x_new = position + dx
    crossing = x_new >= length
    arrive = crossing & route_end
    held = crossing & ~arrive & ~served
    moves = crossing & ~arrive & ~held
    new_speed[held] = 0.0
    eff_accel[held] = -speed[held] / dt
    moved = np.where(arrive | held, length - position, dx)
    want_position = np.where(arrive | held, length,
                             np.where(moves, x_new - length, x_new))
    fuel, co2 = ref_fuel_co2(new_speed, eff_accel)
    want = {"speed": new_speed, "accel": eff_accel,
            "position": want_position, "distance_m": distance_m + moved,
            "fuel_l": fuel_l + fuel * dt, "co2_g": co2_g + co2 * dt}
    for light in ref.lights.values():
        light.time_in_phase += 1
    return ([sim.vehicles[vid] for vid in ids], roads, want, arrive, held,
            moves, ref.lights)


def ref_select_cav_agents(sim, mode):
    selected = []
    for inter in sim.network.intersections.values():
        for road_id in inter.incoming:
            order = sim.road_order.get(road_id, [])
            cavs = [vid for vid in reversed(order)
                    if sim.vehicles[vid].kind == "CAV"]
            if not cavs:
                continue
            if mode is CooperationMode.COTV_STAR:
                selected.extend(cavs)
            else:
                selected.append(cavs[0])
    return selected


def ref_leader_of(sim, vehicle_id):
    veh = sim.vehicles[vehicle_id]
    order = sim.road_order[veh.road]
    idx = order.index(vehicle_id)
    if idx + 1 >= len(order):
        return cross_boundary_leader(sim, veh, sim.network.roads[veh.road])
    lead = sim.vehicles[order[idx + 1]]
    return lead, lead.position - lead.length - veh.position


def ref_tl_observation(sim, light, mode, c, prev_commands=None):
    inter = sim.network.intersections[light.intersection]
    n_in = len(inter.incoming)
    obs = [light.phase_index / len(light.phases)]
    for rid in inter.incoming:
        obs.append(len(sim.road_order.get(rid, [])) / c)
    for rid in inter.outgoing:
        obs.append(len(sim.road_order.get(rid, [])) / c)
    for slot, rid in enumerate(inter.incoming):
        one_hot = [0.0] * n_in
        one_hot[slot] = 1.0
        if mode is CooperationMode.I_COTV:
            obs.extend([0.0, 0.0, 0.0] + [0.0] * n_in)
            continue
        road = sim.network.roads[rid]
        order = sim.road_order.get(rid, [])
        if order:
            veh = sim.vehicles[order[-1]]
            obs.extend([veh.speed / road.speed_limit,
                        veh.accel / ACCEL_NORM,
                        (road.length - veh.position) / road.length])
        else:
            obs.extend([0.0, 0.0, 1.0])
        obs.extend(one_hot)
    if mode is CooperationMode.M_COTV:
        prev_commands = prev_commands or {}
        for rid in inter.incoming:
            obs.append(prev_commands.get(rid, 0.0) / ACCEL_NORM)
    return np.asarray(obs, dtype=np.float64)


def ref_cav_observation(sim, vehicle_id, mode, prev_tl_action=None):
    veh = sim.vehicles[vehicle_id]
    road = sim.network.roads[veh.road]
    v_star = road.speed_limit
    lead = ref_leader_of(sim, vehicle_id)
    if lead is not None:
        lead_veh, gap = lead
        lead_block = [lead_veh.speed / v_star, lead_veh.accel / ACCEL_NORM,
                      max(gap, 0.0) / road.length]
    else:
        lead_block = [0.0, 0.0, 1.0]
    dist = (road.length - veh.position) / road.length
    if mode is CooperationMode.I_COTV or road.approach_intersection is None:
        signal = 0.0
    else:
        light = sim.lights[road.approach_intersection]
        signal = signal_for(light, road.approach)
    obs = ([veh.speed / v_star, veh.accel / ACCEL_NORM] + lead_block
           + [dist, signal])
    if mode is CooperationMode.M_COTV:
        obs.append(float(prev_tl_action or 0))
    return np.asarray(obs, dtype=np.float64)


def ref_env_step(env, tl_policy, cav_policy, rng):
    """`TrafficEnv.step` with sampled actions, over the per-agent forms."""
    sim, cfg = env.sim, env.cfg
    records = []
    lids = list(sim.lights)
    obs = np.array([ref_tl_observation(sim, sim.lights[lid], cfg.mode, env.c,
                                       env._prev_cmd_by_road)
                    for lid in lids])
    actions, logps, values = tl_policy.act(obs, rng, True)
    tl_actions = {}
    for lid, row, action, logp, value in zip(
            lids, obs, actions, logps, values):
        tl_actions[lid] = action
        records.append(AgentStep(lid, "TL", row, float(action), logp, value,
                                 t=sim.clock))
    cav_actions, cav_records, cmd_road = {}, {}, {}
    vids = ref_select_cav_agents(sim, cfg.mode)
    if vids:
        roads = [sim.vehicles[vid].road for vid in vids]
        obs = np.array([
            ref_cav_observation(sim, vid, cfg.mode, env._prev_tl_action.get(
                sim.network.roads[road].approach_intersection, 0))
            for vid, road in zip(vids, roads)])
        actions, logps, values = cav_policy.act(obs, rng, True)
        for vid, road, row, action, logp, value in zip(
                vids, roads, obs, actions, logps, values):
            cav_actions[vid] = action
            cmd_road[vid] = road
            rec = AgentStep(vid, "CAV", row, action, logp, value, t=sim.clock)
            records.append(rec)
            cav_records[vid] = rec
    completed_before = len(sim.completed)
    step(sim, tl_actions, cav_actions)
    for rec in records:
        if rec.agent_type == "TL":
            rec.reward = tl_reward(sim, sim.lights[rec.agent_id], env.c)
    if cav_records:
        arrived = {t.vehicle_id for t in sim.completed[completed_before:]}
        still_selected = set(ref_select_cav_agents(sim, cfg.mode))
        for vid, rec in cav_records.items():
            if vid not in sim.vehicles:
                rec.reward = 0.0 if vid in arrived else COLLISION_REWARD
                rec.done = True
                continue
            rec.reward = cav_reward(sim, vid)
            rec.done = vid not in still_selected
    env._prev_tl_action = {lid: tl_actions.get(lid, 0) for lid in sim.lights}
    env._prev_cmd_by_road = {cmd_road[vid]: cmd
                             for vid, cmd in cav_actions.items()}
    return records


class ScanningActuated:
    """Reference for `ActuatedController`: the same gap-out plan, but a
    served road counts as occupied when any of its vehicles, scanned from
    the rear, is within DETECTION_DISTANCE of the line."""

    def __init__(self):
        self.empty_run = {}
        self.last_phase = {}

    def tick(self, light, sim):
        lid = light.intersection
        if self.last_phase.get(lid) != light.phase_index:
            self.last_phase[lid] = light.phase_index
            self.empty_run[lid] = 0
        phase = light.phase
        if phase.kind != "green":
            return 0
        occupied = False
        for rid in sim.network.intersections[lid].incoming:
            road = sim.network.roads[rid]
            if road.approach not in phase.served:
                continue
            for vid in sim.road_order[rid]:
                if (road.length - sim.vehicles[vid].position
                        <= DETECTION_DISTANCE):
                    occupied = True
                    break
            if occupied:
                break
        self.empty_run[lid] = 0 if occupied else self.empty_run[lid] + 1
        if light.time_in_phase >= ACTUATED_MAX_GREEN:
            return 1
        return int(self.empty_run[lid] >= ACTUATED_GAP_S)


def glosa_advice(vehicle, light, dist_to_stop, road, durations, leader=None):
    """Reference for `GlosaController.commands`: the advisory for one
    vehicle, with its car-following acceleration from the scalar
    `idm_accel`. `leader` is (speed, gap) or None."""
    v = vehicle.speed
    v_star = road.speed_limit
    if leader is not None:
        follow = idm_accel(v, leader[0], leader[1], v_star)
    else:
        follow = idm_accel(v, None, None, v_star)
    return baselines._advise(
        v, dist_to_stop, v_star,
        baselines._green_windows(light, durations, road.approach), follow)


def ref_advice(sim):
    """Reference for `GlosaController.commands`: `glosa_advice` for each CAV
    of each approach road, rear to front, with the in-road leader's gap
    floored at 1e-6."""
    want = {}
    for road_id, road in sim.network.roads.items():
        if road.approach_intersection is None:
            continue
        light = sim.lights[road.approach_intersection]
        durations = [ACTUATED_MAX_GREEN if p.kind == "green"
                     else YELLOW_DURATION for p in light.phases]
        order = sim.road_order[road_id]
        for i, vid in enumerate(order):
            veh = sim.vehicles[vid]
            if veh.kind != "CAV":
                continue
            leader = None
            if i + 1 < len(order):
                lead = sim.vehicles[order[i + 1]]
                leader = (lead.speed, max(lead.position - lead.length
                                          - veh.position, 1e-6))
            want[vid] = glosa_advice(veh, light, road.length - veh.position,
                                     road, durations, leader)
    return want
