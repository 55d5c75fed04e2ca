"""Multi-agent layer over the micro-simulator.

Every value the agents exchange or are scored on is a property of one
incoming road of a signalized intersection. `observe` makes one pass over
those roads of a state and yields the vehicle agents, the observation
matrices (one row per agent) that stand in for the V2X state exchange,
each light's normalized-pressure reward and the reward of each agent's
road: the speed deficit and positive-acceleration norm of its traffic.
`TrafficEnv` routes the sampled actions into the simulator, then observes
the state it moved to once.

`select_cav_agents`, `tl_observation`, `cav_observation`, `tl_reward` and
`cav_reward` are the per-quantity reference forms of that pass, kept for
the tests and the span tracer; `TrafficEnv` calls only `cav_reward`, for an
agent that left the incoming roads.

Cooperation modes:
  COTV       state exchange, closest connected vehicle per incoming road
  COTV_STAR  state exchange, every connected vehicle on the incoming roads
  I_COTV     no exchanged state (vehicle blocks zeroed, signal entry zeroed)
  M_COTV     COTV plus the other agent type's previous action as state
"""
import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baselines import GlosaController, make_light_controller
from .simulation import (MIN_GAP, VEHICLE_LENGTH, _cross_boundary_leader,
                         build_sim, scan_view, step)

ACCEL_NORM = 3.0       # commanded-acceleration scale used for normalization
A_STAR = 9.0          # acceleration normalizer in the vehicle reward
COLLISION_REWARD = -2.0  # terminal reward when an acting vehicle is removed


class CooperationMode(enum.Enum):
    COTV = "cotv"
    COTV_STAR = "cotv-star"
    I_COTV = "i-cotv"
    M_COTV = "m-cotv"


@dataclass(frozen=True)
class EnvConfig:
    """`tl_plan` names the non-learned plan that drives the lights
    ('static', 'actuated' or 'max-pressure') and `cav_plan` the one that
    drives the connected vehicles ('idm', the car-following law alone, or
    'glosa', the speed advisory); None makes them agents."""
    mode: CooperationMode = CooperationMode.COTV
    tl_plan: str = None
    cav_plan: str = None


def max_road_capacity(network):
    """Vehicles that fit on the longest road at minimum spacing."""
    c = int(math.floor(network.max_road_length / (VEHICLE_LENGTH + MIN_GAP)))
    if c < 1:
        raise ValueError("road too short to hold a single vehicle")
    return c


def select_cav_agents(sim, mode):
    """Vehicle agents for this step as (vehicle id, index in its road's
    `road_order`) pairs, in deterministic road-scan order. Reference form of
    `observe`'s agent list.

    Per signalized intersection and incoming road, walking from the stop
    line back: the closest CAV, or every CAV in the COTV_STAR mode. A road
    feeds one intersection, so no vehicle repeats.
    """
    vehicles = sim.vehicles
    star = mode is CooperationMode.COTV_STAR
    selected = []
    for inter in sim.network.intersections.values():
        for road_id in inter.incoming:
            order = sim.road_order[road_id]
            for j in range(len(order) - 1, -1, -1):
                vid = order[j]
                if vehicles[vid].kind == "CAV":
                    selected.append((vid, j))
                    if not star:
                        break
    return selected


def tl_obs_dim(network, mode):
    dims = set()
    for inter in network.intersections.values():
        n_in, n_out = len(inter.incoming), len(inter.outgoing)
        d = 1 + n_in + n_out + n_in * (3 + n_in)
        if mode is CooperationMode.M_COTV:
            d += n_in
        dims.add(d)
    if len(dims) != 1:
        raise ValueError("intersections disagree on observation size")
    return dims.pop()


def cav_obs_dim(mode):
    return 8 if mode is CooperationMode.M_COTV else 7


@functools.lru_cache(maxsize=None)
def _slot_one_hots(n_in):
    """The road-slot one-hot of each of n_in incoming-road slots."""
    return tuple(tuple(1.0 if k == slot else 0.0 for k in range(n_in))
                 for slot in range(n_in))


def tl_observation(sim, mode, c, prev_commands):
    """Signal-agent state matrix, one row per light in `sim.lights` order.
    Reference form of `observe`'s signal matrix.

    Row layout: [phase/nphases] then one vehicle-count slot per incoming and
    per outgoing road (normalized by the road capacity c), then one block per
    incoming road for its closest vehicle: [speed/v*, accel/3, distance/len,
    road-slot one-hot]. Empty road sentinel: [0, 0, 1, one-hot]. I_COTV
    zeroes the vehicle blocks; M_COTV appends the previous commanded
    acceleration (over 3) of the acting vehicle on each incoming road
    (`prev_commands`, road id -> command), sentinel 0.
    """
    roads, intersections = sim.network.roads, sim.network.intersections
    road_order, vehicles = sim.road_order, sim.vehicles
    ablated = mode is CooperationMode.I_COTV
    rows = []
    for light in sim.lights.values():
        inter = intersections[light.intersection]
        n_in = len(inter.incoming)
        row = [light.phase_index / len(light.phases)]
        row += [len(road_order[rid]) / c for rid in inter.incoming]
        row += [len(road_order[rid]) / c for rid in inter.outgoing]
        if ablated:
            row += [0.0] * (n_in * (3 + n_in))
        else:
            for rid, one_hot in zip(inter.incoming, _slot_one_hots(n_in)):
                order = road_order[rid]
                if order:
                    road = roads[rid]
                    veh = vehicles[order[-1]]  # highest position = closest
                    row += [veh.speed / road.speed_limit,
                            veh.accel / ACCEL_NORM,
                            (road.length - veh.position) / road.length]
                else:
                    row += [0.0, 0.0, 1.0]
                row += one_hot
        if mode is CooperationMode.M_COTV:
            row += [prev_commands.get(rid, 0.0) / ACCEL_NORM
                    for rid in inter.incoming]
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def cav_observation(sim, agents, mode, prev_tl_action):
    """Vehicle-agent state matrix, one row per (vehicle id, road index) pair
    of `select_cav_agents`. Reference form of `observe`'s vehicle matrix.

    Row layout: [own speed/v*, own accel/3, leader speed/v*, leader accel/3,
    gap/road length (1 when no leader), distance-to-intersection/road length,
    signal for own approach in {1 green, 0.5 yellow, 0 red}]. The leader is
    the next vehicle in the road's order; a road's front vehicle sees the
    tail of its next route road, with the gap measured across the stop line.
    I_COTV pins the signal entry at 0; M_COTV appends the previous action bit
    of the approached light (`prev_tl_action`, light id -> action).
    """
    roads, vehicles = sim.network.roads, sim.vehicles
    road_order = sim.road_order
    ablated = mode is CooperationMode.I_COTV
    rows = []
    for vid, j in agents:
        veh = vehicles[vid]
        road = roads[veh.road]
        order = road_order[veh.road]
        v_star = road.speed_limit
        if j + 1 < len(order):
            lead = vehicles[order[j + 1]]
            ahead = lead, lead.position - lead.length - veh.position
        else:
            ahead = _cross_boundary_leader(sim, veh, road)
        row = [veh.speed / v_star, veh.accel / ACCEL_NORM]
        if ahead is None:
            row += [0.0, 0.0, 1.0]
        else:
            lead, gap = ahead
            row += [lead.speed / v_star, lead.accel / ACCEL_NORM,
                    max(gap, 0.0) / road.length]
        row.append((road.length - veh.position) / road.length)
        inter_id = road.approach_intersection
        if ablated or inter_id is None:
            row.append(0.0)
        else:
            row.append(sim.lights[inter_id].signal_for(road.approach))
        if mode is CooperationMode.M_COTV:
            row.append(float(prev_tl_action.get(inter_id, 0)))
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def tl_reward(sim, light, c=None):
    """Negative intersection pressure over the road capacity. Reference form
    of `observe`'s pressures."""
    c = c if c is not None else max_road_capacity(sim.network)
    inter = sim.network.intersections[light.intersection]
    road_order = sim.road_order
    n_in = sum([len(road_order[r]) for r in inter.incoming])
    n_out = sum([len(road_order[r]) for r in inter.outgoing])
    return -(n_in - n_out) / c


def cav_reward(sim, vehicle_id):
    """Speed-deficit plus positive-acceleration penalty over the agent's road.

    Both terms cover every vehicle K on the road: the mean deficit of speed
    from the limit (speeds capped at the limit), and the root of the summed
    squared positive accelerations (each over A_STAR) divided by |K| squared.
    Both terms live in [-1, 0]; negative accelerations are clipped to zero.
    Reference form of `observe`'s road rewards, with which it shares the
    member loop (`_road_reward`), and what `TrafficEnv` scores an agent with
    when it has left the incoming roads.
    """
    vehicles = sim.vehicles
    veh = vehicles[vehicle_id]
    road = sim.network.roads[veh.road]
    members = sim.road_order[veh.road]
    if not members:
        raise ValueError("reward undefined for an empty road")
    return _road_reward(vehicles, members, road.speed_limit)


class Observation(NamedTuple):
    """What `observe` reads off one state."""
    agents: list          # (vehicle id, road index) pairs: select_cav_agents
    tl_obs: np.ndarray    # tl_observation
    cav_obs: np.ndarray   # cav_observation of `agents`
    pressures: list       # tl_reward of each light, in sim.lights order
    road_rewards: dict    # road id -> cav_reward of the vehicles on it


def incoming_layout(network):
    """The static part of `observe`'s pass, one entry per intersection in
    network order, which is `sim.lights` order: (light id, incoming roads,
    outgoing road ids, I_COTV zero block). An incoming road is (id, Road,
    length, speed limit, approached light, approach arm, slot one-hot)."""
    layout = []
    for inter in network.intersections.values():
        n_in = len(inter.incoming)
        incoming = []
        for rid, one_hot in zip(inter.incoming, _slot_one_hots(n_in)):
            road = network.roads[rid]
            incoming.append((rid, road, road.length, road.speed_limit,
                             road.approach_intersection, road.approach,
                             one_hot))
        layout.append((inter.id, tuple(incoming), inter.outgoing,
                       (0.0,) * (n_in * (3 + n_in))))
    return tuple(layout)


def _road_reward(vehicles, members, v_star):
    """`cav_reward` of any vehicle among a road's non-empty `members`."""
    k = len(members)
    deficit = 0.0
    accel_sq = 0.0
    for vid in members:
        other = vehicles[vid]
        # min(speed, v_star) and max(accel, 0.0), written out: the builtin
        # calls cost as much as the rest of this per-member loop
        speed, accel = other.speed, other.accel
        deficit += (v_star - (v_star if v_star < speed else speed)) / v_star
        a_pos = 0.0 if 0.0 > accel else accel
        accel_sq += (a_pos / A_STAR) ** 2
    r1 = -deficit / k
    r2 = -math.sqrt(accel_sq / (k * k))
    return r1 + r2


def observe(sim, layout, mode, c, prev_commands, prev_tl_action,
            reward_roads=()):
    """One pass over the incoming roads of `sim`'s state (`layout`, from
    `incoming_layout`); returns the Observation the reference forms give,
    bit for bit, with each quantity's arithmetic written as they write it.

    Per intersection, each incoming road is read once for its count, its
    closest-vehicle block and, walking from the stop line back, its vehicle
    agents and their rows. The road's reward is computed when it is in
    `reward_roads`. `prev_commands` and `prev_tl_action` are the M_COTV
    previous-action maps of `tl_observation` and `cav_observation`.
    """
    vehicles, road_order, lights = sim.vehicles, sim.road_order, sim.lights
    star = mode is CooperationMode.COTV_STAR
    ablated = mode is CooperationMode.I_COTV
    m_cotv = mode is CooperationMode.M_COTV
    # both matrices are filled row after row into one flat list each
    agents, tl_flat, cav_flat, pressures, road_rewards = [], [], [], [], {}
    for light_id, incoming, outgoing, zero_block in layout:
        light = lights[light_id]
        tl_flat.append(light.phase_index / len(light.phases))
        blocks = []
        n_in = 0
        for rid, road, length, v_star, approached, arm, one_hot in incoming:
            order = road_order[rid]
            k = len(order)
            n_in += k
            tl_flat.append(k / c)
            if not k:
                if not ablated:
                    blocks += (0.0, 0.0, 1.0)
                    blocks += one_hot
                continue
            if not ablated:
                front = vehicles[order[-1]]  # highest position = closest
                blocks += (front.speed / v_star, front.accel / ACCEL_NORM,
                           (length - front.position) / length)
                blocks += one_hot
            signal = None
            for j in range(k - 1, -1, -1):
                vid = order[j]
                veh = vehicles[vid]
                if veh.kind != "CAV":
                    continue
                if signal is None:
                    signal = (0.0 if ablated or approached is None
                              else lights[approached].signal_for(arm))
                    prev_action = float(prev_tl_action.get(approached, 0))
                if j + 1 < k:
                    lead = vehicles[order[j + 1]]
                    ahead = lead, lead.position - lead.length - veh.position
                else:
                    ahead = _cross_boundary_leader(sim, veh, road)
                if ahead is None:
                    lead_block = (0.0, 0.0, 1.0)
                else:
                    lead, gap = ahead
                    lead_block = (lead.speed / v_star, lead.accel / ACCEL_NORM,
                                  max(gap, 0.0) / length)
                cav_flat += (veh.speed / v_star, veh.accel / ACCEL_NORM,
                             *lead_block, (length - veh.position) / length,
                             signal)
                if m_cotv:
                    cav_flat.append(prev_action)
                agents.append((vid, j))
                if not star:
                    break
            if rid in reward_roads:
                road_rewards[rid] = _road_reward(vehicles, order, v_star)
        n_out = 0
        for rid in outgoing:
            k = len(road_order[rid])
            n_out += k
            tl_flat.append(k / c)
        tl_flat += zero_block if ablated else blocks
        if m_cotv:
            tl_flat += [prev_commands.get(entry[0], 0.0) / ACCEL_NORM
                        for entry in incoming]
        pressures.append(-(n_in - n_out) / c)
    tl_obs = np.array(tl_flat, dtype=np.float64).reshape(len(layout), -1)
    cav_obs = np.array(cav_flat, dtype=np.float64)
    if agents:  # with none, the 1-d empty array `cav_observation` gives
        cav_obs = cav_obs.reshape(len(agents), -1)
    return Observation(agents, tl_obs, cav_obs, pressures, road_rewards)


@dataclass
class AgentStep:
    agent_id: str
    agent_type: str        # "TL" | "CAV"
    obs: np.ndarray
    action: float
    log_prob: float
    value: float
    reward: float = 0.0
    done: bool = False
    t: int = 0


class TrafficEnv:
    """Owns one SimState and the per-step agent bookkeeping.

    `step` acts, moves the simulator, then observes the state it moved to
    once (`observe`): that one pass yields the next step's vehicle agents
    and both observation matrices, and scores this step's agents. Each
    agent type's policy gets all its actions in one forward over its
    matrix, and `step` returns one AgentStep per acting agent. A vehicle
    agent leaving the selected set (crossed the line, displaced, removed,
    or arrived) has done=True on its final record; signal agents are closed
    by the rollout loop at the horizon. Only `step` and `reset` may change
    `sim`: a step acts on the observation that the previous step made after
    it moved the simulator, and the simulator starts from the fleet view
    that the previous step returned. `reset` builds the configured light
    plan afresh, since the actuated plan keeps per-light state, and checks
    the vehicle plan.
    """

    def __init__(self, scenario, cfg):
        self.scenario = scenario
        self.cfg = cfg
        self.c = max_road_capacity(scenario.network)
        self._layout = incoming_layout(scenario.network)
        self.sim = None
        self._light_plan = None
        self._advisory = None
        self._prev_tl_action = {}
        self._prev_cmd_by_road = {}
        # the observation and the fleet view of the state the last step
        # left, which are this step's: nothing moves the simulator between
        # steps
        self._seen = None
        self._view = None

    def reset(self):
        self.sim = build_sim(self.scenario)
        cfg = self.cfg
        if cfg.cav_plan not in (None, "idm", "glosa"):
            raise ValueError(f"unknown vehicle plan {cfg.cav_plan!r}")
        self._light_plan = (make_light_controller(cfg.tl_plan)
                            if cfg.tl_plan is not None else None)
        self._advisory = GlosaController() if cfg.cav_plan == "glosa" else None
        self._prev_tl_action = {}
        self._prev_cmd_by_road = {}
        self._seen = None
        self._view = None
        return self.sim

    def step(self, tl_policy=None, cav_policy=None, rng=None, sample=True,
             trace=None):
        """Advance one second; returns the acting agents' AgentSteps.

        The lights follow the configured plan if there is one, else the
        signal policy if given, and otherwise get no switch. The vehicles
        follow the advisory under the 'glosa' plan; vehicle agents act when
        the configuration has them and a vehicle policy is given. Each agent
        type makes at most one `act` call per step, on the matrix of its
        agents' observations; row i of that matrix is the `obs` of the type's
        i-th record. A step with no selected vehicle makes no vehicle call
        and draws nothing from `rng`.

        Order: act on the current observation, move the simulator, update
        the M_COTV previous-action maps (the next observation reads them),
        then observe the new state once. The signal rewards are that
        observation's pressures, and a vehicle agent's reward is its road's
        (`cav_reward` when its road is not an incoming one). A step in which
        no agent type acts observes nothing; the next step that has agents
        observes before it acts, as the first step after `reset` does.
        """
        sim = self.sim
        cfg = self.cfg
        # only M_COTV observes the other agent type's previous actions
        m_cotv = cfg.mode is CooperationMode.M_COTV
        selecting = cfg.cav_plan is None and cav_policy is not None
        observing = selecting or (self._light_plan is None
                                  and tl_policy is not None)
        seen = self._seen
        if observing and seen is None:
            seen = observe(sim, self._layout, cfg.mode, self.c,
                           self._prev_cmd_by_road, self._prev_tl_action)
        records = []

        tl_actions = {}
        if self._light_plan is not None:
            tl_actions = self._light_plan(sim)
        elif tl_policy is not None:
            obs = seen.tl_obs
            actions, logps, values = tl_policy.act(obs, rng, sample)
            for lid, row, action, logp, value in zip(
                    sim.lights, obs, actions, logps, values):
                tl_actions[lid] = action
                records.append(AgentStep(lid, "TL", row, float(action),
                                         logp, value, t=sim.clock))
        n_tl = len(records)

        cav_actions = {}
        cav_records = {}
        cmd_road = {}
        agents = seen.agents if selecting else ()
        if agents:
            obs = seen.cav_obs
            actions, logps, values = cav_policy.act(obs, rng, sample)
            for (vid, _), row, action, logp, value in zip(
                    agents, obs, actions, logps, values):
                cav_actions[vid] = action
                if m_cotv:
                    cmd_road[vid] = sim.vehicles[vid].road
                rec = AgentStep(vid, "CAV", row, action, logp, value,
                                t=sim.clock)
                records.append(rec)
                cav_records[vid] = rec
        if self._advisory is not None:
            if self._view is None:
                self._view = scan_view(sim)
            cav_actions = self._advisory.commands(sim, self._view)

        completed_before = len(sim.completed)
        self._view = step(sim, tl_actions, cav_actions, trace=trace,
                          view=self._view)
        if m_cotv:
            self._prev_tl_action = {lid: tl_actions.get(lid, 0)
                                    for lid in sim.lights}
            self._prev_cmd_by_road = {road: cav_actions[vid]
                                      for vid, road in cmd_road.items()}
        if not observing:
            self._seen = None
            return records

        vehicles = sim.vehicles
        reward_roads = {vehicles[vid].road for vid in cav_records
                        if vid in vehicles}
        seen = self._seen = observe(sim, self._layout, cfg.mode, self.c,
                                    self._prev_cmd_by_road,
                                    self._prev_tl_action, reward_roads)
        for rec, pressure in zip(records[:n_tl], seen.pressures):
            rec.reward = pressure
        if cav_records:
            arrived = {t.vehicle_id for t in sim.completed[completed_before:]}
            still_selected = {vid for vid, _ in seen.agents}
            road_rewards = seen.road_rewards
            for vid, rec in cav_records.items():
                veh = vehicles.get(vid)
                if veh is None:
                    # arrived agents exit cleanly; removed ones were collided
                    rec.reward = 0.0 if vid in arrived else COLLISION_REWARD
                    rec.done = True
                    continue
                reward = road_rewards.get(veh.road)
                rec.reward = (reward if reward is not None
                              else cav_reward(sim, vid))
                rec.done = vid not in still_selected
        return records
