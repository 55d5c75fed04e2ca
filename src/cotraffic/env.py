"""Multi-agent layer over the micro-simulator.

Builds the observation matrices (one row per agent) that stand in for the
V2X state exchange, routes sampled actions into the simulator, and scores
both agent types: signal agents by normalized intersection pressure,
vehicle agents by the speed deficit and positive-acceleration norm of their
road's traffic.

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
    `road_order`) pairs, in deterministic road-scan order.

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
    of `select_cav_agents`.

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
    """Negative intersection pressure over the road capacity."""
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
    """
    vehicles = sim.vehicles
    veh = vehicles[vehicle_id]
    road = sim.network.roads[veh.road]
    members = sim.road_order[veh.road]
    if not members:
        raise ValueError("reward undefined for an empty road")
    v_star = road.speed_limit
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

    `step` builds the observations of all signal agents as one matrix and
    those of the selected vehicle agents as another, asks each type's policy
    for all its actions in one forward, advances the simulator, scores the
    post-transition state, and returns one AgentStep per acting agent. A
    vehicle agent leaving the selected set (crossed the line, displaced,
    removed, or arrived) has done=True on its final record; signal agents are
    closed by the rollout loop at the horizon. Only `step` and `reset` may
    change `sim`: a step's vehicle agents are the selection that the
    previous step made after it moved the simulator, and the simulator
    starts from the fleet view that the previous step returned. `reset`
    builds the configured light plan afresh, since the actuated plan keeps
    per-light state, and checks the vehicle plan.
    """

    def __init__(self, scenario, cfg):
        self.scenario = scenario
        self.cfg = cfg
        self.c = max_road_capacity(scenario.network)
        self.sim = None
        self._light_plan = None
        self._advisory = None
        self._prev_tl_action = {}
        self._prev_cmd_by_road = {}
        # the selection and the fleet view of the state the last step left,
        # which are this step's: nothing moves the simulator between steps
        self._next_agents = None
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
        self._next_agents = None
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
        """
        sim = self.sim
        cfg = self.cfg
        # only M_COTV observes the other agent type's previous actions
        m_cotv = cfg.mode is CooperationMode.M_COTV
        records = []

        tl_actions = {}
        if self._light_plan is not None:
            tl_actions = self._light_plan(sim)
        elif tl_policy is not None:
            obs = tl_observation(sim, cfg.mode, self.c, self._prev_cmd_by_road)
            actions, logps, values = tl_policy.act(obs, rng, sample)
            for lid, row, action, logp, value in zip(
                    sim.lights, obs, actions, logps, values):
                tl_actions[lid] = action
                records.append(AgentStep(lid, "TL", row, float(action),
                                         logp, value, t=sim.clock))

        cav_actions = {}
        cav_records = {}
        cmd_road = {}
        selecting = cfg.cav_plan is None and cav_policy is not None
        agents = []
        if selecting:
            agents = self._next_agents
            if agents is None:
                agents = select_cav_agents(sim, cfg.mode)
        if agents:
            obs = cav_observation(sim, agents, cfg.mode, self._prev_tl_action)
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
        self._next_agents = (select_cav_agents(sim, cfg.mode) if selecting
                             else None)

        for rec in records:
            if rec.agent_type == "TL":
                rec.reward = tl_reward(sim, sim.lights[rec.agent_id], self.c)
        if cav_records:
            arrived = {t.vehicle_id for t in sim.completed[completed_before:]}
            still_selected = {vid for vid, _ in self._next_agents}
            for vid, rec in cav_records.items():
                if vid not in sim.vehicles:
                    # arrived agents exit cleanly; removed ones were collided
                    rec.reward = 0.0 if vid in arrived else COLLISION_REWARD
                    rec.done = True
                    continue
                rec.reward = cav_reward(sim, vid)
                rec.done = vid not in still_selected

        if m_cotv:
            self._prev_tl_action = {lid: tl_actions.get(lid, 0)
                                    for lid in sim.lights}
            self._prev_cmd_by_road = {road: cav_actions[vid]
                                      for vid, road in cmd_road.items()}
        return records

