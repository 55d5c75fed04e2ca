"""Multi-agent layer over the micro-simulator.

Every value the agents exchange is a property of one incoming road of a
signalized intersection. `observe` makes one pass over those roads of a
state and yields the vehicle agents with their roads, the observation
matrices (one row per agent) that stand in for the V2X state exchange, and
each light's normalized-pressure reward. `TrafficEnv` routes the sampled
actions into the simulator, observes the state it moved to once, and scores
each vehicle agent with `cav_reward`: the speed deficit and
positive-acceleration norm of the traffic on its road.

`select_cav_agents`, `tl_observation` and `cav_observation` each return one
field of `observe`: the span tracer looks them up by name, and unit tests
read one field each. The pass's per-agent reference forms live in
tests/reference.py.

Cooperation modes:
  COTV       state exchange, closest connected vehicle per incoming road
  COTV_STAR  state exchange, every connected vehicle on the incoming roads
  I_COTV     no exchanged state (vehicle blocks zeroed, signal entry zeroed)
  M_COTV     COTV plus the other agent type's previous action as state
"""
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baselines import GlosaController, make_light_controller
from .network import MIN_GAP, VEHICLE_LENGTH
from .simulation import build_sim, scan_view, step

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

    @property
    def learned(self):
        """The agent types whose plan is None, "tl" before "cav"."""
        return tuple(kind for kind, plan in (("tl", self.tl_plan),
                     ("cav", self.cav_plan)) if plan is None)


def max_road_capacity(network):
    """Vehicles that fit on the longest road at minimum spacing. At least
    one: `build_grid` refuses a road too short to hold one."""
    longest = max(road.length for road in network.roads.values())
    return int(math.floor(longest / (VEHICLE_LENGTH + MIN_GAP)))


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
    `TrafficEnv` scores every vehicle agent with it, once per road.
    """
    vehicles = sim.vehicles
    road_id = vehicles[vehicle_id].road
    members = sim.road_order[road_id]
    if not members:
        raise ValueError("reward undefined for an empty road")
    v_star = sim.network.roads[road_id].speed_limit
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


class Observation(NamedTuple):
    """What `observe` reads off one state.

    Signal row: [phase/nphases], one vehicle count per incoming and outgoing
    road over the road capacity c, then per incoming road its closest
    vehicle's [speed/v*, accel/3, distance/len] ([0, 0, 1] if empty) and
    road-slot one-hot; I_COTV zeroes these blocks, M_COTV appends each
    incoming road's previous command over 3 (0 if none). Vehicle row: [own
    speed/v*, own accel/3, leader speed/v*, leader accel/3, gap/len (floored
    at 0; 1 with no leader), distance-to-intersection/len, approach signal
    in {1 green, 0.5 yellow, 0 red}]; a road's front vehicle leads on the
    tail of its next route road. I_COTV pins the signal at 0; M_COTV appends
    the approached light's previous action.
    """
    agents: list          # (vehicle id, road id) pairs, road-scan order
    tl_obs: np.ndarray    # one signal row per light, in sim.lights order
    cav_obs: np.ndarray   # one vehicle row per agent, 1-d empty if none
    pressures: list       # tl_reward of each light, in sim.lights order


def incoming_layout(network):
    """The static part of `observe`'s pass, one entry per intersection in
    network order, which is `sim.lights` order: (light id, incoming roads,
    outgoing road ids, I_COTV zero block). An incoming road of the entry's
    light is (id, length, speed limit, approach arm, slot one-hot)."""
    layout = []
    for inter in network.intersections.values():
        n_in = len(inter.incoming)
        incoming = []
        for slot, rid in enumerate(inter.incoming):
            one_hot = tuple(1.0 if k == slot else 0.0 for k in range(n_in))
            road = network.roads[rid]
            incoming.append((rid, road.length, road.speed_limit,
                             road.approach, one_hot))
        layout.append((inter.id, tuple(incoming), inter.outgoing,
                       (0.0,) * (n_in * (3 + n_in))))
    return tuple(layout)


def observe(sim, layout, mode, c, prev_commands, prev_tl_action):
    """One pass over the incoming roads of `sim`'s state (`layout`, from
    `incoming_layout`); returns the Observation the reference forms give,
    bit for bit, with each quantity's arithmetic written as they write it.

    Per intersection, each incoming road is read once for its count, its
    closest-vehicle block and, walking from the stop line back, its vehicle
    agents and their rows. The approach signal and a front agent's leader
    across the stop line are resolved in this loop; the callable forms of
    their rules are in tests/reference.py.
    `prev_commands` and `prev_tl_action` are the M_COTV previous-action maps
    of `tl_observation` and `cav_observation`.
    """
    vehicles, road_order, lights = sim.vehicles, sim.road_order, sim.lights
    star = mode is CooperationMode.COTV_STAR
    ablated = mode is CooperationMode.I_COTV
    m_cotv = mode is CooperationMode.M_COTV
    # both matrices are filled row after row into one flat list each
    agents, tl_flat, cav_flat, pressures = [], [], [], []
    for light_id, incoming, outgoing, zero_block in layout:
        light = lights[light_id]
        phase = light.phases[light.phase_index]
        tl_flat.append(light.phase_index / len(light.phases))
        blocks = []
        n_in = 0
        for rid, length, v_star, arm, one_hot in incoming:
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
                    signal = (0.0 if ablated or arm not in phase.served
                              else 1.0 if phase.kind == "green" else 0.5)
                    prev_action = float(prev_tl_action.get(light_id, 0))
                if j + 1 < k:
                    lead = vehicles[order[j + 1]]
                    gap = lead.position - lead.length - veh.position
                else:
                    # the front vehicle follows the tail of its route's next
                    # road, across the stop line
                    lead = None
                    route, nxt = veh.route, veh.route_index + 1
                    if nxt < len(route):
                        next_order = road_order[route[nxt]]
                        if next_order:
                            lead = vehicles[next_order[0]]
                            gap = ((length - veh.position) + lead.position
                                   - lead.length)
                if lead is None:
                    lead_block = (0.0, 0.0, 1.0)
                else:
                    lead_block = (lead.speed / v_star, lead.accel / ACCEL_NORM,
                                  (0.0 if gap < 0.0 else gap) / length)
                cav_flat += (veh.speed / v_star, veh.accel / ACCEL_NORM,
                             *lead_block, (length - veh.position) / length,
                             signal)
                if m_cotv:
                    cav_flat.append(prev_action)
                agents.append((vid, rid))
                if not star:
                    break
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
    return Observation(agents, tl_obs, cav_obs, pressures)


def select_cav_agents(sim, mode):
    """`observe`'s vehicle agents of `sim`'s state."""
    return observe(sim, incoming_layout(sim.network), mode,
                   max_road_capacity(sim.network), {}, {}).agents


def tl_observation(sim, mode, c, prev_commands):
    """`observe`'s signal matrix of `sim`'s state."""
    return observe(sim, incoming_layout(sim.network), mode, c, prev_commands,
                   {}).tl_obs


def cav_observation(sim, mode, prev_tl_action):
    """`observe`'s vehicle matrix of `sim`'s state."""
    return observe(sim, incoming_layout(sim.network), mode,
                   max_road_capacity(sim.network), {}, prev_tl_action).cav_obs


@dataclass(slots=True)
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


def _act(policy, obs, ids, agent_type, rng, sample, t, records):
    """One `policy.act` over `obs`, whose row i is agent ids[i]'s; appends
    each agent's AgentStep to `records` and returns {id: action}."""
    actions, logps, values = policy.act(obs, rng, sample)
    chosen = {}
    for agent_id, row, action, logp, value in zip(ids, obs, actions, logps,
                                                  values):
        chosen[agent_id] = action
        records.append(AgentStep(agent_id, agent_type, row, float(action),
                                 logp, value, t=t))
    return chosen


class TrafficEnv:
    """Owns one SimState and the per-step agent bookkeeping.

    The config's plans alone decide what acts: a type with no plan is
    agents. `step` acts, moves the simulator, then, with agents, observes
    the state it moved to once (`observe`): that one pass yields the next
    step's vehicle agents and both observation matrices, and the signal
    agents' rewards. Each agent type's policy gets all its actions in one
    forward over its matrix, and `step` returns one AgentStep per acting
    agent. A vehicle agent leaving the selected set (crossed the line,
    displaced, removed, or arrived) has done=True on its final record;
    signal agents are closed by the rollout loop at the horizon. Only `step`
    and `reset` may change `sim`: a step acts on the observation that the
    previous step made after it moved the simulator, and the simulator
    starts from the fleet view that the previous step returned. `reset`
    builds the configured light plan afresh, since the actuated plan keeps
    per-light state, and checks the vehicle plan.
    """

    def __init__(self, scenario, cfg):
        self.scenario = scenario
        self.cfg = cfg
        self.c = max_road_capacity(scenario.network)
        self._layout = incoming_layout(scenario.network)
        self._has_agents = bool(cfg.learned)

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

    def step(self, tl_policy=None, cav_policy=None, rng=None, sample=True):
        """Advance one second; returns the acting agents' AgentSteps.

        Each agent type follows its configured plan if it has one, else
        its policy, which must then be given (ValueError otherwise). A
        learned type makes one `_act` call per step, on its agents'
        observation matrix; vehicle records follow the signal ones. A step
        with no selected vehicle makes no vehicle call and draws nothing.

        Order: act on the current observation, move the simulator, keep the
        M_COTV previous actions (the next observation reads them), then
        observe the new state once. The signal rewards are that
        observation's pressures. A vehicle agent still in the simulation is
        scored by `cav_reward` of the road it is on, computed once per road
        and step. A config without agents never observes; with agents, the
        first step after `reset` observes before it acts.
        """
        sim = self.sim
        cfg = self.cfg
        if cfg.tl_plan is None and tl_policy is None:
            raise ValueError("signal agents need a signal policy")
        if cfg.cav_plan is None and cav_policy is None:
            raise ValueError("vehicle agents need a vehicle policy")
        seen = self._seen
        if self._has_agents and seen is None:
            seen = observe(sim, self._layout, cfg.mode, self.c,
                           self._prev_cmd_by_road, self._prev_tl_action)
        records = []
        if self._light_plan is not None:
            tl_actions = self._light_plan(sim)
        else:
            tl_actions = _act(tl_policy, seen.tl_obs, sim.lights, "TL", rng,
                              sample, sim.clock, records)
        n_tl = len(records)
        agents = seen.agents if cfg.cav_plan is None else ()
        cav_actions = {}
        if agents:
            cav_actions = _act(cav_policy, seen.cav_obs,
                               [vid for vid, _ in agents], "CAV", rng, sample,
                               sim.clock, records)
        if self._advisory is not None:
            if self._view is None:
                self._view = scan_view(sim)
            cav_actions = self._advisory.commands(sim, self._view)

        completed_before = len(sim.completed)
        self._view = step(sim, tl_actions, cav_actions, view=self._view)
        # only M_COTV observes the other agent type's previous actions
        if cfg.mode is CooperationMode.M_COTV:
            self._prev_tl_action = tl_actions
            self._prev_cmd_by_road = {road: cav_actions[vid]
                                      for vid, road in agents}
        if not self._has_agents:
            return records

        seen = self._seen = observe(sim, self._layout, cfg.mode, self.c,
                                    self._prev_cmd_by_road,
                                    self._prev_tl_action)
        for rec, pressure in zip(records[:n_tl], seen.pressures):
            rec.reward = pressure
        if agents:
            arrived = {t.vehicle_id for t in sim.completed[completed_before:]}
            still_selected = {vid for vid, _ in seen.agents}
            # star mode puts many agents on one road
            road_rewards = {}
            for rec in records[n_tl:]:
                vid = rec.agent_id
                veh = sim.vehicles.get(vid)
                if veh is None:
                    # arrived agents exit cleanly; removed ones were collided
                    rec.reward = 0.0 if vid in arrived else COLLISION_REWARD
                    rec.done = True
                    continue
                if veh.road not in road_rewards:
                    road_rewards[veh.road] = cav_reward(sim, vid)
                rec.reward = road_rewards[veh.road]
                rec.done = vid not in still_selected
        return records
