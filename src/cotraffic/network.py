"""Grid road networks, demand flows, and deterministic insertion schedules.

Networks are rows x cols signalized grids. Every edge is realized as two
opposed single-lane roads; perimeter arms end at boundary nodes. All demand
is go-straight, so each vehicle's route is the chain of same-heading roads
from a perimeter entry to the opposite perimeter exit.
"""
import math
import re
from dataclasses import dataclass, replace

import numpy as np

APPROACHES = ("N", "E", "S", "W")
OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}

DEFAULT_ROAD_LENGTH = 300.0
# vehicle geometry; a road shorter than one vehicle plus its gap holds none
VEHICLE_LENGTH = 5.0
MIN_GAP = 2.5
DEFAULT_SPEED_LIMIT = 15.0
# the simulation step, s; a vehicle moves onto the next road at most once
# per step, so a road must not be crossable within one step at its limit
DT = 1.0


class ConfigError(ValueError):
    """Bad scenario file or invalid experiment configuration."""


@dataclass(frozen=True)
class Road:
    id: str
    from_node: str
    to_node: str
    length: float
    speed_limit: float
    # Signalized node this road feeds into (None for roads exiting the grid),
    # and the compass arm it occupies there as seen from that intersection.
    approach_intersection: str | None = None
    approach: str | None = None
    # Go-straight continuation across the approached intersection.
    straight_to: str | None = None

    def __post_init__(self):
        if self.speed_limit <= 0:
            raise ConfigError(f"road {self.id}: speed limit must be positive")


@dataclass(frozen=True)
class Intersection:
    id: str
    incoming: tuple  # road ids in N, E, S, W arm order
    outgoing: tuple


@dataclass(frozen=True)
class RoadNetwork:
    roads: dict
    intersections: dict
    descriptor: str = ""

    def straight_route(self, origin_road_id):
        """Road chain from an entry road to the perimeter, going straight."""
        route = [origin_road_id]
        road = self.roads[origin_road_id]
        while road.straight_to is not None:
            route.append(road.straight_to)
            road = self.roads[road.straight_to]
        return route

    def route_length(self, route):
        return sum(self.roads[rid].length for rid in route)


def _road_id(from_node, to_node):
    return f"{from_node}:{to_node}"


def build_grid(rows, cols, road_length=DEFAULT_ROAD_LENGTH,
               speed_limit=DEFAULT_SPEED_LIMIT):
    """Build a rows x cols signalized grid of two-way single-lane roads."""
    if rows < 1 or cols < 1:
        raise ConfigError("grid dimensions must be >= 1")
    if road_length < VEHICLE_LENGTH + MIN_GAP:
        raise ConfigError(
            f"road_length {road_length:g} m cannot hold one vehicle; the "
            f"minimum is {VEHICLE_LENGTH + MIN_GAP:g} m (vehicle length "
            f"{VEHICLE_LENGTH:g} m plus minimum gap {MIN_GAP:g} m)")
    if road_length < speed_limit * DT:
        raise ConfigError(
            f"road_length {road_length:g} m is shorter than one {DT:g} s "
            f"step at speed_limit {speed_limit:g} m/s; the minimum is "
            f"{speed_limit * DT:g} m")

    def junction(r, c):
        return f"J{r}-{c}"

    # neighbor node on each arm; boundary arms get dedicated nodes
    def arm_node(r, c, arm):
        if arm == "N":
            return junction(r - 1, c) if r > 0 else f"N{c}"
        if arm == "S":
            return junction(r + 1, c) if r < rows - 1 else f"S{c}"
        if arm == "W":
            return junction(r, c - 1) if c > 0 else f"W{r}"
        return junction(r, c + 1) if c < cols - 1 else f"E{r}"

    road_specs = {}
    intersections = {}
    for r in range(rows):
        for c in range(cols):
            j = junction(r, c)
            incoming, outgoing = [], []
            for arm in APPROACHES:
                other = arm_node(r, c, arm)
                rid_in = _road_id(other, j)
                rid_out = _road_id(j, other)
                incoming.append(rid_in)
                outgoing.append(rid_out)
                # an incoming road takes its arm here; a reassigned key
                # keeps its place, so the road order does not change
                road_specs[rid_in] = (other, j, arm)
                road_specs.setdefault(rid_out, (j, other, None))
            intersections[j] = Intersection(j, tuple(incoming), tuple(outgoing))

    roads = {}
    for rid, (src, dst, arm) in road_specs.items():
        # only the roads that leave the grid have no arm
        approach_inter = straight_to = None
        if arm is not None:
            approach_inter = dst
            exit_arm = APPROACHES.index(OPPOSITE[arm])
            straight_to = intersections[dst].outgoing[exit_arm]
        roads[rid] = Road(rid, src, dst, float(road_length), float(speed_limit),
                          approach_inter, arm, straight_to)

    return RoadNetwork(roads, intersections, descriptor=f"grid:{rows}x{cols}")


@dataclass(frozen=True)
class FlowSpec:
    """One insertion stream: `count` vehicles from `start` every `period` s."""
    name: str
    origin: str
    destination: str
    count: int
    start: float
    period: float

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError(f"flow {self.name}: count must be >= 0")
        if self.period <= 0:
            raise ConfigError(f"flow {self.name}: period must be positive")


def standard_flows_1x1():
    """The four single-intersection go-straight demand streams.

    Hourly rates 288/240/192/120 over a 300 s window give 24/20/16/10
    vehicles at strictly periodic headways of 3600/rate seconds. Two streams
    start at t=1 s, the heavy north-south stream at t=45 s, and the opposing
    east-west stream one minute after that.
    """
    return [
        FlowSpec("SN", "S0:J0-0", "J0-0:N0", 10, 1.0, 30.0),
        FlowSpec("WE", "W0:J0-0", "J0-0:E0", 20, 1.0, 15.0),
        FlowSpec("NS", "N0:J0-0", "J0-0:S0", 24, 45.0, 12.5),
        FlowSpec("EW", "E0:J0-0", "J0-0:W0", 16, 105.0, 18.75),
    ]


def standard_flows_1x6():
    """Demand for the six-intersection corridor: 240 vehicles total.

    The west-east pair spans the whole corridor with the 1x1 settings; every
    column gets its own vertical pair with the same counts and timing.
    """
    flows = [
        FlowSpec("WE", "W0:J0-0", "J0-5:E0", 20, 1.0, 15.0),
        FlowSpec("EW", "E0:J0-5", "J0-0:W0", 16, 105.0, 18.75),
    ]
    for c in range(6):
        flows.append(FlowSpec(f"SN{c}", f"S{c}:J0-{c}", f"J0-{c}:N{c}",
                              10, 1.0, 30.0))
        flows.append(FlowSpec(f"NS{c}", f"N{c}:J0-{c}", f"J0-{c}:S{c}",
                              24, 45.0, 12.5))
    return flows


@dataclass(frozen=True)
class ScenarioSpec:
    network: RoadNetwork
    flows: tuple
    horizon: int
    penetration_rate: float
    seed: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if not 0.0 <= self.penetration_rate <= 1.0:
            raise ConfigError("penetration rate must lie in [0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        names = set()
        for flow in self.flows:
            # a flow's vehicles are named `<flow name>.<k>`
            if flow.name in names:
                raise ConfigError(
                    f"flow {flow.name}: name used by an earlier flow")
            names.add(flow.name)
            if flow.origin not in self.network.roads:
                raise ConfigError(
                    f"flow {flow.name}: origin {flow.origin!r} is not a road "
                    "of the network")
            route = self.network.straight_route(flow.origin)
            if route[-1] != flow.destination:
                raise ConfigError(
                    f"flow {flow.name}: straight route from {flow.origin} ends at "
                    f"{route[-1]}, not {flow.destination}")

    def with_overrides(self, horizon=None, penetration=None, seed=None):
        return replace(
            self,
            horizon=self.horizon if horizon is None else int(horizon),
            penetration_rate=(self.penetration_rate if penetration is None
                              else float(penetration)),
            seed=self.seed if seed is None else int(seed))


def grid_scenario(grid, horizon=720, penetration=1.0, seed=0):
    """Scenario for a named standard grid, '1x1' or '1x6'."""
    if grid == "1x1":
        net = build_grid(1, 1)
        flows = standard_flows_1x1()
    elif grid == "1x6":
        net = build_grid(1, 6)
        flows = standard_flows_1x6()
    else:
        raise ConfigError(f"unknown standard grid {grid!r} (expected 1x1 or 1x6)")
    return ScenarioSpec(net, tuple(flows), int(horizon), float(penetration),
                        int(seed))


def assign_vehicle_kinds(flows, penetration_rate, seed):
    """Kind ('HDV' or 'CAV') per vehicle, in global insertion order.

    The realized CAV count is round(rate * total), half away from zero, and
    the placement is a seeded permutation, fixed before the simulation runs.
    """
    total = sum(f.count for f in flows)
    n_cav = int(math.floor(penetration_rate * total + 0.5))
    kinds = np.array(["CAV"] * n_cav + ["HDV"] * (total - n_cav), dtype=object)
    rng = np.random.default_rng(seed)
    return list(rng.permutation(kinds))


@dataclass(frozen=True)
class Insertion:
    """One scheduled vehicle: everything random is drawn up front."""
    time: float
    vehicle_id: str
    kind: str
    route: tuple
    depart_speed: float


def build_insertion_schedule(scenario):
    """Full insertion schedule, a pure function of the scenario (incl. seed).

    Global order is by scheduled time with the flow-list order breaking ties;
    kinds and initial speeds are drawn in that order from one seeded stream.
    """
    net = scenario.network
    entries = []
    for fi, flow in enumerate(scenario.flows):
        route = tuple(net.straight_route(flow.origin))
        for k in range(flow.count):
            entries.append((flow.start + k * flow.period, fi, k, flow, route))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))

    kinds = assign_vehicle_kinds(scenario.flows, scenario.penetration_rate,
                                 scenario.seed)
    rng = np.random.default_rng(np.random.SeedSequence((scenario.seed, 1)))
    schedule = []
    for (time, fi, k, flow, route), kind in zip(entries, kinds):
        speed = float(rng.uniform(0.0, net.roads[flow.origin].speed_limit))
        schedule.append(Insertion(time, f"{flow.name}.{k}", kind, route, speed))
    return schedule


# --- scenario files ---------------------------------------------------------
#
# Line-oriented blocks:   name { key: value, key: value }
# '#' starts a comment. Known blocks: network (grid, road_length,
# speed_limit), flow (name, origin, destination, count, start, period),
# sim (horizon, penetration, seed). Unknown blocks or keys are rejected.

_BLOCK_RE = re.compile(r"(\w+)\s*\{([^}]*)\}", re.S)

_BLOCK_KEYS = {
    "network": {"grid", "road_length", "speed_limit"},
    "flow": {"name", "origin", "destination", "count", "start", "period"},
    "sim": {"horizon", "penetration", "seed"},
}


def _parse_entries(block_name, body):
    entries = {}
    for raw in re.split(r"[,\n]", body):
        item = raw.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(f"{block_name}: expected 'key: value', got {item!r}")
        key, value = item.split(":", 1)
        key = key.strip()
        if key not in _BLOCK_KEYS[block_name]:
            raise ConfigError(f"{block_name}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{block_name}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def _number(block_name, entries, key, default, kind=float):
    """entries[key] parsed as `kind` (default when absent); an unparseable
    or non-finite value is a ConfigError naming the block and key."""
    if key not in entries:
        return default
    text = entries[key]
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(
            f"{block_name}: {key} {text!r} is not {what}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{block_name}: {key} must be finite, got {text!r}")
    return value


def parse_scenario_text(text):
    """Parse scenario file text into a ScenarioSpec."""
    stripped = re.sub(r"#[^\n]*", "", text)
    single = {}  # the network and sim blocks, each at most once
    flow_blocks = []
    consumed = re.sub(_BLOCK_RE, "", stripped).strip()
    if consumed:
        raise ConfigError(f"unparseable scenario content: {consumed[:40]!r}")
    for match in _BLOCK_RE.finditer(stripped):
        name, body = match.group(1), match.group(2)
        if name not in _BLOCK_KEYS:
            raise ConfigError(f"unknown block {name!r}")
        entries = _parse_entries(name, body)
        if name == "flow":
            flow_blocks.append(entries)
        elif name in single:
            raise ConfigError(f"duplicate {name} block")
        else:
            single[name] = entries
    if "network" not in single:
        raise ConfigError("missing network block")
    network_entries, sim_entries = single["network"], single.get("sim", {})

    grid = network_entries.get("grid", "1x1")
    m = re.fullmatch(r"(\d+)x(\d+)", grid)
    if not m:
        raise ConfigError(f"network: bad grid {grid!r} (expected RxC)")
    rows, cols = int(m.group(1)), int(m.group(2))
    net = build_grid(
        rows, cols,
        _number("network", network_entries, "road_length",
                DEFAULT_ROAD_LENGTH),
        _number("network", network_entries, "speed_limit",
                DEFAULT_SPEED_LIMIT))

    flows = []
    for i, entries in enumerate(flow_blocks):
        for required in ("origin", "destination", "count", "start", "period"):
            if required not in entries:
                raise ConfigError(f"flow #{i}: missing key {required!r}")
        block = f"flow #{i}"
        flows.append(FlowSpec(
            entries.get("name", f"flow{i}"), entries["origin"],
            entries["destination"],
            _number(block, entries, "count", None, int),
            _number(block, entries, "start", None),
            _number(block, entries, "period", None)))

    return ScenarioSpec(
        net, tuple(flows),
        horizon=_number("sim", sim_entries, "horizon", 720, int),
        penetration_rate=_number("sim", sim_entries, "penetration", 1.0),
        seed=_number("sim", sim_entries, "seed", 0, int))


def load_scenario(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario_text(text)


def _float_text(value):
    """`value` in `:g` form when that parses back to it, else its repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def scenario_to_text(scenario):
    """Serialize a grid scenario back to the file format; parsing the text
    gives the scenario back."""
    m = re.fullmatch(r"grid:(\d+)x(\d+)", scenario.network.descriptor)
    if not m:
        raise ConfigError("only grid-backed scenarios can be serialized")
    any_road = next(iter(scenario.network.roads.values()))
    lines = [
        f"network {{ grid: {m.group(1)}x{m.group(2)}, "
        f"road_length: {_float_text(any_road.length)}, "
        f"speed_limit: {_float_text(any_road.speed_limit)} }}"
    ]
    for f in scenario.flows:
        lines.append(
            f"flow {{ name: {f.name}, origin: {f.origin}, destination: "
            f"{f.destination}, count: {f.count}, start: "
            f"{_float_text(f.start)}, period: {_float_text(f.period)} }}")
    lines.append(
        f"sim {{ horizon: {scenario.horizon}, "
        f"penetration: {_float_text(scenario.penetration_rate)}, "
        f"seed: {scenario.seed} }}")
    return "\n".join(lines) + "\n"

