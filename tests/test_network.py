"""Grid construction, demand flows, schedules, and scenario files."""
import hashlib
import math
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from cotraffic.network import (DT, ConfigError, FlowSpec, ScenarioSpec,
                               build_grid, build_insertion_schedule,
                               assign_vehicle_kinds, grid_scenario,
                               load_scenario, parse_scenario_text,
                               scenario_to_text, standard_flows_1x1,
                               standard_flows_1x6)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# independent oracle for the per-flow counts: hourly rate over a 300 s window
HOURLY_RATES = {"NS": 288, "WE": 240, "EW": 192, "SN": 120}


def test_grid_1x1_shape():
    net = build_grid(1, 1, 300, 15)
    assert len(net.intersections) == 1
    assert len(net.roads) == 8
    assert all(r.length == 300 and r.speed_limit == 15 for r in net.roads.values())
    inter = net.intersections["J0-0"]
    assert len(inter.incoming) == 4 and len(inter.outgoing) == 4


def test_grid_1x6_shares_interior_edges():
    net = build_grid(1, 6, 300, 15)
    assert len(net.intersections) == 6
    # the road between adjacent junctions is outgoing for one, incoming for the next
    rid = "J0-0:J0-1"
    assert rid in net.intersections["J0-0"].outgoing
    assert rid in net.intersections["J0-1"].incoming
    # 5 interior edges + 2 horizontal boundary + 12 vertical boundary, two roads each
    assert len(net.roads) == 2 * (5 + 2 + 12)


def test_grid_refuses_a_road_crossable_within_one_step():
    # a road exactly one step long at its limit is the shortest accepted
    assert build_grid(1, 2, 30.0 * DT, 30.0).roads
    with pytest.raises(ConfigError, match=(
            r"road_length 29\.9 m is shorter than one 1 s step at "
            r"speed_limit 30 m/s; the minimum is 30 m")):
        build_grid(1, 2, 29.9, 30.0)


@pytest.mark.parametrize("length,limit", [(100.0, 10.0), (300.0, 15.0), (47.5, 31.0)])
def test_grid_in_out_symmetry(length, limit):
    net = build_grid(1, 1, length, limit)
    inter = net.intersections["J0-0"]
    assert len(inter.incoming) == len(inter.outgoing) == 4


def test_grid_in_out_symmetry_larger_grids():
    shapes = [(r, c) for r in range(1, 4) for c in range(1, 4)] + [(1, 6)]
    for rows, cols in shapes:
        net = build_grid(rows, cols)
        for inter in net.intersections.values():
            assert len(inter.incoming) == len(inter.outgoing) == 4
            assert not set(inter.incoming) & set(inter.outgoing)
            assert set(inter.incoming + inter.outgoing) <= set(net.roads)
        # the road graph, taken undirected, is connected
        adjacent = {}
        for road in net.roads.values():
            adjacent.setdefault(road.from_node, set()).add(road.to_node)
            adjacent.setdefault(road.to_node, set()).add(road.from_node)
        reached, frontier = set(), ["J0-0"]
        while frontier:
            node = frontier.pop()
            if node not in reached:
                reached.add(node)
                frontier += adjacent[node] - reached
        assert reached == set(adjacent)


# SHA-256 of `grid_tables(build_grid(R, C))`, taken before `build_grid`
# stored each incoming road's arm while scanning its own junction
GRID_TABLES_SHA256 = {
    "1x1": "caaa9ca824eca9cd3b8d2554936b521f94eeb1821f880fd1e1424dae2cb381ea",
    "1x2": "2d037b2ff4af83d808aaf61a652d7282a6a78aef044074b3db5dc8fa23bf0abc",
    "1x3": "a446feb3bb9011e7e83eea72e2c1c14f7fb166ddf0e205406ac62bc70288022d",
    "2x1": "3952fb801d6c94bbe5c24cedbd7411c38ae93fb90cdf6cf3d3338075009898c5",
    "2x2": "ad3d4cdb2d15f34f8e3d2b65625378277965bda8e7bf386803dda825f3bbedca",
    "2x3": "62b8421471fc19b6f4982cd0162fac698e70d192de70d119aa46c26623d52596",
    "3x1": "7e89a81517b39a1255193572038ce2ba440cec0efab5b22e129a31ec4605bf10",
    "3x2": "e5faff3d9562cbd4e4bc8603dedc1fe672ed464353cab0375d476edbae31c2ac",
    "3x3": "71c74434759de42f351f264d1b2671d940498baa95a627fc810bacb7e9b79267",
    "1x6": "a74249532a78027b7f6b91fd417c9f461be80a9a6e8c6e1cf58e532bb3ab8481",
}


def grid_tables(net):
    """Every road's and every intersection's fields, in dict order."""
    roads = [(r.id, r.from_node, r.to_node, r.length, r.speed_limit,
              r.approach_intersection, r.approach, r.straight_to)
             for r in net.roads.values()]
    inters = [(i.id, i.incoming, i.outgoing)
              for i in net.intersections.values()]
    return repr((roads, inters))


@pytest.mark.parametrize("shape", sorted(GRID_TABLES_SHA256))
def test_grid_tables_pinned_by_digest(shape):
    rows, cols = map(int, shape.split("x"))
    digest = hashlib.sha256(grid_tables(build_grid(rows, cols)).encode())
    assert digest.hexdigest() == GRID_TABLES_SHA256[shape]


def test_grid_rejects_bad_dimensions():
    for rows, cols in [(0, 1), (1, 0), (-1, 3)]:
        with pytest.raises(ConfigError):
            build_grid(rows, cols)


def test_flows_1x1_totals_and_timing():
    flows = {f.name: f for f in standard_flows_1x1()}
    assert sum(f.count for f in flows.values()) == 70
    assert flows["NS"].start == 45.0
    assert flows["SN"].start == 1.0 and flows["WE"].start == 1.0
    assert flows["EW"].start == 105.0  # one minute after the NS start
    for name, f in flows.items():
        assert f.count == round(HOURLY_RATES[name] * 300 / 3600)
        assert f.period == pytest.approx(3600 / HOURLY_RATES[name])


def test_flows_1x6_totals():
    flows = standard_flows_1x6()
    assert sum(f.count for f in flows) == 240
    assert sum(f.count for f in flows) == 20 + 16 + 6 * (24 + 10)
    by_name = {f.name: f for f in flows}
    assert by_name["NS2"].count == 24 and by_name["NS2"].start == 45.0
    assert by_name["SN4"].count == 10


def test_all_flows_are_straight_routes():
    for grid in ("1x1", "1x6"):
        scen = grid_scenario(grid)
        for flow in scen.flows:
            route = scen.network.straight_route(flow.origin)
            assert route[-1] == flow.destination
            # straight route never revisits a road
            assert len(set(route)) == len(route)


def test_assign_kinds_extremes_and_rounding():
    flows = standard_flows_1x1()
    assert all(k == "HDV" for k in assign_vehicle_kinds(flows, 0.0, 1))
    assert all(k == "CAV" for k in assign_vehicle_kinds(flows, 1.0, 1))
    kinds = assign_vehicle_kinds(flows, 0.4, 1)
    assert sum(k == "CAV" for k in kinds) == 28


def test_assign_kinds_deterministic():
    flows = standard_flows_1x1()
    assert assign_vehicle_kinds(flows, 0.5, 9) == assign_vehicle_kinds(flows, 0.5, 9)
    assert (assign_vehicle_kinds(flows, 0.5, 9)
            != assign_vehicle_kinds(flows, 0.5, 10))


def test_schedule_pure_function_of_spec_and_seed():
    scen = grid_scenario("1x1", penetration=0.5, seed=12)
    a = build_insertion_schedule(scen)
    b = build_insertion_schedule(scen)
    assert a == b
    c = build_insertion_schedule(scen.with_overrides(seed=13))
    assert a != c


def test_schedule_times_and_speeds():
    scen = grid_scenario("1x1", penetration=0.0, seed=5)
    schedule = build_insertion_schedule(scen)
    assert len(schedule) == 70
    ns_times = [e.time for e in schedule if e.vehicle_id.startswith("NS.")]
    assert ns_times[0] == 45.0
    assert ns_times[1] == 57.5
    assert all(0.0 <= e.depart_speed <= 15.0 for e in schedule)
    assert all(e.kind == "HDV" for e in schedule)


def test_scenario_text_round_trip():
    scen = grid_scenario("1x1", horizon=500, penetration=0.3, seed=11)
    text = scenario_to_text(scen)
    parsed = parse_scenario_text(text)
    assert parsed.horizon == 500
    assert parsed.penetration_rate == 0.3
    assert parsed.seed == 11
    assert sum(f.count for f in parsed.flows) == 70
    assert scenario_to_text(parsed) == text


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(road_length=st.floats(10.0, 1e6), speed_limit=st.floats(0.1, 1e3),
       start=_finite, period=st.floats(min_value=1e-6, allow_infinity=False),
       penetration=st.floats(0.0, 1.0))
def test_scenario_text_parses_back_to_the_scenario(road_length, speed_limit,
                                                   start, period,
                                                   penetration):
    # a run's manifest stores its scenario as this text, and evaluate and
    # sweep rebuild the scenario from it: 13.8888889 m/s (50 km/h) written
    # as 13.8889 would evaluate on another network than the trained one
    assume(road_length >= speed_limit * DT)  # else build_grid refuses it
    scen = ScenarioSpec(
        build_grid(1, 1, road_length, speed_limit),
        (FlowSpec("SN", "S0:J0-0", "J0-0:N0", 10, start, period),),
        horizon=720, penetration_rate=penetration, seed=3)
    assert parse_scenario_text(scenario_to_text(scen)) == scen


@pytest.mark.parametrize("grid", ["1x1", "1x6"])
def test_committed_config_reproduces_the_built_in_grid(grid):
    parsed = load_scenario(CONFIGS / f"grid{grid}.cfg")
    built_in = grid_scenario(grid)
    assert parsed.network == built_in.network
    assert parsed.flows == built_in.flows
    # the files carry their own demand seed; everything else is the default
    assert parsed == grid_scenario(grid, seed=7)


def test_committed_3x3_config_feeds_every_boundary_arm():
    scen = load_scenario(CONFIGS / "grid3x3.cfg")
    assert len(scen.network.intersections) == 9
    assert sum(f.count for f in scen.flows) == 210
    boundary_entries = {rid for rid, road in scen.network.roads.items()
                        if road.from_node[0] in "NESW"}
    assert sorted(f.origin for f in scen.flows) == sorted(boundary_entries)
    assert len(boundary_entries) == 12


def test_scenario_parser_rejects_unknown_keys():
    good = scenario_to_text(grid_scenario("1x1"))
    with pytest.raises(ConfigError):
        parse_scenario_text(good + "\njunk { a: 1 }")
    with pytest.raises(ConfigError):
        parse_scenario_text(good.replace("horizon", "horizonn"))
    with pytest.raises(ConfigError):
        parse_scenario_text("network { grid: 1x1, lanes: 2 }")


def test_scenario_parser_rejects_bad_routes():
    text = """
network { grid: 1x1 }
flow { name: X, origin: N0:J0-0, destination: J0-0:E0, count: 5, start: 1, period: 10 }
sim { horizon: 100, penetration: 0, seed: 1 }
"""
    with pytest.raises(ConfigError):
        parse_scenario_text(text)


def test_scenario_comments_and_defaults():
    parsed = parse_scenario_text("""
# a comment
network { grid: 1x1, road_length: 200, speed_limit: 10 }
flow { name: A, origin: W0:J0-0, destination: J0-0:E0, count: 3, start: 2, period: 8 }
""")
    assert parsed.horizon == 720
    assert parsed.network.roads["W0:J0-0"].length == 200
    assert parsed.flows[0].count == 3


def test_scenario_invariants_rejected():
    with pytest.raises(ConfigError):
        grid_scenario("1x1", horizon=0)
    with pytest.raises(ConfigError):
        grid_scenario("1x1", penetration=1.5)
    with pytest.raises(ConfigError):
        grid_scenario("2x2")  # only the two named grids have canned demand


@pytest.mark.parametrize("entry,message", [
    ("network { grid: 1x1, road_length: abc }",
     "network: road_length 'abc' is not a number"),
    ("network { grid: 1x1, road_length: nan }",
     "network: road_length must be finite"),
    ("network { grid: 1x1, speed_limit: inf }",
     "network: speed_limit must be finite"),
    ("network { grid: 1x1 }\nflow { origin: W0:J0-0, destination: J0-0:E0, "
     "count: 2.5, start: 1, period: 8 }",
     "flow #0: count '2.5' is not an integer"),
    ("network { grid: 1x1 }\nflow { origin: W0:J0-0, destination: J0-0:E0, "
     "count: 2, start: 1, period: -inf }",
     "flow #0: period must be finite"),
    ("network { grid: 1x1 }\nflow { name: A, origin: nowhere, "
     "destination: J0-0:E0, count: 2, start: 1, period: 8 }",
     "flow A: origin 'nowhere' is not a road"),
    ("network { grid: 1x1 }\nsim { seed: x1 }",
     "sim: seed 'x1' is not an integer"),
    ("network { grid: 1x1 }\nsim { seed: -1 }",
     "seed must be non-negative"),
    ("network { grid: 1x1 }\nflow { name: A, origin: W0:J0-0, destination: "
     "J0-0:E0, count: 2, start: 1, period: 8 }\nflow { name: A, origin: "
     "N0:J0-0, destination: J0-0:S0, count: 2, start: 1, period: 8 }",
     "flow A: name used by an earlier flow"),
    ("network { grid: 1x1 }\nflow { name: flow1, origin: W0:J0-0, "
     "destination: J0-0:E0, count: 2, start: 1, period: 8 }\nflow { origin: "
     "N0:J0-0, destination: J0-0:S0, count: 2, start: 1, period: 8 }",
     "flow flow1: name used by an earlier flow"),
    ("network { grid: 1x1 }\nsim { horizon: 40 }\nsim { penetration: 0 }",
     "duplicate sim block"),
], ids=["number", "nan-length", "inf-limit", "count", "inf-period",
        "unknown-road", "seed", "negative-seed", "repeated-name", "repeated-default-name",
        "repeated-sim"])
def test_scenario_parser_names_block_and_key(entry, message):
    with pytest.raises(ConfigError, match=message):
        parse_scenario_text(entry)


# --- fuzzed scenario files ---------------------------------------------------

_KEYS = {"network": ["grid", "road_length", "speed_limit"],
         "flow": ["name", "origin", "destination", "count", "start",
                  "period"],
         "sim": ["horizon", "penetration", "seed"],
         "lane": ["grid", "count"]}
# grids stay small so that an accepted file builds its network quickly
_GRIDS = st.one_of(
    st.builds("{}x{}".format, st.integers(0, 3), st.integers(0, 3)),
    st.sampled_from(["", "1x", "x1", "1x1x1", "one"]))
_VALUES = st.one_of(
    st.sampled_from(["", "nan", "-inf", "inf", "1e400", "0", "-3", "2.5",
                     "W0:J0-0", "J0-0:E0", "N0:J0-0", "J0-0:S0", "nowhere"]),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.characters(blacklist_characters="{},#\n"), max_size=8))


@st.composite
def scenario_texts(draw):
    """A valid scenario with one entry replaced, or blocks of random keys
    and values, optionally followed by random text."""
    if draw(st.booleans()):
        text = scenario_to_text(grid_scenario("1x1"))
        entries = list(re.finditer(r"(\w+): ([^,}\n]*)", text))
        entry = draw(st.sampled_from(entries))
        key = entry.group(1)
        value = draw(_GRIDS if key == "grid" else _VALUES)
        text = text[:entry.start(2)] + value + text[entry.end(2):]
    else:
        blocks = []
        for _ in range(draw(st.integers(0, 4))):
            name = draw(st.sampled_from(["network", "flow", "sim", "lane"]))
            keys = draw(st.lists(st.sampled_from(_KEYS[name]), unique=True,
                                 max_size=7))
            items = [f"{key}: {draw(_GRIDS if key == 'grid' else _VALUES)}"
                     for key in keys]
            blocks.append(f"{name} {{ {', '.join(items)} }}")
        text = "\n".join(blocks)
    return text + draw(st.sampled_from(["", "", "\n# note", "junk"]))


@given(scenario_texts())
def test_scenario_parser_raises_only_config_errors(text):
    try:
        spec = parse_scenario_text(text)
    except ConfigError:
        return
    assert isinstance(spec, ScenarioSpec)
    for road in spec.network.roads.values():
        assert math.isfinite(road.length) and math.isfinite(road.speed_limit)
    for flow in spec.flows:
        assert math.isfinite(flow.start) and math.isfinite(flow.period)
