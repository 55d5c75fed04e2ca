"""The per-step kernels against their vectorized numpy forms, the
simulator's independence from numpy's CPU dispatch, and its output pinned
by digest.

The references below are the numpy bodies the list kernels replaced, with
the one power evaluated per element in Python: an array `**` dispatches to a
SIMD `pow` that can differ from the C library's in the last bit."""
import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cotraffic import kernels
from cotraffic.kernels import (AIR_DENSITY, CMD_ACCEL_MAX, CO2_G_PER_L,
                               DRAG_COEF, EMERGENCY_DECEL, ENGINE_EFFICIENCY,
                               FRONTAL_AREA_M2, FUEL_ENERGY_J_L, GRAVITY,
                               IDLE_FUEL_L_S, IDM_A_MAX, IDM_B_COMFORT,
                               IDM_DELTA, IDM_HEADWAY, IDM_S0, ROLLING_COEF,
                               VEHICLE_MASS_KG)

ROWS = 4000
GRID_3X3 = Path(__file__).resolve().parent.parent / "configs" / "grid3x3.cfg"


def ref_vehicle_accels(speed, lead_speed, gap, has_lead, v_limit, is_cmd, cmd,
                       a_max, b_comfort, delta, headway, s0):
    two_sqrt_ab = 2.0 * np.sqrt(a_max * b_comfort)
    free = np.array([x ** delta for x in (speed / v_limit).tolist()])
    a = a_max * (1.0 - free)
    safe_gap = np.where(has_lead, gap, 1.0)
    s_star = s0 + speed * headway + speed * (speed - lead_speed) / two_sqrt_ab
    ratio = s_star / safe_gap
    a = a - np.where(has_lead, a_max * (ratio * ratio), 0.0)
    a = np.clip(a, -EMERGENCY_DECEL, a_max)
    return np.where(is_cmd, np.clip(cmd, -CMD_ACCEL_MAX, CMD_ACCEL_MAX), a)


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


def random_rows(seed):
    """Speeds from standstill to 20% over the limit (some exactly at it),
    leaderless rows, commands outside the +-3 box, accelerations of both
    signs (so negative tractive power), closing and opening pairs, and
    bumper gaps at, below and above zero."""
    rng = np.random.default_rng(seed)
    v_limit = rng.choice([10.0, 13.89, 15.0, 22.2], ROWS)
    speed = rng.uniform(0.0, 1.2, ROWS) * v_limit
    at_limit = rng.random(ROWS) < 0.1
    speed[at_limit] = v_limit[at_limit]
    speed[rng.random(ROWS) < 0.05] = 0.0
    lead_speed = np.clip(speed + rng.normal(0.0, 3.0, ROWS), 0.0, None)
    same = rng.random(ROWS) < 0.05
    lead_speed[same] = speed[same]
    has_lead = rng.random(ROWS) < 0.8
    gap = rng.uniform(-5.0, 60.0, ROWS)
    gap[rng.random(ROWS) < 0.05] = 0.0
    is_cmd = rng.random(ROWS) < 0.3
    cmd = rng.uniform(-6.0, 6.0, ROWS)
    accel = rng.uniform(-6.0, 6.0, ROWS)
    return dict(speed=speed, lead_speed=lead_speed, gap=gap,
                has_lead=has_lead, v_limit=v_limit, is_cmd=is_cmd, cmd=cmd,
                accel=accel)


def as_lists(*arrays):
    return [a.tolist() for a in arrays]


def assert_floats_equal(got, want):
    assert all(type(x) is float for x in got)
    assert got == want.tolist()


def test_vehicle_accels_match_numpy_form():
    for seed in range(5):
        r = random_rows(seed)
        # a real leader always sits at a positive gap (the step floors it
        # at 1e-9); leaderless rows carry a zero gap, as in the step
        gap = np.where(r["has_lead"], np.abs(r["gap"]) + 1e-9, 0.0)
        cols = (r["speed"], r["lead_speed"], gap, r["has_lead"],
                r["v_limit"], r["is_cmd"], r["cmd"])
        want = ref_vehicle_accels(*cols, IDM_A_MAX, IDM_B_COMFORT, IDM_DELTA,
                                  IDM_HEADWAY, IDM_S0)
        got = kernels.vehicle_accels(*as_lists(*cols))
        assert_floats_equal(got, want)
        assert np.any(np.abs(r["cmd"][r["is_cmd"]]) > CMD_ACCEL_MAX)


def test_kinematics_match_numpy_form():
    for seed in range(5):
        r = random_rows(seed)
        cols = (r["speed"], r["accel"], r["v_limit"])
        for got, want in zip(kernels.kinematics(*as_lists(*cols), 1.0),
                             ref_kinematics(*cols, 1.0)):
            assert_floats_equal(got, want)


def test_safety_scans_match_numpy_form():
    for seed in range(5):
        r = random_rows(seed)
        closing = r["speed"] - r["lead_speed"]
        assert np.any(closing > 0.0) and np.any(closing <= 0.0)
        assert np.any(r["gap"] <= 0.0)
        for threshold in (0.5, 3.0, 30.0):
            cols = (r["gap"], r["speed"], r["lead_speed"], r["has_lead"])
            got = kernels.ttc_events(*as_lists(*cols), threshold)
            assert type(got) is int
            assert got == ref_ttc_events(*cols, threshold)
        hit = kernels.collision_followers(*as_lists(r["gap"], r["has_lead"]))
        assert hit == ref_collision_followers(r["gap"], r["has_lead"]).tolist()


def test_fuel_co2_match_numpy_form():
    for seed in range(5):
        r = random_rows(seed)
        want = ref_fuel_co2(r["speed"], r["accel"])
        # rows of negative or zero tractive power burn the idle rate only
        assert np.any(want[0] == IDLE_FUEL_L_S)
        assert np.any(want[0] > IDLE_FUEL_L_S)
        got = kernels.fuel_co2(*as_lists(r["speed"], r["accel"]))
        for g, w in zip(got, want):
            assert_floats_equal(g, w)


# Runs a 1x6 actuated baseline episode with no CAVs, a 1x6 GLOSA episode
# with only CAVs, and a static-plan and a max-pressure episode on the 3x3
# scenario file given as its argument, and prints every float the episodes
# leave behind.
BASELINE_EPISODES = """
import sys
from dataclasses import astuple
from cotraffic.network import grid_scenario, load_scenario
from cotraffic.rollout import run_baseline_episode
runs = [(grid_scenario("1x6", penetration=0.0, seed=11), "actuated"),
        (grid_scenario("1x6", penetration=1.0, seed=11), "glosa"),
        (load_scenario(sys.argv[1]), "baseline-static"),
        (load_scenario(sys.argv[1]), "max-pressure")]
for scen, method in runs:
    _, sim = run_baseline_episode(scen, method, seed=11)
    for rec in sim.completed:
        print(*(repr(x) for x in astuple(rec)))
    for vid, veh in sim.vehicles.items():
        print(vid, *(repr(x) for x in (veh.position, veh.speed, veh.accel,
                                       veh.fuel_l)))
    print(method, sim.collided_count, sim.ttc_event_count)
"""
# SHA-256 of the episodes' output, taken with numpy 2.4.6: a change to the
# simulator that claims identical outputs must leave it as it is
BASELINE_EPISODES_SHA256 = (
    "049e21d1af9973c18694dde0284b36d11c4486b8f430125840a4a3aaed1e9046")


@pytest.mark.parametrize("module", ["simulation", "kernels", "baselines"])
def test_simulator_modules_import_no_numpy(module):
    # numpy's array operations dispatch on the CPU's SIMD features, which
    # the test below only catches where they change a bit on this host
    path = Path(kernels.__file__).with_name(f"{module}.py")
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert not [name for name in imported
                if name == "numpy" or name.startswith("numpy.")]


def test_simulation_does_not_depend_on_numpy_cpu_dispatch():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for disabled in (True, False):
        env = {k: v for k, v in os.environ.items()
               if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        if disabled:
            # numpy ignores the names a host does not have
            env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
        proc = subprocess.run([sys.executable, "-c", BASELINE_EPISODES,
                               str(GRID_3X3)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") > 800
    assert outputs[0] == outputs[1]
    digest = hashlib.sha256(outputs[0].encode()).hexdigest()
    # the insertion schedules draw from numpy's Generator, whose streams
    # numpy may change between versions
    assert digest == BASELINE_EPISODES_SHA256, (
        f"simulator output digest {digest} differs from the one pinned with "
        f"numpy 2.4.6; numpy here is {np.__version__}")
