"""Metric arithmetic and report aggregation."""
import math

import numpy as np
import pytest

from cotraffic.metrics import (EpisodeReport, aggregate_reports,
                               build_episode_report, compare_table)
from cotraffic.simulation import SimState, TripRecord


def trip(vid="v", depart=0, arrival=50, route_len=600.0, ideal=40.0,
         fuel=0.05, co2=119.6, dist=600.0):
    return TripRecord(vid, "HDV", depart, arrival, route_len, ideal,
                      fuel, co2, dist)


def episode(*trips):
    """The report of an episode that completed `trips`."""
    return build_episode_report(SimState(network=None, completed=list(trips)))


def test_travel_time_mean():
    rep = episode(trip(arrival=50))
    assert rep.mean_travel_time == 50 and rep.travel_times == [50]
    rep = episode(trip(arrival=40), trip(vid="w", arrival=60))
    assert rep.mean_travel_time == 50


def test_no_trips_report_nan():
    rep = episode()
    assert all(math.isnan(getattr(rep, k)) for k in (
        "mean_travel_time", "mean_delay", "fuel_l_per_100km", "co2_g_per_km"))
    assert rep.travel_times == [] and rep.completed == 0.0


def test_delay_definition():
    rep = episode(trip(arrival=55, ideal=40.0))
    assert rep.mean_delay == pytest.approx(15.0)
    rep = episode(trip(arrival=40, ideal=40.0))
    assert rep.mean_delay == pytest.approx(0.0)


def test_fuel_unit_arithmetic():
    rep = episode(trip(fuel=1.0, dist=10_000.0))
    assert rep.fuel_l_per_100km == pytest.approx(10.0)
    rep = episode(trip(fuel=1.0, co2=2392.0, dist=1_000.0))
    assert rep.co2_g_per_km == pytest.approx(2392.0)
    assert rep.fuel_l_per_100km == pytest.approx(100.0)


def test_fuel_scale_invariance():
    trips = [trip(fuel=0.02, dist=500.0), trip(vid="w", fuel=0.08, dist=1500.0)]
    doubled = [trip(fuel=0.04, dist=1000.0), trip(vid="w", fuel=0.16, dist=3000.0)]
    assert episode(*trips).fuel_l_per_100km == pytest.approx(
        episode(*doubled).fuel_l_per_100km)


def test_aggregation_permutation_invariant():
    trips = [trip(vid=f"v{i}", arrival=40 + i, fuel=0.01 * (i + 1),
                  dist=600.0 - i) for i in range(6)]
    fwd, rev = episode(*trips), episode(*reversed(trips))
    assert fwd.mean_travel_time == rev.mean_travel_time
    assert fwd.mean_delay == rev.mean_delay
    assert fwd.fuel_l_per_100km == pytest.approx(rev.fuel_l_per_100km)


def report(tt, ttc, **kw):
    base = dict(mean_travel_time=tt, mean_delay=kw.get("delay", tt - 40),
                fuel_l_per_100km=kw.get("fuel", 9.0),
                co2_g_per_km=kw.get("co2", 210.0), ttc_events=ttc,
                completed=70.0, inserted=70.0, collided=0.0, travel_times=[])
    return EpisodeReport(**base)


def test_compare_table_reference_values():
    table = compare_table(
        {"baseline": report(59.67, 354.0), "coop": report(48.42, 30.11)},
        "baseline")
    tt_value, tt_pct = table["coop"]["mean_travel_time"]
    assert tt_value == pytest.approx(48.42)
    assert tt_pct == pytest.approx(-18.85, abs=0.005)
    _, ttc_pct = table["coop"]["ttc_events"]
    assert ttc_pct == pytest.approx(-91.49, abs=0.005)
    assert table["baseline"]["mean_travel_time"][1] == 0.0


def test_compare_table_identity():
    table = compare_table({"baseline": report(50.0, 10.0),
                           "same": report(50.0, 10.0)}, "baseline")
    assert all(pct == 0.0 for _, pct in table["same"].values())


def test_compare_table_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        base_tt = rng.uniform(30, 120)
        other_tt = rng.uniform(30, 120)
        table = compare_table({"b": report(base_tt, 10.0),
                               "m": report(other_tt, 10.0)}, "b")
        value, pct = table["m"]["mean_travel_time"]
        assert value == pytest.approx(base_tt * (1 + pct / 100), rel=1e-9)


def test_compare_table_missing_baseline():
    with pytest.raises(KeyError):
        compare_table({"m": report(50.0, 10.0)}, "baseline")


def test_aggregate_reports_mean_of_episodes():
    a = report(40.0, 10.0)
    b = report(60.0, 30.0)
    agg = aggregate_reports([a, b])
    assert agg.mean_travel_time == pytest.approx(50.0)
    assert agg.ttc_events == pytest.approx(20.0)
    with pytest.raises(ValueError):
        aggregate_reports([])


def test_delay_floor_over_random_runs():
    """Discretization can make a trip at most 1 s faster than ideal."""
    from cotraffic.network import grid_scenario
    from cotraffic.rollout import run_baseline_episode
    for seed in (1, 2, 3):
        rep, sim = run_baseline_episode(grid_scenario("1x1", seed=seed),
                                        "baseline-static", seed=seed,
                                        horizon=720)
        delays = [t.travel_time - t.ideal_time for t in sim.completed]
        assert all(d >= -1.0 for d in delays)
