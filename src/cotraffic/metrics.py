"""Evaluation metrics and report files.

`build_episode_report` takes an episode's trip metrics in one pass over its
completed trips: mean travel time, mean delay (actual minus ideal time), and
fuel and CO2 as fleet-aggregate ratios (total over total distance), which
stay stable when individual trips are very short; the convention is stamped
into every report. `write_csv` writes every run-directory table.
"""
import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

FUEL_AGGREGATION = "fleet-aggregate"


@dataclass
class EpisodeReport:
    mean_travel_time: float
    mean_delay: float
    fuel_l_per_100km: float
    co2_g_per_km: float
    ttc_events: float
    completed: float
    inserted: float
    collided: float
    travel_times: list
    fuel_aggregation: str = FUEL_AGGREGATION

    METRIC_KEYS = ("mean_travel_time", "mean_delay", "fuel_l_per_100km",
                   "co2_g_per_km", "ttc_events", "completed", "inserted",
                   "collided")

    def metrics(self):
        return {k: getattr(self, k) for k in self.METRIC_KEYS}


def build_episode_report(sim):
    """Report for one finished episode. Fuel is 100,000 x total liters over
    total meters (l/100 km), CO2 1,000 x total grams over total meters
    (g/km); collided vehicles' partial fuel and distance are excluded."""
    trips = sim.completed
    times = [float(t.travel_time) for t in trips]
    # np.mean warns on an empty list, so no trips leave all four nan
    tt_mean = delay_mean = fuel = co2 = float("nan")
    if trips:
        delays = [float(t.travel_time - t.ideal_time) for t in trips]
        total_m = sum(t.distance_m for t in trips)
        tt_mean = float(np.mean(times))
        delay_mean = float(np.mean(delays))
        fuel = 100_000.0 * sum(t.fuel_l for t in trips) / total_m
        co2 = 1_000.0 * sum(t.co2_g for t in trips) / total_m
    return EpisodeReport(
        mean_travel_time=tt_mean, mean_delay=delay_mean,
        fuel_l_per_100km=fuel, co2_g_per_km=co2,
        ttc_events=float(sim.ttc_event_count),
        completed=float(len(trips)), inserted=float(sim.inserted_count),
        collided=float(sim.collided_count), travel_times=times)


def aggregate_reports(reports):
    """Mean of each metric across evaluation episodes; travel-time lists are
    concatenated for distribution export."""
    if not reports:
        raise ValueError("no reports to aggregate")
    agg = {k: float(np.mean([getattr(r, k) for r in reports]))
           for k in EpisodeReport.METRIC_KEYS}
    times = [t for r in reports for t in r.travel_times]
    return EpisodeReport(travel_times=times, **agg)


def compare_table(reports, baseline_key):
    """Per-method metric values with percentage change against the baseline.

    Returns {method: {metric: (value, pct_change)}}; the baseline rows carry
    0.0. Percentage change is 100 * (method - baseline) / baseline.
    """
    if baseline_key not in reports:
        raise KeyError(f"baseline {baseline_key!r} missing from reports")
    base = reports[baseline_key].metrics()
    table = {}
    for method, report in reports.items():
        row = {}
        for key, value in report.metrics().items():
            ref = base[key]
            if ref:
                pct = 100.0 * (value - ref) / ref
            else:
                pct = 0.0 if value == ref else float("nan")
            row[key] = (value, pct)
        table[method] = row
    return table


def sanitize_json(value):
    """Replace non-finite floats with None so the output is strict JSON."""
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {k: sanitize_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_json(v) for v in value]
    return value


def write_json(path, payload):
    """Write a run-directory JSON file: strict JSON (non-finite floats as
    null), sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sanitize_json(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_json(path, report, extra):
    payload = asdict(report)
    payload["n_travel_times"] = len(payload.pop("travel_times"))
    payload.update(extra)
    write_json(path, payload)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_csv(path, header, rows):
    """Write a run-directory table: comma-separated, LF line endings, a None
    cell empty and a float cell in six significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_compare_csv(path, table, baseline_key):
    """Flat CSV: one row per method x metric with value and pct change; an
    integer value (a hand-edited aggregate.json) prints as a float."""
    write_csv(path, ["method", "metric", "value", "pct_change_vs_baseline"],
              ([method, metric, float(value),
                "" if method == baseline_key else f"{pct:.4f}"]
               for method in sorted(table)
               for metric, (value, pct) in table[method].items()))
