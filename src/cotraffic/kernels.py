"""Numeric kernels for the per-step vehicle update.

Every simulation second touches every active vehicle (car-following
acceleration, kinematics, safety scans, energy rates). Each kernel is one
vectorized numpy function over all vehicles of the step. Leaderless rows
carry a zero gap and non-closing pairs a zero closing speed, so those
divisors are replaced with ``np.where`` before dividing.

Array convention: vehicles are flattened road by road, sorted by position
ascending within a road, so index ``i + 1`` is the immediate leader of ``i``
unless ``i`` is the front vehicle of its road. Callers pass leader data
explicitly (``lead_speed``, ``gap``, ``has_lead``) so that signal stop lines
can be folded in as virtual leaders before the kernel call.
"""
from types import SimpleNamespace

import numpy as np

# Tractive-power fuel surrogate constants (mid-size gasoline car).
VEHICLE_MASS_KG = 1500.0
ROLLING_COEF = 0.01
DRAG_COEF = 0.3
FRONTAL_AREA_M2 = 2.2
AIR_DENSITY = 1.2
GRAVITY = 9.81
IDLE_FUEL_L_S = 1.6e-4
ENGINE_EFFICIENCY = 0.3
FUEL_ENERGY_J_L = 3.46e7
CO2_G_PER_L = 2392.0

# Hard deceleration floor applied to every car-following output.
EMERGENCY_DECEL = 4.5
# Commanded-acceleration box for controlled vehicles.
CMD_ACCEL_MAX = 3.0

_BACKEND = SimpleNamespace(name="numpy")


def active_backend():
    """Record of the kernel implementation; its `name` is always 'numpy'."""
    return _BACKEND


def vehicle_accels(speed, lead_speed, gap, has_lead, v_limit, is_cmd, cmd,
                   a_max, b_comfort, delta, headway, s0):
    """Acceleration for every vehicle: commanded if flagged, else IDM."""
    two_sqrt_ab = 2.0 * np.sqrt(a_max * b_comfort)
    free = (speed / v_limit) ** delta
    a = a_max * (1.0 - free)
    safe_gap = np.where(has_lead, gap, 1.0)
    s_star = s0 + speed * headway + speed * (speed - lead_speed) / two_sqrt_ab
    ratio = s_star / safe_gap
    a = a - np.where(has_lead, a_max * (ratio * ratio), 0.0)
    a = np.clip(a, -EMERGENCY_DECEL, a_max)
    return np.where(is_cmd, np.clip(cmd, -CMD_ACCEL_MAX, CMD_ACCEL_MAX), a)


def kinematics(speed, accel, v_limit, dt=1.0):
    """Semi-implicit Euler: clamp speed to [0, limit], move with new speed.

    Returns (new_speed, dx, effective_accel); the effective acceleration is
    what the clamp actually realized, (v' - v) / dt.
    """
    new_speed = np.clip(speed + accel * dt, 0.0, v_limit)
    return new_speed, new_speed * dt, (new_speed - speed) / dt


def ttc_events(gap, speed, lead_speed, has_lead, threshold):
    """Count follower-leader pairs closing with time-to-collision < threshold."""
    closing = speed - lead_speed
    ok = has_lead & (closing > 0.0) & (gap > 0.0)
    safe = np.where(closing > 0.0, closing, 1.0)
    return int(np.count_nonzero(ok & (gap / safe < threshold)))


def collision_followers(gap, has_lead):
    """Mark followers whose bumper gap to the immediate leader is <= 0."""
    return has_lead & (gap <= 0.0)


def fuel_co2(speed, accel):
    """Tractive-power fuel and CO2 rates (l/s, g/s) per vehicle."""
    drag = 0.5 * AIR_DENSITY * DRAG_COEF * FRONTAL_AREA_M2
    roll = VEHICLE_MASS_KG * GRAVITY * ROLLING_COEF
    power = (VEHICLE_MASS_KG * accel * speed + roll * speed
             + drag * (speed * speed * speed))
    fuel = IDLE_FUEL_L_S + np.maximum(power, 0.0) / (ENGINE_EFFICIENCY * FUEL_ENERGY_J_L)
    return fuel, fuel * CO2_G_PER_L
