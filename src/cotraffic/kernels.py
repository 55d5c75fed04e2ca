"""Numeric kernels for the per-step vehicle update.

Every simulation second touches every active vehicle (car-following
acceleration, kinematics, safety scans, energy rates). Each kernel is one
loop over the vehicles of the step. Its inputs and outputs are lists of
Python floats (and bools for the flags). A step holds a few dozen vehicles,
so a numpy call would cost more in fixed overhead than in arithmetic.

`simulation.step` calls the two scans. It does the arithmetic of
`vehicle_accels`, `kinematics` and `fuel_co2` inside its one loop over the
vehicles, which also moves them, because building their columns cost more
than the arithmetic; that loop also clamps commanded accelerations. The
speed advisory makes one `vehicle_accels` call per step over the fleet
view. `kinematics` and `fuel_co2` remain only as names the benchmark's
tracer wraps and as the reference forms of `step`'s loop; the numpy forms
of all five kernels are in tests/reference.py.

The loops do the operations of a row in the order the vectorized form did.
Their clamps are conditional expressions, which pick the operand that
``min``/``max`` would pick without the cost of a builtin call.
The one power, ``(v / v_limit) ** delta``, is Python's ``**``, that is the C
library's ``pow``. A numpy array power dispatches to a SIMD ``pow`` chosen by
the CPU's features, which differs from it in the last bit on some inputs; so
the simulator's output no longer depends on which SIMD extensions numpy
finds on the host.

Row convention: vehicles are flattened road by road, sorted by position
ascending within a road, so index ``i + 1`` is the immediate leader of ``i``
unless ``i`` is the front vehicle of its road. Callers pass leader data
explicitly (``lead_speed``, ``gap``, ``has_lead``) so that signal stop lines
can be folded in as virtual leaders before the kernel call. A row with a
leader needs a positive gap (`simulation.step` floors it at 1e-9).
Leaderless rows and non-closing pairs skip the terms that would divide by
their zero gap or closing speed.
"""
import math
from types import SimpleNamespace

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
# Rolling resistance (N), drag force per squared speed (N s^2/m^2), and the
# useful energy in a litre of fuel (J).
ROLLING_FORCE_N = VEHICLE_MASS_KG * GRAVITY * ROLLING_COEF
DRAG_FACTOR = 0.5 * AIR_DENSITY * DRAG_COEF * FRONTAL_AREA_M2
ENERGY_PER_L_J = ENGINE_EFFICIENCY * FUEL_ENERGY_J_L

# Intelligent-driver car-following law: maximum acceleration, comfortable
# braking, free-road exponent, time headway and jam distance.
IDM_A_MAX = 1.0
IDM_B_COMFORT = 1.5
IDM_DELTA = 4.0
IDM_HEADWAY = 1.0
IDM_S0 = 2.0
IDM_TWO_SQRT_AB = 2.0 * math.sqrt(IDM_A_MAX * IDM_B_COMFORT)
# Hard deceleration floor applied to every car-following output.
EMERGENCY_DECEL = 4.5
# Commanded-acceleration box for controlled vehicles.
CMD_ACCEL_MAX = 3.0

_BACKEND = SimpleNamespace(name="python")


def active_backend():
    """Record of the kernel implementation; its `name` is always 'python'."""
    return _BACKEND


def vehicle_accels(speed, lead_speed, gap, has_lead, v_limit):
    """Car-following (IDM) acceleration for every vehicle, clamped to
    [-EMERGENCY_DECEL, IDM_A_MAX]. The reference form of the uncommanded
    acceleration lines of `simulation.step`'s per-vehicle loop, which are
    these lines row by row; the speed advisory calls it."""
    a_max, delta, headway, s0 = IDM_A_MAX, IDM_DELTA, IDM_HEADWAY, IDM_S0
    two_sqrt_ab = IDM_TWO_SQRT_AB
    floor = -EMERGENCY_DECEL
    out = []
    for v, v_lead, s, lead, v_lim in zip(
            speed, lead_speed, gap, has_lead, v_limit):
        a = a_max * (1.0 - (v / v_lim) ** delta)
        if lead:
            ratio = (s0 + v * headway + v * (v - v_lead) / two_sqrt_ab) / s
            a = a - a_max * (ratio * ratio)
        out.append(floor if a < floor else a_max if a > a_max else a)
    return out


def kinematics(speed, accel, v_limit, dt=1.0):
    """Semi-implicit Euler: clamp speed to [0, limit], move with new speed.

    Returns (new_speed, dx, effective_accel); the effective acceleration is
    what the clamp actually realized, (v' - v) / dt. The reference form of
    the first lines of `simulation.step`'s per-vehicle loop, which the
    simulator does not call.
    """
    new_speed = [0.0 if (v_new := v + a * dt) < 0.0
                 else v_lim if v_new > v_lim else v_new
                 for v, a, v_lim in zip(speed, accel, v_limit)]
    return (new_speed, [v_new * dt for v_new in new_speed],
            [(v_new - v) / dt for v_new, v in zip(new_speed, speed)])


def ttc_events(gap, speed, lead_speed, has_lead, threshold):
    """Count follower-leader pairs closing with time-to-collision < threshold."""
    events = 0
    for s, v, v_lead, lead in zip(gap, speed, lead_speed, has_lead):
        closing = v - v_lead
        if lead and closing > 0.0 and s > 0.0 and s / closing < threshold:
            events += 1
    return events


def collision_followers(gap, has_lead):
    """Mark followers whose bumper gap to the immediate leader is <= 0."""
    return [lead and s <= 0.0 for s, lead in zip(gap, has_lead)]


def fuel_co2(speed, accel):
    """Tractive-power fuel and CO2 rates (l/s, g/s) per vehicle.

    The reference form of the energy lines of `simulation.step`'s
    per-vehicle loop, which the simulator does not call.
    """
    drag, roll, energy_per_l = DRAG_FACTOR, ROLLING_FORCE_N, ENERGY_PER_L_J
    fuel = []
    for v, a in zip(speed, accel):
        power = VEHICLE_MASS_KG * a * v + roll * v + drag * (v * v * v)
        fuel.append(IDLE_FUEL_L_S + (0.0 if power < 0.0 else power)
                    / energy_per_l)
    return fuel, [rate * CO2_G_PER_L for rate in fuel]
