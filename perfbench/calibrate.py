"""Contention correction for timings taken on a shared machine.

On a shared host the same single-threaded work can take 1.5x longer from one
second to the next, because other tenants load the same physical cores. So
every timed operation is bracketed by a fixed reference loop that is part of
the benchmark, not of the program, and its wall time is rescaled to a machine
on which the reference loop takes REF_S:

    calibrated = wall * REF_S / mean(reference before, reference after)

On an uncontended core of the machine the benchmark was defined on, the
reference loop takes about REF_S, so calibrated seconds are close to wall
seconds there. The loop mixes what the program spends its time on: dict and
list work, float arithmetic in the interpreter, and small numpy products.
Never change it: every figure the benchmark reports is relative to it.
"""
import time

import numpy as np

REF_S = 0.04
_W = np.linspace(-1.0, 1.0, 37 * 64).reshape(37, 64)
_X = np.linspace(0.0, 1.0, 37).reshape(1, 37)


def reference_loop():
    """Wall time of one run of the fixed reference work."""
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(12000):
        k = i % 101
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += float(np.tanh(_X @ _W)[0, 3])
        acc += sum([table[k] * 0.1 for _ in range(8)])
    elapsed = time.perf_counter() - t0
    if acc != acc:  # keeps the work observable; never true
        raise ArithmeticError("reference loop produced NaN")
    return elapsed


class Calibrator:
    """Runs the reference loop between operations and hands out factors."""

    def __init__(self):
        self.last = reference_loop()
        self.samples = [self.last]
        self.marks = []    # (time the reference started, factor)

    def factor(self):
        """Run the reference again; REF_S over its mean with the previous
        run, i.e. the factor for the operation that ran in between."""
        t0 = time.perf_counter()
        now = reference_loop()
        self.samples.append(now)
        f = 2.0 * REF_S / (self.last + now)
        self.last = now
        self.marks.append((t0, f))
        return f
