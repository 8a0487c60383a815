"""The box-speed probe, and times corrected by it.

The benchmark shares a few cores of a host whose speed swings by a
third or more over minutes, and a slow spell slows every step of a pass
alike.  So the benchmark times a fixed pure-Python loop (``probe_s``)
right next to what it measures and scales each measured time to the
speed at which the loop takes ``REF_S``::

    corrected = measured * REF_S / (loop time around it)

A corrected time is in seconds on a box as fast as that reference; it
moves with the program's own work and hardly with the box.  On a 2-CPU
box, over sixteen cold registry passes, the raw pass walls spread by a
fifth to a third between quartiles, the corrected ones by under 5%.

This module imports only ``time``: a pass's set-up pays its import.
"""

from __future__ import annotations

import time

#: iterations of the loop: about a millisecond on a 2-CPU x86 box
ITERS = 10_000
#: loop time the corrected times are scaled to
REF_S = 1e-3
#: a step's box speed is the median of the probes this many steps to
#: either side of it
WINDOW = 5


def probe_s() -> float:
    """Seconds the fixed loop takes right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(ITERS):
        x += i * i % 7
    return time.perf_counter() - t0


def speed_s(n: int = 5) -> float:
    """The median of ``n`` probes in a row."""
    return sorted(probe_s() for _ in range(n))[n // 2]


def corrected_s(steps: list[float], probes: list[float]) -> float:
    """A pass wall with each step scaled by the probes next to it.

    ``probes[i]`` was taken right after ``steps[i]``; the last step
    (report writing after the last record) may have none."""
    total = 0.0
    for i, step in enumerate(steps):
        near = sorted(probes[max(0, i - WINDOW):i + WINDOW + 1])
        total += step * REF_S / near[len(near) // 2]
    return total
