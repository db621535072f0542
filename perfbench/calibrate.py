"""A fixed pure-Python loop that measures how fast the machine runs now.

On a shared machine the same code can run at half speed for minutes while
other tenants load the cores.  Such a slowdown hits this loop and the
interpreter-bound fdmix code alike, so a slice of this loop timed next to
each call measures the machine's speed at that moment.  Times are then
reported at the reference speed, at which one slice takes REFERENCE_S.
The loop does not touch fdmix, so no change to the program can move it.
"""

from __future__ import annotations

from collections import deque
from statistics import median
from time import perf_counter

ITERATIONS = 4000
REFERENCE_S = 0.001

_VALUES = [((i * 2654435761) % 4294967296) / 4294967296 for i in range(256)]


def slice_seconds() -> float:
    """Wall time of one fixed slice of deque, list and integer work."""
    start = perf_counter()
    window = deque(range(64))
    values = _VALUES
    acc = 0
    for i in range(ITERATIONS):
        if values[i & 255] < 0.3:
            window.append(window.popleft())
        elif (i & 63) in window:
            acc += 1
        else:
            acc ^= i
    return perf_counter() - start


def factor(slices: list[float]) -> float:
    """Multiplier that takes times measured next to ``slices`` to the reference speed."""
    return REFERENCE_S / median(slices)
