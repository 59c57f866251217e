"""Timing normalised by the machine's momentary speed.

On a shared two-core machine a fixed numpy kernel runs 1.6 to 1.9 times
slower for seconds, and sometimes whole minutes, at a time.  Process time
slows as much as wall time, because other tenants share the cores.  Raw
wall-time medians of the same operation then spread by up to 36% across
runs, and a run can fall entirely inside a slow stretch.

So every timed interval is bracketed by a fixed kernel with the two kinds
of work of the solver's sweeps (see kernel_seconds).  The interval's wall
time is divided by the mean of the two kernel times around it and
multiplied by REFERENCE_KERNEL_S, the kernel's time at full speed on the
two-core machine the bounds were set on.  The result reads as seconds
at that machine's full speed.  The kernel does not call the package, so a
change to the package cannot move it.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

KERNEL_SIZE = 24
KERNEL_LOOPS = 600
KERNEL_BATCH = 512
KERNEL_MATMULS = 8
REFERENCE_KERNEL_S = 0.0125


def kernel_seconds() -> float:
    """Seconds for a fixed kernel with both kinds of work the solver does:
    small solves and products in a Python loop, and batched products over a
    4 MiB stack of 32 x 32 matrices."""
    a = np.eye(KERNEL_SIZE) + np.full((KERNEL_SIZE, KERNEL_SIZE), 0.01)
    b = np.ones(KERNEL_SIZE)
    stack = np.broadcast_to(0.1 * np.eye(32), (KERNEL_BATCH, 32, 32)).copy()
    start = time.perf_counter()
    for _ in range(KERNEL_LOOPS):
        np.linalg.solve(a, b)
        a @ a
    for _ in range(KERNEL_MATMULS):
        np.matmul(stack, stack)
    return time.perf_counter() - start


@dataclass
class Interval:
    wall: float = float("nan")
    before: float = float("nan")  # kernel seconds just before
    after: float = float("nan")  # kernel seconds just after

    @property
    def normalised(self) -> float:
        """Wall seconds at the reference machine's full speed."""
        return self.wall * REFERENCE_KERNEL_S / (0.5 * (self.before + self.after))


class Clock:
    """Brackets intervals with the kernel and keeps every kernel time."""

    def __init__(self):
        self.kernel_s: list[float] = []

    def _probe(self) -> float:
        seconds = kernel_seconds()
        self.kernel_s.append(seconds)
        return seconds

    @contextmanager
    def interval(self):
        """Time the block; the yielded Interval is filled in on exit."""
        span = Interval(before=self._probe())
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.wall = time.perf_counter() - start
            span.after = self._probe()
