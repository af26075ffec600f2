"""Machine-speed calibration and the statistics every report uses.

The sandbox's speed wanders: over seven minutes one 8 000-op simulation
measured between 13k and 39k ops/s.  So each timed repeat is bracketed
by :func:`spin_mops`, a fixed pure-Python loop, and CPU-bound timings
are scaled to ``spec.REF_SPIN_MOPS`` by the mean of the two.

The loop is a miniature event simulation rather than a bare counter:
the slow-downs are not uniform (a tight integer loop lost 2.2x in the
same minutes the simulator lost 3x), and medians of eight consecutive
runs scaled by an integer loop still spread 3.7-5.8 % (quartile
distance over median, on the simulator, the checker and the live
runtime) against 2.8-3.4 % for this loop.  It touches what the measured
program touches - heap pushes and pops, slotted objects, bound-method
calls, tuple merges, string-keyed dicts - but none of its code.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter
from typing import Dict, Sequence

from perf.spec import REF_SPIN_MOPS

#: ~10 ms at the reference speed: repeats are a tenth of a second, and
#: a trace replay showed short calibrations between short repeats track
#: the machine twice as well as long ones between long repeats.
SPIN_EVENTS = 5_000
SMOKE_SPIN_EVENTS = 2_000
#: Interpreter-level operations in one trip round the loop (loads,
#: stores, calls, compares), rounded; only ratios of the result matter.
_OPS_PER_EVENT = 40
_WIDTH = 8


class _Event:
    __slots__ = ("callback", "arg")

    def __init__(self, callback, arg):
        self.callback = callback
        self.arg = arg


class _Node:
    def __init__(self, index: int):
        self.index = index
        self.stamp = (0,) * _WIDTH
        self.store: Dict[str, tuple] = {}

    def handle(self, message) -> None:
        src, location, stamp = message
        self.stamp = tuple(
            [a if a > b else b for a, b in zip(self.stamp, stamp)]
        )
        self.store[location] = (src, stamp)


def spin_mops(events: int = SPIN_EVENTS) -> float:
    """Millions of loop operations per second of the calibration loop."""
    started = perf_counter()
    nodes = [_Node(i) for i in range(_WIDTH)]
    locations = [f"loc{k}" for k in range(2 * _WIDTH)]
    queue: list = []
    for seq, node in enumerate(nodes):
        heapq.heappush(
            queue, (0.0, seq, _Event(node.handle, (seq, "loc0", node.stamp)))
        )
    seq = _WIDTH
    for done in range(1, events + 1):
        now, _, event = heapq.heappop(queue)
        event.callback(event.arg)
        node = nodes[done % _WIDTH]
        i = node.index
        stamp = node.stamp
        node.stamp = stamp = stamp[:i] + (stamp[i] + 1,) + stamp[i + 1:]
        seq += 1
        target = nodes[(done * 5) % _WIDTH]
        heapq.heappush(queue, (
            now + 1.0 + (done % 7) * 0.1, seq,
            _Event(target.handle, (i, locations[done % (2 * _WIDTH)], stamp)),
        ))
    return events * _OPS_PER_EVENT / 1e6 / (perf_counter() - started)


def scaled_time(value: float, spin: float) -> float:
    """A duration as the reference machine would have measured it."""
    return value * spin / REF_SPIN_MOPS


def scaled_rate(value: float, spin: float) -> float:
    """A rate as the reference machine would have measured it."""
    return value * REF_SPIN_MOPS / spin


#: Half-width, as a share of the sample, of the band of order
#: statistics a percentile is averaged over.
_BAND = 0.005


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Percentile of an ascending sequence: the mean of the order
    statistics within ``_BAND`` of the rank.

    Latencies under a fixed link delay are discrete (whole round trips),
    and the nearest-rank p99 of ``live-delay`` sits in the gap between
    the three- and the four-round-trip cluster (16-19 and 22-25 ms):
    0.1 % more or fewer slow ops moved it by 15 %.  The band mean moves
    in proportion to what changed.
    """
    n = len(sorted_values)
    low = min(n - 1, max(0, int((fraction - _BAND) * n)))
    high = min(n, max(low + 1, int((fraction + _BAND) * n)))
    return sum(sorted_values[low:high]) / (high - low)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's repeats."""
    if len(values) >= 2:
        # Inclusive: a run's four set-up times must not extrapolate past
        # their own minimum and maximum.
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }
