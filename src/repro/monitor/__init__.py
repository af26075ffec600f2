"""Streaming online causal-consistency monitoring (DESIGN.md §4.8).

The observability layer records what happened; this package judges it
*while it happens*: :class:`CausalStreamMonitor` consumes committed
operations (handed over by the nodes, or as ``proto.op.commit`` events
when a collector is attached) and maintains a bounded causal window
— per-process frontiers, candidate writes, exclusion notices — over
which every read is checked against Definition 2 the moment it commits.
On the full explorer corpus its verdicts coincide with the offline
:func:`repro.checker.check_causal` (the differential property test pins
this), and on a violation it hands its replay window to the
:mod:`repro.mc` shrinker for a replayable counterexample.
"""

from repro.monitor.monitor import (
    CausalStreamMonitor,
    MonitorOp,
    MonitorResult,
    MonitorVerdict,
    MonitorViolationError,
)
from repro.monitor.report import violation_counterexample
from repro.monitor.stream import (
    MonitorSubscription,
    attach_monitor,
    attach_plane_monitor,
    feed_history,
    feed_trace,
)

__all__ = [
    "CausalStreamMonitor",
    "MonitorOp",
    "MonitorResult",
    "MonitorVerdict",
    "MonitorViolationError",
    "MonitorSubscription",
    "attach_monitor",
    "attach_plane_monitor",
    "feed_history",
    "feed_trace",
    "violation_counterexample",
]
