"""Wiring the monitor onto live clusters, trace files, and histories.

Three ingestion paths, one monitor:

* :func:`attach_monitor` — subscribe to a live cluster's collector (the
  ``repro monitor`` CLI's live-attach mode).  The monitor sees each
  ``proto.op.commit`` the instant it is emitted — on a metrics-only
  collector that is the one event kind built at all.
* :func:`feed_trace` — replay an exported trace file (``repro trace
  --format json``) or an in-memory event list through the monitor.
* :func:`feed_history` — drive the monitor from an offline
  :class:`~repro.checker.history.History`, round-robin across processes
  (any per-process-ordered interleaving yields the same verdicts; the
  differential harness relies on this).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.monitor.monitor import CausalStreamMonitor, MonitorResult

__all__ = [
    "MonitorSubscription",
    "attach_monitor",
    "attach_plane_monitor",
    "feed_trace",
    "feed_history",
]


class MonitorSubscription:
    """A monitor attached to one live collector; detachable."""

    def __init__(self, monitor: CausalStreamMonitor, collector, sim=None):
        self.monitor = monitor
        self.collector = collector
        self._sim = sim
        self._ticks_at_attach = self._ticks()
        collector.subscribe(monitor.observe, category="proto", name="op.commit")

    def _ticks(self) -> int:
        # The counter the substrate keeps anyway: kernel events on the
        # simulator, delivered frames on the live runtime.
        if hasattr(self._sim, "events_processed"):
            return self._sim.events_processed
        return getattr(self._sim, "frames_delivered", 0)

    @property
    def kernel_events(self) -> int:
        """Substrate events executed since the monitor was attached."""
        return self._ticks() - self._ticks_at_attach

    def detach(self) -> None:
        """Unsubscribe from the collector."""
        self.collector.unsubscribe(self.monitor.observe)

    def result(self) -> MonitorResult:
        return self.monitor.result()


def attach_monitor(
    cluster,
    monitor: Optional[CausalStreamMonitor] = None,
    collector=None,
    **monitor_kwargs,
) -> MonitorSubscription:
    """Attach a streaming monitor to a live cluster.

    Uses the cluster's already-attached collector when it has one;
    otherwise attaches ``collector`` (or a fresh metrics-only one — the
    monitor does not need the event list, so ``keep_events=False``
    keeps long runs bounded).  Extra keyword arguments go to the
    :class:`CausalStreamMonitor` constructor.
    """
    if cluster.obs is not None:
        collector = cluster.obs
    else:
        if collector is None:
            from repro.obs.collector import TraceCollector

            collector = TraceCollector(keep_events=False)
        cluster.attach_obs(collector)
    if monitor is None:
        monitor = CausalStreamMonitor(
            cluster.n_nodes,
            metrics=monitor_kwargs.pop("metrics", collector.metrics),
            **monitor_kwargs,
        )
    return MonitorSubscription(monitor, collector, sim=cluster.sim)


def attach_plane_monitor(
    plane,
    monitor: Optional[CausalStreamMonitor] = None,
    **monitor_kwargs,
) -> MonitorSubscription:
    """Attach a streaming monitor to a telemetry plane's merged stream.

    The monitor subscribes to the plane's *output* collector — the
    causally ordered merge of every per-node shard — so its verdicts
    are computed from exactly what the aggregator reconstructed, gaps
    and all.  The soundness argument: the merge preserves each
    process's program order (per-source FIFO), and the monitor's
    parking resolves cross-process reads-from ordering, so any
    per-process-ordered interleaving — including the merged one —
    yields the same verdicts as a direct per-node attachment.

    Also registers the monitor with the plane (``watch_monitor``) so a
    violation verdict trips the flight recorder at the moment of the
    bad read.
    """
    if monitor is None:
        monitor = CausalStreamMonitor(
            plane.cluster.n_nodes,
            metrics=monitor_kwargs.pop("metrics", plane.out.metrics),
            **monitor_kwargs,
        )
    subscription = MonitorSubscription(monitor, plane.out, sim=None)
    plane.watch_monitor(monitor)
    return subscription


def feed_trace(
    monitor: CausalStreamMonitor,
    trace: Union[str, Path, Iterable],
) -> MonitorResult:
    """Replay a trace through the monitor and return its verdict.

    ``trace`` may be a path to a ``repro trace --format json`` export, a
    list of serialised event dicts (optionally wrapped in an object with
    an ``"events"`` key, the counterexample layout), or an iterable of
    :class:`~repro.obs.events.TraceEvent` objects.
    """
    from repro.obs.events import TraceEvent

    if isinstance(trace, (str, Path)):
        trace = json.loads(Path(trace).read_text())
    if isinstance(trace, dict):
        trace = trace.get("events", [])
    for item in trace:
        event = (
            TraceEvent.from_jsonable(item) if isinstance(item, dict) else item
        )
        monitor.observe(event)
    return monitor.result()


def feed_history(
    monitor: CausalStreamMonitor, history
) -> MonitorResult:
    """Drive the monitor from an offline history (the differential path).

    Feeds round-robin, one op per process per round, preserving program
    order within each process — the only ordering the live stream
    guarantees.  Parking resolves cross-process reads-from ordering, so
    any such interleaving produces identical verdicts.
    """
    queues: List[List] = [list(ops) for ops in history.processes]
    cursors = [0] * len(queues)
    remaining = sum(len(q) for q in queues)
    while remaining:
        for proc, queue in enumerate(queues):
            cursor = cursors[proc]
            if cursor >= len(queue):
                continue
            op = queue[cursor]
            cursors[proc] = cursor + 1
            remaining -= 1
            monitor.feed_op(
                proc=op.proc,
                kind=op.kind,
                location=op.location,
                value=op.value,
                source=op.write_id if op.is_write else op.read_from,
            )
    return monitor.result()
