"""Wiring the monitor onto live clusters, trace files, and histories.

Three ingestion paths, one monitor:

* :func:`attach_monitor` — judge a live cluster while it runs (the
  ``repro monitor`` CLI's live-attach mode).  With no collector
  attached, a :class:`_CommitTee` stands in for each node's history
  recorder and hands every committed op to the monitor as the node
  records it: no collector, no event built.  A cluster that already
  has a collector (or a telemetry plane) is judged on that stream
  instead: the monitor subscribes to its ``proto.op.commit`` events.
* :func:`feed_trace` — replay an exported trace file (``repro trace
  --format json``) or an in-memory event list through the monitor.
* :func:`feed_history` — drive the monitor from an offline
  :class:`~repro.checker.history.History`, round-robin across processes
  (on a complete stream any per-process-ordered interleaving yields the
  same verdicts; the differential harness relies on this).
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


class _CommitTee:
    """Stands in for one node's ``recorder``: records, then feeds.

    ``recorder`` is what it replaced — the history recorder, ``None``
    under ``record_history=False``, or another monitor's tee.
    """

    __slots__ = ("node", "recorder", "feed_op")

    def __init__(self, node, feed_op):
        self.node = node
        self.recorder = node.recorder
        self.feed_op = feed_op
        node.recorder = self

    def record_read(self, proc, location, value, read_from):
        if self.recorder is not None:
            self.recorder.record_read(proc, location, value, read_from)
        self.feed_op(proc, "r", location, value, read_from)

    def record_write(self, proc, location, value, write_id):
        if self.recorder is not None:
            self.recorder.record_write(proc, location, value, write_id)
        self.feed_op(proc, "w", location, value, write_id)

    def unlink(self) -> None:
        holder = self.node
        while holder.recorder is not self:
            holder = holder.recorder
        holder.recorder = self.recorder


class MonitorSubscription:
    """A monitor attached to a collector or to nodes' commits; detachable."""

    def __init__(
        self, monitor: CausalStreamMonitor, collector=None, sim=None, nodes=()
    ):
        self.monitor = monitor
        self.collector = collector
        self._sim = sim
        self._ticks_at_attach = self._ticks()
        if collector is not None:
            collector.subscribe(
                monitor.observe, category="proto", name="op.commit"
            )
        self._tees = [_CommitTee(node, monitor.feed_op) for node in nodes]

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
        """Unsubscribe from the collector, or unlink exactly our tees."""
        if self.collector is not None:
            self.collector.unsubscribe(self.monitor.observe)
        for tee in self._tees:
            tee.unlink()
        self._tees = []

    def result(self) -> MonitorResult:
        return self.monitor.result()


def attach_monitor(
    cluster,
    monitor: Optional[CausalStreamMonitor] = None,
    **monitor_kwargs,
) -> MonitorSubscription:
    """Attach a streaming monitor to a live cluster.

    A cluster with a collector (or a telemetry plane) is judged on that
    stream's ``proto.op.commit`` events, and the monitor's metrics go to
    the collector's registry.  A cluster with none gets none: each
    node's commits reach the monitor where the node records them, and
    the metrics go to a registry of the monitor's own
    (``subscription.monitor.metrics``).  Extra keyword arguments go to
    the :class:`CausalStreamMonitor` constructor.
    """
    collector = cluster.obs
    if collector is not None:
        metrics, nodes = collector.metrics, ()
    else:
        # Imported here: ``repro.obs`` is a package of ~25 modules.
        from repro.obs.metrics import MetricsRegistry

        metrics, nodes = MetricsRegistry(), cluster.nodes
    if monitor is None:
        monitor = CausalStreamMonitor(
            cluster.n_nodes,
            metrics=monitor_kwargs.pop("metrics", metrics),
            **monitor_kwargs,
        )
    return MonitorSubscription(monitor, collector, cluster.sim, nodes)


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
    # The plane's merged collector is its cluster's ``obs``.
    subscription = attach_monitor(plane.cluster, monitor, **monitor_kwargs)
    plane.watch_monitor(subscription.monitor)
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
    on a complete stream any such interleaving produces identical
    verdicts.
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
