"""Per-node collector shards — the local half of the telemetry plane.

A :class:`NodeShard` *is* a :class:`~repro.obs.collector.TraceCollector`
(every ``obs.wants`` / ``obs.emit`` guard in the tree works against it
unchanged) that retains every event by construction — it subscribes
itself, unfiltered, so no kind is ever declined — but instead of
accumulating an unbounded in-process event list it:

* keeps the last ``ring_capacity`` events in a bounded ring — the
  flight recorder's raw material, sized so a crash dump is always
  cheap and always recent;
* batches events into :class:`~repro.obs.plane.frames.TelemetryFrame`
  objects and hands them to a ``sink`` callable every ``flush_every``
  events (the live sideband's outbound queue, or the loopback used by
  simulator runs and tests).

The shard never blocks the emitting protocol code: ``sink`` is a plain
synchronous callable that enqueues (the sideband's writer task does the
socket I/O), and a shard with no sink behaves exactly like a
``keep_events=False`` collector plus a ring.

Shard-local sequence numbers are the loss-accounting substrate: the
shard's ``_seq`` (inherited from the collector) numbers every event it
ever saw, frames record the ``[first_seq, first_seq+n)`` range they
carry, and the aggregator cross-checks both so any dropped frame shows
up as a counted gap rather than silence.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.obs.collector import TraceCollector
from repro.obs.events import TraceEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.plane.frames import TelemetryFrame

__all__ = ["NodeShard"]

#: Default ring size — the flight recorder's "last N causal events".
DEFAULT_RING_CAPACITY = 256

#: Default batch size before a frame is cut.
DEFAULT_FLUSH_EVERY = 32


class NodeShard(TraceCollector):
    """Bounded, frame-flushing collector owned by one node.

    Parameters
    ----------
    node:
        Shard identity (node id, ``"server"``, or ``"rt"``).
    sink:
        Callable receiving each cut :class:`TelemetryFrame`; None for a
        free-standing shard (ring only).
    ring_capacity:
        Events retained for the flight recorder.
    flush_every:
        Batch size; a frame is cut as soon as this many events are
        pending.  :meth:`flush` cuts a partial frame on demand (the
        sideband heartbeat calls it so idle shards still advance the
        aggregator's watermark).
    wall_offset:
        Added to every wall stamp this shard produces — test hook for
        exercising the aggregator's skew estimation without actually
        skewing a clock.
    """

    def __init__(
        self,
        node: Any,
        sink: Optional[Callable[[TelemetryFrame], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        wall_offset: float = 0.0,
    ):
        super().__init__(metrics=metrics, keep_events=False)
        self.node = node
        self.sink = sink
        self.ring: Deque[TraceEvent] = deque(maxlen=ring_capacity)
        self.flush_every = max(1, int(flush_every))
        self.wall_offset = wall_offset
        self.frames_cut = 0
        self._pending: List[TraceEvent] = []
        self._pending_first_seq = 0
        # The shard is its own first, unfiltered reader: that is what
        # makes every kind wanted, so ring and frames miss nothing.
        self.subscribe(self._retain)

    def _retain(self, event: TraceEvent) -> None:
        if event.wall is not None and self.wall_offset:
            event.wall += self.wall_offset
        self.ring.append(event)
        if not self._pending:
            self._pending_first_seq = event.seq
        self._pending.append(event)
        if len(self._pending) >= self.flush_every:
            self.flush()

    def flush(self) -> Optional[TelemetryFrame]:
        """Cut a frame from pending events and push it to the sink.

        Always cuts — an empty frame (``n_events=0``) when nothing is
        pending, which is the heartbeat that carries the shard's wall
        clock to the aggregator and lets idle shards vote in the
        watermark merge instead of stalling it.  Returns the frame (or
        None when there is no sink *and* nothing pending, where a frame
        would serve nobody).
        """
        if not self._pending and self.sink is None:
            return None
        self.frames_cut += 1
        frame = TelemetryFrame(
            node=self.node,
            frame_seq=self.frames_cut,
            first_seq=self._pending_first_seq if self._pending else 0,
            n_events=len(self._pending),
            sent_wall=self._now_wall(),
            events=list(self._pending),
        )
        self._pending.clear()
        if self.sink is not None:
            self.sink(frame)
        return frame

    def _now_wall(self) -> float:
        base = self._wall() if self._wall is not None else 0.0
        return base + self.wall_offset

    def ring_events(self) -> List[TraceEvent]:
        """Flight-recorder view: the retained tail, oldest first."""
        return list(self.ring)

    def pending_events(self) -> int:
        """Events emitted but not yet framed (test/diagnostic hook)."""
        return len(self._pending)
