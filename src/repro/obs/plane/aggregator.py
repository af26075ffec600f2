"""The :class:`TelemetryAggregator` — per-node streams to one trace.

The aggregation problem (PAPERS.md, "On the Limits of Causal
Observation in Shared-Memory Systems"): each shard delivers its own
events in emission order, but nothing orders events *across* shards
except (a) the vector clocks the events already carry and (b) wall
clocks of unknown relative skew.  The aggregator produces a single
stream that is

* **per-source FIFO** — events from one shard are released in shard
  order, always (this is the property the streaming monitor's
  soundness actually depends on: ``CausalStreamMonitor`` derives its
  own happens-before from program order plus reads-from, so *any*
  per-process-ordered interleaving yields identical verdicts);
* **causally coherent** — when vector clocks order two pending head
  events, the causally smaller one is released first, so downstream
  exporters see a linear extension of happens-before rather than an
  arbitrary shuffle;
* **skew-corrected** — concurrent (clock-incomparable) heads are tie
  broken by wall time minus the per-node skew estimate, then by
  ``(node, seq)`` for determinism.

Skew estimation is NTP's one-way half: every frame carries the shard's
send wall time; ``sent_wall - recv_wall`` observed at the aggregator is
(true skew − network delay), so its *maximum* over frames approaches
the true skew from below as delay approaches its floor.  We subtract
that estimate from each node's wall stamps before comparing.  This is
an estimate, not truth — which is exactly why it is only a tie-break
for events the clocks already declare concurrent, never an override of
a causal order.

Loss accounting: frames and events are sequence-numbered at the shard.
A missing frame or a hole in the event range increments ``frames_lost``
/ ``events_lost`` and appends a human-readable entry to ``gaps``.  The
merged stream also receives a ``plane.gap`` event so the loss is in the
trace itself — telemetry loss is *reported*, never silent.

Releasing: an event is held until every other open source has either a
pending event or a watermark (latest corrected wall seen) past the
candidate's corrected wall — the standard streaming watermark bargain.
Heartbeat frames advance watermarks, so idle shards do not stall the
merge; :meth:`close`/:meth:`drain` release everything at end of run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.collector import TraceCollector
from repro.obs.events import TraceEvent
from repro.obs.plane.frames import TelemetryFrame

__all__ = ["TelemetryAggregator", "SourceState"]


class SourceState:
    """Aggregator-side bookkeeping for one shard stream."""

    __slots__ = (
        "node",
        "queue",
        "next_frame_seq",
        "next_event_seq",
        "watermark",
        "skew",
        "frames_seen",
        "events_seen",
        "closed",
    )

    def __init__(self, node: Any):
        self.node = node
        self.queue: Deque[TraceEvent] = deque()
        self.next_frame_seq = 1
        self.next_event_seq = 1
        #: Latest *corrected* wall time this source is known past.
        self.watermark = float("-inf")
        #: Estimated wall offset of this node relative to the
        #: aggregator (min over frames of sent_wall - recv_wall is a
        #: lower bound; see module docstring).  None until first frame.
        self.skew: Optional[float] = None
        self.frames_seen = 0
        self.events_seen = 0
        self.closed = False

    def corrected(self, wall: Optional[float]) -> float:
        if wall is None:
            return float("-inf")
        return wall - (self.skew or 0.0)


class TelemetryAggregator:
    """Merge per-node telemetry frame streams into one causal trace.

    Parameters
    ----------
    out:
        Destination collector; merged events are replayed into it via
        :meth:`TraceCollector.ingest`, so exporters read ``out.events``
        and the monitor subscribes to ``out`` exactly as they would on
        a direct-attached collector.  A fresh collector by default.
    expected:
        Shard ids that must register before streaming starts; sources
        may also appear dynamically on first frame.
    on_gap:
        Optional callback invoked with each gap description string (the
        dashboard's loss ticker).
    """

    def __init__(
        self,
        out: Optional[TraceCollector] = None,
        expected: Optional[List[Any]] = None,
        on_gap: Optional[Callable[[str], None]] = None,
    ):
        self.out = out if out is not None else TraceCollector()
        self.sources: Dict[Any, SourceState] = {}
        self.on_gap = on_gap
        self.frames_merged = 0
        self.events_merged = 0
        self.frames_lost = 0
        self.events_lost = 0
        self.gaps: List[str] = []
        self._recv_wall: Optional[Callable[[], float]] = None
        for node in expected or ():
            self.add_source(node)

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    def add_source(self, node: Any) -> SourceState:
        """Register a shard stream (idempotent)."""
        state = self.sources.get(node)
        if state is None:
            state = self.sources[node] = SourceState(node)
        return state

    def bind_recv_wall(self, source: Callable[[], float]) -> None:
        """Wall-clock source for frame-arrival stamps (skew input)."""
        self._recv_wall = source

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def feed(self, frame: TelemetryFrame, recv_wall: Optional[float] = None) -> None:
        """Accept one frame from a shard; merge whatever is releasable.

        ``recv_wall`` defaults to the bound receive clock; passing it
        explicitly makes skew tests deterministic.
        """
        state = self.add_source(frame.node)
        if recv_wall is None and self._recv_wall is not None:
            recv_wall = self._recv_wall()

        # Skew estimate: observed (sent - recv) equals sender skew
        # minus network delay, and delay only ever *lowers* it — so
        # the max of observations approaches true skew from below.
        if recv_wall is not None:
            observed = frame.sent_wall - recv_wall
            if state.skew is None or observed > state.skew:
                state.skew = observed

        # Frame-level gap accounting (dropped frames consume numbers).
        if frame.frame_seq < state.next_frame_seq:
            self._record_gap(
                f"node {frame.node}: duplicate/stale frame {frame.frame_seq} "
                f"(expected {state.next_frame_seq}) — ignored"
            )
            return
        if frame.frame_seq > state.next_frame_seq:
            missing = frame.frame_seq - state.next_frame_seq
            self.frames_lost += missing
            self._record_gap(
                f"node {frame.node}: lost {missing} frame(s) "
                f"[{state.next_frame_seq}..{frame.frame_seq - 1}]"
            )
        state.next_frame_seq = frame.frame_seq + 1
        state.frames_seen += 1
        self.frames_merged += 1

        # Event-level gap accounting inside the surviving stream.
        if frame.n_events:
            if frame.first_seq > state.next_event_seq:
                missing = frame.first_seq - state.next_event_seq
                self.events_lost += missing
                self._record_gap(
                    f"node {frame.node}: lost {missing} event(s) "
                    f"[{state.next_event_seq}..{frame.first_seq - 1}]"
                )
                self._emit_gap_event(frame.node, state.next_event_seq, missing)
            state.next_event_seq = frame.first_seq + frame.n_events
            state.events_seen += frame.n_events
            state.queue.extend(frame.events)

        # Watermark: this source is now known past its send time.
        corrected = state.corrected(frame.sent_wall)
        if corrected > state.watermark:
            state.watermark = corrected

        self._release()

    def reconcile(self, node: Any, frames_cut: int, last_event_seq: int) -> None:
        """End-of-run tail-loss accounting for one source.

        A frame dropped at the very end of a run leaves no later frame
        to reveal the gap, so the transport reports what the shard
        actually produced (``frames_cut`` frames, events up to
        ``last_event_seq``) and anything the merge never saw is booked
        as loss here.
        """
        state = self.add_source(node)
        missing_frames = frames_cut - (state.next_frame_seq - 1)
        if missing_frames > 0:
            self.frames_lost += missing_frames
            self._record_gap(
                f"node {node}: {missing_frames} frame(s) lost at tail "
                f"[{state.next_frame_seq}..{frames_cut}]"
            )
        missing_events = last_event_seq - (state.next_event_seq - 1)
        if missing_events > 0:
            self.events_lost += missing_events
            self._record_gap(
                f"node {node}: {missing_events} event(s) lost at tail "
                f"[{state.next_event_seq}..{last_event_seq}]"
            )
            self._emit_gap_event(node, state.next_event_seq, missing_events)
            state.next_event_seq = last_event_seq + 1
        state.next_frame_seq = max(state.next_frame_seq, frames_cut + 1)

    def drain(self, force: bool = False) -> None:
        """Release pending events; with ``force`` ignore watermarks.

        Called at end of run after every stream closed — whatever is
        still queued must come out, in the best order we can justify.
        """
        if force:
            for state in self.sources.values():
                state.closed = True
        self._release()

    def close(self) -> None:
        """End of run: close every source and flush the merge."""
        self.drain(force=True)

    # ------------------------------------------------------------------
    # The merge
    # ------------------------------------------------------------------
    def _release(self) -> None:
        while True:
            candidate = self._pick_head()
            if candidate is None:
                return
            state, event = candidate
            state.queue.popleft()
            self.events_merged += 1
            self.out.ingest(event)

    def _pick_head(self) -> Optional[Tuple[SourceState, TraceEvent]]:
        """Choose the next releasable head event, or None to wait.

        Eligibility: every open source must either have a queued head
        (so we can compare) or a watermark at/after the winning head's
        corrected wall (so nothing earlier can still arrive from it).
        Among eligible heads, prefer a causally minimal one (vector
        clocks); break ties by corrected wall, then ``(node, seq)``.
        """
        heads: List[Tuple[SourceState, TraceEvent]] = [
            (state, state.queue[0])
            for state in self.sources.values()
            if state.queue
        ]
        if not heads:
            return None

        # Causal minimality first: never release an event while a head
        # that happens-before it is pending.
        minimal = [
            (state, event)
            for state, event in heads
            if not any(
                other is not event and _clock_lt(other.clock, event.clock)
                for _, other in heads
            )
        ]
        minimal.sort(
            key=lambda pair: (
                pair[0].corrected(pair[1].wall),
                _node_sort_key(pair[0].node),
                pair[1].seq,
            )
        )
        state, event = minimal[0]

        # Watermark gate: a silent open source might still deliver an
        # earlier event; hold until its watermark clears the candidate.
        candidate_wall = state.corrected(event.wall)
        for other in self.sources.values():
            if other is state or other.closed or other.queue:
                continue
            if other.watermark < candidate_wall:
                return None
        return state, event

    # ------------------------------------------------------------------
    # Loss reporting
    # ------------------------------------------------------------------
    def _record_gap(self, description: str) -> None:
        self.gaps.append(description)
        if self.on_gap is not None:
            self.on_gap(description)

    def _emit_gap_event(self, node: Any, first_missing: int, count: int) -> None:
        """Materialise the loss in the merged trace itself."""
        self.out.emit(
            "plane",
            "gap",
            node=node if isinstance(node, int) else None,
            source=str(node),
            first_missing=first_missing,
            count=count,
        )

    def stats(self) -> Dict[str, Any]:
        """Aggregation summary (bench/dashboard payload)."""
        return {
            "sources": len(self.sources),
            "frames_merged": self.frames_merged,
            "events_merged": self.events_merged,
            "frames_lost": self.frames_lost,
            "events_lost": self.events_lost,
            "gaps": list(self.gaps),
            "skew_est": {
                str(node): state.skew
                for node, state in sorted(
                    self.sources.items(), key=lambda kv: _node_sort_key(kv[0])
                )
                if state.skew is not None
            },
        }


def _clock_lt(a: Optional[Tuple[int, ...]], b: Optional[Tuple[int, ...]]) -> bool:
    """Strict vector-clock order; unstamped events are incomparable."""
    if a is None or b is None or len(a) != len(b):
        return False
    return all(x <= y for x, y in zip(a, b)) and a != b


def _node_sort_key(node: Any) -> Tuple[int, str]:
    """Total order over shard ids: ints first, then strings."""
    if isinstance(node, int):
        return (0, f"{node:012d}")
    return (1, str(node))
