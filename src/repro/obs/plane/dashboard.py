"""``repro top`` — the live terminal dashboard over the merged stream.

Split the way every testable UI is split: :func:`collect` snapshots a
:class:`DashboardState` from the runtime/plane/monitor objects, and
:func:`render` turns one state into a string — both pure enough to
assert on in tier-1 tests without a TTY or an event loop.  The
:class:`Dashboard` ticker is the only asyncio piece: started by the
plane when the live run comes up, it repaints every ``interval``
seconds (ANSI home-and-clear in TTY mode, plain append in ``--plain``
mode for CI logs) and prints one final frame at teardown.

What the panel shows, and where each number comes from:

* **ops/s** — the merged stream's ``proto.op.commit`` counter (shards
  share the plane's metrics registry, so this ticks in real time, not
  merge time), differenced per repaint interval.
* **per-link rows** — ``AsyncioRuntime.link_stats()``: model bytes
  (the simulator-comparable wire model) beside actual socket bytes,
  the ``transport.write`` calls that carried them and the outbound
  queue depth, per directed channel.
* **resyncs / drops** — the runtime's codec-resync and dropped-frame
  counters.
* **telemetry** — frames/events merged and lost, per-node skew
  estimates (the plane watching itself).
* **monitor canary** — reads checked and violation count from the
  attached :class:`~repro.monitor.monitor.CausalStreamMonitor`; `OK`
  turns to `VIOLATION` the repaint after a bad read.
* **latency** — p50/p95/p99 over the workload's sampled per-op
  completion latencies.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Any, Dict, List, Optional

__all__ = ["DashboardState", "collect", "render", "Dashboard"]

#: ANSI: cursor home + clear-to-end (repaint without scrollback spam).
_REPAINT = "\x1b[H\x1b[J"


class DashboardState:
    """One repaint's worth of numbers (plain attributes, no behaviour)."""

    __slots__ = (
        "elapsed", "ops_total", "ops_rate", "links", "resyncs", "dropped",
        "frames_merged", "frames_lost", "events_merged", "events_lost",
        "skew_est", "gaps", "monitor_reads", "monitor_violations",
        "latency_p50", "latency_p95", "latency_p99", "sideband_bytes",
    )

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.ops_total = 0
        self.ops_rate = 0.0
        #: The runtime's :class:`~repro.runtime.live.LinkStats` records.
        self.links: List[Any] = []
        self.resyncs = 0
        self.dropped = 0
        self.frames_merged = 0
        self.frames_lost = 0
        self.events_merged = 0
        self.events_lost = 0
        self.skew_est: Dict[str, float] = {}
        self.gaps: List[str] = []
        self.monitor_reads: Optional[int] = None
        self.monitor_violations: Optional[int] = None
        self.latency_p50: Optional[float] = None
        self.latency_p95: Optional[float] = None
        self.latency_p99: Optional[float] = None
        self.sideband_bytes = 0


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def collect(
    runtime,
    plane=None,
    monitor=None,
    latencies: Optional[List[float]] = None,
    prev: Optional[DashboardState] = None,
    interval: float = 0.0,
) -> DashboardState:
    """Snapshot everything the panel shows into one state object."""
    state = DashboardState()
    state.elapsed = runtime.now
    state.resyncs = runtime.resyncs
    state.dropped = runtime.stats.dropped

    state.links = runtime.link_stats()

    if plane is not None:
        counter = plane.out.metrics.counter("proto.op.commit")
        state.ops_total = counter.value
        agg = plane.aggregator
        state.frames_merged = agg.frames_merged
        state.frames_lost = agg.frames_lost
        state.events_merged = agg.events_merged
        state.events_lost = agg.events_lost
        state.gaps = list(agg.gaps[-3:])
        state.skew_est = {
            str(node): src_state.skew
            for node, src_state in agg.sources.items()
            if src_state.skew is not None
        }
        if plane.sideband is not None:
            state.sideband_bytes = plane.sideband.sideband_bytes
    if prev is not None and interval > 0:
        state.ops_rate = max(0.0, (state.ops_total - prev.ops_total) / interval)

    if monitor is not None:
        state.monitor_reads = monitor.reads_checked
        state.monitor_violations = monitor.n_violations

    if latencies:
        ordered = sorted(latencies)
        state.latency_p50 = _percentile(ordered, 0.50)
        state.latency_p95 = _percentile(ordered, 0.95)
        state.latency_p99 = _percentile(ordered, 0.99)
    return state


def _fmt_bytes(n: int) -> str:
    if n >= 1024 * 1024:
        return f"{n / (1024 * 1024):.1f}M"
    if n >= 1024:
        return f"{n / 1024:.1f}K"
    return str(n)


def render(state: DashboardState, width: int = 78) -> str:
    """One state -> one panel (pure; the tests' entry point)."""
    bar = "─" * width
    lines = [
        f"repro top · t={state.elapsed:6.2f}s · "
        f"ops {state.ops_total} ({state.ops_rate:.0f}/s) · "
        f"resyncs {state.resyncs} · drops {state.dropped}",
        bar,
        "link      msgs   model-B   socket-B  writes   queue",
    ]
    for link in state.links:
        lines.append(
            f"{link.src}->{link.dst:<5} {link.messages:6d} "
            f"{_fmt_bytes(link.model_bytes):>9} "
            f"{_fmt_bytes(link.socket_bytes):>10} {link.socket_writes:7d} "
            f"{link.queue_depth:7d}"
        )
    if not state.links:
        lines.append("  (no traffic yet)")
    lines.append(bar)
    lines.append(
        f"telemetry: frames {state.frames_merged} (lost {state.frames_lost}) "
        f"· events {state.events_merged} (lost {state.events_lost}) "
        f"· sideband {_fmt_bytes(state.sideband_bytes)}B"
    )
    if state.skew_est:
        skews = " ".join(
            f"{node}:{skew * 1000.0:+.2f}ms"
            for node, skew in sorted(state.skew_est.items())
        )
        lines.append(f"skew est:  {skews}")
    for gap in state.gaps:
        lines.append(f"gap:       {gap}")
    if state.monitor_reads is not None:
        verdict = (
            "OK"
            if not state.monitor_violations
            else f"VIOLATION x{state.monitor_violations}"
        )
        lines.append(
            f"monitor:   {verdict} · reads checked {state.monitor_reads}"
        )
    if state.latency_p50 is not None:
        lines.append(
            f"latency:   p50 {state.latency_p50 * 1000.0:.2f}ms · "
            f"p95 {state.latency_p95 * 1000.0:.2f}ms · "
            f"p99 {state.latency_p99 * 1000.0:.2f}ms"
        )
    return "\n".join(lines)


class Dashboard:
    """The asyncio repaint loop (plane-started, plane-stopped)."""

    def __init__(
        self,
        interval: float = 0.2,
        plain: bool = False,
        out=None,
    ):
        self.interval = interval
        self.plain = plain
        self.out = out if out is not None else sys.stdout
        self.latencies: Optional[List[float]] = None
        self.monitor = None
        self.frames_painted = 0
        self.last_state: Optional[DashboardState] = None
        self._task: Optional[asyncio.Task] = None
        self._runtime = None
        self._plane = None

    def start(self, plane) -> None:
        """Begin repainting (called from inside the running loop)."""
        self._plane = plane
        self._runtime = plane.cluster.runtime
        self._task = asyncio.ensure_future(self._loop())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
            self._task = None
        self.paint()  # final frame: the run's closing numbers

    def paint(self) -> None:
        state = collect(
            self._runtime,
            plane=self._plane,
            monitor=self.monitor,
            latencies=self.latencies,
            prev=self.last_state,
            interval=self.interval,
        )
        self.last_state = state
        panel = render(state)
        if self.plain:
            self.out.write(panel + "\n\n")
        else:
            self.out.write(_REPAINT + panel + "\n")
        self.out.flush()
        self.frames_painted += 1

    async def _loop(self) -> None:
        while True:
            self.paint()
            await asyncio.sleep(self.interval)
