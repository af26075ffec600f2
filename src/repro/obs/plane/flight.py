"""Flight recorder — last-N causal events to replayable counterexample.

Aviation semantics: the recorder rides along at near-zero cost (the
per-node shards already keep bounded rings), and only on an *incident*
— a node crash, a live-run timeout, or a streaming-monitor violation —
does it dump.  The dump is not a log file: it is a FORMAT_VERSION-2
:class:`~repro.mc.counterexample.Counterexample`, the same artifact the
schedule explorer produces, so ``python -m repro.mc replay`` re-executes
and re-checks it with zero search.

Three incident kinds, three reconstruction strategies:

* **monitor violation** — the window provably contains a violating
  program; delegate to
  :func:`~repro.monitor.report.violation_counterexample` (explorer
  search + shrink), then swap the explorer's synthetic trace for the
  *live* ring events, so the artifact carries what the real run saw.
* **timeout** (live run blocked past its deadline) — the committed-op
  window cannot re-block under reliable delivery (every op in it
  committed), so the recorder searches for a *deadlock under message
  loss* over the same window: a bounded random walk over controlled
  schedules with a drop budget, accepting the first blocked outcome.
  ``kind="deadlock"`` replays check that the schedule blocks again —
  :func:`repro.mc.counterexample.replay` verifies exactly that.
* **crash** — same window search, accepting a crashing outcome first
  and a blocked one as fallback.

All searches are budgeted and honest: ``dump`` returns ``None`` when
the budget exhausts without reproducing the incident shape, mirroring
``violation_counterexample``'s contract.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import TraceEvent

__all__ = ["FlightRecorder", "window_from_events", "deadlock_counterexample"]


def window_from_events(
    events: Sequence[TraceEvent], n_procs: Optional[int] = None
) -> List[List[Tuple]]:
    """Per-process op lists from ring ``proto.op.commit`` events.

    The inverse of the emit sites in :mod:`repro.protocols.base`: each
    commit event carries ``kind``/``location``/``value`` args and the
    emitting node id; per-source FIFO (shard rings are emission-ordered)
    means per-process program order is preserved — all the explorer
    needs.
    """
    per_proc: Dict[int, List[Tuple]] = {}
    for event in events:
        if event.category != "proto" or event.name != "op.commit":
            continue
        if event.node is None:
            continue
        kind = event.args.get("kind")
        location = event.args.get("location")
        if kind == "w":
            per_proc.setdefault(event.node, []).append(
                ("w", location, event.args.get("value"))
            )
        elif kind == "r":
            per_proc.setdefault(event.node, []).append(("r", location))
    if not per_proc:
        return []
    width = n_procs if n_procs is not None else max(per_proc) + 1
    return [per_proc.get(proc, []) for proc in range(width)]


def deadlock_counterexample(
    processes: Sequence[Sequence[Tuple]],
    protocol: str,
    owners: Optional[Dict[str, int]] = None,
    kind: str = "deadlock",
    description: str = "",
    seed: int = 0,
    max_schedules: int = 400,
    max_drops: int = 3,
    max_steps: int = 400,
    events: Sequence[TraceEvent] = (),
):
    """Search a window for a schedule that blocks (or crashes) again.

    A bounded random walk over :class:`~repro.mc.scheduler.ControlledRun`
    schedules with a message-drop budget.  The explorer's own
    ``evaluate_outcome`` deliberately treats blocked-under-drops as a
    non-violation (losing a message *should* block a reliable-delivery
    protocol), so the incident search accepts those outcomes directly
    and assembles the :class:`Counterexample` by hand.  Returns ``None``
    on budget exhaustion.
    """
    from repro.mc.counterexample import Counterexample
    from repro.mc.program import make_spec
    from repro.mc.scheduler import ControlledRun

    window = [list(ops) for ops in processes]
    if not any(window):
        return None
    spec = make_spec(window, protocol=protocol, owners=owners)
    rng = random.Random(f"flight/{seed}")
    fallback = None
    for schedule in range(max_schedules):
        run = ControlledRun(spec, max_drops=max_drops)
        steps = 0
        while not run.done and steps < max_steps:
            choices = run.actions()
            if not choices:
                break
            run.apply(rng.choice(choices))
            steps += 1
        outcome = run.outcome()
        blocked = not outcome.completed and outcome.crashed is None
        crashed = outcome.crashed is not None
        hit = crashed if kind == "crash" else blocked
        if not hit:
            if kind == "crash" and blocked and fallback is None:
                fallback = outcome
            continue
        return Counterexample(
            spec=spec,
            trace=outcome.trace,
            kind="crash" if crashed else "deadlock",
            model=None,
            description=description
            or f"flight-recorder {kind} reproduction (schedule {schedule})",
            history_text=outcome.history_text,
            verdicts={},
            events=tuple(event.to_jsonable() for event in events),
        )
    if fallback is not None:
        return Counterexample(
            spec=spec,
            trace=fallback.trace,
            kind="deadlock",
            model=None,
            description=description or "flight-recorder crash window (blocked)",
            history_text=fallback.history.to_text(),
            verdicts={},
            events=tuple(event.to_jsonable() for event in events),
        )
    return None


class FlightRecorder:
    """Dump-on-incident controller over the plane's shard rings.

    Parameters
    ----------
    protocol:
        Explorer protocol name for window specs (``"causal"``,
        ``"broadcast"``, ...) — the cluster's model under test.
    n_procs:
        Process count (fixes window width even when a quiet node never
        committed an op inside the ring horizon).
    owners:
        Location-ownership pins forwarded to ``make_spec``.
    monitor:
        Optional :class:`~repro.monitor.monitor.CausalStreamMonitor`;
        when an incident is a monitor violation its replay window (which
        provably contains a violating program) is preferred over the
        ring reconstruction.
    """

    def __init__(
        self,
        protocol: str,
        n_procs: int,
        owners: Optional[Dict[str, int]] = None,
        monitor=None,
        seed: int = 0,
    ):
        self.protocol = protocol
        self.n_procs = n_procs
        self.owners = owners
        self.monitor = monitor
        self.seed = seed
        self.shards: List[Any] = []
        #: (reason, detail, ring snapshot) per trigger, trigger order.
        self.incidents: List[Tuple[str, str, List[TraceEvent]]] = []

    def watch(self, shard) -> None:
        """Register one :class:`~repro.obs.plane.shard.NodeShard`."""
        self.shards.append(shard)

    def ring_snapshot(self) -> List[TraceEvent]:
        """All shards' retained events, merged in (seq-per-shard) order.

        Cross-shard order here is best effort (shard seq then node) —
        the counterexample's *replayability* rests on per-process order
        inside the spec, which per-shard rings preserve exactly.
        """
        merged: List[Tuple[Tuple, TraceEvent]] = []
        for shard in self.shards:
            node_key = (
                (0, shard.node) if isinstance(shard.node, int) else (1, 0)
            )
            for event in shard.ring_events():
                merged.append(((event.seq, node_key), event))
        merged.sort(key=lambda pair: pair[0])
        return [event for _, event in merged]

    # ------------------------------------------------------------------
    # Triggers (called by the runtime / monitor glue in plane.py)
    # ------------------------------------------------------------------
    def trigger(self, reason: str, detail: str = "") -> None:
        """Record an incident *now* (snapshot the rings at the moment
        of the fault, not at shutdown when they may have moved on)."""
        self.incidents.append((reason, detail, self.ring_snapshot()))

    @property
    def triggered(self) -> bool:
        return bool(self.incidents)

    # ------------------------------------------------------------------
    # Dumps (post-run; searches may take explorer-scale time)
    # ------------------------------------------------------------------
    def dump(self, incident: Optional[int] = None):
        """Turn one recorded incident into a replayable counterexample.

        Defaults to the first incident (the root cause; later triggers
        are usually cascade).  Returns ``None`` when nothing triggered
        or the reproduction search exhausted its budget.
        """
        if not self.incidents:
            return None
        reason, detail, ring = self.incidents[incident or 0]
        if reason == "violation" and self.monitor is not None:
            return self._dump_violation(detail, ring)
        window = window_from_events(ring, n_procs=self.n_procs)
        return deadlock_counterexample(
            window,
            protocol=self.protocol,
            owners=self.owners,
            kind="crash" if reason == "crash" else "deadlock",
            description=f"flight recorder: {reason}"
            + (f" ({detail})" if detail else ""),
            seed=self.seed,
            events=ring,
        )

    def _dump_violation(self, detail: str, ring: List[TraceEvent]):
        from dataclasses import replace as dc_replace

        from repro.monitor.report import violation_counterexample

        found = violation_counterexample(
            self.monitor,
            protocol=self.protocol,
            owners=self.owners,
            seed=self.seed,
            with_trace=False,
        )
        if found is None:
            return None
        return dc_replace(
            found,
            description=f"flight recorder: monitor violation"
            + (f" ({detail})" if detail else ""),
            events=tuple(event.to_jsonable() for event in ring),
        )

    def dump_to(self, path, incident: Optional[int] = None):
        """Dump and save; returns the counterexample (or None)."""
        cex = self.dump(incident)
        if cex is not None:
            cex.save(path)
        return cex
