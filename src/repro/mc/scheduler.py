"""Controlled execution: one program, one explorer-chosen schedule.

A :class:`ControlledRun` replaces the kernel's time-ordered event loop
with explicit choice: at every decision point it computes the set of
*selectable actions* — which pending events may legally fire next — and
the explorer picks one.  Legality encodes the network contract:

* **Per-channel FIFO** — of the pending deliveries on a directed channel
  ``(src, dst)``, only the oldest (lowest kernel sequence number, i.e.
  send order) is selectable.  Later deliveries become selectable as the
  channel drains.  This is exactly the reordering freedom a reliable
  FIFO network grants: cross-channel interleaving is arbitrary, in-channel
  order is fixed.
* **Stable action keys** — actions are named by *logical position*, not
  by kernel timestamps: the ``n``-th message on channel ``(s, d)`` is
  ``("m", s, d, n)`` whether it is delivered or dropped; the ``n``-th
  resumption of task ``T`` is ``("t", T, n)``; any other event (a sleep,
  a fault boundary) is ``("e", tag, n)``.  Keys are invariant under
  replay and across equivalent interleavings, which makes traces —
  sequences of ``("x", key)`` (execute) and ``("d", key)`` (drop)
  entries — replayable and comparable.
* **Drops as choices** — with a drop budget, every selectable delivery
  also offers a ``("d", key)`` action: cancel the delivery, modelling
  message loss at the moment the reliable-network assumption would have
  fired the handler.

Determinism caveat: controlled runs build their cluster with
:class:`~repro.sim.latency.ConstantLatency` and no random drop rate, so
executing a handler never consumes simulator randomness.  That is what
makes two schedules with the same per-process action order reach the
same state — the property the explorer's dominance pruning relies on
(DESIGN.md Section 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.figures import program_process
from repro.checker.history import History
from repro.errors import HistoryError
from repro.mc.program import McError, ProgramSpec
from repro.memory import Namespace
from repro.protocols.base import DSMCluster
from repro.sim.kernel import ScheduledEvent
from repro.sim.latency import ConstantLatency

__all__ = [
    "Action",
    "ControlledRun",
    "RunOutcome",
    "run_controlled",
    "replay_trace",
]

#: ("x", key) executes the keyed event; ("d", key) drops a delivery.
Action = Tuple[str, Tuple]


@dataclass(frozen=True)
class RunOutcome:
    """What one controlled execution produced."""

    #: None when the run recorded a history the model refuses (a crash).
    history: Optional[History]
    trace: Tuple[Action, ...]
    steps: int
    completed: bool
    blocked: Tuple[str, ...]
    crashed: Optional[str]
    drops: int

    @property
    def clean(self) -> bool:
        """True when every process finished and nothing raised."""
        return self.completed and self.crashed is None

    @property
    def history_text(self) -> str:
        """The recorded history in figure notation ("" when refused)."""
        return "" if self.history is None else self.history.to_text()


class ControlledRun:
    """One program execution driven action-by-action by an explorer."""

    def __init__(self, spec: ProgramSpec, max_drops: int = 0, collector=None):
        self.spec = spec
        self.max_drops = max_drops
        namespace = None
        if spec.owners is not None:
            namespace = Namespace.explicit(spec.n_nodes, dict(spec.owners))
        self.cluster = DSMCluster(
            spec.n_nodes,
            protocol=spec.protocol,
            seed=0,
            latency=ConstantLatency(1.0),
            namespace=namespace,
            initial_value=spec.initial_value,
            record_history=True,
        )
        if collector is not None:
            self.cluster.attach_obs(collector)
        self._proc_of_task: Dict[str, int] = {}
        self.tasks = []
        for proc, ops in enumerate(spec.processes):
            node = spec.placement[proc]
            task = self.cluster.spawn(
                node, program_process, ops, name=f"P{proc}"
            )
            self._proc_of_task[f"P{proc}"] = node
            self.tasks.append(task)
        # Logical position counters: how many messages each channel has
        # consumed (delivered or dropped), how many times each task has
        # resumed, how many "other" events of each tag have fired.
        self._chan_pos: Dict[Tuple[int, int], int] = {}
        self._task_pos: Dict[str, int] = {}
        self._other_pos: Dict[Optional[tuple], int] = {}
        self.trace: List[Action] = []
        self.drops_used = 0
        self.crashed: Optional[str] = None

    # ------------------------------------------------------------------
    # Decision points
    # ------------------------------------------------------------------
    def _key_of(self, event: ScheduledEvent) -> Tuple:
        tag = event.tag
        if tag is not None and tag[0] == "deliver":
            src, dst = tag[1], tag[2]
            return ("m", src, dst, self._chan_pos.get((src, dst), 0))
        if tag is not None and tag[0] == "task":
            name = tag[1]
            return ("t", name, self._task_pos.get(name, 0))
        return ("e", tag, self._other_pos.get(tag, 0))

    def _selectable(self) -> Dict[Tuple, ScheduledEvent]:
        """Key -> event for every currently selectable event.

        ``enabled_events`` is (time, seq)-sorted and the FIFO clamp keeps
        per-channel delivery times monotone, so the first event seen for
        a key is the channel/tag head — later same-key events are not
        selectable until the head is consumed.
        """
        selectable: Dict[Tuple, ScheduledEvent] = {}
        for event in self.cluster.sim.enabled_events():
            key = self._key_of(event)
            if key not in selectable:
                selectable[key] = event
        return selectable

    def actions(self) -> List[Action]:
        """The selectable actions, in deterministic order."""
        keys = list(self._selectable())
        actions: List[Action] = [("x", key) for key in keys]
        if self.drops_used < self.max_drops:
            actions.extend(("d", key) for key in keys if key[0] == "m")
        return actions

    def apply(self, action: Action) -> None:
        """Perform one action (execute or drop its keyed event)."""
        kind, key = action
        event = self._selectable().get(key)
        if event is None:
            raise McError(f"action {action!r} is not selectable here")
        if kind == "d":
            if key[0] != "m":
                raise McError(f"cannot drop non-delivery action {action!r}")
            if self.drops_used >= self.max_drops:
                raise McError("drop budget exhausted")
        elif kind != "x":
            raise McError(f"unknown action kind {kind!r}")
        self._advance_pos(key)
        self.trace.append(action)
        if kind == "d":
            self.drops_used += 1
            event.cancel()
            network = self.cluster.network
            if network.codec is not None:
                network.codec.mark_dirty(key[1], key[2])
            return
        try:
            self.cluster.sim.execute_event(event)
        except Exception as exc:  # noqa: BLE001 - crash is a model-checking verdict
            self.crashed = f"{type(exc).__name__}: {exc}"

    def _advance_pos(self, key: Tuple) -> None:
        if key[0] == "m":
            chan = (key[1], key[2])
            self._chan_pos[chan] = self._chan_pos.get(chan, 0) + 1
        elif key[0] == "t":
            self._task_pos[key[1]] = self._task_pos.get(key[1], 0) + 1
        else:
            self._other_pos[key[1]] = self._other_pos.get(key[1], 0) + 1

    # ------------------------------------------------------------------
    # Dependence units (the explorer's dominance digests)
    # ------------------------------------------------------------------
    def units_of(self, action: Action) -> Tuple[Tuple, ...]:
        """The state components ``action`` touches.

        Two adjacent actions with disjoint units commute: executing them
        in either order reaches the same protocol state and records the
        same history (timestamps may differ; nothing reads them).  The
        explorer prunes schedules whose per-unit action projections it
        has already seen.
        """
        kind, key = action
        if key[0] == "m":
            src, dst = key[1], key[2]
            if kind == "d":
                return (("c", src, dst),)
            return (("n", dst), ("c", src, dst))
        if key[0] == "t":
            return (("n", self._proc_of_task[key[1]]),)
        # Unknown event classes (sleeps, fault boundaries) are treated as
        # globally dependent — sound, never prunes across them.
        return (("g",),)

    # ------------------------------------------------------------------
    # Leaf evaluation
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.crashed is not None or not self._selectable()

    def outcome(self) -> RunOutcome:
        blocked = tuple(
            task.name for task in self.tasks if not task.resolved
        )
        failed = [
            task for task in self.tasks if task.resolved and task.failed
        ]
        crashed = self.crashed
        if crashed is None and failed:
            exc = failed[0].exception()
            crashed = f"{type(exc).__name__}: {exc}"
        try:
            history = self.cluster.history()
        except HistoryError as exc:
            # Reported with its schedule like any crash, never raised.
            history = None
            crashed = crashed or f"HistoryError: {exc}"
        return RunOutcome(
            history=history,
            trace=tuple(self.trace),
            steps=len(self.trace),
            completed=not blocked and not failed,
            blocked=blocked,
            crashed=crashed,
            drops=self.drops_used,
        )


Chooser = Callable[[List[Action], ControlledRun], Action]


def run_controlled(
    spec: ProgramSpec,
    chooser: Chooser,
    max_drops: int = 0,
    max_steps: int = 100_000,
) -> RunOutcome:
    """Run ``spec`` to completion, asking ``chooser`` at every step."""
    run = ControlledRun(spec, max_drops=max_drops)
    for _ in range(max_steps):
        if run.crashed is not None:
            break
        actions = run.actions()
        if not actions:
            break
        run.apply(chooser(actions, run))
    else:
        raise McError(f"run exceeded {max_steps} steps; livelocked program?")
    return run.outcome()


def replay_trace(
    spec: ProgramSpec, trace: Tuple[Action, ...]
) -> RunOutcome:
    """Re-execute a recorded trace action-for-action.

    Raises :class:`McError` if the trace diverges (an action is not
    selectable where the trace claims it was) — which would mean the
    program or the runner changed since the trace was recorded.
    """
    max_drops = sum(1 for kind, _ in trace if kind == "d")
    run = ControlledRun(spec, max_drops=max_drops)
    for step, action in enumerate(trace):
        if run.crashed is not None:
            raise McError(
                f"replay crashed at step {step} before trace end: {run.crashed}"
            )
        run.apply(action)
    return run.outcome()
