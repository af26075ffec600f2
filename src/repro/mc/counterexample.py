"""Replayable counterexamples — the explorer's falsification artifacts.

A :class:`Counterexample` bundles everything needed to re-observe a
violation with zero search: the exact program, the exact action trace,
the recorded history and the checker verdicts.  It serialises to plain
JSON (``save``/``load``) so CI can upload failing schedules as artifacts
and ``python -m repro.mc replay`` can re-execute them anywhere.

Replay is *checked*: the trace is re-run action-for-action and the
verdicts recomputed; if the violation no longer reproduces,
:func:`replay` raises — a drifted counterexample is a test failure, not
a silent pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.mc.program import McError, ProgramSpec
from repro.mc.scheduler import Action, ControlledRun, RunOutcome, replay_trace

__all__ = ["Counterexample", "ReplayMismatch", "replay"]

#: Version 2 added the embedded causal trace (``events``); version-1
#: files still load, with an empty trace.
FORMAT_VERSION = 2


class ReplayMismatch(McError):
    """A replayed counterexample no longer exhibits its violation."""


@dataclass(frozen=True)
class Counterexample:
    """One falsifying schedule, self-contained and replayable."""

    spec: ProgramSpec
    trace: Tuple[Action, ...]
    kind: str  # "consistency" | "crash" | "deadlock"
    model: Optional[str]  # the violated model, for kind == "consistency"
    description: str
    history_text: str
    verdicts: Dict[str, bool] = field(default_factory=dict)
    #: The violating run's causal trace: TraceEvent.to_jsonable() dicts
    #: in emission order (empty for v1 files or un-traced finds).  See
    #: :meth:`with_causal_trace`.
    events: Tuple[Dict[str, Any], ...] = ()

    @property
    def n_ops(self) -> int:
        """Program size — the quantity the shrinker minimises."""
        return self.spec.n_ops

    def summary(self) -> str:
        lines = [
            f"counterexample: {self.description}",
            f"protocol: {self.spec.protocol}   kind: {self.kind}"
            + (f"   violated model: {self.model}" if self.model else ""),
            "program:",
        ]
        lines += ["  " + line for line in self.spec.describe().splitlines()]
        lines.append(f"schedule: {len(self.trace)} actions")
        if self.history_text:
            lines.append("recorded history:")
            lines += ["  " + line for line in self.history_text.splitlines()]
        if self.verdicts:
            verdict_text = ", ".join(
                f"{model}={'ok' if ok else 'VIOLATED'}"
                for model, ok in sorted(self.verdicts.items())
            )
            lines.append(f"verdicts: {verdict_text}")
        if self.events:
            lines.append(f"causal trace: {len(self.events)} events embedded")
        return "\n".join(lines)

    def with_causal_trace(self) -> "Counterexample":
        """Replay this schedule with tracing on and embed the trace.

        The replay is exact (the recorded action sequence, step by step)
        with a :class:`~repro.obs.collector.TraceCollector` attached to
        every layer, and the recorded history is re-checked with the
        collector observing the verdict — so the embedded trace ends
        with the violation's ``check.verdict`` event and carries the
        full happens-before structure of the violating run.
        """
        from repro.checker import check_causal
        from repro.obs.collector import TraceCollector

        collector = TraceCollector()
        max_drops = sum(1 for kind, _ in self.trace if kind == "d")
        run = ControlledRun(
            self.spec, max_drops=max_drops, collector=collector
        )
        for step, action in enumerate(self.trace):
            if run.crashed is not None:
                break
            run.apply(action)
        history = run.outcome().history if run.crashed is None else None
        if history is not None:
            check_causal(history, obs=collector)
        return dc_replace(
            self, events=tuple(collector.to_jsonable())
        )

    def causal_trace_events(self):
        """The embedded trace as TraceEvent objects (empty list if none)."""
        from repro.obs.events import TraceEvent

        return [TraceEvent.from_jsonable(item) for item in self.events]

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "format_version": FORMAT_VERSION,
            "spec": self.spec.to_jsonable(),
            "trace": [[kind, list(key)] for kind, key in self.trace],
            "kind": self.kind,
            "model": self.model,
            "description": self.description,
            "history": self.history_text,
            "verdicts": dict(self.verdicts),
            "events": [dict(event) for event in self.events],
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "Counterexample":
        version = data.get("format_version")
        if version not in (1, FORMAT_VERSION):
            raise McError(f"unsupported counterexample format {version!r}")
        trace = tuple(
            (kind, _key_from_json(key)) for kind, key in data["trace"]
        )
        return cls(
            spec=ProgramSpec.from_jsonable(data["spec"]),
            trace=trace,
            kind=data["kind"],
            model=data.get("model"),
            description=data["description"],
            history_text=data.get("history", ""),
            verdicts=dict(data.get("verdicts", {})),
            events=tuple(data.get("events", ())),
        )

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_jsonable(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path) -> "Counterexample":
        return cls.from_jsonable(json.loads(Path(path).read_text()))


def _key_from_json(key: List[Any]) -> Tuple:
    # Keys nest one level at most: ("e", tag_tuple_or_None, n).
    return tuple(
        tuple(part) if isinstance(part, list) else part for part in key
    )


def replay(cex: Counterexample, check: bool = True) -> RunOutcome:
    """Re-execute a counterexample's schedule.

    With ``check`` (the default), verify the violation reproduces:
    crash/deadlock kinds must crash/block again, and consistency kinds
    must record a history the violated model still rejects.
    """
    # Deferred import: evaluate_outcome lives in explore, which imports
    # the scheduler this module also uses.
    from repro.mc.explore import evaluate_outcome

    outcome = replay_trace(cex.spec, cex.trace)
    if not check:
        return outcome
    verdicts, violated, _ = evaluate_outcome(
        outcome, cex.spec.protocol, models=tuple(cex.verdicts) or None
    )
    if cex.kind == "crash" and outcome.crashed is None:
        raise ReplayMismatch("expected a crash; replay finished cleanly")
    if cex.kind == "deadlock" and (outcome.completed or outcome.crashed):
        raise ReplayMismatch("expected blocked tasks; replay ran to completion")
    if cex.kind == "consistency":
        if cex.model is not None and verdicts.get(cex.model, True):
            raise ReplayMismatch(
                f"history satisfies {cex.model!r} on replay; "
                f"original verdicts {cex.verdicts!r}"
            )
        if cex.model is None and not violated:
            raise ReplayMismatch("no violation on replay")
    return outcome
