"""Typed trace events — the records a :class:`TraceCollector` gathers.

One event is one observed action somewhere in the stack: a kernel
scheduling decision, a message send/deliver/drop, a protocol-internal
step (an invalidation sweep, a stale-read retry, an ownership grant),
a store mutation, or a checker verdict.  Events that originate at a
node carry that node's **vector clock at emission time**, so a trace is
not merely a time-ordered log: the clocks carry the happens-before
relation itself, Fidge/Mattern style, and the exporters in
:mod:`repro.obs.export` can rebuild the causal DAG without re-running
anything.

The class is ``__slots__``-only and construction happens *only* in the
collector, for kinds something will read — with no collector attached,
or no reader for the kind, no event object is ever allocated (the cost
contract, DESIGN.md Section 4.7).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = ["TraceEvent", "CATEGORIES"]

#: The closed set of event categories.  Exporters key display lanes on
#: these; the collector does not enforce membership (tests may invent
#: categories) but every in-tree emit site uses one of them.
CATEGORIES = ("kernel", "net", "proto", "store", "check", "fault")


class TraceEvent:
    """One structured trace record.

    Attributes
    ----------
    seq:
        Collector-assigned emission order (unique, monotone).
    time:
        Simulated time of the event.
    category / name:
        Coarse lane (one of :data:`CATEGORIES`) and the specific action,
        e.g. ``("proto", "inv.sweep")``.
    node:
        Emitting node id, or None for global events (kernel, checker).
    clock:
        The emitting node's vector clock as a plain component tuple, or
        None when the event has no causal position (kernel ticks,
        fault-schedule edges).
    dur:
        Span length in simulated time (0 for instant events; message
        sends use their flight time).
    wall:
        Wall-clock timestamp (seconds, monotonic) when the collector has
        a wall-clock source bound — live-runtime traces always do, and
        simulator runs may opt in to correlate virtual with real time.
        None otherwise.
    args:
        Small free-form payload (locations, byte counts, triggers).
    """

    __slots__ = (
        "seq", "time", "category", "name", "node", "clock", "dur", "wall",
        "args",
    )

    def __init__(
        self,
        seq: int,
        time: float,
        category: str,
        name: str,
        node: Optional[int] = None,
        clock: Optional[Tuple[int, ...]] = None,
        dur: float = 0.0,
        args: Optional[Dict[str, Any]] = None,
        wall: Optional[float] = None,
    ):
        self.seq = seq
        self.time = time
        self.category = category
        self.name = name
        self.node = node
        self.clock = clock
        self.dur = dur
        self.wall = wall
        self.args = args or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent({self.seq}, t={self.time}, {self.category}."
            f"{self.name}, node={self.node}, clock={self.clock})"
        )

    # ------------------------------------------------------------------
    # JSON round-trip (counterexample embedding, exporter input)
    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-dict form; short keys keep embedded traces compact."""
        payload: Dict[str, Any] = {
            "seq": self.seq,
            "t": self.time,
            "cat": self.category,
            "name": self.name,
        }
        if self.node is not None:
            payload["node"] = self.node
        if self.clock is not None:
            payload["clock"] = list(self.clock)
        if self.dur:
            payload["dur"] = self.dur
        if self.wall is not None:
            payload["w"] = self.wall
        if self.args:
            payload["args"] = _jsonable_args(self.args)
        return payload

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_jsonable`."""
        clock = data.get("clock")
        return cls(
            seq=int(data["seq"]),
            time=float(data["t"]),
            category=str(data["cat"]),
            name=str(data["name"]),
            node=data.get("node"),
            clock=tuple(clock) if clock is not None else None,
            dur=float(data.get("dur", 0.0)),
            args=dict(data.get("args", {})),
            wall=data.get("w"),
        )


def _jsonable_args(args: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce arg values to JSON-safe shapes (tuples become lists)."""
    out: Dict[str, Any] = {}
    for key, value in args.items():
        if isinstance(value, tuple):
            out[key] = list(value)
        elif isinstance(value, (str, int, float, bool, list, dict)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out
