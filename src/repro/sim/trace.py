"""Message tracing and counting.

The quantitative heart of the paper is a message-counting argument
(Section 4.1): the synchronous linear solver costs ``2n + 6`` messages per
processor per iteration on causal memory versus at least ``3n + 5`` on a
comparable atomic DSM.  This module is the measurement instrument: every
message the network delivers is recorded with its type, endpoints and
timestamps, and counters can be snapshotted so harnesses can attribute
messages to intervals (e.g. per solver iteration).

Beyond counts, the stats track *bytes* and *writestamp entries* per kind
and per directed edge, using the deterministic cost model of
:mod:`repro.protocols.wire` — size, not count, is the real metadata cost
axis for causal DSM, and the delta-stamp fast path is judged on these
byte counters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["MessageRecord", "NetworkStats", "MessageTrace", "CounterSnapshot"]


@dataclass(frozen=True)
class MessageRecord:
    """One delivered (or dropped) message.

    ``byte_size`` and ``stamp_entries`` are the wire-model costs charged
    when the message was sent (0 for records predating byte accounting).
    """

    seq: int
    src: int
    dst: int
    kind: str
    payload: object
    sent_at: float
    delivered_at: float
    dropped: bool = False
    byte_size: int = 0
    stamp_entries: int = 0

    @property
    def latency(self) -> float:
        """One-way delay experienced by this message.

        ``nan`` for dropped records: a dropped message was never
        delivered, so no finite (or infinite) latency is meaningful, and
        ``nan`` poisons any mean computed over it instead of silently
        skewing it the way ``delivered_at=inf`` used to.
        """
        if self.dropped:
            return float("nan")
        return self.delivered_at - self.sent_at


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable copy of the counters at a moment in simulated time."""

    time: float
    total: int
    by_kind: Dict[str, int]
    by_sender: Dict[int, int]
    by_receiver: Dict[int, int]
    bytes_total: int = 0
    stamp_entries: int = 0
    #: Optional caller-supplied tag (e.g. ``"iteration=3"``) so interval
    #: deltas can be attributed without index arithmetic.
    label: Optional[str] = None

    def delta(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """Counters accumulated strictly after ``earlier``.

        The delta keeps *this* snapshot's label — the interval is named
        after the moment that closed it.
        """
        return CounterSnapshot(
            time=self.time,
            total=self.total - earlier.total,
            by_kind=_sub(self.by_kind, earlier.by_kind),
            by_sender=_sub(self.by_sender, earlier.by_sender),
            by_receiver=_sub(self.by_receiver, earlier.by_receiver),
            bytes_total=self.bytes_total - earlier.bytes_total,
            stamp_entries=self.stamp_entries - earlier.stamp_entries,
            label=self.label,
        )


def _sub(new: Dict, old: Dict) -> Dict:
    out = dict(new)
    for key, value in old.items():
        out[key] = out.get(key, 0) - value
        if out[key] == 0:
            del out[key]
    return out


class NetworkStats:
    """Running counters over all messages sent through a network.

    The hot path (:meth:`count_sent`, called on every delivered message)
    touches exactly one dict record keyed ``(kind, src, dst)`` holding
    ``[count, bytes, stamp_entries, stamp_entries_full]``.  Every
    per-kind / per-node / per-pair view (`by_kind`, `bytes_by_pair`, ...)
    is derived from those records on access — analysis-time cost for
    send-time speed.
    """

    def __init__(self) -> None:
        self.total = 0
        self.dropped = 0
        self.dropped_bytes = 0
        self.total_latency = 0.0
        # (kind, src, dst) -> [count, bytes, stamp_entries, entries_full]
        self._edges: Dict[Tuple[str, int, int], List] = {}

    def record(self, record: MessageRecord) -> None:
        """Account for one message."""
        if record.dropped:
            self.dropped += 1
            self.dropped_bytes += record.byte_size
            return
        self.count_sent(
            record.kind, record.src, record.dst, record.latency,
            byte_size=record.byte_size, stamp_entries=record.stamp_entries,
            stamp_entries_full=record.stamp_entries,
        )

    def count_sent(
        self,
        kind: str,
        src: int,
        dst: int,
        latency: float,
        byte_size: int = 0,
        stamp_entries: int = 0,
        stamp_entries_full: int = 0,
    ) -> None:
        """Account for one delivered message without a MessageRecord.

        The network's hot path calls this directly so it does not have to
        materialise a record when tracing is disabled.
        """
        self.total += 1
        self.total_latency += latency
        edge = self._edges.get((kind, src, dst))
        if edge is None:
            self._edges[(kind, src, dst)] = [
                1, byte_size, stamp_entries, stamp_entries_full,
            ]
        else:
            edge[0] += 1
            edge[1] += byte_size
            edge[2] += stamp_entries
            edge[3] += stamp_entries_full

    # -- derived views (analysis-time, not hot) ------------------------
    def _sum_by(self, key_index: int, value_index: int) -> Counter:
        out: Counter = Counter()
        for key, edge in self._edges.items():
            out[key[key_index]] += edge[value_index]
        return out

    @property
    def by_kind(self) -> Counter:
        """Delivered messages per kind."""
        return self._sum_by(0, 0)

    @property
    def by_sender(self) -> Counter:
        """Delivered messages per sending node."""
        return self._sum_by(1, 0)

    @property
    def by_receiver(self) -> Counter:
        """Delivered messages per receiving node."""
        return self._sum_by(2, 0)

    @property
    def by_pair(self) -> Counter:
        """Delivered messages per directed (src, dst) edge."""
        out: Counter = Counter()
        for (_, src, dst), edge in self._edges.items():
            out[(src, dst)] += edge[0]
        return out

    @property
    def bytes_total(self) -> int:
        """Total wire bytes over all delivered messages."""
        return sum(edge[1] for edge in self._edges.values())

    @property
    def bytes_by_pair(self) -> Counter:
        """Wire bytes per directed (src, dst) edge."""
        out: Counter = Counter()
        for (_, src, dst), edge in self._edges.items():
            out[(src, dst)] += edge[1]
        return out

    @property
    def stamp_entries(self) -> int:
        """Writestamp entries physically carried on the wire."""
        return sum(edge[2] for edge in self._edges.values())

    @property
    def stamp_entries_full(self) -> int:
        """Entries the same messages would carry with full stamps."""
        return sum(edge[3] for edge in self._edges.values())

    @property
    def mean_latency(self) -> float:
        """Mean one-way delay over delivered messages (0 if none)."""
        return self.total_latency / self.total if self.total else 0.0

    def snapshot(self, time: float, label: Optional[str] = None) -> CounterSnapshot:
        """Copy the counters, tagged with the simulated time and a label."""
        return CounterSnapshot(
            time=time,
            total=self.total,
            by_kind=dict(self.by_kind),
            by_sender=dict(self.by_sender),
            by_receiver=dict(self.by_receiver),
            bytes_total=self.bytes_total,
            stamp_entries=self.stamp_entries,
            label=label,
        )

    def count(self, kind: Optional[str] = None) -> int:
        """Messages of ``kind`` (all kinds if None)."""
        if kind is None:
            return self.total
        return self.by_kind.get(kind, 0)


class MessageTrace:
    """Optional full per-message log.

    Disabled by default in long benchmark runs (counters alone suffice);
    tests enable it to assert on exact message sequences.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: List[MessageRecord] = []

    def record(self, record: MessageRecord) -> None:
        """Append one record if tracing is enabled."""
        if self.enabled:
            self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def of_kind(self, kind: str) -> List[MessageRecord]:
        """All records with the given message kind."""
        return [r for r in self.records if r.kind == kind]

    def between(self, src: int, dst: int) -> List[MessageRecord]:
        """All records sent from ``src`` to ``dst``, in send order."""
        return [r for r in self.records if r.src == src and r.dst == dst]

    def kinds(self) -> List[str]:
        """Distinct message kinds seen, in first-seen order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.kind, None)
        return list(seen)

    def summarize(self) -> str:
        """A short human-readable summary (used by examples)."""
        counts = Counter(r.kind for r in self.records if not r.dropped)
        parts = [f"{kind}={count}" for kind, count in sorted(counts.items())]
        return f"{sum(counts.values())} messages ({', '.join(parts)})"


def per_node_counts(stats: NetworkStats, node_ids: Iterable[int]) -> Dict[int, int]:
    """Messages *sent* per node, including zeros for silent nodes."""
    return {node: stats.by_sender.get(node, 0) for node in node_ids}
