"""Protocol message types.

Message ``kind`` strings follow the paper's names where the paper names
them (``READ``, ``R_REPLY``, ``WRITE``, ``W_REPLY`` in Figure 4); the
baselines use distinct prefixes so network statistics can attribute every
message to a protocol role.

Values and vector clocks are carried by reference — :class:`VectorClock`
is immutable, and simulated nodes never mutate payload values in place.
The wire layer (:mod:`repro.protocols.wire`) assigns every message a
deterministic byte cost and can delta-encode the vector-clock fields per
channel; message *counts* are unaffected by either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, List, Optional, Tuple

from repro.clocks import VectorClock

__all__ = [
    "EntryPayload",
    "ReadRequest",
    "ReadReply",
    "WriteRequest",
    "WriteReply",
    "AtomicReadRequest",
    "AtomicReadReply",
    "AtomicWriteRequest",
    "AtomicWriteReply",
    "Invalidate",
    "InvalidateAck",
    "CentralRead",
    "CentralWrite",
    "CentralReply",
    "BroadcastWrite",
]


@dataclass(frozen=True, slots=True)
class EntryPayload:
    """One (location, value, writestamp, writer) tuple inside a reply."""

    location: str
    value: Any
    stamp: VectorClock
    writer: int


# ----------------------------------------------------------------------
# Causal owner protocol (Figure 4)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ReadRequest:
    """``[READ, x]`` — a read miss asking the owner for a current copy.

    The owner derives the unit to ship from ``location`` through its own
    namespace, so the unit does not travel.
    """

    kind: ClassVar[str] = "READ"
    request_id: int
    location: str


@dataclass(frozen=True, slots=True)
class ReadReply:
    """``[R_REPLY, x, v', VT']`` — the owner's copy.

    The requested location's entry comes first; with page granularity
    every other location of the unit the owner currently holds follows
    it.  ``location`` and ``stamp`` are derived, not carried: ``stamp``
    is the writestamp the reader's invalidation sweep compares against,
    the join of the entries' stamps (the one entry's own stamp in word
    mode; the merged unit stamp in page mode).
    """

    kind: ClassVar[str] = "R_REPLY"
    request_id: int
    entries: Tuple[EntryPayload, ...]

    @property
    def location(self) -> str:
        """The requested location: the first entry's."""
        return self.entries[0].location

    @property
    def stamp(self) -> VectorClock:
        """``VT'``: the join of every entry's writestamp."""
        entries = self.entries
        stamp = entries[0].stamp
        for entry in entries[1:]:
            stamp = stamp.update(entry.stamp)
        return stamp


@dataclass(frozen=True, slots=True)
class WriteRequest:
    """``[WRITE, x, v, VT_i]`` — ask the owner to certify a write."""

    kind: ClassVar[str] = "WRITE"
    request_id: int
    location: str
    value: Any
    stamp: VectorClock


@dataclass(frozen=True, slots=True)
class WriteReply:
    """``[W_REPLY, x, v, VT']`` — certification result.

    The ``x`` and ``v`` it echoes are the writer's own pending request,
    which ``request_id`` names, so they do not travel.  ``applied`` is
    False when the owner's conflict-resolution policy rejected the write
    (the dictionary's owner-favoured policy); ``current`` then carries
    the surviving entry so the writer can cache it.
    """

    kind: ClassVar[str] = "W_REPLY"
    request_id: int
    stamp: VectorClock
    applied: bool = True
    current: Optional[EntryPayload] = None


# ----------------------------------------------------------------------
# Atomic owner DSM baseline (Li–Hudak-style copyset invalidation)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class AtomicReadRequest:
    """Read miss; the owner will add the requester to the copyset."""

    kind: ClassVar[str] = "A_READ"
    request_id: int
    location: str


@dataclass(frozen=True, slots=True)
class AtomicReadReply:
    """Owner's current value for a read miss.

    ``stamp``/``writer`` identify the write that produced the value, used
    only for history recording (they play no protocol role).
    """

    kind: ClassVar[str] = "A_REPLY"
    request_id: int
    location: str
    value: Any
    stamp: VectorClock
    writer: int


@dataclass(frozen=True, slots=True)
class AtomicWriteRequest:
    """Ask the owner to perform a coherent write.

    ``seq`` is the writer's local write counter; (writer, seq) is the
    globally unique identity of the write for history recording.
    """

    kind: ClassVar[str] = "A_WRITE"
    request_id: int
    location: str
    value: Any
    seq: int


@dataclass(frozen=True, slots=True)
class AtomicWriteReply:
    """Write completed: every stale copy has been invalidated."""

    kind: ClassVar[str] = "A_ACK"
    request_id: int
    location: str
    value: Any


@dataclass(frozen=True, slots=True)
class Invalidate:
    """Owner tells a copyset member to drop its copy."""

    kind: ClassVar[str] = "INV"
    request_id: int
    location: str


@dataclass(frozen=True, slots=True)
class InvalidateAck:
    """Copyset member confirms the copy is gone."""

    kind: ClassVar[str] = "INV_ACK"
    request_id: int
    location: str


# ----------------------------------------------------------------------
# Central-server memory
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CentralRead:
    """Client read RPC."""

    kind: ClassVar[str] = "CS_READ"
    request_id: int
    location: str


@dataclass(frozen=True, slots=True)
class CentralWrite:
    """Client write RPC.  ``seq`` makes (writer, seq) the write identity."""

    kind: ClassVar[str] = "CS_WRITE"
    request_id: int
    location: str
    value: Any
    seq: int


@dataclass(frozen=True, slots=True)
class CentralReply:
    """Server response to either RPC, carrying the entry's identity."""

    kind: ClassVar[str] = "CS_REPLY"
    request_id: int
    location: str
    value: Any
    stamp: VectorClock
    writer: int


# ----------------------------------------------------------------------
# Causal broadcast memory (the Figure 3 non-example)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BroadcastWrite:
    """A write disseminated as an ISIS-style causal broadcast.

    ``stamp`` counts *broadcasts delivered per sender* (the standard causal
    broadcast vector), not write events; the delivery rule holds a message
    until all causally prior broadcasts have been delivered.
    """

    kind: ClassVar[str] = "CB_WRITE"
    sender: int
    seq: int
    location: str
    value: Any
    stamp: VectorClock
