"""Telemetry frame codec — the wire format of the observation sideband.

A :class:`TelemetryFrame` is one batch of trace events flushed from a
node's local shard toward the aggregator.  Frames are self-describing
for loss accounting: each carries the shard's id, a per-shard frame
sequence number, and the shard-local event-sequence range it covers, so
the aggregator can tell *exactly* how many frames and events a gap ate
— telemetry loss is reported, never silently absorbed (DESIGN.md
Section 4.12).

The encoding is deliberately boring: UTF-8 JSON behind a 4-byte
big-endian length prefix.  The sideband carries observation data only
— no protocol state — so we trade a few bytes per event for a format
the flight recorder can embed into FORMAT_VERSION-2 counterexamples
and humans can read off the wire with ``xxd``.  Protocol sockets keep
their own (struct-packed) codec; the two never mix, which is what keeps the
plane's wire accounting invariant testable
(``NetworkStats`` bytes identical with the plane on or off).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.events import TraceEvent

__all__ = [
    "TelemetryFrame",
    "FRAME_HEADER",
    "encode_frame",
    "decode_frame",
    "split_frames",
]

#: Length prefix of an encoded frame on the sideband stream.
FRAME_HEADER = struct.Struct("!I")

#: Hard ceiling on one frame's payload (16 MiB).  A length prefix above
#: this is treated as stream corruption, not a huge frame.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class TelemetryFrame:
    """One shard→aggregator batch.

    Attributes
    ----------
    node:
        Shard identity: a node id (int), ``"server"`` for the central
        server's shard, or ``"rt"`` for the runtime-level shard.
        Normalised to a string on the wire, parsed back on decode.
    frame_seq:
        Per-shard frame counter, starting at 1, incremented for every
        frame *produced* (dropped frames consume a number — that is the
        gap detector).
    first_seq:
        Shard-local ``seq`` of the first event in the batch; 0 when the
        frame is an empty heartbeat.
    n_events:
        Number of events covered.  ``first_seq + n_events - 1`` is the
        last covered shard seq.
    sent_wall:
        Shard's wall clock (``time.monotonic`` domain) at flush time —
        the input to the aggregator's per-node skew estimate.
    events:
        The batch, as :class:`TraceEvent` objects.
    """

    __slots__ = ("node", "frame_seq", "first_seq", "n_events", "sent_wall", "events")

    def __init__(
        self,
        node: Any,
        frame_seq: int,
        first_seq: int,
        n_events: int,
        sent_wall: float,
        events: List[TraceEvent],
    ):
        self.node = node
        self.frame_seq = frame_seq
        self.first_seq = first_seq
        self.n_events = n_events
        self.sent_wall = sent_wall
        self.events = events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TelemetryFrame(node={self.node!r}, frame_seq={self.frame_seq}, "
            f"first_seq={self.first_seq}, n_events={self.n_events})"
        )

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "node": _node_key(self.node),
            "fseq": self.frame_seq,
            "first": self.first_seq,
            "n": self.n_events,
            "sw": self.sent_wall,
            "events": [event.to_jsonable() for event in self.events],
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "TelemetryFrame":
        return cls(
            node=_node_value(data["node"]),
            frame_seq=int(data["fseq"]),
            first_seq=int(data["first"]),
            n_events=int(data["n"]),
            sent_wall=float(data["sw"]),
            events=[TraceEvent.from_jsonable(item) for item in data.get("events", [])],
        )


def _node_key(node: Any) -> str:
    """Shard id as a wire string (ints keep their decimal form)."""
    return str(node)


def _node_value(key: str) -> Any:
    """Inverse of :func:`_node_key` — decimal strings become ints."""
    try:
        return int(key)
    except (TypeError, ValueError):
        return key


def encode_frame(frame: TelemetryFrame) -> bytes:
    """Frame -> length-prefixed JSON bytes (one sideband write)."""
    payload = json.dumps(
        frame.to_jsonable(), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"telemetry frame too large: {len(payload)} bytes")
    return FRAME_HEADER.pack(len(payload)) + payload


def decode_frame(data: bytes) -> TelemetryFrame:
    """Inverse of :func:`encode_frame` (expects exactly one frame)."""
    decoded = _decode_one(data)
    if decoded is None:
        raise ValueError("short frame")
    frame, rest = decoded
    if rest:
        raise ValueError(f"{len(rest)} trailing bytes after frame")
    return frame


def _decode_one(data: bytes) -> Optional[Tuple[TelemetryFrame, bytes]]:
    """The first frame of ``data`` and what follows it; None while the
    frame is incomplete.  Every way the bytes can fail to be a frame —
    not UTF-8, not JSON, JSON of the wrong shape — is one ValueError:
    that is all the stream reader catches."""
    if len(data) < FRAME_HEADER.size:
        return None
    (length,) = FRAME_HEADER.unpack_from(data)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"corrupt frame length {length}")
    end = FRAME_HEADER.size + length
    if len(data) < end:
        return None
    try:
        payload = json.loads(data[FRAME_HEADER.size : end].decode("utf-8"))
        frame = TelemetryFrame.from_jsonable(payload)
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as error:
        raise ValueError(f"malformed telemetry frame: {error!r}") from error
    return frame, data[end:]


def split_frames(buffer: bytes) -> Tuple[List[TelemetryFrame], bytes]:
    """Parse every complete frame out of ``buffer``; return the tail.

    The sideband reader accumulates socket chunks and calls this; a
    partial frame at the end stays in the returned remainder until more
    bytes arrive.
    """
    frames: List[TelemetryFrame] = []
    while (decoded := _decode_one(buffer)) is not None:
        frame, buffer = decoded
        frames.append(frame)
    return frames, buffer
