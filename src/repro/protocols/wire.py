"""The wire codec: every protocol message as the bytes the cost model counts.

The paper's efficiency argument (Section 4.1) is stated in message
*counts*, but the real cost axis for causal DSM metadata is message
*size*: every protocol message carries at least one ``n``-entry vector
writestamp, so stamp bytes grow linearly with the system while payloads
stay constant (Xiang & Vaidya, arXiv:1703.05424).  This module makes
bytes a first-class measurement, and the measurement is the wire:

* **One byte layout** (DESIGN.md Section 4.5 is the spec) —
  :meth:`WireCodec.encode` packs a message into the frame described
  there and :meth:`WireCodec.decode` parses one, validating every
  length, tag and bound (:class:`WireError` on any violation).  The
  simulator's network carries these bytes and the live runtime writes
  them to its sockets; there is no other serializer.
* **Deterministic byte costs** — the model charges the constants below.
  A real frame is exactly that long plus one type-tag byte per
  ``int``/``float``/``str`` application value (and the multi-byte excess
  of non-ASCII text); :class:`Frame` carries both.  :func:`fast_cost`
  prices a message without encoding it — what a codec-less network
  charges — and agrees with the encoder.
* **Delta-encoded writestamps** — per directed channel ``(src, dst)``
  the codec remembers the last writestamp carried; subsequent stamps
  carry only the vector-clock entries that *changed* since, and the
  receiver rebuilds them from its mirror of the channel state.
  Reliable FIFO channels (the paper's Section 3 network assumption)
  keep both sides in step; any loss — a drop, a partition, a crashed
  endpoint, a dead connection — marks the channel dirty and the next
  stamp falls back to the **full** form, which resynchronises both
  sides unconditionally.  ``WireCodec(delta=False)`` sends every stamp
  full (what a run without ``delta_stamps`` puts on a socket).
* **A W_REPLY rides on its request** — its stamp is a delta over the
  stamp of the WRITE it answers (``VT'`` merges ``VT_i``), not over the
  channel basis, which still moves to it: a W_REPLY resyncs its channel.

Cost model (all sizes in bytes)::

    frame header        12   version, kind, endpoints, channel seq, length
    request/seq ids      4
    writer/node ids      4
    location name        2 + len(name)
    scalar value         8   (None/bool: 1, str: 2 + len)
    stamp, full          2 + 4 * n        (count prefix + counters)
    stamp, delta         2 + 6 * changed  (count prefix + index:counter)

A delta entry costs more than a full entry (it must name its index), so
the encoder automatically falls back to the full form whenever more than
``2n/3`` entries changed — the delta path never loses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.clocks import VectorClock
from repro.errors import ReproError

__all__ = [
    "WireError",
    "WireDesyncError",
    "Frame",
    "MessageCost",
    "measure_message",
    "fast_cost",
    "value_bytes",
    "location_bytes",
    "stamp_full_bytes",
    "stamp_delta_bytes",
    "WireCodec",
    "WIRE_VERSION",
    "MAX_FRAME",
    "HEADER_BYTES",
    "ID_BYTES",
    "STAMP_COUNT_BYTES",
    "STAMP_FULL_ENTRY_BYTES",
    "STAMP_DELTA_ENTRY_BYTES",
]


class WireError(ReproError):
    """A message cannot be encoded, or a frame is malformed."""


class WireDesyncError(WireError):
    """A delta stamp arrived on a channel whose basis was lost.

    Raised when a delivery-time loss (e.g. a crash healed mid-flight)
    interleaves with already-encoded delta frames.  Send-time losses
    never trigger this: the codec is told about them immediately and
    falls back to full stamps.
    """


# ----------------------------------------------------------------------
# Cost constants
# ----------------------------------------------------------------------
HEADER_BYTES = 12
ID_BYTES = 4
STAMP_COUNT_BYTES = 2
STAMP_FULL_ENTRY_BYTES = 4
STAMP_DELTA_ENTRY_BYTES = 6

#: Carried in every frame header and in the live hello; a decoder
#: rejects any other value (1 decoded a W_REPLY over the channel basis).
WIRE_VERSION = 2
#: Largest frame: the header's length field is 16 bits wide.
MAX_FRAME = 0xFFFF


def location_bytes(location: str) -> int:
    """Length-prefixed location name."""
    return 2 + len(location)


def value_bytes(value: Any) -> int:
    """Deterministic size of an application value on the wire."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, str):
        return 2 + len(value)
    return 8


def stamp_full_bytes(dimension: int) -> int:
    """A full writestamp: count prefix plus one counter per process."""
    return STAMP_COUNT_BYTES + STAMP_FULL_ENTRY_BYTES * dimension


def stamp_delta_bytes(changed: int) -> int:
    """A delta writestamp: count prefix plus (index, counter) pairs."""
    return STAMP_COUNT_BYTES + STAMP_DELTA_ENTRY_BYTES * changed


class Frame(NamedTuple):
    """One encoded message: the bytes, and what the model charges for them."""

    data: bytes
    #: Model size: ``len(data)`` minus value type tags and UTF-8 excess.
    byte_size: int
    #: Vector-clock entries physically carried / with every stamp full.
    stamp_entries: int
    stamp_entries_full: int


@dataclass(frozen=True, slots=True)
class MessageCost:
    """The deterministic wire cost of one message."""

    byte_size: int
    stamp_entries: int
    stamp_count: int


# ----------------------------------------------------------------------
# Field encodings (big-endian throughout)
# ----------------------------------------------------------------------
_HEADER = struct.Struct(">BBHHIH")  # version kind src dst channel-seq length
_U16 = struct.Struct(">H")
_ID = struct.Struct(">I")  # request ids and write sequence numbers
_NODE = struct.Struct(">i")  # node ids; a writer of -1 is "initial value"
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

# Value tags.  None/False/True are the whole value (1 byte, as modelled);
# the other three precede an 8-byte scalar or a length-prefixed string.
_T_NONE, _T_FALSE, _T_TRUE, _T_INT, _T_FLOAT, _T_STR = range(6)
_NONE, _FALSE, _TRUE = b"\x00", b"\x01", b"\x02"
_TAG_INT = struct.Struct(">Bq")
_TAG_FLOAT = struct.Struct(">Bd")
_TAG_STR = struct.Struct(">BH")

# A stamp's 16-bit prefix: top bit set = full (low bits: dimension, then
# that many u32 counters); clear = delta (low bits: pair count, then that
# many (u16 index, u32 counter) pairs over the channel basis).
_FULL_FLAG = 0x8000
_EMPTY_DELTA = b"\x00\x00"
_STAMP_STRUCTS: Dict[int, struct.Struct] = {}

# W_REPLY flag bits, and the byte for each combination.
_APPLIED, _HAS_CURRENT = 1, 2
_FLAGS = (b"\x00", b"\x01", b"\x02", b"\x03")


def _stamp_struct(word: int) -> struct.Struct:
    """Packer for a whole stamp (prefix + entries), keyed by its prefix."""
    packer = _STAMP_STRUCTS.get(word)
    if packer is None:
        count = word & ~_FULL_FLAG
        entries = "%dI" % count if word & _FULL_FLAG else "HI" * count
        packer = _STAMP_STRUCTS[word] = struct.Struct(">H" + entries)
    return packer


class _SendState:
    """One direction of one channel, sender side.

    ``basis`` is the last stamp's components (None: next stamp is full);
    the counters are running totals, so a frame's share is a difference
    and the codec's statistics are sums over channels.  ``nodes``,
    ``text``, ``value`` and ``*stamp`` each encode one field kind.
    """

    __slots__ = ("delta", "basis", "seq", "stamps", "stamps_full",
                 "carried", "wide", "extra", "asked", "owed")

    def __init__(self, delta: bool, asked, owed) -> None:
        self.delta, self.asked, self.owed = delta, asked, owed
        self.basis: Optional[Tuple[int, ...]] = None
        self.seq = 0
        self.stamps = self.stamps_full = self.carried = self.wide = 0
        #: Bytes written beyond the model: value tags and UTF-8 excess.
        self.extra = 0

    def nodes(self, node_ids: Tuple[int, ...]) -> bytes:
        return struct.pack(">H%di" % len(node_ids), len(node_ids), *node_ids)

    def text(self, text: str) -> bytes:
        raw = text.encode()
        if len(raw) != len(text):
            self.extra += len(raw) - len(text)
        return _U16.pack(len(raw)) + raw

    def value(self, value: Any) -> bytes:
        if isinstance(value, str):
            raw = value.encode()
            self.extra += 1 + len(raw) - len(value)
            return _TAG_STR.pack(_T_STR, len(raw)) + raw
        if value is None:
            return _NONE
        if isinstance(value, bool):
            return _TRUE if value else _FALSE
        try:
            if isinstance(value, int):
                self.extra += 1
                return _TAG_INT.pack(_T_INT, value)
            if isinstance(value, float):
                self.extra += 1
                return _TAG_FLOAT.pack(_T_FLOAT, value)
        except struct.error:
            pass
        raise WireError(
            f"field 'value' holds {value!r}: only None, bool, int64, "
            "float and str values have a wire encoding"
        )

    def stamp(self, clock: VectorClock) -> bytes:
        components = clock.components
        dimension = len(components)
        self.stamps += 1
        self.wide += dimension
        if self.delta:
            basis = self.basis
            self.basis = components
            if basis is not None and len(basis) == dimension:
                if components == basis:
                    # Unchanged stamp (a reply echoing the request's
                    # merged clock).
                    return _EMPTY_DELTA
                changed = [index for index in range(dimension)
                           if components[index] != basis[index]]
                count = len(changed)
                if stamp_delta_bytes(count) < stamp_full_bytes(dimension):
                    self.carried += count
                    pairs: List[int] = []
                    for index in changed:
                        pairs += index, components[index]
                    return _stamp_struct(count).pack(count, *pairs)
        if dimension >= _FULL_FLAG:
            raise WireError(f"stamp dimension {dimension} exceeds 15 bits")
        self.carried += dimension
        self.stamps_full += 1
        word = _FULL_FLAG | dimension
        return _stamp_struct(word).pack(word, *components)

    def request_stamp(self, request_id: int, clock: VectorClock) -> bytes:
        if self.delta:
            self.asked[request_id] = clock
        return self.stamp(clock)

    def reply_stamp(self, request_id: int, clock: VectorClock) -> bytes:
        if self.delta:  # over the request's stamp; full without one
            request = self.owed.pop(request_id, None)
            self.basis = None if request is None else request.components
        return self.stamp(clock)


class _RecvState:
    """One direction of one channel, receiver side.

    ``nodes``, ``text``, ``value`` and ``*stamp`` each parse one field
    kind at ``off`` and return it with the offset past it.
    """

    __slots__ = ("delta", "basis", "clock", "seq", "asked", "owed")

    def __init__(self, delta: bool, asked, owed) -> None:
        self.delta, self.asked, self.owed = delta, asked, owed
        self.basis: Optional[Tuple[int, ...]] = None
        #: The clock object built from ``basis`` (immutable, so an
        #: unchanged stamp hands out the same instance again).
        self.clock: Optional[VectorClock] = None
        self.seq = 0

    def nodes(self, data: bytes, off: int) -> Tuple[Tuple[int, ...], int]:
        (count,) = _U16.unpack_from(data, off)
        node_ids = struct.unpack_from(">%di" % count, data, off + 2)
        return node_ids, off + 2 + ID_BYTES * count

    def text(self, data: bytes, off: int) -> Tuple[str, int]:
        (length,) = _U16.unpack_from(data, off)
        end = off + 2 + length
        raw = data[off + 2:end]
        if len(raw) != length:
            raise WireError("text runs past the end of the frame")
        return raw.decode(), end

    def value(self, data: bytes, off: int) -> Tuple[Any, int]:
        tag = data[off]
        if tag == _T_STR:
            return self.text(data, off + 1)
        if tag == _T_INT:
            return _I64.unpack_from(data, off + 1)[0], off + 9
        if tag == _T_FLOAT:
            return _F64.unpack_from(data, off + 1)[0], off + 9
        if tag > _T_TRUE:
            raise WireError(f"unknown value tag {tag}")
        return (None, False, True)[tag], off + 1

    def stamp(self, data: bytes, off: int) -> Tuple[VectorClock, int]:
        (word,) = _U16.unpack_from(data, off)
        off += 2
        if word & _FULL_FLAG:
            end = off + STAMP_FULL_ENTRY_BYTES * (word - _FULL_FLAG)
            if end == off or end > len(data):
                raise WireError("full stamp is empty or runs past the frame")
            components = _stamp_struct(word).unpack_from(data, off - 2)[1:]
            off = end
        else:
            basis = self.basis
            if basis is None:
                raise WireDesyncError(
                    "delta stamp without a basis; a frame was lost after "
                    "later frames were already encoded"
                )
            if not word:
                return self.clock, off
            if off + STAMP_DELTA_ENTRY_BYTES * word > len(data):
                raise WireError("delta stamp runs past the frame")
            pairs = _stamp_struct(word).unpack_from(data, off - 2)
            off += STAMP_DELTA_ENTRY_BYTES * word
            mutable = list(basis)
            dimension = len(mutable)
            for position in range(1, 2 * word, 2):
                index = pairs[position]
                if index >= dimension:
                    raise WireError(
                        f"delta index {index} outside dimension {dimension}"
                    )
                mutable[index] = pairs[position + 1]
            components = tuple(mutable)
        clock = self.clock = VectorClock._from_trusted(components)
        self.basis = components
        return clock, off

    def request_stamp(self, data: bytes, off: int, request_id: int):
        clock, off = self.stamp(data, off)
        if self.delta:
            self.owed[request_id] = clock
        return clock, off

    def reply_stamp(self, data: bytes, off: int, request_id: int):
        # The request's clock stands in for the channel's (an empty
        # delta is the request's stamp); no record: full or desync.
        request = self.clock = self.asked.pop(request_id, None)
        self.basis = None if request is None else request.components
        return self.stamp(data, off)


#: How each message field travels, by field name: fields are written in
#: dataclass order, which both sides walk identically — so a type's
#: stamps keep one fixed order and the running per-channel basis stays
#: in lockstep.  ``applied`` stands for the (applied, current) pair that
#: ends a write reply.  A ``Type.field`` key overrides one type's field.
_FIELD_KINDS = {
    "request_id": "uint", "seq": "uint",
    "location": "text", "unit": "text",
    "value": "value", "stamp": "stamp",
    "writer": "node", "sender": "node", "requester": "node", "owner": "node",
    "copyset": "nodes", "entries": "entries",
    "applied": "outcome", "current": None,
    "WriteRequest.stamp": "request_stamp", "WriteReply.stamp": "reply_stamp",
}
#: Per kind: the expression that encodes field ``{f}`` of message ``m`` on
#: sender state ``s``, and the statement that parses it from ``data`` at
#: ``off`` on receiver state ``r`` — a state method of the kind's name
#: unless listed here (fixed-width kinds inline; composites, which need
#: the message classes, are helpers :func:`_build_layouts` supplies).
_FIELD_CODE = {
    "uint": ("_ID.pack(m.{f})", "({f},) = _ID.unpack_from(data, off); off += 4"),
    "node": ("_NODE.pack(m.{f})", "({f},) = _NODE.unpack_from(data, off); off += 4"),
    "entries": ("put_entries(s, m.{f})", "{f}, off = get_entries(r, data, off)"),
    "outcome": ("put_outcome(s, m.applied, m.current)",
                "applied, current, off = get_outcome(r, data, off)"),
    **{kind: (f"s.{kind}(m.request_id, m.{{f}})",
              f"{{f}}, off = r.{kind}(data, off, request_id)")
       for kind in ("request_stamp", "reply_stamp")},
}


def _compile(cls, helpers: Dict[str, Any]):
    """Straight-line ``encode(s, m) -> bytes`` and ``decode(r, data, off)
    -> (cls(...), off)`` for ``cls``'s fields, generated from the tables
    above; ``helpers`` are the names the generated code may call."""
    names = [field.name for field in dataclass_fields(cls)]
    puts, gets = [], []
    for name in names:
        kind = _FIELD_KINDS.get(f"{cls.__name__}.{name}", _FIELD_KINDS[name])
        if kind is not None:
            put, get = _FIELD_CODE.get(kind) or (
                f"s.{kind}(m.{{f}})", f"{{f}}, off = r.{kind}(data, off)")
            puts.append(put.format(f=name))
            gets.append(get.format(f=name))
    source = (
        f"def encode(s, m):\n    return {' + '.join(puts)}\n"
        "def decode(r, data, off):\n    "
        + "\n    ".join(gets)
        + f"\n    return cls({', '.join(names)}), off\n"
    )
    namespace = {"cls": cls, "_ID": _ID, "_NODE": _NODE, **helpers}
    exec(source, namespace)
    return namespace["encode"], namespace["decode"]


# ----------------------------------------------------------------------
# Per-type layouts
# ----------------------------------------------------------------------
# cost(msg)          -> (byte_size, stamp_entries) with full stamps,
#                       allocation-free: what a codec-less network charges
#                       on every send.  tests/test_wire.py asserts it
#                       agrees with the encoder for every type.
# encode(state, msg) -> the frame body (everything after the header)
# decode(state, data, off) -> (message, offset past it)
_CostFn = Callable[[Any], Tuple[int, int]]


class _Layout(NamedTuple):
    code: int
    kind: str
    cost: _CostFn
    encode: Callable[[_SendState, Any], bytes]
    decode: Callable[[_RecvState, bytes, int], Tuple[Any, int]]


_LAYOUTS: Dict[type, _Layout] = {}
_BY_CODE: Dict[int, _Layout] = {}


def _build_layouts() -> None:
    # Imported here: the message modules import nothing from this one,
    # but repro.protocols' package import order would make it circular.
    from repro.protocols import li_hudak as lh
    from repro.protocols import messages as m

    # Constants folded into closure locals: the cost functions run on
    # every Network.send, so global lookups are trimmed to bind-time.
    H, ID = HEADER_BYTES, ID_BYTES
    SC, SF = STAMP_COUNT_BYTES, STAMP_FULL_ENTRY_BYTES
    vb = value_bytes
    # One full stamp of dimension d costs SC + SF*d; an entry payload
    # (location + value + writer id) costs (2 + len(loc)) + vb + ID.

    def register(code, cls, cost) -> None:
        """Add ``cls``; its codec is compiled from its fields' kinds."""
        assert code not in _BY_CODE, code
        _LAYOUTS[cls] = _BY_CODE[code] = _Layout(
            code, cls.kind, cost, *_compile(cls, helpers))

    # -- composite field kinds -------------------------------------------
    helpers: Dict[str, Any] = {}
    entry_encode, entry_decode = _compile(m.EntryPayload, helpers)

    def put_entries(state, entries) -> bytes:
        return _U16.pack(len(entries)) + b"".join(
            [entry_encode(state, entry) for entry in entries])

    def get_entries(state, data, off):
        (count,) = _U16.unpack_from(data, off)
        off += 2
        entries = []
        for _ in range(count):
            entry, off = entry_decode(state, data, off)
            entries.append(entry)
        return tuple(entries), off

    # A write reply ends in its outcome: one flags byte for
    # ``applied`` and the presence of ``current``, then that entry.
    def put_outcome(state, applied, current) -> bytes:
        if current is None:
            return _FLAGS[bool(applied)]
        return _FLAGS[_HAS_CURRENT | bool(applied)] + entry_encode(state, current)

    def get_outcome(state, data, off):
        flags = data[off]
        if flags > _APPLIED | _HAS_CURRENT:
            raise WireError(f"unknown reply flags {flags:#x}")
        current = None
        off += 1
        if flags & _HAS_CURRENT:
            current, off = entry_decode(state, data, off)
        return bool(flags & _APPLIED), current, off

    helpers.update(put_entries=put_entries, get_entries=get_entries,
                   put_outcome=put_outcome, get_outcome=get_outcome)
    # -- cost functions (full stamps), hand-fused -------------------------
    # ``fixed`` is everything of constant width after the header.
    def plain(fixed):  # ... | location
        return lambda msg, _f=H + fixed + 2: (_f + len(msg.location), 0)

    def valued(fixed):  # ... | location | value
        return lambda msg, _f=H + fixed + 2: (
            _f + len(msg.location) + vb(msg.value), 0)

    def stamped(fixed):  # ... | location | value | one stamp
        def cost(msg, _f=H + fixed + 2 + SC):
            dim = msg.stamp.dimension
            return _f + len(msg.location) + vb(msg.value) + SF * dim, dim

        return cost

    def read_reply_cost(msg, _f=H + ID + 4, _pe=2 + ID):
        dim = msg.stamp.dimension
        stamp = SC + SF * dim
        n = _f + len(msg.location) + stamp
        count = 1
        for entry in msg.entries:
            n += _pe + len(entry.location) + vb(entry.value) + stamp
            count += 1
        return n, count * dim

    def write_reply_cost(msg, _f=H + ID + 3 + SC, _pe=2 + ID):
        dim = msg.stamp.dimension
        n = _f + len(msg.location) + vb(msg.value) + SF * dim
        count = 1
        current = msg.current
        if current is not None:
            n += _pe + len(current.location) + vb(current.value) + SC + SF * dim
            count = 2
        return n, count * dim

    def grant_cost(msg, _f=H + ID + 2 + ID + 2 + SC):
        dim = msg.stamp.dimension
        return (_f + len(msg.location) + vb(msg.value)
                + ID * len(msg.copyset) + SF * dim), dim

    # -- the table: code, type, cost -------------------------------------
    # causal owner (Figure 4); codes 5 and 6 are retired, never reused
    register(1, m.ReadRequest, lambda msg, _f=H + ID + 4: (
        _f + len(msg.location) + len(msg.unit), 0))
    register(2, m.ReadReply, read_reply_cost)
    register(3, m.WriteRequest, stamped(ID))
    register(4, m.WriteReply, write_reply_cost)
    # atomic owner baseline, central server
    register(7, m.AtomicReadRequest, plain(ID))
    register(8, m.AtomicReadReply, stamped(ID + ID))
    register(9, m.AtomicWriteRequest, valued(ID + ID))
    register(10, m.AtomicWriteReply, valued(ID))
    register(11, m.Invalidate, plain(ID))
    register(12, m.InvalidateAck, plain(ID))
    register(13, m.CentralRead, plain(ID))
    register(14, m.CentralWrite, valued(ID + ID))
    register(15, m.CentralReply, stamped(ID + ID))
    # causal broadcast; code 17 is retired, never reused
    register(16, m.BroadcastWrite, stamped(ID + ID))
    # Li–Hudak migrating ownership
    register(18, lh.MigRead, plain(ID + ID))
    register(19, lh.MigReadReply, stamped(ID + ID + ID))
    register(20, lh.MigOwnRequest, plain(ID + ID))
    register(21, lh.MigGrant, grant_cost)
    register(22, lh.MigInvalidate, plain(ID))
    register(23, lh.MigInvalidateAck, plain(ID))


def _layout_for(message: object) -> Optional[_Layout]:
    """The layout of ``message``'s type, or None for an unregistered one."""
    if not _LAYOUTS:
        _build_layouts()
    return _LAYOUTS.get(type(message))


# ----------------------------------------------------------------------
# Stateless measurement (full stamps)
# ----------------------------------------------------------------------
def _generic_cost(message: object) -> Tuple[int, int]:
    """Size a type with no layout from its public attributes: test
    doubles crossing a codec-less simulated network are still accounted
    for, though they cannot be *encoded* (see :meth:`WireCodec.encode`)."""
    try:
        attrs = vars(message)
    except TypeError:
        return HEADER_BYTES + 8, 0  # slotted test double: flat estimate
    body = sum(value_bytes(attrs[name]) for name in sorted(attrs)) or 8
    return HEADER_BYTES + body, 0


def measure_message(message: object) -> MessageCost:
    """The wire cost of ``message`` with full (non-delta) writestamps.

    Measured, not modelled: the message is encoded on a scratch channel
    and the frame's own accounting is returned.  This is what a network
    charges when no delta codec is installed — the honest baseline the
    delta path is compared against.
    """
    if _layout_for(message) is None:
        return MessageCost(*_generic_cost(message), stamp_count=0)
    codec = WireCodec(delta=False)
    frame = codec.encode(0, 1, message)
    return MessageCost(
        byte_size=frame.byte_size, stamp_entries=frame.stamp_entries,
        stamp_count=codec.stamps_encoded,
    )


def fast_cost(message: object) -> Tuple[int, int]:
    """``(byte_size, stamp_entries)`` of ``message``, allocation-free.

    The network charges every codec-less send through this, so each
    registered type has a hand-fused cost function instead of encoding;
    ``tests/test_wire.py`` asserts both agree for every message type.
    """
    layout = _layout_for(message)
    if layout is None:
        return _generic_cost(message)
    return layout.cost(message)


def cost_table() -> Dict[type, _CostFn]:
    """The fused cost functions by message type, for direct dispatch.

    The network looks its messages up here to skip even the
    :func:`fast_cost` call frame; types missing from the table (test
    doubles) go through :func:`fast_cost` instead.
    """
    if not _LAYOUTS:
        _build_layouts()
    return {cls: layout.cost for cls, layout in _LAYOUTS.items()}


# ----------------------------------------------------------------------
# The per-channel codec
# ----------------------------------------------------------------------
class WireCodec:
    """Frames protocol messages over reliable FIFO channels.

    One codec instance serves one network: it holds the sender-side and
    receiver-side state per directed channel.  ``encode`` must be called
    in send order and ``decode`` in delivery order — exactly the orders
    the FIFO network already guarantees.  ``delta=False`` writes every
    stamp in full (no channel basis, no WRITE records are kept).

    ``_asked`` / ``_owed`` (by ``(writer, owner)``, then request id; two
    tables, as one codec may play both ends) keep a WRITE's stamp from
    its encode / decode to its W_REPLY's decode / encode or a loss.  After
    a run ``_owed`` is empty and ``_asked`` holds at most one record per
    WRITE lost after encoding or W_REPLY lost.

    Statistics (``stamps_encoded``, ``stamps_full``, ``entries_carried``,
    ``entries_saved``) report how often the delta path engages.
    """

    def __init__(self, delta: bool = True) -> None:
        self.delta = delta
        self._send_state: Dict[Tuple[int, int], _SendState] = {}
        self._recv_state: Dict[Tuple[int, int], _RecvState] = {}
        self._asked: Dict[Tuple[int, int], Dict[int, VectorClock]] = {}
        self._owed: Dict[Tuple[int, int], Dict[int, VectorClock]] = {}
        #: Attached TraceCollector, or None (all emits are guarded).
        self.obs = None

    def _total(self, counter: str) -> int:
        return sum(getattr(s, counter) for s in self._send_state.values())

    @property
    def stamps_encoded(self) -> int:
        return self._total("stamps")

    @property
    def stamps_full(self) -> int:
        return self._total("stamps_full")

    @property
    def entries_carried(self) -> int:
        return self._total("carried")

    @property
    def entries_saved(self) -> int:
        return self._total("wide") - self._total("carried")

    # -- channel state -------------------------------------------------
    def mark_dirty(self, src: int, dst: int) -> None:
        """Force the next message on ``(src, dst)`` to carry full stamps.

        Called by the network whenever a message on the channel is lost
        (drop, partition, crash): the receiver's basis can no longer be
        assumed to match, so the delta chain restarts from a full stamp.
        """
        state = self._send_state.get((src, dst))
        if state is not None and self.delta:
            state.basis = None
            if self.obs is not None and self.obs.wants("net", "resync"):
                self.obs.emit("net", "resync", src=src, dst=dst)
        # It may be a W_REPLY lost unencoded, whose record nothing pops.
        self._owed.get((dst, src), {}).clear()

    def mark_node_dirty(self, node_id: int) -> None:
        """Dirty every channel to or from ``node_id`` (crash handling)."""
        for (src, dst), state in self._send_state.items():
            if src == node_id or dst == node_id:
                state.basis = None
        if self.obs is not None and self.obs.wants("net", "resync.node"):
            self.obs.emit("net", "resync.node", node=node_id)

    # -- encode / decode -----------------------------------------------
    def encode(self, src: int, dst: int, message: object) -> Frame:
        """Pack ``message`` for channel ``(src, dst)``.

        Raises :class:`WireError` for a type with no registered layout,
        a value with no encoding, or a field outside its width.
        """
        layout = _LAYOUTS.get(type(message)) or _layout_for(message)
        if layout is None:
            raise WireError(
                f"{type(message).__name__} has no registered wire layout"
            )
        state = self._send_state.get((src, dst))
        if state is None:
            state = self._send_state[(src, dst)] = _SendState(
                self.delta, self._asked.setdefault((src, dst), {}),
                self._owed.setdefault((dst, src), {}))
        carried, wide, extra = state.carried, state.wide, state.extra
        seq = (state.seq + 1) & 0xFFFFFFFF
        try:
            body = layout.encode(state, message)
            length = HEADER_BYTES + len(body)
            if length > MAX_FRAME:
                raise WireError(f"{length} bytes exceed MAX_FRAME")
            data = _HEADER.pack(
                WIRE_VERSION, layout.code, src, dst, seq, length) + body
        except (WireError, struct.error) as exc:
            state.basis = None  # stamps already walked have no receiver
            raise WireError(f"cannot encode {layout.kind}: {exc}") from exc
        state.seq = seq
        return Frame(
            data, length - (state.extra - extra),
            state.carried - carried, state.wide - wide,
        )

    def decode(self, src: int, dst: int, data: bytes) -> object:
        """Parse one frame received on ``(src, dst)`` into its message.

        Raises :class:`WireError` for anything but a well-formed frame
        of this channel, :class:`WireDesyncError` for a delta stamp the
        receiver has no basis for.  Either way the channel's basis is
        dropped, so only a full stamp gets it going again.
        """
        if not _LAYOUTS:
            _build_layouts()
        state = self._recv_state.get((src, dst))
        if state is None:
            state = self._recv_state[(src, dst)] = _RecvState(
                self.delta, self._asked.setdefault((dst, src), {}),
                self._owed.setdefault((src, dst), {}))
        try:
            if type(data) is not bytes:
                raise WireError(f"a frame is bytes, not {type(data).__name__}")
            version, code, from_, to, seq, length = _HEADER.unpack_from(data)
            if version != WIRE_VERSION:
                raise WireError(f"wire version {version}, want {WIRE_VERSION}")
            if length != len(data):
                raise WireError(
                    f"header says {length} bytes, frame has {len(data)}")
            if from_ != src or to != dst:
                raise WireError(
                    f"frame for channel {from_}->{to} on {src}->{dst}")
            layout = _BY_CODE.get(code)
            if layout is None:
                raise WireError(f"unknown frame kind {code}")
            if seq != (state.seq + 1) & 0xFFFFFFFF:
                # Frames were lost: whatever they did to the basis is
                # unknown, so only a full stamp may follow.
                state.basis = None
            state.seq = seq
            message, off = layout.decode(state, data, HEADER_BYTES)
            if off != length:
                raise WireError(f"{length - off} trailing bytes")
        except WireError:
            state.basis = None
            raise
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            state.basis = None
            raise WireError(f"malformed frame on {src}->{dst}: {exc}") from exc
        return message
