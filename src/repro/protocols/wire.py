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
    stamp, full          2 + 4 * n        (prefix + u32 counters)
    stamp, sparse delta  2 + (i + w) * k  (prefix + k (index, step) pairs)
    stamp, dense delta   2 + w * n        (prefix + n steps)
    entry                location + value + stamp + writer id

    READ     header + id + location
    R_REPLY  header + id + 2 + entries   (the requested entry first)
    WRITE    header + id + location + value + stamp
    W_REPLY  header + id + stamp + flags [+ entry]

A frame carries nothing its receiver can derive: a READ's unit is the
owner's namespace's, an R_REPLY's location is its first entry's and its
``VT'`` the join of its entries' stamps, and a W_REPLY's ``x`` and ``v``
are those of the pending WRITE its request id names.

A delta carries each moved component's signed *step* over its basis,
``w`` = 1, 2 or 4 bytes wide, the narrowest that holds every step of
the stamp; an index ``i`` is 1 byte while ``n <= 256``, else 2.  Fewer
than ``2n/3`` moved components travel as sparse pairs, more as a dense
vector of all ``n`` steps where the full form would otherwise go, so a
delta is never larger than the full stamp and carries as many entries
as the full-or-pairs rule before it.  A stamp goes full without a basis,
on a dimension change, on a step beyond ``i32`` and above ``n = 4095``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields as dataclass_fields
from itertools import compress
from operator import add, sub
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

#: Carried in every frame header and in the live hello; a decoder
#: rejects any other value (1 decoded a W_REPLY over the channel basis,
#: 2 carried a delta's new counters instead of its steps, 3 sent a READ's
#: unit, an R_REPLY's location and join stamp and a W_REPLY's x and v).
WIRE_VERSION = 4
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


def stamp_delta_bytes(dimension: int, changed: int, step_bytes: int) -> int:
    """A delta writestamp over a ``dimension``-entry basis of which
    ``changed`` components moved, each step ``step_bytes`` wide: count
    prefix plus (index, step) pairs while fewer than ``2n/3`` moved,
    else plus all ``dimension`` steps."""
    if 3 * changed < 2 * dimension:
        index_bytes = 1 if dimension <= _NARROW_INDEX_LIMIT else 2
        return STAMP_COUNT_BYTES + (index_bytes + step_bytes) * changed
    return STAMP_COUNT_BYTES + step_bytes * dimension


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

# A stamp's 16-bit prefix: bit 15 set = full (low bits: dimension, then
# that many u32 counters); 0 = the basis again; otherwise a delta over
# the basis: bit 14 dense, bits 12-13 the step width (i8, i16, i32; 3 is
# refused), bits 0-11 the count.  A sparse delta is that many (index,
# step) pairs, indices u8 over a basis of at most 256 entries, else u16,
# strictly increasing; a dense one is one step per basis entry.
_FULL_FLAG = 0x8000
_DENSE_FLAG = 0x4000
_WIDTH_MASK, _WIDTH_SHIFT = 0x3000, 12
_COUNT_MASK = 0x0FFF
_WIDTHS = (0x0000, 0x1000, 0x2000)  # i8, i16, i32 in the prefix
_NARROW_INDEX_LIMIT = 256
_EMPTY_DELTA = b"\x00\x00"
_U32_MAX = 0xFFFFFFFF
#: Packers by key: the prefix word, plus ``_WIDE_KEY`` for a sparse delta
#: over more than 256 entries (u16 indices), plus ``_BODY_KEY`` for the
#: entries alone (what a decoder unpacks, past the prefix it has read).
_WIDE_KEY = 0x10000
_BODY_KEY = 0x20000
_STAMP_STRUCTS: Dict[int, struct.Struct] = {}

# W_REPLY flag bits, and the byte for each combination.
_APPLIED, _HAS_CURRENT = 1, 2
_FLAGS = (b"\x00", b"\x01", b"\x02", b"\x03")


def _stamp_struct(key: int) -> struct.Struct:
    """Packer for a stamp, keyed as above (callers try ``_STAMP_STRUCTS``
    first); only for a prefix the decoder accepts: width code 3 has none."""
    word = key & 0xFFFF
    if word & _FULL_FLAG:
        entries = "%dI" % (word - _FULL_FLAG)
    else:
        step = "bhi"[(word & _WIDTH_MASK) >> _WIDTH_SHIFT]
        count = word & _COUNT_MASK
        if word & _DENSE_FLAG:
            entries = "%d%s" % (count, step)
        else:
            entries = ("H" if key & _WIDE_KEY else "B") + step
            entries *= count
    packer = _STAMP_STRUCTS[key] = struct.Struct(
        (">" if key & _BODY_KEY else ">H") + entries)
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
            if (basis is not None and len(basis) == dimension
                    and dimension <= _COUNT_MASK):
                if components == basis:
                    # Unchanged stamp (a reply echoing the request's
                    # merged clock).
                    return _EMPTY_DELTA
                steps = list(map(sub, components, basis))
                count = dimension - steps.count(0)
                if 3 * count < 2 * dimension:
                    pairs: List[int] = []
                    for index in compress(range(dimension), steps):
                        pairs += index, steps[index]
                    steps = pairs
                    key = count if dimension <= _NARROW_INDEX_LIMIT else (
                        count | _WIDE_KEY)
                else:
                    key, count = _DENSE_FLAG | dimension, dimension
                # The basis was sent, so it is in range; a moved counter
                # past 32 bits would ride a small step (a sum below 2**32
                # bounds every counter without looking at each).
                if sum(components) > _U32_MAX and max(components) > _U32_MAX:
                    raise WireError("a stamp counter exceeds 32 bits")
                for width in _WIDTHS:  # the narrowest that packs
                    word = key | width
                    packer = _STAMP_STRUCTS.get(word) or _stamp_struct(word)
                    try:
                        packed = packer.pack(word & 0xFFFF, *steps)
                    except struct.error:
                        continue
                    self.carried += count
                    return packed
        if dimension >= _FULL_FLAG:
            raise WireError(f"stamp dimension {dimension} exceeds 15 bits")
        self.carried += dimension
        self.stamps_full += 1
        word = _FULL_FLAG | dimension
        packer = _STAMP_STRUCTS.get(word) or _stamp_struct(word)
        return packer.pack(word, *components)

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

    ``nodes``, ``value`` and ``*stamp`` each parse one field kind at
    ``off`` and return it with the offset past it (a name is parsed
    inline by the generated decoders).
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

    def value(self, data: bytes, off: int) -> Tuple[Any, int]:
        tag = data[off]
        if tag == _T_STR:  # a name after its tag (see "text" below)
            (length,) = _U16.unpack_from(data, off + 1)
            end = off + 3 + length
            return data[off + 3:end].decode(), end
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
            if word == _FULL_FLAG:
                raise WireError("full stamp of dimension 0")
            key = word | _BODY_KEY
            packer = _STAMP_STRUCTS.get(key) or _stamp_struct(key)
            components = packer.unpack_from(data, off)
            off += packer.size
        else:
            basis = self.basis
            if basis is None:
                raise WireDesyncError(
                    "delta stamp without a basis; a frame was lost after "
                    "later frames were already encoded"
                )
            if not word:
                return self.clock, off
            if word & _WIDTH_MASK == _WIDTH_MASK:
                raise WireError(f"delta step width code 3 in {word:#06x}")
            count = word & _COUNT_MASK
            dimension = len(basis)
            if word & _DENSE_FLAG:
                if count != dimension:
                    raise WireError(
                        f"dense delta of {count} over dimension {dimension}")
                key = word | _BODY_KEY
                packer = _STAMP_STRUCTS.get(key) or _stamp_struct(key)
                start, off = off, off + packer.size
                components = tuple(map(add, basis, packer.unpack_from(data, start)))
                # Only a negative step (a step with a sign byte set) can
                # leave zero behind; only a sum past 2**32 can hide a
                # counter past it.
                if (not data[start:off].isascii() and min(components) < 0
                        or sum(components) > _U32_MAX
                        and max(components) > _U32_MAX):
                    raise WireError(
                        "dense delta moves a counter out of [0, 2**32)")
            else:
                if not count:
                    raise WireError(f"sparse delta of no pairs in {word:#06x}")
                key = word | _BODY_KEY
                if dimension > _NARROW_INDEX_LIMIT:
                    key |= _WIDE_KEY
                packer = _STAMP_STRUCTS.get(key) or _stamp_struct(key)
                pairs = iter(packer.unpack_from(data, off))  # index, step, ...
                off += packer.size
                mutable = list(basis)
                last = -1
                for index in pairs:
                    step = next(pairs)
                    if not last < index < dimension:
                        raise WireError(
                            f"delta index {index} after {last} in dimension "
                            f"{dimension}")
                    last = index
                    value = mutable[index] + step
                    if step > 0:
                        if value > _U32_MAX:
                            raise WireError(
                                f"delta moves counter {index} to {value}")
                    elif not step or value < 0:
                        raise WireError(
                            f"delta moves counter {index} by {step} to {value}")
                    mutable[index] = value
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
    "location": "text",
    "value": "value", "stamp": "stamp",
    "writer": "node", "sender": "node", "requester": "node", "owner": "node",
    "copyset": "nodes", "entries": "entries",
    "applied": "outcome", "current": None,
    "WriteRequest.stamp": "request_stamp", "WriteReply.stamp": "reply_stamp",
}
#: Per kind: the expression that encodes field ``{f}`` of message ``m`` on
#: sender state ``s``, and the statement that parses it from ``data`` at
#: ``off`` on receiver state ``r`` — a state method of the kind's name
#: unless listed here (fixed-width kinds and a name's decoding inline;
#: composites, which need the message classes, are helpers
#: :func:`_build_layouts` supplies).
_FIELD_CODE = {
    "uint": ("_ID.pack(m.{f})", "({f},) = _ID.unpack_from(data, off); off += 4"),
    # A short slice is caught by the next field or the final length check.
    "text": ("s.text(m.{f})", "({f},) = _U16.unpack_from(data, off); "
             "off += 2 + {f}; {f} = data[off - {f}:off].decode()"),
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
    -> (message, off)`` for ``cls``'s fields, generated from the tables
    above; ``helpers`` are the names the generated code may call.

    A slotted type's message is built by ``object.__new__`` and its slot
    descriptors' ``__set__``, which skips the frozen dataclass ``__init__``
    (no registered type has a ``__post_init__`` to skip); any other type
    is called."""
    names = [field.name for field in dataclass_fields(cls)]
    puts, gets = [], []
    for name in names:
        kind = _FIELD_KINDS.get(f"{cls.__name__}.{name}", _FIELD_KINDS[name])
        if kind is not None:
            put, get = _FIELD_CODE.get(kind) or (
                f"s.{kind}(m.{{f}})", f"{{f}}, off = r.{kind}(data, off)")
            puts.append(put.format(f=name))
            gets.append(get.format(f=name))
    namespace = {"cls": cls, "_ID": _ID, "_NODE": _NODE, "_U16": _U16, **helpers}
    if "__slots__" in cls.__dict__:
        namespace["new"] = object.__new__
        namespace.update(
            (f"set_{name}", cls.__dict__[name].__set__) for name in names)
        gets.append("m = new(cls)")
        gets += [f"set_{name}(m, {name})" for name in names]
        built = "m"
    else:
        built = f"cls({', '.join(names)})"
    source = (
        f"def encode(s, m):\n    return b''.join(({', '.join(puts)},))\n"
        "def decode(r, data, off):\n    "
        + "\n    ".join(gets)
        + f"\n    return {built}, off\n"
    )
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

    def read_reply_cost(msg, _f=H + ID + 2, _pe=2 + ID + SC):
        n, count = _f, 0
        for entry in msg.entries:
            dim = entry.stamp.dimension
            n += _pe + len(entry.location) + vb(entry.value) + SF * dim
            count += dim
        return n, count

    def write_reply_cost(msg, _f=H + ID + SC + 1, _pe=2 + ID + SC):
        dim = msg.stamp.dimension
        current = msg.current
        if current is None:
            return _f + SF * dim, dim
        extra = current.stamp.dimension
        return (_f + SF * (dim + extra) + _pe + len(current.location)
                + vb(current.value)), dim + extra

    def grant_cost(msg, _f=H + ID + 2 + ID + 2 + SC):
        dim = msg.stamp.dimension
        return (_f + len(msg.location) + vb(msg.value)
                + ID * len(msg.copyset) + SF * dim), dim

    # -- the table: code, type, cost -------------------------------------
    # causal owner (Figure 4); codes 5 and 6 are retired, never reused
    register(1, m.ReadRequest, plain(ID))
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
        return tuple.__new__(Frame, (  # skips the NamedTuple's Python __new__
            data, length - (state.extra - extra),
            state.carried - carried, state.wide - wide,
        ))

    def decode(self, src: int, dst: int, data: bytes) -> object:
        """Parse one frame received on ``(src, dst)`` into its message.

        Raises :class:`WireError` for anything but a well-formed frame
        of this channel, :class:`WireDesyncError` for a delta stamp the
        receiver has no basis for.  Either way the channel's basis is
        dropped, so only a full stamp gets it going again.
        """
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
                if not _LAYOUTS:
                    _build_layouts()
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
                raise WireError(f"{length - off} trailing bytes" if off < length
                                else f"a field runs {off - length} bytes past the frame")
        except WireError:
            state.basis = None
            raise
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            state.basis = None
            raise WireError(f"malformed frame on {src}->{dst}: {exc}") from exc
        return message
