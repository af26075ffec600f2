"""The byte frames themselves: round trips, their size, and hostile input.

Three claims about :class:`~repro.protocols.wire.WireCodec`:

1. ``decode(encode(m)) == m`` for every registered frame type (the 17
   protocol messages and Li–Hudak's six), over any mix of full, delta,
   empty-delta, dimension-changing and post-``mark_dirty`` stamps, and a
   frame is exactly ``byte_size`` long plus the documented tag bytes and
   UTF-8 excess — so the simulator's byte ledger *is* the wire.
2. Nothing a peer can send makes ``decode`` raise anything but
   :class:`WireError` / :class:`WireDesyncError`, and nothing read from
   a socket kills the live runtime's reader or reaches ``_abort``.
3. With every stamp forced full the encoder, :func:`measure_message` and
   the allocation-free :func:`fast_cost` agree.
"""

import pickle
import random
import struct
from dataclasses import FrozenInstanceError, fields as dataclass_fields

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from _wire_audit import frame_excess
from repro.clocks import VectorClock
from repro.protocols import li_hudak as lh
from repro.protocols import messages as m
from repro.protocols.wire import (
    HEADER_BYTES,
    MAX_FRAME,
    WIRE_VERSION,
    WireCodec,
    WireDesyncError,
    WireError,
    fast_cost,
    measure_message,
    stamp_delta_bytes,
)

COMMON = dict(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# Strategies: one message of any registered type, stamps of one dimension
# ----------------------------------------------------------------------
ids = st.integers(min_value=0, max_value=2 ** 32 - 1)
nodes = st.integers(min_value=-1, max_value=2 ** 31 - 1)
names = st.one_of(
    st.sampled_from(["x", "loc3", "unit0", ""]), st.text(max_size=12)
)
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)


def clocks(dimension):
    # Small counters make equal and nearly-equal stamps (empty and short
    # deltas) common; the wide range reaches the 32-bit edge.
    counter = st.one_of(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    return st.lists(counter, min_size=dimension, max_size=dimension).map(
        VectorClock
    )


def message_strategies(dimension):
    """One strategy per registered type, stamps all of ``dimension``."""
    stamp = clocks(dimension)
    entry = st.builds(m.EntryPayload, names, values, stamp, nodes)
    current = st.one_of(st.none(), entry)

    # Page-mode read replies carry several entries, word mode one.
    entries = st.lists(entry, max_size=4).map(tuple)
    copysets = st.lists(nodes, max_size=5).map(tuple)
    built = {
        m.ReadRequest: (ids, names),
        m.ReadReply: (ids, entries),
        m.WriteRequest: (ids, names, values, stamp),
        m.WriteReply: (ids, stamp, st.booleans(), current),
        m.AtomicReadRequest: (ids, names),
        m.AtomicReadReply: (ids, names, values, stamp, nodes),
        m.AtomicWriteRequest: (ids, names, values, ids),
        m.AtomicWriteReply: (ids, names, values),
        m.Invalidate: (ids, names),
        m.InvalidateAck: (ids, names),
        m.CentralRead: (ids, names),
        m.CentralWrite: (ids, names, values, ids),
        m.CentralReply: (ids, names, values, stamp, nodes),
        m.BroadcastWrite: (nodes, ids, names, values, stamp),
        lh.MigRead: (ids, names, nodes),
        lh.MigReadReply: (ids, names, values, stamp, nodes, nodes),
        lh.MigOwnRequest: (ids, names, nodes),
        lh.MigGrant: (ids, names, values, stamp, nodes, copysets),
        lh.MigInvalidate: (ids, names),
        lh.MigInvalidateAck: (ids, names),
    }
    return {cls: st.builds(cls, *args) for cls, args in built.items()}


def messages(dimension):
    return st.one_of(*message_strategies(dimension).values())


#: A channel's traffic: messages whose dimension may change from one to
#: the next, each optionally preceded by a loss report (``mark_dirty``).
traffic = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from([1, 3, 3, 3, 4]).flatmap(messages),
    ),
    min_size=1, max_size=12,
)


def test_every_registered_type_is_generated():
    """The strategies above and the codec's table list the same 20 types."""
    from repro.protocols.wire import cost_table

    assert set(message_strategies(2)) == set(cost_table())
    assert len(cost_table()) == 14 + 6


# ----------------------------------------------------------------------
# 1. Round trips and frame size
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(traffic, st.booleans())
def test_frames_round_trip_and_weigh_what_the_model_says(sequence, delta):
    codec = WireCodec(delta=delta)
    for seq, (dirty, message) in enumerate(sequence, start=1):
        if dirty:
            codec.mark_dirty(0, 1)
        frame = codec.encode(0, 1, message)
        data = frame.data
        assert type(data) is bytes and len(data) <= MAX_FRAME
        assert struct.unpack_from(">BBHHIH", data) == (
            WIRE_VERSION, data[1], 0, 1, seq, len(data),
        )
        assert len(data) - frame.byte_size == frame_excess(message)
        full_bytes, full_entries = fast_cost(message)
        assert frame.stamp_entries_full == full_entries
        assert frame.stamp_entries <= full_entries
        assert frame.byte_size <= full_bytes
        if not delta:
            assert (frame.byte_size, frame.stamp_entries) == (
                full_bytes, full_entries,
            )
        decoded = codec.decode(0, 1, data)
        assert decoded == message
        # == cannot tell True from 1 or 1.0; the printed form can.
        assert repr(decoded) == repr(message)


@settings(**COMMON)
@given(st.lists(
    st.tuples(st.sampled_from(["write", "reply", "reply", "other", "dirty"]),
              clocks(4)),
    min_size=1, max_size=16,
))
def test_replies_round_trip_over_their_requests(steps):
    """WRITEs on 0 -> 1 answered out of order on 1 -> 0 between other
    stamps and loss reports: every reply decodes to what was sent.  A
    reply keeps its request's counters where the drawn clock's are
    below 2 and takes the drawn ones elsewhere, so its stamp is near
    the request's as Figure 4's merged ``VT'`` is."""
    codec = WireCodec()
    outstanding = {}
    for step, (action, clock) in enumerate(steps):
        if action == "dirty":
            codec.mark_dirty(1, 0)
            continue
        channel = (1, 0)
        if action == "write":
            outstanding[step] = clock.components
            channel, message = (0, 1), m.WriteRequest(step, "x", None, clock)
        elif action == "reply" and outstanding:
            request_id = list(outstanding)[clock.components[0] % len(outstanding)]
            message = m.WriteReply(request_id, VectorClock(
                old if new < 2 else new
                for old, new in zip(outstanding.pop(request_id), clock.components)
            ))
        else:
            message = m.ReadReply(0, (m.EntryPayload("x", None, clock, 0),))
        assert codec.decode(*channel, codec.encode(*channel, message).data) == message
    assert not any(codec._owed.values()) or outstanding


@settings(**COMMON)
@given(st.integers(min_value=1, max_value=6).flatmap(messages))
def test_measure_fast_cost_and_encoder_agree(message):
    measured = measure_message(message)
    assert fast_cost(message) == (measured.byte_size, measured.stamp_entries)
    frame = WireCodec(delta=False).encode(3, 4, message)
    assert frame.byte_size == measured.byte_size
    assert frame.stamp_entries == frame.stamp_entries_full


def test_stamp_forms_on_one_channel():
    """Every stamp form by hand, byte for byte, on one channel: a delta
    carries each moved component's signed step in the narrowest width
    that holds every step of the stamp."""
    codec = WireCodec()

    def stamp(frame, message, start):
        assert codec.decode(0, 1, frame.data) == message
        return frame.data[start:], frame.stamp_entries

    def send(*components):
        message = m.WriteRequest(1, "x", None, VectorClock(components))
        # header + id + location + None, then the stamp
        return stamp(codec.encode(0, 1, message), message, HEADER_BYTES + 8)

    full = struct.Struct(">H6I")
    assert send(1, 0, 0, 0, 0, 0) == (full.pack(0x8006, 1, 0, 0, 0, 0, 0), 6)
    # sparse, i8: u16 count 1, then (u8 index, i8 step)
    assert send(2, 0, 0, 0, 0, 0) == (bytes.fromhex("0001 00 01"), 1)
    assert send(2, 0, 0, 0, 0, 0) == (b"\x00\x00", 0)  # nothing moved
    # sparse, i16 at step 128; i32 at step 32 768 (bits 12-13: width)
    assert send(2, 128, 0, 0, 0, 0) == (bytes.fromhex("1001 01 0080"), 1)
    assert send(2, 128, 32768, 0, 0, 0) == (
        bytes.fromhex("2001 02 00008000"), 1)
    # dense: 4 of 6 moved, so all six steps, the widest deciding
    assert send(3, 129, 32769, 1, 0, 0) == (
        bytes.fromhex("4006 01 01 01 01 00 00"), 6)
    assert send(4, 130, 32770, 301, 0, 0) == (
        bytes.fromhex("5006 0001 0001 0001 012c 0000 0000"), 6)

    # A negative step: an R_REPLY carrying an entry older than the
    # channel's last stamp.  Its VT' is that entry's stamp: not carried.
    entry = m.EntryPayload("y", None, VectorClock((3, 130, 32770, 301, 0, 0)), 0)
    message = m.ReadReply(2, (entry,))
    # header + id + count; entry: location + None, stamp, writer
    data, entries = stamp(codec.encode(0, 1, message), message, HEADER_BYTES + 6)
    assert data == bytes.fromhex("0001 79 00 0001 00 ff 00000000")
    assert entries == 1

    assert send(5 + 2 ** 31, 130, 32770, 301, 0, 0) == (  # a step >= 2**31
        full.pack(0x8006, 5 + 2 ** 31, 130, 32770, 301, 0, 0), 6)
    assert send(3, 1, 2) == (struct.pack(">H3I", 0x8003, 3, 1, 2), 3)  # n moved
    assert send(3, 1, 3) == (bytes.fromhex("0001 02 01"), 1)
    codec.mark_dirty(0, 1)
    assert send(3, 1, 3) == (struct.pack(">H3I", 0x8003, 3, 1, 3), 3)  # a loss
    # Over 256 entries an index takes two bytes.
    wide = [0] * 300
    assert send(*wide)[1] == 300
    wide[299] = 5
    assert send(*wide) == (bytes.fromhex("0001 012b 05"), 1)
    assert stamp_delta_bytes(300, 1, 1) == 5


def test_a_counter_past_32_bits_is_refused_as_a_delta_too():
    """A step that fits would carry it; the encoder refuses the counter,
    and the channel restarts from a full stamp."""
    codec = WireCodec()
    top = 2 ** 32 - 1
    codec.decode(0, 1, codec.encode(
        0, 1, m.WriteRequest(1, "x", 1, VectorClock((top, 0)))).data)
    with pytest.raises(WireError, match="cannot encode WRITE"):
        codec.encode(0, 1, m.WriteRequest(2, "x", 1, VectorClock((top + 1, 0))))
    frame = codec.encode(0, 1, m.WriteRequest(3, "x", 1, VectorClock((top, 1))))
    assert frame.stamp_entries == 2
    assert codec.decode(0, 1, frame.data).stamp == VectorClock((top, 1))


def test_fields_outside_their_width_are_refused():
    codec = WireCodec()
    clock = VectorClock((1, 0))
    with pytest.raises(WireError, match="cannot encode WRITE"):
        codec.encode(0, 1, m.WriteRequest(2 ** 32, "x", 1, clock))
    with pytest.raises(WireError, match="cannot encode WRITE"):
        codec.encode(0, 1, m.WriteRequest(1, "x", 1, VectorClock((2 ** 32, 0))))
    with pytest.raises(WireError, match="cannot encode WRITE"):
        codec.encode(0, 1, m.WriteRequest(1, "x" * 70_000, 1, clock))
    with pytest.raises(WireError, match="MAX_FRAME"):
        codec.encode(0, 1, m.ReadReply(1, tuple(
            m.EntryPayload("x" * 1000, "v" * 1000, clock, 0) for _ in range(40)
        )))


# ----------------------------------------------------------------------
# 2. Hostile input
# ----------------------------------------------------------------------
def _corpus():
    """One well-formed frame per shape, each after the frames its channel
    decodes first: none for a full-stamp frame, its basis frame for a
    delta (sparse, dense, i16, an R_REPLY with an older entry) and none
    for a W_REPLY over the WRITE its receiver sent."""
    clock = VectorClock((3, 0, 2))
    entry = m.EntryPayload("y", "held", VectorClock((1, 0, 2)), 2)
    samples = [
        m.ReadRequest(1, "x"),
        m.ReadReply(2, (entry, entry)),
        m.WriteRequest(3, "x", 7, clock),
        m.WriteReply(4, clock, False, entry),
        m.AtomicWriteRequest(7, "x", True, 9),
        m.CentralReply(8, "x", "v", clock, -1),
        m.BroadcastWrite(0, 1, "x", 1, clock),
        lh.MigGrant(9, "x", 1, clock, 1, (0, 2)),
        lh.MigInvalidate(10, "x"),
    ]
    corpus = [((), WireCodec().encode(0, 1, sample).data) for sample in samples]
    basis = m.WriteRequest(1, "x", 1, VectorClock((5, 0, 7, 1, 0, 3)))
    for after in (
        m.WriteRequest(2, "x", 1, VectorClock((6, 0, 7, 1, 0, 3))),  # sparse
        m.WriteRequest(2, "x", 1, VectorClock((6, 1, 8, 2, 0, 3))),  # dense
        m.WriteRequest(2, "x", 1, VectorClock((5, 0, 7, 30_001, 0, 3))),  # i16
        m.ReadReply(2, (m.EntryPayload(  # an older entry: step -1
            "x", 0, VectorClock((5, 0, 6, 1, 0, 3)), 0),)),
    ):
        sender = WireCodec()
        corpus.append(((sender.encode(0, 1, basis).data,),
                       sender.encode(0, 1, after).data))
    owner = WireCodec()
    owner.decode(1, 0, owner.encode(1, 0, _ASKED).data)
    reply = owner.encode(0, 1, m.WriteReply(5, VectorClock((2, 4, 1))))
    assert reply.stamp_entries == 1
    corpus.append(((), reply.data))
    return corpus


#: The WRITE every receiver below has sent on 1 -> 0: a W_REPLY in the
#: corpus is a delta over it.
_ASKED = m.WriteRequest(5, "x", 1, VectorClock((0, 4, 1)))


def _receiver(before=()):
    """Node 1's codec after sending ``_ASKED`` and decoding ``before``."""
    codec = WireCodec()
    codec.encode(1, 0, _ASKED)
    for frame in before:
        codec.decode(0, 1, frame)
    return codec


def _decode_fresh(data, before=()):
    """Decode on a channel that has seen only ``before``; only wire errors
    allowed."""
    try:
        return _receiver(before).decode(0, 1, data)
    except WireError:
        return None


def test_every_truncation_is_a_wire_error():
    for before, data in _corpus():
        assert _decode_fresh(data, before) is not None
        for cut in range(len(data)):
            with pytest.raises(WireError):
                _receiver(before).decode(0, 1, data[:cut])
            if cut >= HEADER_BYTES:
                # A truncation whose header length was patched to match
                # gets past the length check and must die in the body.
                patched = data[:10] + struct.pack(">H", cut) + data[12:cut]
                with pytest.raises(WireError):
                    _receiver(before).decode(0, 1, patched)
        with pytest.raises(WireError, match="header says"):
            _receiver(before).decode(0, 1, data + b"\x00")
        padded = data[:10] + struct.pack(">H", len(data) + 1) + data[12:] + b"\x00"
        with pytest.raises(WireError, match="trailing"):
            _receiver(before).decode(0, 1, padded)


def test_random_byte_flips_never_escape_as_other_exceptions():
    rng = random.Random(1991)
    for before, data in _corpus():
        for _ in range(400):
            mutated = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            _decode_fresh(bytes(mutated), before)  # a message or a wire error


def test_foreign_payloads_are_wire_errors():
    well_formed = _corpus()[2][1]
    hostile = [
        b"",
        b"\x00" * HEADER_BYTES,
        pickle.dumps(("hello", 1)),
        pickle.dumps(m.WriteRequest(1, "x", 1, VectorClock((1, 0)))),
        # wrong version, unknown kind, another channel's frame
        bytes([WIRE_VERSION + 1]) + well_formed[1:],
        well_formed[:1] + b"\xee" + well_formed[2:],
        WireCodec().encode(1, 0, m.Invalidate(1, "x")).data,
    ]
    for data in hostile:
        with pytest.raises(WireError):
            WireCodec().decode(0, 1, data)
    # A delta stamp for a channel with no basis is the desync subclass.
    sender = WireCodec()
    sender.encode(0, 1, m.WriteRequest(1, "x", 1, VectorClock((1, 0, 0, 0))))
    delta = sender.encode(0, 1, m.WriteRequest(2, "x", 1, VectorClock((2, 0, 0, 0))))
    with pytest.raises(WireDesyncError):
        WireCodec().decode(0, 1, delta.data)


def test_a_failed_decode_drops_the_basis():
    """After any rejected frame only a full stamp restarts the channel."""
    codec = WireCodec()
    clock = VectorClock((1, 0, 0, 0))
    first = codec.encode(0, 1, m.WriteRequest(1, "x", 1, clock))
    second = codec.encode(0, 1, m.WriteRequest(2, "x", 1, clock.increment(0)))
    codec.decode(0, 1, first.data)
    with pytest.raises(WireError):
        codec.decode(0, 1, second.data[:-1])
    with pytest.raises(WireDesyncError):
        codec.decode(0, 1, second.data)


def _write_frame(seq, stamp):
    """A WRITE frame on 0 -> 1 (request 1, location "x", value None)
    whose stamp is the given bytes, prefix included."""
    body = bytes.fromhex("00000001 0001 78 00") + stamp
    return struct.pack(">BBHHIH", WIRE_VERSION, 3, 0, 1, seq,
                       HEADER_BYTES + len(body)) + body


#: Malformed deltas over the basis (5, 0, 7, 2**32 - 1), each with the
#: words its refusal names.
_MALFORMED_DELTAS = {
    "width code 3": ("3001 00 00000001", "width code 3"),
    "dense count is not the dimension": ("4003 01 01 01", "dense delta of 3"),
    "sparse of no pairs": ("1000", "no pairs"),
    "index past the dimension": ("0001 04 01", "index 4 after -1"),
    "indices out of order": ("0002 02 01 01 01", "index 1 after 2"),
    "an index twice": ("0002 01 01 01 01", "index 1 after 1"),
    "a zero step": ("0001 02 00", "by 0"),
    "sparse below zero": ("0001 01 ff", "to -1"),
    "sparse past 32 bits": ("0001 03 01", "to 4294967296"),
    "dense below zero": ("4004 00 ff 00 00", r"out of \[0, 2\*\*32\)"),
    "dense past 32 bits": ("4004 00 00 00 01", r"out of \[0, 2\*\*32\)"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_DELTAS))
def test_a_malformed_delta_is_refused_and_drops_the_basis(name):
    """Every delta the decoder refuses: a WireError, never another
    exception, and only a full stamp restarts the channel after it."""
    stamp, refusal = _MALFORMED_DELTAS[name]
    codec = WireCodec()
    basis = struct.pack(">H4I", 0x8004, 5, 0, 7, 2 ** 32 - 1)
    codec.decode(0, 1, _write_frame(1, basis))
    good = _write_frame(3, bytes.fromhex("0001 00 01"))
    with pytest.raises(WireError, match=refusal) as refused:
        codec.decode(0, 1, _write_frame(2, bytes.fromhex(stamp)))
    assert type(refused.value) is WireError
    with pytest.raises(WireDesyncError):
        codec.decode(0, 1, good)
    assert codec.decode(0, 1, _write_frame(4, basis)).stamp == VectorClock(
        (5, 0, 7, 2 ** 32 - 1))


def test_a_well_formed_hand_made_delta_decodes():
    """The frames above are refused for their stamps alone."""
    codec = WireCodec()
    codec.decode(0, 1, _write_frame(1, struct.pack(">H4I", 0x8004, 5, 0, 7, 9)))
    for seq, stamp, after in (
        (2, "0002 01 01 03 ff", (5, 1, 7, 8)),
        (3, "4004 ff 00 01 01", (4, 1, 8, 9)),
        (4, "1001 02 7fff", (4, 1, 8 + 2 ** 15 - 1, 9)),
    ):
        decoded = codec.decode(0, 1, _write_frame(seq, bytes.fromhex(stamp)))
        assert decoded.stamp == VectorClock(after)


@pytest.mark.parametrize(
    "cls", sorted(message_strategies(3), key=lambda cls: cls.__name__))
@settings(**{**COMMON, "max_examples": 10})
@given(data=st.data())
def test_a_decoded_message_is_its_type_and_frozen(cls, data):
    """Decoding builds a slotted message without its ``__init__``: it is
    still equal to what was sent, of the same type, and frozen."""
    message = data.draw(message_strategies(3)[cls])
    codec = WireCodec()
    decoded = codec.decode(0, 1, codec.encode(0, 1, message).data)
    assert type(decoded) is cls and decoded == message
    first = dataclass_fields(cls)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(decoded, first, getattr(message, first))


# -- the live runtime's reader, fed from memory (no sockets, no loop) ----
class _FakeTransport:
    """What ``_Conn`` needs of a transport: somewhere to be closed."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True

    abort = close


_HELLO = struct.pack(">4sBH", b"cDSM", WIRE_VERSION, 0)


def _received(conn, chunk: bytes) -> None:
    """Hand ``chunk`` to ``conn`` as its transport does: ``recv_into``
    the buffer ``get_buffer`` lends, then ``buffer_updated``."""
    while chunk:
        buffer = conn.get_buffer(-1)
        size = min(len(buffer), len(chunk))
        buffer[:size] = chunk[:size]
        chunk = chunk[size:]
        conn.buffer_updated(size)


def _read(stream: bytes, chunks=None, handler=None):
    """Feed ``stream`` (node 0's bytes after its hello) to node 1's
    accepted endpoint as its transport would, cut at the offsets in
    ``chunks``; returns the runtime, what its handler received, and how
    many bytes had been fed when the endpoint closed (None: still open).
    """
    from repro.runtime.live import AsyncioRuntime, _Conn

    runtime = AsyncioRuntime(2, codec=WireCodec())
    received = []
    runtime.register(0, lambda src, message: None)
    runtime.register(
        1, handler or (lambda src, message: received.append((src, message)))
    )
    conn = _Conn(runtime, 1)
    transport = _FakeTransport()
    conn.connection_made(transport)
    data = _HELLO + stream
    cuts = sorted({0, len(data), *(chunks or ())})
    closed_at = None
    for lo, hi in zip(cuts, cuts[1:]):
        _received(conn, data[lo:hi])
        if transport.closed:
            closed_at = hi
            break
    return runtime, received, closed_at


def _good_frames(count=3):
    sender = WireCodec()
    return [
        sender.encode(0, 1, m.WriteRequest(i, "x", i, VectorClock((i, 0))))
        for i in range(1, count + 1)
    ]


def test_reader_delivers_good_frames_and_stops_at_the_first_bad_one():
    good = _good_frames()
    runtime, received, closed_at = _read(b"".join(f.data for f in good))
    assert [(src, msg.request_id) for src, msg in received] == [
        (0, 1), (0, 2), (0, 3)
    ]
    assert runtime.frames_rejected == 0 and runtime.frames_delivered == 3
    assert closed_at is None and runtime._error is None

    corrupt = bytearray(good[1].data)
    corrupt[1] = 0xEE
    runtime, received, closed_at = _read(
        good[0].data + bytes(corrupt) + good[2].data
    )
    assert [msg.request_id for _, msg in received] == [1]
    assert runtime.frames_rejected == 1
    assert "unknown frame kind" in runtime.last_rejection
    # Closed, and both directions will restart from full stamps.
    assert closed_at is not None and runtime.resyncs == 1


#: Frames of the three retired kinds (write-behind batching: codes 5, 6
#: and 17), as the last commit that had them encoded them on channel
#: 0->1 right after one good frame — what an old peer would still send.
_RETIRED = {
    5: "01050000000100000002002c00000005000100030016000178030000000000"
       "00000780020000000300000000",
    6: "0106000000010000000200260000000500010000000e000178800200000003"
       "00000000010000",
    17: "0111000000010000000200300000000000010010001a00000001000178030"
        "00000000000000780020000000300000000",
}


@pytest.mark.parametrize("code", sorted(_RETIRED))
def test_a_retired_kind_is_an_unknown_kind(code):
    """Refused, counted, and fatal to its own connection only.  The
    frames are re-stamped with today's version, so the kind is what the
    decoder refuses (a version-1 peer is refused for its version)."""
    retired = bytes([WIRE_VERSION]) + bytes.fromhex(_RETIRED[code])[1:]
    sender = WireCodec()
    first = sender.encode(0, 1, m.Invalidate(1, "x")).data
    receiver = WireCodec()
    receiver.decode(0, 1, first)
    with pytest.raises(WireError, match=f"unknown frame kind {code}"):
        receiver.decode(0, 1, retired)

    after = _good_frames(1)[0].data
    runtime, received, closed_at = _read(
        first + retired + after
    )
    assert [type(msg) for _, msg in received] == [m.Invalidate]
    assert runtime.frames_rejected == 1 and runtime.frames_delivered == 1
    assert f"unknown frame kind {code}" in runtime.last_rejection
    assert closed_at is not None and runtime._error is None


def test_a_reply_to_no_request_is_refused():
    """A delta W_REPLY on 0 -> 1 naming a request node 1 never sent:
    nothing to decode it over, so it is refused like a delta without a
    basis, counted, and fatal to its connection."""
    forger = WireCodec()
    first = forger.encode(0, 1, m.Invalidate(1, "x")).data
    forger.decode(1, 0, forger.encode(
        1, 0, m.WriteRequest(9, "x", 1, VectorClock((0, 1)))).data)
    forged = forger.encode(0, 1, m.WriteReply(9, VectorClock((2, 1))))
    assert forged.stamp_entries == 1
    after = _good_frames(1)[0].data
    runtime, received, closed_at = _read(
        first + forged.data + after
    )
    assert [type(msg) for _, msg in received] == [m.Invalidate]
    assert runtime.frames_rejected == 1 and runtime.frames_delivered == 1
    assert "delta stamp without a basis" in runtime.last_rejection
    assert closed_at is not None and runtime._error is None


def _refuted(frame: bytes):
    """``frame`` spoilt in each way the reader refutes from the header
    alone: ``(spoilt frame, the byte that refutes it, the refusal)``."""
    def length(n):
        return frame[:10] + struct.pack(">H", n) + frame[12:]

    return {
        "version": (bytes([WIRE_VERSION + 1]) + frame[1:], 1, "wire version"),
        0: (length(0), HEADER_BYTES, "frame length 0"),
        HEADER_BYTES - 1: (length(HEADER_BYTES - 1), HEADER_BYTES,
                           f"frame length {HEADER_BYTES - 1}"),
        "channel": (frame[:4] + struct.pack(">H", 2) + frame[6:], HEADER_BYTES,
                    "frame for channel 0->2"),
    }


def _assert_refused_before_the_body(spoilt):
    """Fed whole or a byte at a time, ``spoilt`` (and 64 bytes after
    it) is refused, and with 1-byte chunks at its refuting byte."""
    frame, at, refusal = _refuted(_good_frames(1)[0].data)[spoilt]
    stream = frame + b"\x00" * 64
    for chunks in (None, range(len(_HELLO) + len(stream))):
        runtime, received, closed_at = _read(stream, chunks)
        assert received == []
        assert runtime.frames_rejected == 1
        assert refusal in runtime.last_rejection
        assert closed_at == len(_HELLO) + (at if chunks else len(stream))


@pytest.mark.parametrize("length", [0, HEADER_BYTES - 1])
def test_reader_checks_the_length_before_reading_that_much(length):
    """A record is one frame, as long as its header says: a length
    below the header's own is refused once the header is complete, never
    waited for.  (No length can exceed ``MAX_FRAME``: the field is u16.)"""
    _assert_refused_before_the_body(length)


def test_reader_refuses_a_wrong_version_at_the_first_byte():
    _assert_refused_before_the_body("version")


def test_reader_refuses_another_channels_frame_on_its_header():
    """Endpoints are checked once the header is complete, before the
    body is waited for; the codec would refuse the whole frame too."""
    _assert_refused_before_the_body("channel")


def test_reader_survives_random_streams():
    rng = random.Random(2024)
    for _ in range(200):
        stream = rng.randbytes(rng.randrange(0, 200))
        chunks = rng.sample(range(len(stream) + 7), rng.randrange(0, 5))
        runtime, _, _ = _read(stream, chunks)
        assert runtime.frames_rejected <= 1  # it stops at the first one
        assert runtime._error is None


def test_handler_failures_still_fail_the_run():
    """Rejecting hostile input must not soften engine errors."""
    def broken(src, message):
        raise RuntimeError("engine bug")

    frame = WireCodec().encode(0, 1, m.Invalidate(1, "x"))
    runtime, _, closed_at = _read(frame.data, handler=broken)
    assert isinstance(runtime._error, RuntimeError)
    assert runtime.frames_rejected == 0 and closed_at is None


def _outcome(stream, chunks):
    runtime, received, closed_at = _read(stream, chunks)
    return (
        [(src, repr(msg)) for src, msg in received],
        runtime.frames_rejected, runtime.last_rejection, closed_at is None,
    )


@settings(**COMMON)
@given(data=st.data())
def test_any_chunking_of_a_stream_reads_the_same(data):
    """The bytes decide what is delivered and where the stream is
    refused, never how ``recv`` happened to cut them: 1-byte chunks,
    cuts inside the hello, a header or a body, and several frames in
    one chunk all match the stream fed whole."""
    good = [f.data for f in _good_frames(4)]
    spoilt = [bad for bad, _, _ in _refuted(good[0]).values()]
    bad = data.draw(st.sampled_from([
        b"",                                      # a clean stream
        *spoilt,                                  # refused on the header
        good[0][:1] + b"\xee" + good[0][2:],      # refused by decode
    ]))
    at = data.draw(st.integers(0, len(good)))
    stream = b"".join(good[:at]) + bad + b"".join(good[at:])
    size = len(_HELLO) + len(stream)
    whole = _outcome(stream, None)
    assert len(whole[0]) == (at if bad else len(good))
    assert whole[1] == (1 if bad else 0)
    assert _outcome(stream, range(size)) == whole
    cuts = data.draw(st.lists(st.integers(0, size), max_size=8))
    assert _outcome(stream, cuts) == whole
    # Rejection happens at the same byte: with 1-byte chunks the
    # endpoint closes exactly where the refusal became decidable (a bad
    # version byte, the end of a bad header, the end of a frame decode
    # refuses).
    if bad:
        at_byte = {frame: byte for frame, byte, _ in _refuted(good[0]).values()}
        refused_at = (len(_HELLO) + len(b"".join(good[:at]))
                      + at_byte.get(bad, len(bad)))
        assert _read(stream, range(size))[2] == refused_at


def test_a_hello_cut_anywhere_is_still_one_hello():
    """Splits inside the 7-byte hello neither reject nor lose a frame;
    a wrong hello is refused once all 7 bytes are there, however cut."""
    frame = _good_frames(1)[0].data
    for cut in range(1, len(_HELLO)):
        runtime, received, closed_at = _read(frame, [cut])
        assert len(received) == 1 and runtime.frames_rejected == 0
        assert closed_at is None
    from repro.runtime.live import AsyncioRuntime, _Conn

    for hello in (
        b"cDSX" + _HELLO[4:],
        _HELLO[:4] + bytes([WIRE_VERSION + 1]) + _HELLO[5:],
        struct.pack(">4sBH", b"cDSM", WIRE_VERSION, 1),  # node 1 dialling itself
    ):
        runtime = AsyncioRuntime(2)
        runtime.register(0, lambda src, message: None)
        runtime.register(1, lambda src, message: pytest.fail("delivered"))
        conn, transport = _Conn(runtime, 1), _FakeTransport()
        conn.connection_made(transport)
        for byte in hello[:-1]:
            _received(conn, bytes([byte]))
            assert not transport.closed and runtime.frames_rejected == 0
        _received(conn, hello[-1:] + frame)
        assert transport.closed and runtime.frames_rejected == 1
        assert "hello" in runtime.last_rejection and runtime.resyncs == 0
