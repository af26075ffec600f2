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
        m.ReadRequest: (ids, names, names),
        m.ReadReply: (ids, names, entries, stamp),
        m.WriteRequest: (ids, names, values, stamp),
        m.WriteReply: (ids, names, values, stamp, st.booleans(), current),
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
            message = m.WriteReply(request_id, "x", None, VectorClock(
                old if new < 2 else new
                for old, new in zip(outstanding.pop(request_id), clock.components)
            ))
        else:
            message = m.ReadReply(0, "x", (), clock)
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
    """Full, delta, empty delta, dimension change, post-dirty: by hand."""
    codec = WireCodec()

    def send(*components):
        msg = m.WriteRequest(1, "x", None, VectorClock(components))
        frame = codec.encode(0, 1, msg)
        assert codec.decode(0, 1, frame.data) == msg
        # header + id + location + None + stamp
        return len(frame.data) - (HEADER_BYTES + 4 + 3 + 1), frame.stamp_entries

    assert send(1, 0, 0, 0, 0, 0) == (2 + 4 * 6, 6)   # first: full
    assert send(2, 0, 0, 0, 0, 0) == (2 + 6 * 1, 1)   # one entry moved
    assert send(2, 0, 0, 0, 0, 0) == (2, 0)           # nothing moved
    assert send(3, 1, 1, 1, 0, 0) == (2 + 4 * 6, 6)   # 4 of 6: full is shorter
    assert send(3, 1, 1) == (2 + 4 * 3, 3)            # dimension changed
    assert send(3, 1, 2) == (2 + 6, 1)
    codec.mark_dirty(0, 1)
    assert send(3, 1, 2) == (2 + 4 * 3, 3)            # after a loss: full


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
        codec.encode(0, 1, m.ReadReply(1, "x", tuple(
            m.EntryPayload("x" * 1000, "v" * 1000, clock, 0) for _ in range(40)
        ), clock))


# ----------------------------------------------------------------------
# 2. Hostile input
# ----------------------------------------------------------------------
def _corpus():
    """One well-formed, self-contained (full-stamp) frame per shape."""
    clock = VectorClock((3, 0, 2))
    entry = m.EntryPayload("y", "held", VectorClock((1, 0, 2)), 2)
    samples = [
        m.ReadRequest(1, "x", "x"),
        m.ReadReply(2, "x", (entry, entry), clock),
        m.WriteRequest(3, "x", 7, clock),
        m.WriteReply(4, "x", 2.5, clock, False, entry),
        m.AtomicWriteRequest(7, "x", True, 9),
        m.CentralReply(8, "x", "v", clock, -1),
        m.BroadcastWrite(0, 1, "x", 1, clock),
        lh.MigGrant(9, "x", 1, clock, 1, (0, 2)),
        lh.MigInvalidate(10, "x"),
    ]
    return [WireCodec().encode(0, 1, sample).data for sample in samples]


def _decode_fresh(data):
    """Decode on a channel that has seen nothing; only wire errors allowed."""
    try:
        return WireCodec().decode(0, 1, data)
    except (WireError, WireDesyncError):
        return None


def test_every_truncation_is_a_wire_error():
    for data in _corpus():
        assert _decode_fresh(data) is not None
        for cut in range(len(data)):
            with pytest.raises(WireError):
                WireCodec().decode(0, 1, data[:cut])
            if cut >= HEADER_BYTES:
                # A truncation whose header length was patched to match
                # gets past the length check and must die in the body.
                patched = data[:10] + struct.pack(">H", cut) + data[12:cut]
                with pytest.raises(WireError):
                    WireCodec().decode(0, 1, patched)
        with pytest.raises(WireError, match="header says"):
            WireCodec().decode(0, 1, data + b"\x00")
        padded = data[:10] + struct.pack(">H", len(data) + 1) + data[12:] + b"\x00"
        with pytest.raises(WireError, match="trailing"):
            WireCodec().decode(0, 1, padded)


def test_random_byte_flips_never_escape_as_other_exceptions():
    rng = random.Random(1991)
    for data in _corpus():
        for _ in range(400):
            mutated = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            _decode_fresh(bytes(mutated))  # a message or a wire error


def test_foreign_payloads_are_wire_errors():
    well_formed = _corpus()[2]
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


# -- the live runtime's reader, fed from memory (no sockets, no loop) ----
class _FakeTransport:
    """What ``_Conn`` needs of a transport: somewhere to be closed."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True

    abort = close


_HELLO = struct.pack(">4sBH", b"cDSM", WIRE_VERSION, 0)


def _read(stream: bytes, chunks=None, handler=None):
    """Feed ``stream`` (node 0's bytes after its hello) to node 1's
    accepted endpoint through ``data_received``, cut at the offsets in
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
        conn.data_received(data[lo:hi])
        if transport.closed:
            closed_at = hi
            break
    return runtime, received, closed_at


def _framed(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _good_frames(count=3):
    sender = WireCodec()
    return [
        sender.encode(0, 1, m.WriteRequest(i, "x", i, VectorClock((i, 0))))
        for i in range(1, count + 1)
    ]


def test_reader_delivers_good_frames_and_stops_at_the_first_bad_one():
    good = _good_frames()
    runtime, received, closed_at = _read(b"".join(_framed(f.data) for f in good))
    assert [(src, msg.request_id) for src, msg in received] == [
        (0, 1), (0, 2), (0, 3)
    ]
    assert runtime.frames_rejected == 0 and runtime.frames_delivered == 3
    assert closed_at is None and runtime._error is None

    corrupt = bytearray(good[1].data)
    corrupt[1] = 0xEE
    runtime, received, closed_at = _read(
        _framed(good[0].data) + _framed(bytes(corrupt)) + _framed(good[2].data)
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
        _framed(first) + _framed(retired) + _framed(after)
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
    forged = forger.encode(0, 1, m.WriteReply(9, "x", 1, VectorClock((2, 1))))
    assert forged.stamp_entries == 1
    after = _good_frames(1)[0].data
    runtime, received, closed_at = _read(
        _framed(first) + _framed(forged.data) + _framed(after)
    )
    assert [type(msg) for _, msg in received] == [m.Invalidate]
    assert runtime.frames_rejected == 1 and runtime.frames_delivered == 1
    assert "delta stamp without a basis" in runtime.last_rejection
    assert closed_at is not None and runtime._error is None


@pytest.mark.parametrize("length", [0, HEADER_BYTES - 1, MAX_FRAME + 1, 2 ** 32 - 1])
def test_reader_checks_the_length_before_reading_that_much(length):
    """A 4 GiB length header is refused on sight, not waited for."""
    stream = struct.pack(">I", length) + b"\x00" * 64
    # Refused the moment the prefix is complete: byte 7 + 4, not later.
    prefix_end = len(_HELLO) + 4
    for chunks in (None, range(len(_HELLO) + len(stream))):
        runtime, received, closed_at = _read(stream, chunks)
        assert received == []
        assert runtime.frames_rejected == 1
        assert f"frame length {length}" in runtime.last_rejection
        assert closed_at == (prefix_end if chunks else len(_HELLO) + len(stream))


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
    runtime, _, closed_at = _read(_framed(frame.data), handler=broken)
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
    cuts inside the hello, the length prefix or a frame, and several
    frames in one chunk all match the stream fed whole."""
    good = [_framed(f.data) for f in _good_frames(4)]
    bad = data.draw(st.sampled_from([
        b"",                                      # a clean stream
        struct.pack(">I", MAX_FRAME + 1),         # refused at its prefix
        _framed(b"\xee" * HEADER_BYTES),          # refused by decode
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
    # endpoint closes exactly where the refused record became readable
    # (the end of a bad prefix, the end of a frame decode refuses).
    if bad:
        refused_at = len(_HELLO) + len(b"".join(good[:at])) + len(bad)
        assert _read(stream, range(size))[2] == refused_at


def test_a_hello_cut_anywhere_is_still_one_hello():
    """Splits inside the 7-byte hello neither reject nor lose a frame;
    a wrong hello is refused once all 7 bytes are there, however cut."""
    frame = _framed(_good_frames(1)[0].data)
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
            conn.data_received(bytes([byte]))
            assert not transport.closed and runtime.frames_rejected == 0
        conn.data_received(hello[-1:] + frame)
        assert transport.closed and runtime.frames_rejected == 1
        assert "hello" in runtime.last_rejection and runtime.resyncs == 0
