"""Unit tests for the wire model: byte costs and the delta-stamp codec.

Frame-level properties (round trips of every type, the frame-length
formula, hostile input) live in ``test_wire_frames.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks import VectorClock
from repro.protocols.messages import (
    BroadcastWrite,
    EntryPayload,
    ReadReply,
    ReadRequest,
    WriteReply,
    WriteRequest,
)
from repro.protocols.wire import (
    HEADER_BYTES,
    ID_BYTES,
    WireCodec,
    WireDesyncError,
    WireError,
    location_bytes,
    measure_message,
    stamp_delta_bytes,
    stamp_full_bytes,
    value_bytes,
)


def vc(*components):
    return VectorClock(components)


#: One component of a (basis, stamp) pair: equal, a small move either
#: way, or anywhere in the counter's 32 bits.
_counter = st.integers(min_value=0, max_value=2 ** 32 - 1)
_basis_and_stamp_component = st.one_of(
    _counter.map(lambda c: (c, c)),
    st.tuples(st.integers(min_value=200, max_value=2 ** 20),
              st.integers(min_value=-200, max_value=200)).map(
        lambda pair: (pair[0], pair[0] + pair[1])),
    st.tuples(_counter, _counter),
)


class TestCostModel:
    def test_write_request_cost_is_exact(self):
        msg = WriteRequest(request_id=1, location="x", value=7, stamp=vc(1, 0, 0))
        cost = measure_message(msg)
        expected = (
            HEADER_BYTES + ID_BYTES + location_bytes("x") + value_bytes(7)
            + stamp_full_bytes(3)
        )
        assert cost.byte_size == expected
        assert cost.stamp_entries == 3
        assert cost.stamp_count == 1

    def test_value_bytes_by_type(self):
        assert value_bytes(None) == 1
        assert value_bytes(True) == 1
        assert value_bytes("abcd") == 6
        assert value_bytes(3.25) == 8
        assert value_bytes(10**9) == 8

    def test_read_reply_counts_every_entry_stamp(self):
        entries = tuple(
            EntryPayload(location=f"l{i}", value=i, stamp=vc(i, 0), writer=0)
            for i in range(3)
        )
        msg = ReadReply(request_id=2, entries=entries)
        cost = measure_message(msg)
        assert cost.stamp_count == 3  # the entry stamps; VT' is their join
        assert cost.stamp_entries == 6
        assert msg.stamp == vc(2, 0) and msg.location == "l0"

    def test_stampless_message_has_no_entries(self):
        cost = measure_message(ReadRequest(request_id=1, location="x"))
        assert cost.stamp_entries == 0
        assert cost.byte_size > HEADER_BYTES

    def test_unknown_message_gets_generic_cost(self):
        class Strange:
            kind = "STRANGE"

            def __init__(self):
                self.field = 42

        cost = measure_message(Strange())
        assert cost.byte_size >= HEADER_BYTES

    def test_unknown_message_cannot_be_encoded(self):
        """Sizing a test double is accounting; putting one on the wire
        would need a layout nobody registered."""
        class Strange:
            kind = "STRANGE"

        with pytest.raises(WireError, match="no registered wire layout"):
            WireCodec().encode(0, 1, Strange())

    def test_unencodable_value_names_kind_and_field(self):
        """The model charges 8 bytes for any non-str object; the encoder
        refuses what it cannot write, at the sender, by name."""
        codec = WireCodec()
        for bad in ((1, 2), [1], {"a": 1}, 2 ** 63, object()):
            msg = WriteRequest(request_id=1, location="x", value=bad,
                               stamp=vc(1, 0))
            with pytest.raises(WireError, match=r"WRITE: field 'value'"):
                codec.encode(0, 1, msg)
        nested = ReadReply(
            request_id=1, entries=(EntryPayload("x", (1, 2), vc(1, 0), 0),),
        )
        with pytest.raises(WireError, match=r"R_REPLY: field 'value' holds \(1, 2\)"):
            codec.encode(0, 1, nested)
        # The failed encodes consumed no sequence number: the channel
        # still works, restarting from a full stamp.
        ok = WriteRequest(request_id=2, location="x", value=2 ** 63 - 1,
                          stamp=vc(1, 0))
        frame = codec.encode(0, 1, ok)
        assert frame.stamp_entries == 2
        assert codec.decode(0, 1, frame.data) == ok

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(min_value=1, max_value=24),
                     st.integers(min_value=250, max_value=300)).flatmap(
        lambda n: st.tuples(*[_basis_and_stamp_component] * n)))
    def test_a_delta_never_outweighs_the_full_stamp(self, pairs):
        """Over random (basis, stamp) pairs: the chosen form is never
        larger than the full one, carries the entries the pre-step rule
        carried (k pairs while 6k < 4n, else n), and weighs what
        :func:`stamp_delta_bytes` says for its narrowest step width."""
        basis, stamp = (tuple(side) for side in zip(*pairs))
        n = len(basis)
        codec = WireCodec()
        first = codec.encode(0, 1, read_reply(*basis))
        frame = codec.encode(0, 1, read_reply(*stamp))
        codec.decode(0, 1, first.data)
        assert codec.decode(0, 1, frame.data) == read_reply(*stamp)
        steps = [new - old for old, new in zip(basis, stamp) if new != old]
        k = len(steps)
        size = frame.byte_size - (HEADER_BYTES + ID_BYTES + 2 + location_bytes("y")
                                  + value_bytes(None) + ID_BYTES)
        assert size <= stamp_full_bytes(n)
        if not k:
            assert (size, frame.stamp_entries) == (2, 0)
        elif not all(-(2 ** 31) <= d < 2 ** 31 for d in steps):
            assert (size, frame.stamp_entries) == (stamp_full_bytes(n), n)
        else:
            width = next(w for w in (1, 2, 4)
                         if all(-(2 ** (8 * w - 1)) <= d < 2 ** (8 * w - 1)
                                for d in steps))
            assert size == stamp_delta_bytes(n, k, width)
            assert frame.stamp_entries == (k if 6 * k < 4 * n else n)

    def test_fast_cost_agrees_with_measure_for_every_type(self):
        """The network's allocation-free fast path must match the
        encoder's own accounting on every registered message type
        (including the optional-field variants and a generic double)."""
        from repro.protocols import li_hudak as lh
        from repro.protocols import messages as m
        from repro.protocols.wire import fast_cost

        entry = EntryPayload(location="ent", value="sv", stamp=vc(1, 2), writer=1)

        class Strange:
            kind = "STRANGE"

            def __init__(self):
                self.field = 42

        samples = [
            m.ReadRequest(request_id=1, location="loc"),
            m.ReadReply(request_id=2, entries=(entry, entry)),
            m.ReadReply(request_id=2, entries=()),
            m.WriteRequest(request_id=3, location="loc", value=None, stamp=vc(0, 1)),
            m.WriteReply(request_id=4, stamp=vc(1, 1), applied=True, current=None),
            m.WriteReply(request_id=4, stamp=vc(1, 1), applied=False, current=entry),
            m.AtomicReadRequest(request_id=7, location="loc"),
            m.AtomicReadReply(
                request_id=8, location="loc", value=9, stamp=vc(1, 0), writer=0,
            ),
            m.AtomicWriteRequest(request_id=9, location="loc", value=True, seq=1),
            m.AtomicWriteReply(request_id=10, location="loc", value=9),
            m.Invalidate(request_id=11, location="loc"),
            m.InvalidateAck(request_id=12, location="loc"),
            m.CentralRead(request_id=13, location="loc"),
            m.CentralWrite(request_id=14, location="loc", value=9, seq=2),
            m.CentralReply(
                request_id=15, location="loc", value=9, stamp=vc(0, 3), writer=1,
            ),
            BroadcastWrite(sender=0, seq=1, location="loc", value=9, stamp=vc(1, 0)),
            lh.MigRead(request_id=16, location="loc", requester=2),
            lh.MigReadReply(
                request_id=17, location="loc", value="v", stamp=vc(0, 4),
                writer=-1, owner=1,
            ),
            lh.MigOwnRequest(request_id=18, location="loc", requester=0),
            lh.MigGrant(
                request_id=19, location="loc", value=2.5, stamp=vc(2, 4),
                writer=1, copyset=(0, 1),
            ),
            lh.MigGrant(
                request_id=19, location="loc", value=None, stamp=vc(2, 4),
                writer=1, copyset=(),
            ),
            lh.MigInvalidate(request_id=20, location="loc"),
            lh.MigInvalidateAck(request_id=21, location="loc"),
            Strange(),
        ]
        for msg in samples:
            measured = measure_message(msg)
            assert fast_cost(msg) == (
                measured.byte_size, measured.stamp_entries,
            ), type(msg).__name__


class TestCodecRoundTrip:
    def roundtrip(self, codec, src, dst, msg):
        frame = codec.encode(src, dst, msg)
        return frame, codec.decode(src, dst, frame.data)

    def test_first_message_full_then_delta(self):
        codec = WireCodec()
        m1 = WriteRequest(request_id=1, location="x", value=1,
                          stamp=vc(1, 0, 0, 0, 0, 0, 0, 0))
        m2 = WriteRequest(request_id=2, location="x", value=2,
                          stamp=vc(2, 0, 0, 0, 0, 0, 0, 0))
        f1, d1 = self.roundtrip(codec, 0, 1, m1)
        f2, d2 = self.roundtrip(codec, 0, 1, m2)
        assert d1 == m1 and d2 == m2
        assert f1.stamp_entries == 8      # first message: full stamp
        assert f2.stamp_entries == 1      # one changed component
        assert f2.byte_size < f1.byte_size
        assert codec.entries_saved == 7

    def test_unchanged_stamp_costs_zero_entries(self):
        codec = WireCodec()
        stamp = vc(3, 1, 4, 1)
        m = WriteRequest(request_id=1, location="x", value=0, stamp=stamp)
        self.roundtrip(codec, 0, 1, m)
        frame, decoded = self.roundtrip(
            codec, 0, 1, WriteRequest(request_id=2, location="x", value=1,
                                      stamp=stamp)
        )
        assert frame.stamp_entries == 0
        assert decoded.stamp == stamp

    def test_multi_stamp_message_uses_running_basis(self):
        codec = WireCodec()
        entries = (
            EntryPayload(location="a", value=1, stamp=vc(1, 0, 0, 0), writer=0),
            EntryPayload(location="b", value=2, stamp=vc(1, 2, 0, 0), writer=1),
        )
        msg = ReadReply(request_id=1, entries=entries)
        frame, decoded = self.roundtrip(codec, 2, 3, msg)
        assert decoded == msg and decoded.stamp == vc(1, 2, 0, 0)
        # First stamp full (4 entries); second differs from the first in
        # one component; VT', their join, does not travel.
        assert frame.stamp_entries == 5

    def test_channels_are_independent(self):
        codec = WireCodec()
        m = WriteRequest(request_id=1, location="x", value=1, stamp=vc(1, 0))
        f01, _ = self.roundtrip(codec, 0, 1, m)
        f02, _ = self.roundtrip(codec, 0, 2, m)
        assert f01.stamp_entries == 2
        assert f02.stamp_entries == 2  # fresh channel: full again

    def test_dirty_channel_falls_back_to_full(self):
        codec = WireCodec()
        m1 = WriteRequest(request_id=1, location="x", value=1, stamp=vc(1, 0, 0))
        m2 = WriteRequest(request_id=2, location="x", value=2, stamp=vc(2, 0, 0))
        self.roundtrip(codec, 0, 1, m1)
        codec.mark_dirty(0, 1)
        frame, decoded = self.roundtrip(codec, 0, 1, m2)
        assert frame.stamp_entries == 3  # full fallback
        assert decoded == m2

    def test_mark_node_dirty_touches_all_channels(self):
        codec = WireCodec()
        m = WriteRequest(request_id=1, location="x", value=1, stamp=vc(1, 0))
        self.roundtrip(codec, 0, 1, m)
        self.roundtrip(codec, 2, 1, m)
        codec.mark_node_dirty(1)
        f1, _ = self.roundtrip(
            codec, 0, 1, WriteRequest(request_id=2, location="x", value=2,
                                      stamp=vc(2, 0)))
        f2, _ = self.roundtrip(
            codec, 2, 1, WriteRequest(request_id=2, location="x", value=2,
                                      stamp=vc(2, 0)))
        assert f1.stamp_entries == 2 and f2.stamp_entries == 2

    def test_lost_frame_with_delta_raises_desync(self):
        codec = WireCodec()
        msgs = [
            WriteRequest(request_id=i, location="x", value=i,
                         stamp=vc(i, 0, 0))
            for i in range(1, 4)
        ]
        f1 = codec.encode(0, 1, msgs[0])
        f2 = codec.encode(0, 1, msgs[1])  # delta over f1's basis
        codec.decode(0, 1, f1.data)
        # f2 never delivered (delivery-time loss); f3 is a delta too.
        f3 = codec.encode(0, 1, msgs[2])
        assert f2.stamp_entries == f3.stamp_entries == 1
        with pytest.raises(WireDesyncError):
            codec.decode(0, 1, f3.data)

    def test_full_stamp_resyncs_after_gap(self):
        codec = WireCodec()
        m1 = WriteRequest(request_id=1, location="x", value=1, stamp=vc(1, 0))
        m2 = WriteRequest(request_id=2, location="x", value=2, stamp=vc(2, 0))
        codec.encode(0, 1, m1)
        # That frame is lost at delivery time; the network tells the codec.
        codec.mark_dirty(0, 1)
        f2 = codec.encode(0, 1, m2)   # full again
        decoded = codec.decode(0, 1, f2.data)  # seq gap; full stamp resyncs
        assert decoded == m2

    def test_decoding_a_raw_template_is_an_error(self):
        codec = WireCodec()
        m = WriteRequest(request_id=1, location="x", value=1, stamp=vc(1, 0))
        frame = codec.encode(0, 1, m)
        # Handing decode a message object, or the whole Frame record
        # rather than its bytes, means someone is decoding decoded
        # output; the codec must refuse with its own error type.
        for bogus in (m, frame, bytearray(frame.data)):
            with pytest.raises(WireError):
                codec.decode(0, 1, bogus)

    def test_gap_drops_the_basis_until_a_full_stamp(self):
        """A lost frame poisons every later delta, not just the next
        frame: a stampless frame in between must not hide the gap."""
        codec = WireCodec()
        stamped = [
            WriteRequest(request_id=i, location="x", value=i,
                         stamp=vc(i, 0, 0))
            for i in range(1, 4)
        ]
        codec.decode(0, 1, codec.encode(0, 1, stamped[0]).data)
        codec.encode(0, 1, stamped[1])  # lost in flight
        plain = ReadRequest(request_id=9, location="x")
        assert codec.decode(0, 1, codec.encode(0, 1, plain).data) == plain
        with pytest.raises(WireDesyncError):
            codec.decode(0, 1, codec.encode(0, 1, stamped[2]).data)

    def test_forced_full_codec_keeps_no_basis(self):
        """delta=False (a live run without delta_stamps): every stamp
        full, byte-for-byte the stateless measure_message cost, and no
        WRITE stamp kept for its reply."""
        codec = WireCodec(delta=False)
        stamp = vc(3, 1, 4, 1)
        for i in range(3):
            msg = WriteRequest(request_id=i, location="x", value=i, stamp=stamp)
            frame, decoded = self.roundtrip(codec, 0, 1, msg)
            assert decoded == msg
            assert frame.stamp_entries == frame.stamp_entries_full == 4
            assert frame.byte_size == measure_message(msg).byte_size
        assert codec.entries_saved == 0 and codec.stamps_full == 3
        answer = WriteReply(request_id=2, stamp=stamp)
        frame, decoded = self.roundtrip(codec, 1, 0, answer)
        assert decoded == answer and frame.stamp_entries == 4
        assert not any(codec._asked.values()) and not any(codec._owed.values())

    def test_write_reply_with_current_round_trips(self):
        codec = WireCodec()
        msg = WriteReply(
            request_id=1, stamp=vc(2, 3), applied=False,
            current=EntryPayload(location="x", value=9, stamp=vc(0, 3), writer=1),
        )
        _, decoded = self.roundtrip(codec, 1, 0, msg)
        assert decoded == msg

    def test_broadcast_write_round_trips(self):
        codec = WireCodec()
        msg = BroadcastWrite(sender=0, seq=1, location="x", value=1,
                             stamp=vc(1, 0, 0))
        _, decoded = self.roundtrip(codec, 0, 1, msg)
        assert decoded == msg


def write(request_id, *components):
    return WriteRequest(request_id=request_id, location="x",
                        value=request_id, stamp=vc(*components))


def reply(request_id, *components):
    return WriteReply(request_id=request_id, stamp=vc(*components))


def read_reply(*components):
    return ReadReply(request_id=99, entries=(
        EntryPayload("y", None, vc(*components), 0),))


class TestWriteReplyBasis:
    """A W_REPLY's stamp is a delta over the WRITE it answers.  Node 0
    writes, node 1 owns; one codec plays both ends, as in the simulator."""

    def asked(self, codec):
        return {key: dict(table) for key, table in codec._asked.items() if table}

    def test_reply_is_a_delta_over_its_request_not_the_channel(self):
        codec = WireCodec()
        codec.decode(0, 1, codec.encode(0, 1, write(1, 5, 0, 0, 0, 0, 0)).data)
        # An unrelated stamp on owner -> writer: the channel basis.
        codec.decode(1, 0, codec.encode(1, 0, read_reply(0, 9, 9, 9, 9, 9)).data)
        frame = codec.encode(1, 0, reply(1, 5, 9, 0, 0, 0, 0))
        assert frame.stamp_entries == 1  # the channel basis: 6 (full)
        assert codec.decode(1, 0, frame.data) == reply(1, 5, 9, 0, 0, 0, 0)
        assert not self.asked(codec) and not any(codec._owed.values())
        # The channel basis moved to the reply's stamp.
        after = codec.encode(1, 0, read_reply(5, 9, 0, 0, 0, 1))
        assert after.stamp_entries == 1
        assert codec.decode(1, 0, after.data) == read_reply(5, 9, 0, 0, 0, 1)

    def test_empty_delta_is_the_requests_stamp(self):
        """Not the channel's cached clock, which a different stamp set."""
        codec = WireCodec()
        codec.decode(0, 1, codec.encode(0, 1, write(1, 3, 1, 4)).data)
        codec.decode(1, 0, codec.encode(1, 0, read_reply(2, 7, 1)).data)
        frame = codec.encode(1, 0, reply(1, 3, 1, 4))
        assert frame.stamp_entries == 0
        decoded = codec.decode(1, 0, frame.data)
        assert decoded.stamp == vc(3, 1, 4)
        # ...and the channel now stands on it.
        frame = codec.encode(1, 0, read_reply(3, 1, 4))
        assert frame.stamp_entries == 0
        assert codec.decode(1, 0, frame.data).stamp == vc(3, 1, 4)

    def test_reply_after_a_sequence_gap_decodes_and_resyncs(self):
        codec = WireCodec()
        codec.decode(0, 1, codec.encode(0, 1, write(1, 1, 0, 0, 0)).data)
        codec.decode(1, 0, codec.encode(1, 0, read_reply(0, 2, 0, 0)).data)
        codec.encode(1, 0, read_reply(0, 3, 0, 0))  # lost, nobody told
        frame = codec.encode(1, 0, reply(1, 1, 3, 0, 0))
        assert frame.stamp_entries == 1
        assert codec.decode(1, 0, frame.data) == reply(1, 1, 3, 0, 0)
        after = codec.encode(1, 0, read_reply(1, 4, 0, 0))
        assert after.stamp_entries == 1
        assert codec.decode(1, 0, after.data) == read_reply(1, 4, 0, 0)

    def test_reply_for_an_unknown_request_is_a_desync(self):
        owner = WireCodec()
        owner.decode(0, 1, owner.encode(0, 1, write(7, 1, 0, 0, 0)).data)
        forged = owner.encode(1, 0, reply(7, 1, 2, 0, 0))
        assert forged.stamp_entries == 1
        codec = WireCodec()
        codec.decode(1, 0, codec.encode(1, 0, read_reply(1, 1, 0, 0)).data)
        with pytest.raises(WireDesyncError):
            codec.decode(1, 0, forged.data)
        # The channel basis went with it: the next delta is refused too.
        with pytest.raises(WireDesyncError):
            codec.decode(1, 0, codec.encode(1, 0, read_reply(1, 2, 0, 0)).data)

    def test_another_channels_request_is_not_consumed(self):
        codec = WireCodec()
        codec.decode(0, 1, codec.encode(0, 1, write(7, 1, 0, 0, 0)).data)
        # Owner 2 never saw request 7 from node 0; a reply naming it on
        # 2 -> 0 is refused, and owner 1's record survives.
        forger = WireCodec()
        forger.decode(0, 2, forger.encode(0, 2, write(7, 1, 0, 0, 0)).data)
        with pytest.raises(WireDesyncError):
            codec.decode(2, 0, forger.encode(2, 0, reply(7, 1, 0, 2, 0)).data)
        assert self.asked(codec) == {(0, 1): {7: vc(1, 0, 0, 0)}}
        frame = codec.encode(1, 0, reply(7, 1, 2, 0, 0))
        assert frame.stamp_entries == 1
        assert codec.decode(1, 0, frame.data) == reply(7, 1, 2, 0, 0)

    def test_mark_dirty_keeps_the_writers_record(self):
        codec = WireCodec()
        codec.decode(0, 1, codec.encode(0, 1, write(1, 1, 0, 0, 0)).data)
        frame = codec.encode(1, 0, reply(1, 1, 2, 0, 0))
        codec.mark_dirty(0, 1)
        codec.mark_dirty(1, 0)
        codec.mark_node_dirty(0)
        assert codec.decode(1, 0, frame.data) == reply(1, 1, 2, 0, 0)

    def test_a_loss_to_the_writer_forgets_the_owners_records(self):
        """A W_REPLY dropped before encoding never pops its record: the
        loss report clears them, and the next reply goes full."""
        codec = WireCodec()
        for request_id in (1, 2):
            codec.decode(0, 1, codec.encode(0, 1, write(request_id, 1, 0, 0)).data)
        codec.mark_dirty(1, 0)
        assert not any(codec._owed.values())
        frame = codec.encode(1, 0, reply(2, 1, 1, 0))
        assert frame.stamp_entries == 3
        assert codec.decode(1, 0, frame.data) == reply(2, 1, 1, 0)
        assert self.asked(codec) == {(0, 1): {1: vc(1, 0, 0)}}

    def test_reply_delivered_after_crash_and_heal_decodes(self):
        """Encoded before the writer crashed, delivered after heal_all."""
        from repro.memory import Namespace
        from repro.protocols.base import DSMCluster

        cluster = DSMCluster(
            3, protocol="causal", delta_stamps=True,
            namespace=Namespace.explicit(3, {"x": 1}),
        )
        network = cluster.network
        done = []

        def owner(api):
            yield api.write("x", "own")  # the reply will differ in one entry

        def writer(api):
            yield api.write("x", "remote")  # WRITE at t=0, W_REPLY at t=1
            done.append(cluster.sim.now)

        cluster.sim.schedule_at(1.5, lambda: network.crash(0))
        cluster.sim.schedule_at(1.8, network.heal_all)
        cluster.spawn(1, owner)
        cluster.spawn(0, writer)
        cluster.run()
        assert done == [2.0]
        # A full WRITE stamp, then a one-entry delta reply over it.
        assert (network.stats.total, network.stats.stamp_entries) == (2, 4)
        assert not self.asked(network.codec)
