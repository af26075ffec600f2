"""The telemetry plane, deterministically: codec, shards, merge, flight.

Everything here runs without sockets or wall clocks — the simulator
loopback path of :class:`~repro.obs.plane.TelemetryPlane` cuts the very
same frames the live sideband ships, so the tier-1 suite can pin the
plane's contracts exactly:

* the frame codec round-trips (hypothesis), and chunked stream
  reassembly never loses or duplicates a frame;
* loss is *accounted*, never silent — for any pattern of dropped
  frames, ``events_merged + events_lost`` equals the number of events
  the shards emitted (the conservation law the sideband tests re-check
  over real sockets);
* the merge is per-source FIFO and never releases an event while a
  causally smaller head is pending;
* skew estimation converges to the injected offset from below;
* the flight recorder turns a simulated fig3 monitor violation into a
  replayable FORMAT_VERSION-2 counterexample carrying the ring events.
"""

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.tables import gauge_table
from repro.checker import check_causal
from repro.errors import ProtocolError
from repro.mc.counterexample import replay
from repro.monitor import attach_monitor, attach_plane_monitor
from repro.obs import TraceCollector, to_chrome_trace, validate_chrome_trace
from repro.obs.events import TraceEvent
from repro.obs.plane import (
    NodeShard,
    TelemetryAggregator,
    TelemetryFrame,
    TelemetryPlane,
    decode_frame,
    encode_frame,
    split_frames,
    window_from_events,
)
from repro.obs.plane.dashboard import DashboardState, render
from repro.protocols.base import DSMCluster
from repro.runtime.live import LinkStats
from repro.runtime.scenarios import SCENARIO_OWNERS, SCENARIOS, SIM_TICK

COMMON = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_values = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)

_events = st.builds(
    TraceEvent,
    seq=st.integers(min_value=1, max_value=10**6),
    time=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    category=st.sampled_from(["proto", "net", "kernel", "store"]),
    name=st.sampled_from(["op.commit", "msg.send", "tick", "apply"]),
    node=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    clock=st.one_of(
        st.none(),
        st.lists(
            st.integers(min_value=0, max_value=99), min_size=1, max_size=4
        ).map(tuple),
    ),
    dur=st.floats(min_value=0, max_value=10, allow_nan=False),
    wall=st.one_of(
        st.none(), st.floats(min_value=0, max_value=1e6, allow_nan=False)
    ),
    args=st.dictionaries(
        st.text(min_size=1, max_size=6), _values, max_size=3
    ),
)

_frames = st.builds(
    TelemetryFrame,
    node=st.one_of(
        st.integers(min_value=0, max_value=9), st.sampled_from(["rt", "server"])
    ),
    frame_seq=st.integers(min_value=1, max_value=1000),
    first_seq=st.integers(min_value=0, max_value=1000),
    n_events=st.integers(min_value=0, max_value=10),
    sent_wall=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    events=st.lists(_events, max_size=5),
)


def _same_event(a: TraceEvent, b: TraceEvent) -> bool:
    return (
        a.seq == b.seq
        and a.time == b.time
        and a.category == b.category
        and a.name == b.name
        and a.node == b.node
        and a.clock == b.clock
        and a.dur == b.dur
        and a.wall == b.wall
        and a.args == b.args
    )


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
def _framed(payload: bytes) -> bytes:
    return struct.pack("!I", len(payload)) + payload


_FRAME_HEAD = b'"node":"1","fseq":1,"first":1,"n":1,"sw":0.0'

#: Hostile sideband input (``test_plane_live.py`` sends the same table
#: over a raw socket).  Before ``_decode_one`` folded them into
#: ValueError these escaped as UnicodeDecodeError, JSONDecodeError,
#: KeyError and TypeError.
MALFORMED_STREAMS = {
    "length-prefix-2^31": struct.pack("!I", 2**31) + b"xx",
    "not-utf8": _framed(b"\xff\xfe\x00"),
    "not-json": _framed(b"hello"),
    "empty-object": _framed(b"{}"),
    "header-incomplete": _framed(b'{"node":"1"}'),
    "event-empty-object": _framed(b"{" + _FRAME_HEAD + b',"events":[{}]}'),
    "json-list": _framed(b"[]"),
    "json-null": _framed(b"null"),
    "events-not-a-list": _framed(b"{" + _FRAME_HEAD + b',"events":5}'),
}


class TestFrameCodec:
    @settings(**COMMON)
    @given(_frames)
    def test_encode_decode_round_trip(self, frame):
        decoded = decode_frame(encode_frame(frame))
        assert decoded.node == frame.node
        assert decoded.frame_seq == frame.frame_seq
        assert decoded.first_seq == frame.first_seq
        assert decoded.n_events == frame.n_events
        assert decoded.sent_wall == frame.sent_wall
        assert len(decoded.events) == len(frame.events)
        for got, want in zip(decoded.events, frame.events):
            # dur/args survive modulo to_jsonable's elision of falsy
            # dur, which decodes as 0.0 == 0.0.
            assert got.seq == want.seq and got.clock == want.clock
            assert got.category == want.category and got.name == want.name
            assert got.wall == want.wall

    @settings(**COMMON)
    @given(
        st.lists(_frames, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=64),
    )
    def test_chunked_stream_reassembly(self, frames, chunk):
        """split_frames over arbitrary chunking: no loss, no dupes."""
        stream = b"".join(encode_frame(frame) for frame in frames)
        got, buffer = [], b""
        for start in range(0, len(stream), chunk):
            buffer += stream[start : start + chunk]
            parsed, buffer = split_frames(buffer)
            got.extend(parsed)
        assert buffer == b""
        assert [f.frame_seq for f in got] == [f.frame_seq for f in frames]
        assert [f.node for f in got] == [f.node for f in frames]

    def test_truncated_frame_stays_buffered(self):
        frame = TelemetryFrame("rt", 1, 0, 0, 0.0, [])
        data = encode_frame(frame)
        parsed, rest = split_frames(data[:-1])
        assert parsed == [] and rest == data[:-1]

    def test_corrupt_length_raises(self):
        with pytest.raises(ValueError):
            split_frames(struct.pack("!I", 2**31) + b"xx")

    @pytest.mark.parametrize("name", sorted(MALFORMED_STREAMS))
    def test_malformed_payload_raises_value_error(self, name):
        """Whatever is wrong inside a complete frame, the reader sees one
        exception class (the sideband catches exactly that one)."""
        with pytest.raises(ValueError):
            split_frames(MALFORMED_STREAMS[name])

    def test_oversized_frame_refused_at_encode(self, monkeypatch):
        from repro.obs.plane import frames

        frame = TelemetryFrame("rt", 1, 0, 0, 0.0, [])
        monkeypatch.setattr(frames, "MAX_FRAME_BYTES", 8)
        with pytest.raises(ValueError, match="too large"):
            encode_frame(frame)


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------
class TestNodeShard:
    def test_ring_is_bounded_and_recent(self):
        shard = NodeShard(0, ring_capacity=4, flush_every=100)
        for i in range(10):
            shard.emit("proto", "op.commit", node=0, i=i)
        ring = shard.ring_events()
        assert len(ring) == 4
        assert [event.args["i"] for event in ring] == [6, 7, 8, 9]

    def test_flush_every_cuts_frames(self):
        frames = []
        shard = NodeShard(0, sink=frames.append, flush_every=3)
        for _ in range(7):
            shard.emit("proto", "op.commit", node=0)
        assert [f.n_events for f in frames] == [3, 3]
        tail = shard.flush()
        assert tail.n_events == 1
        assert [f.frame_seq for f in frames] == [1, 2, 3]
        assert frames[0].first_seq == 1 and frames[1].first_seq == 4
        assert shard.pending_events() == 0

    def test_heartbeat_frame_when_sink_present(self):
        frames = []
        shard = NodeShard(0, sink=frames.append)
        frame = shard.flush()
        assert frame is not None and frame.n_events == 0
        # A free-standing shard has nobody to heartbeat to.
        assert NodeShard(1).flush() is None

    def test_shard_retains_every_kind_it_is_offered(self):
        """Demand-driven collectors decline kinds nobody reads; a shard
        reads everything by construction (ring + frames)."""
        frames = []
        shard = NodeShard(0, sink=frames.append, ring_capacity=8, flush_every=4)
        kinds = [("kernel", "execute"), ("net", "send"), ("store", "apply")]
        for i in range(10):
            category, name = kinds[i % 3]
            assert shard.wants(category, name)
            assert shard.emit(category, name, node=0, i=i).seq == i + 1
        shard.flush()
        carried = [event for frame in frames for event in frame.events]
        assert [event.seq for event in carried] == list(range(1, 11))
        assert [event.args["i"] for event in shard.ring_events()] == list(
            range(2, 10)
        )
        assert shard.events == []  # the ring and frames, not the list
        assert shard.metrics.count_of("net.send") == 3

    def test_wall_offset_applies_to_events_and_frames(self):
        shard = NodeShard(0, wall_offset=5.0)
        shard.bind_wall(lambda: 100.0)
        event = shard.emit("proto", "op.commit", node=0)
        assert event.wall == 105.0
        frames = []
        shard.sink = frames.append
        shard.flush()
        assert frames[0].sent_wall == 105.0


# ----------------------------------------------------------------------
# Collector.ingest (the aggregator's replay path)
# ----------------------------------------------------------------------
class TestIngest:
    def test_ingest_resequences_and_dispatches(self):
        out = TraceCollector()
        out.emit("kernel", "tick")
        commits, everything = [], []
        out.subscribe(commits.append, category="proto", name="op.commit")
        out.subscribe(everything.append)
        event = TraceEvent(
            seq=99, time=3.0, category="proto", name="op.commit",
            node=1, clock=(1, 2), wall=7.5, args={"kind": "r"},
        )
        merged = out.ingest(event)
        assert merged.seq == 2  # re-sequenced into this collector
        assert merged.time == 3.0 and merged.clock == (1, 2)
        assert merged.wall == 7.5 and merged.args == {"kind": "r"}
        assert commits == [merged]
        assert everything == [merged]
        assert out.metrics.counter("proto.op.commit").value == 1

    def test_ingest_respects_filters(self):
        out = TraceCollector()
        commits = []
        out.subscribe(commits.append, category="proto", name="op.commit")
        out.ingest(TraceEvent(seq=1, time=0.0, category="net", name="msg.send"))
        assert commits == []


# ----------------------------------------------------------------------
# Aggregator: loss accounting, FIFO, causal order, skew, watermarks
# ----------------------------------------------------------------------
def _shard_frames(node, n_events, flush_every):
    """Cut all frames a shard would for ``n_events`` emits."""
    frames = []
    shard = NodeShard(node, sink=frames.append, flush_every=flush_every)
    for i in range(n_events):
        shard.emit("proto", "op.commit", node=node if isinstance(node, int) else None, i=i)
    shard.flush()
    return shard, frames


class TestLossAccounting:
    @settings(**COMMON)
    @given(
        n_events=st.integers(min_value=0, max_value=40),
        flush_every=st.integers(min_value=1, max_value=7),
        drop_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_conservation_under_any_frame_loss(
        self, n_events, flush_every, drop_seed
    ):
        """events_merged + events_lost == events emitted, always."""
        import random

        shard, frames = _shard_frames(0, n_events, flush_every)
        rng = random.Random(drop_seed)
        kept = [f for f in frames if rng.random() > 0.4]

        out = TraceCollector()
        agg = TelemetryAggregator(out=out)
        agg.add_source(0)
        for frame in kept:
            agg.feed(frame)
        agg.reconcile(0, shard.frames_cut, shard._seq)
        agg.close()

        dropped = [f for f in frames if f not in kept]
        assert agg.frames_lost == len(dropped)
        assert agg.events_lost == sum(f.n_events for f in dropped)
        assert agg.events_merged + agg.events_lost == n_events
        # Dropped events left a mark in the merged trace itself.
        if agg.events_lost:
            gaps = out.select("plane", "gap")
            assert gaps and sum(g.args["count"] for g in gaps) == agg.events_lost

    def test_duplicate_frame_is_ignored(self):
        _, frames = _shard_frames(0, 4, 2)
        agg = TelemetryAggregator()
        agg.feed(frames[0])
        agg.feed(frames[0])
        agg.close()
        assert agg.events_merged == 2
        assert agg.frames_lost == 0
        assert any("duplicate" in gap for gap in agg.gaps)

    def test_tail_loss_needs_reconcile(self):
        """The last frame of a run leaves no later frame to reveal its
        loss — only the shard-side truth can book it."""
        shard, frames = _shard_frames(0, 6, 3)
        agg = TelemetryAggregator()
        agg.feed(frames[0])  # frames[1] (events 4..6) + heartbeat vanish
        agg.close()
        assert agg.events_lost == 0  # invisible without reconcile
        agg.reconcile(0, shard.frames_cut, shard._seq)
        assert agg.frames_lost == 2 and agg.events_lost == 3


class TestMergeOrder:
    @settings(**COMMON)
    @given(
        per_source=st.lists(
            st.integers(min_value=0, max_value=12), min_size=1, max_size=4
        ),
        flush_every=st.integers(min_value=1, max_value=5),
        order_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_per_source_fifo(self, per_source, flush_every, order_seed):
        """Any arrival interleaving: one source's events stay in order."""
        import random

        all_frames = []
        for node, count in enumerate(per_source):
            _, frames = _shard_frames(node, count, flush_every)
            all_frames.append(frames)
        arrivals = [
            (node, frame) for node, frames in enumerate(all_frames)
            for frame in frames
        ]
        # Shuffle across sources while keeping each source's frame order
        # (the sideband guarantee: per-connection FIFO).
        rng = random.Random(order_seed)
        by_source = {n: list(f) for n, f in enumerate(all_frames)}
        shuffled = []
        while any(by_source.values()):
            node = rng.choice([n for n, f in by_source.items() if f])
            shuffled.append(by_source[node].pop(0))

        out = TraceCollector()
        agg = TelemetryAggregator(out=out, expected=list(range(len(per_source))))
        for frame in shuffled:
            agg.feed(frame)
        agg.close()
        assert agg.events_merged == sum(per_source)
        for node, count in enumerate(per_source):
            seqs = [e.args["i"] for e in out.events if e.node == node]
            assert seqs == list(range(count))

    def test_causal_heads_release_in_clock_order(self):
        """Clocks beat walls: the causally smaller head goes first even
        when it arrives later AND carries the later wall stamp."""
        later = TraceEvent(
            seq=1, time=0.0, category="proto", name="op.commit",
            node=1, clock=(2, 1), wall=10.0,
        )
        earlier = TraceEvent(
            seq=1, time=0.0, category="proto", name="op.commit",
            node=0, clock=(2, 0), wall=11.0,
        )
        out = TraceCollector()
        agg = TelemetryAggregator(out=out, expected=[0, 1])
        # The causally-later event arrives first; source 0's silence
        # (watermark -inf) holds it back until its head shows up.
        agg.feed(TelemetryFrame(1, 1, 1, 1, 10.0, [later]))
        assert agg.events_merged == 0
        agg.feed(TelemetryFrame(0, 1, 1, 1, 11.0, [earlier]))
        agg.close()
        clocks = [event.clock for event in out.events]
        assert clocks == [(2, 0), (2, 1)]

    def test_watermark_holds_until_idle_source_votes(self):
        """An open, silent source gates the merge; its heartbeat frees it."""
        event = TraceEvent(
            seq=1, time=0.0, category="proto", name="op.commit",
            node=0, wall=10.0,
        )
        agg = TelemetryAggregator(expected=[0, 1])
        agg.feed(TelemetryFrame(0, 1, 1, 1, 10.0, [event]))
        assert agg.events_merged == 0  # held: source 1 might be earlier
        agg.feed(TelemetryFrame(1, 1, 0, 0, 20.0, []))  # heartbeat
        assert agg.events_merged == 1

    def test_skew_estimate_approaches_offset_from_below(self):
        """Observed sent-recv = skew - delay; the max converges."""
        agg = TelemetryAggregator()
        offset = 2.0
        for frame_seq, delay in enumerate([0.5, 0.2, 0.05], start=1):
            sent = 10.0 * frame_seq
            agg.feed(
                TelemetryFrame(3, frame_seq, 0, 0, sent + offset, []),
                recv_wall=sent + delay,
            )
        skew = agg.sources[3].skew
        assert skew == pytest.approx(offset - 0.05)
        assert skew <= offset
        assert agg.stats()["skew_est"]["3"] == skew


# ----------------------------------------------------------------------
# The plane over the simulator (loopback sideband)
# ----------------------------------------------------------------------
def _run_sim_plane(name, plane=None, monitor=False, seed=0):
    spec = SCENARIOS[name]
    cluster = DSMCluster(
        n_nodes=spec.n_nodes,
        protocol=spec.protocol,
        seed=seed,
        namespace=spec.namespace() if spec.namespace else None,
    )
    plane = plane if plane is not None else TelemetryPlane()
    plane.attach(cluster)
    subscription = None
    if monitor:
        subscription = attach_monitor(cluster)
        plane.watch_monitor(subscription.monitor)
    spec.spawn(cluster, SIM_TICK)
    cluster.run()
    plane.finish()
    return cluster, plane, subscription


class TestSimPlane:
    def test_merged_stream_is_the_cluster_collector(self):
        cluster, plane, _ = _run_sim_plane("fig4")
        assert cluster.obs is plane.out
        assert plane.aggregator.events_lost == 0
        emitted = sum(shard._seq for shard in plane.shards.values())
        assert plane.aggregator.events_merged == emitted
        assert len(plane.out.events) == emitted
        # Commits from every node made it through the merge.
        commits = plane.out.select("proto", "op.commit")
        assert {event.node for event in commits} == {0, 1, 2}

    def test_monitor_rides_the_aggregated_stream(self):
        _, _, fig4_sub = _run_sim_plane("fig4", monitor=True)
        assert fig4_sub.result().ok
        _, _, fig3_sub = _run_sim_plane("fig3", monitor=True)
        assert not fig3_sub.result().ok

    def test_aggregated_verdicts_match_offline_checker(self):
        for name in ("fig3", "fig4", "fig5"):
            cluster, _, subscription = _run_sim_plane(name, monitor=True)
            offline = check_causal(cluster.history())
            assert subscription.result().ok == offline.ok
            assert offline.ok == SCENARIOS[name].expect_causal

    def test_attach_plane_monitor_helper(self):
        spec = SCENARIOS["fig4"]
        cluster = DSMCluster(
            n_nodes=spec.n_nodes, protocol=spec.protocol, seed=0,
            namespace=spec.namespace() if spec.namespace else None,
        )
        plane = TelemetryPlane().attach(cluster)
        subscription = attach_plane_monitor(plane)
        assert plane.monitor is subscription.monitor
        spec.spawn(cluster, SIM_TICK)
        cluster.run()
        plane.finish()
        assert subscription.result().ok
        assert subscription.monitor.reads_checked > 0

    def test_loopback_frame_loss_is_counted(self):
        plane = TelemetryPlane(flush_every=4)
        spec = SCENARIOS["fig4"]
        cluster = DSMCluster(
            n_nodes=spec.n_nodes, protocol=spec.protocol, seed=0,
            namespace=spec.namespace() if spec.namespace else None,
        )
        plane.attach(cluster)
        plane.sim_drop_next_frames(0, 1)
        spec.spawn(cluster, SIM_TICK)
        cluster.run()
        plane.finish()
        agg = plane.aggregator
        assert agg.frames_lost == 1 and agg.events_lost > 0
        assert agg.gaps
        emitted = sum(shard._seq for shard in plane.shards.values())
        assert agg.events_merged + agg.events_lost == emitted
        assert plane.out.select("plane", "gap")

    def test_metrics_only_out_changes_nothing_upstream(self):
        """Demand is per collector: a merged collector that keeps
        nothing and feeds only a monitor declines kinds at ingest, while
        the shards still carry — and account for — every event."""
        plane = TelemetryPlane(
            out=TraceCollector(keep_events=False), flush_every=4
        )
        plane.sim_drop_next_frames(0, 1)
        _, _, subscription = _run_sim_plane("fig4", plane=plane, monitor=True)
        agg = plane.aggregator
        emitted = sum(shard._seq for shard in plane.shards.values())
        assert agg.events_lost > 0
        assert agg.events_merged + agg.events_lost == emitted
        assert plane.out.events == []
        assert plane.out.metrics.count_of("plane.gap") >= 1
        assert subscription.result().ops_processed > 0

    def test_plane_is_mutually_exclusive_with_attach_obs(self):
        cluster = DSMCluster(n_nodes=2, protocol="causal", seed=0)
        cluster.attach_obs(TraceCollector())
        with pytest.raises(ProtocolError):
            TelemetryPlane().attach(cluster)
        cluster2 = DSMCluster(n_nodes=2, protocol="causal", seed=0)
        TelemetryPlane().attach(cluster2)
        with pytest.raises(ProtocolError):
            cluster2.attach_obs(TraceCollector())

    def test_gauges_exported_after_finish(self):
        _, plane, _ = _run_sim_plane("fig4")
        snapshot = plane.out.metrics.snapshot()
        assert snapshot["gauges"]["plane.events_merged"] > 0
        assert snapshot["gauges"]["plane.events_lost"] == 0


# ----------------------------------------------------------------------
# Flight recorder (simulated incidents)
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_window_from_events(self):
        events = [
            TraceEvent(seq=1, time=0, category="proto", name="op.commit",
                       node=0, args={"kind": "w", "location": "x", "value": 1}),
            TraceEvent(seq=2, time=1, category="net", name="msg.send", node=0),
            TraceEvent(seq=3, time=2, category="proto", name="op.commit",
                       node=1, args={"kind": "r", "location": "x", "value": 1}),
        ]
        window = window_from_events(events, n_procs=3)
        assert window == [[("w", "x", 1)], [("r", "x")], []]
        assert window_from_events([], n_procs=3) == []

    def test_fig3_violation_dumps_replayable_counterexample(self, tmp_path):
        plane = TelemetryPlane()
        spec = SCENARIOS["fig3"]
        cluster = DSMCluster(
            n_nodes=spec.n_nodes, protocol=spec.protocol, seed=0,
            namespace=spec.namespace() if spec.namespace else None,
        )
        plane.attach(cluster)
        plane.enable_flight(owners=SCENARIO_OWNERS["fig3"], seed=0)
        subscription = attach_monitor(cluster)
        plane.watch_monitor(subscription.monitor)
        spec.spawn(cluster, SIM_TICK)
        cluster.run()
        plane.finish()

        assert plane.flight.triggered
        reason, _detail, ring = plane.flight.incidents[0]
        assert reason == "violation" and ring

        path = tmp_path / "flight.json"
        cex = plane.flight.dump_to(path)
        assert cex is not None and path.exists()
        assert cex.kind == "consistency"
        assert cex.events  # the live ring rode along
        outcome = replay(cex, check=True)  # raises if it cannot reproduce
        assert outcome.completed

    def test_untriggered_recorder_dumps_nothing(self):
        _, plane, _ = _run_sim_plane("fig4", plane=None, monitor=True)
        plane.enable_flight()
        assert not plane.flight.triggered
        assert plane.flight.dump() is None


# ----------------------------------------------------------------------
# Chrome exporter: wall timestamps for live traces
# ----------------------------------------------------------------------
class TestChromeWallTimestamps:
    def test_wall_stamped_events_use_wall_microseconds(self):
        events = [
            TraceEvent(seq=1, time=3.0, category="proto", name="op.commit",
                       node=0, wall=100.25),
            TraceEvent(seq=2, time=4.0, category="proto", name="op.commit",
                       node=1, wall=100.75),
            TraceEvent(seq=3, time=5.0, category="kernel", name="tick"),
        ]
        payload = to_chrome_trace(events)
        validate_chrome_trace(payload)
        ts = [record["ts"] for record in payload["traceEvents"]]
        assert ts[0] == 0.0  # earliest wall is the origin
        assert ts[1] == pytest.approx(0.5e6)
        assert ts[2] == 5000.0  # unstamped event: sim-time fallback

    def test_sim_traces_unchanged(self):
        events = [
            TraceEvent(seq=1, time=2.0, category="kernel", name="tick"),
        ]
        payload = to_chrome_trace(events)
        validate_chrome_trace(payload)
        assert payload["traceEvents"][0]["ts"] == 2000.0

    def test_merged_sim_trace_exports_clean(self):
        _, plane, _ = _run_sim_plane("fig4")
        payload = to_chrome_trace(plane.out.events)
        validate_chrome_trace(payload)
        json.dumps(payload)  # fully serialisable


# ----------------------------------------------------------------------
# Dashboard rendering (pure)
# ----------------------------------------------------------------------
class TestDashboardRender:
    def _state(self):
        state = DashboardState()
        state.elapsed = 1.5
        state.ops_total = 120
        state.ops_rate = 80.0
        state.links = [LinkStats(0, 1, 14, 576, 2700, 2, 9)]
        state.frames_merged = 7
        state.events_merged = 124
        state.sideband_bytes = 25_000
        state.skew_est = {"0": 0.001}
        return state

    def test_render_panel_contents(self):
        state = self._state()
        panel = render(state)
        assert "ops 120 (80/s)" in panel
        assert "0->1" in panel and "2.6K" in panel and "      9 " in panel
        assert "frames 7" in panel and "events 124" in panel
        assert "skew est" in panel
        assert "monitor" not in panel  # no monitor attached

    def test_render_monitor_canary(self):
        state = self._state()
        state.monitor_reads = 12
        state.monitor_violations = 0
        assert "OK" in render(state)
        state.monitor_violations = 2
        assert "VIOLATION x2" in render(state)

    def test_render_gaps_and_latency(self):
        state = self._state()
        state.gaps = ["node 0: lost 1 frame(s) [2..2]"]
        state.latency_p50 = 0.005
        state.latency_p95 = 0.012
        state.latency_p99 = 0.020
        panel = render(state)
        assert "gap:" in panel
        assert "p50 5.00ms" in panel and "p99 20.00ms" in panel


# ----------------------------------------------------------------------
# Tables: gauge visibility
# ----------------------------------------------------------------------
class TestTables:
    def test_gauge_table_filters_by_prefix(self):
        snapshot = {
            "gauges": {
                "live.link.0->1.socket_bytes": 2700,
                "live.link.0->1.queue_depth": 0,
                "plane.events_merged": 124,
            }
        }
        text = gauge_table(snapshot, prefix="live.").render()
        assert "live.link.0->1.socket_bytes" in text and "2700" in text
        assert "plane.events_merged" not in text
        assert "plane.events_merged" in gauge_table(snapshot).render()
