"""Lockstep properties: the wire fast path must be semantically invisible.

Three claims, each checked across hypothesis-chosen workloads and seeds:

1. Delta stamp encoding is *transparent*: with the protocol
   configuration held fixed, turning ``delta_stamps`` on changes nothing
   observable — identical histories, identical message counts, identical
   final stores — while carrying fewer writestamp entries.  This holds
   under message drops too: a loss dirties the channel and the codec
   falls back to full stamps, so reconstruction never diverges.
2. The byte ledger is the wire: every frame a simulated run carries is
   real bytes, exactly as long as the ledger charged plus the documented
   tag bytes, with and without message drops.  (The
   same equality against the live runtime's sockets is asserted in
   ``test_runtime_live.py``.)
3. Reconnect resync: a lost connection restarts every delta chain.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from _wire_audit import AuditedCodec
from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.checker import check_causal
from repro.memory import Namespace
from repro.protocols.base import DSMCluster

COMMON = dict(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)

workload_shapes = st.fixed_dictionaries(
    {
        "n_nodes": st.integers(min_value=2, max_value=5),
        "n_locations": st.integers(min_value=1, max_value=5),
        "ops_per_proc": st.integers(min_value=1, max_value=20),
        "read_fraction": st.floats(min_value=0.2, max_value=0.8),
        "discard_fraction": st.floats(min_value=0.0, max_value=0.2),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


# ----------------------------------------------------------------------
# 1. Delta stamps are transparent
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(workload_shapes)
def test_delta_stamps_are_history_transparent(shape):
    full = run_random_execution(WorkloadConfig(protocol="causal", **shape))
    delta = run_random_execution(
        WorkloadConfig(protocol="causal", delta_stamps=True, **shape)
    )
    assert full.history.to_text() == delta.history.to_text()
    assert full.total_messages == delta.total_messages
    assert full.rejected_writes == delta.rejected_writes


def _store_snapshot(cluster):
    """Every node's entries as comparable plain data."""
    return [
        {
            loc: (entry.value, entry.writer, entry.stamp.components)
            for loc, entry in node.store._entries.items()
        }
        for node in cluster.nodes
    ]


def _recorded(cluster):
    """Every op the recorder saw, per process, in completion order."""
    return cluster.recorder._ops


def _run_causal_under_drops(
    n_nodes, ops, seed, *, delta_stamps, codec=None, drop_rate=0.25,
    crash_at=None,
):
    """Causal run under drops; a lost WRITE or W_REPLY parks its writer.

    Each process writes (remotely) to the location owned by its right
    neighbour and reads only its own location, which it owns — so reads
    are always local, and the run ends when every process has finished
    or is blocked on a message that was dropped.  A write whose W_REPLY
    was lost is applied at the owner but never recorded by its blocked
    writer, so such runs are compared on what the recorder holds
    (:func:`_recorded`), not on a built ``History``.  With ``crash_at``
    node 1 is also crashed then, and every fault healed 2.5 later.
    """
    namespace = Namespace.explicit(
        n_nodes, {f"w{p}": p for p in range(n_nodes)}
    )
    cluster = DSMCluster(
        n_nodes,
        protocol="causal",
        seed=seed,
        namespace=namespace,
        delta_stamps=delta_stamps,
        record_history=True,
    )
    if codec is not None:
        cluster.network.codec = codec
    cluster.network.set_drop_rate(drop_rate)
    if crash_at is not None:
        cluster.sim.schedule_at(crash_at, lambda: cluster.network.crash(1))
        cluster.sim.schedule_at(crash_at + 2.5, cluster.network.heal_all)

    def process(api, me):
        rng = cluster.sim.derived_rng(f"drops-{me}")
        target = f"w{(me + 1) % n_nodes}"
        for i in range(ops):
            if rng.random() < 0.7:
                yield api.write(target, f"n{me}v{i}")
            else:
                yield api.read(f"w{me}")

    for proc in range(n_nodes):
        cluster.spawn(proc, process, proc, name=f"drops-{proc}")
    cluster.run(check_deadlock=False)
    return cluster


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=0, max_value=10_000),
)
def test_delta_stamps_transparent_under_drops(n_nodes, ops, seed):
    full = _run_causal_under_drops(n_nodes, ops, seed, delta_stamps=False)
    delta = _run_causal_under_drops(n_nodes, ops, seed, delta_stamps=True)
    assert _store_snapshot(full) == _store_snapshot(delta)
    assert full.stats.total == delta.stats.total
    assert full.stats.dropped == delta.stats.dropped
    assert _recorded(full) == _recorded(delta)
    # The delta side never carries more than the full side.
    assert delta.stats.stamp_entries <= full.stats.stamp_entries
    assert delta.stats.bytes_total <= full.stats.bytes_total


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([None, 1.5, 4.0]),
)
def test_write_records_are_bounded(n_nodes, ops, seed, crash_at):
    """The codec's WRITE-stamp tables after a lossy run (WireCodec's
    docstring): the owner's is empty, and the writer's holds a record
    only for a write its writer still waits for — one whose WRITE was
    lost after encoding or whose W_REPLY was lost."""
    cluster = _run_causal_under_drops(
        n_nodes, ops, seed, delta_stamps=True, drop_rate=0.2,
        crash_at=crash_at,
    )
    codec = cluster.network.codec
    assert not any(codec._owed.values())
    held = {
        (writer, owner, request_id)
        for (writer, owner), table in codec._asked.items()
        for request_id in table
    }
    waiting = {
        (node.node_id, cluster.namespace.owner(location), request_id)
        for node in cluster.nodes
        for request_id, (_, location, _, _) in node._pending_writes.items()
    }
    assert held <= waiting


def _run_broadcast(n_nodes, ops, seed, *, delta_stamps, drop_rate):
    cluster = DSMCluster(
        n_nodes,
        protocol="broadcast",
        seed=seed,
        delta_stamps=delta_stamps,
        record_history=True,
    )
    if drop_rate:
        cluster.network.set_drop_rate(drop_rate)

    def process(api, me):
        rng = cluster.sim.derived_rng(f"bcast-{me}")
        for i in range(ops):
            location = f"loc{rng.randrange(3)}"
            if rng.random() < 0.5:
                yield api.write(location, f"n{me}v{i}")
            else:
                yield api.read(location)

    for proc in range(n_nodes):
        cluster.spawn(proc, process, proc, name=f"bcast-{proc}")
    cluster.run(check_deadlock=False)
    return cluster


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.0, 0.3]),
)
def test_delta_stamps_transparent_for_broadcast(n_nodes, ops, seed, drop_rate):
    full = _run_broadcast(
        n_nodes, ops, seed, delta_stamps=False, drop_rate=drop_rate
    )
    delta = _run_broadcast(
        n_nodes, ops, seed, delta_stamps=True, drop_rate=drop_rate
    )
    assert [n._replica for n in full.nodes] == [n._replica for n in delta.nodes]
    assert full.history().to_text() == delta.history().to_text()
    assert delta.stats.stamp_entries <= full.stats.stamp_entries
    assert delta.stats.bytes_total <= full.stats.bytes_total


# ----------------------------------------------------------------------
# 2. The byte ledger is the wire
# ----------------------------------------------------------------------
def _assert_ledger_is_the_wire(cluster, codec):
    """NetworkStats charged exactly what the delivered frames weigh.

    ``AuditedCodec`` has already held every single frame against the
    per-field tag formula; this ties the totals together.  Dropped sends
    were never encoded and sit in ``dropped_bytes``, not here.
    """
    stats = cluster.stats
    assert codec.frames == stats.total
    assert codec.model_bytes == stats.bytes_total
    assert codec.frame_bytes >= stats.bytes_total
    assert codec.entries_carried == stats.stamp_entries
    assert codec.entries_carried + codec.entries_saved == stats.stamp_entries_full


def _run_delta_mixed(n_nodes, ops, seed, *, codec):
    """Deterministic mixed workload under the delta codec."""
    cluster = DSMCluster(
        n_nodes,
        protocol="causal",
        seed=seed,
        delta_stamps=True,
        record_history=True,
    )
    cluster.network.codec = codec
    n_locations = 2 * n_nodes

    def process(api, me):
        for i in range(ops):
            location = f"loc{(me + i) % n_locations}"
            if (me + i) % 3 == 0:
                yield api.write(location, f"n{me}v{i}")
            else:
                yield api.read(location)

    for proc in range(n_nodes):
        cluster.spawn(proc, process, proc, name=f"mixed-{proc}")
    cluster.run()
    return cluster


@settings(**COMMON)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10_000),
)
def test_sim_frames_weigh_what_the_ledger_charged(n_nodes, ops, seed):
    codec = AuditedCodec()
    cluster = _run_delta_mixed(n_nodes, ops, seed, codec=codec)
    _assert_ledger_is_the_wire(cluster, codec)
    assert check_causal(cluster.history()).ok


@settings(**COMMON)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=0, max_value=10_000),
)
def test_sim_frames_weigh_what_the_ledger_charged_under_drops(
    n_nodes, ops, seed
):
    """Same claim with message drops dirtying the delta chains."""
    codec = AuditedCodec()
    cluster = _run_causal_under_drops(
        n_nodes, ops, seed, delta_stamps=True, codec=codec,
    )
    _assert_ledger_is_the_wire(cluster, codec)
    plain = _run_causal_under_drops(n_nodes, ops, seed, delta_stamps=True)
    assert _recorded(plain) == _recorded(cluster)


#: One move of one component: a step of each width, either way, and one
#: too wide for any (the stamp then goes full).
_moves = st.tuples(
    st.integers(min_value=0, max_value=19),
    st.sampled_from([1, -1, 100, -128, 200, -40_000, 40_000, 2 ** 31 + 7]),
)


@settings(**COMMON)
@given(
    st.integers(min_value=1, max_value=20),
    st.lists(st.tuples(st.booleans(), st.lists(_moves, max_size=20)),
             min_size=1, max_size=25),
)
def test_steps_of_every_width_keep_both_mirrors_in_step(dimension, walk):
    """A channel whose counters move by steps of every width, up and
    down, between loss reports: every stamp decodes to what was sent and
    carries the entries the pre-step rule did (k pairs while 6k < 4n,
    else n; n without a basis or with a step beyond i32)."""
    from repro.clocks import VectorClock
    from repro.protocols.messages import WriteRequest
    from repro.protocols.wire import WireCodec

    codec = WireCodec()
    clock, basis = [2 ** 31] * dimension, None
    for request_id, (dirty, moves) in enumerate(walk):
        if dirty:
            codec.mark_dirty(0, 1)
            basis = None
        for index, step in moves:
            index %= dimension
            clock[index] = min(max(clock[index] + step, 0), 2 ** 32 - 1)
        message = WriteRequest(request_id, "x", None, VectorClock(clock))
        frame = codec.encode(0, 1, message)
        assert codec.decode(0, 1, frame.data) == message
        moved = [new - old for old, new in zip(basis or clock, clock) if new != old]
        if basis is None or not all(-(2 ** 31) <= d < 2 ** 31 for d in moved):
            assert frame.stamp_entries == dimension
        elif 6 * len(moved) < 4 * dimension:
            assert frame.stamp_entries == len(moved)
        else:
            assert frame.stamp_entries == dimension
        basis = tuple(clock)


# ----------------------------------------------------------------------
# 3. Reconnect resync: a lost connection restarts every delta chain
# ----------------------------------------------------------------------
@settings(**COMMON)
@given(
    st.integers(min_value=2, max_value=8),      # dimension
    st.integers(min_value=1, max_value=20),     # messages before the loss
    st.integers(min_value=1, max_value=5),      # frames lost in flight
    st.integers(min_value=1, max_value=20),     # messages after reconnect
    st.integers(min_value=0, max_value=10_000),
)
def test_reconnect_gap_recovers_with_full_stamp(
    dimension, before, lost, after, seed
):
    """The live runtime's reconnect discipline, as a pure codec property.

    A connection dies with ``lost`` already-encoded frames buffered in
    the socket: the receiver never sees them (a channel_seq gap).  On
    reconnect the supervisor calls ``mark_dirty`` — after that, every
    post-reconnect message must decode despite the gap, the first one
    must carry a full stamp, and the delta chain must resume (second
    and later frames shrink back below the dimension)."""
    import random

    from repro.clocks import VectorClock
    from repro.protocols.messages import WriteRequest
    from repro.protocols.wire import WireCodec

    rng = random.Random(seed)
    codec = WireCodec()
    clock = [0] * dimension

    def next_message(request_id):
        clock[rng.randrange(dimension)] += 1
        return WriteRequest(
            request_id=request_id, location="x", value=request_id,
            stamp=VectorClock(tuple(clock)),
        )

    for i in range(before):
        frame = codec.encode(0, 1, next_message(i))
        assert codec.decode(0, 1, frame.data) is not None

    # Connection loss: these frames were encoded (the delta chain moved
    # on) but never reach the receiver.
    for i in range(lost):
        codec.encode(0, 1, next_message(before + i))
    codec.mark_dirty(0, 1)  # the reconnect supervisor's contract

    full_before = codec.stamps_full
    for i in range(after):
        message = next_message(before + lost + i)
        frame = codec.encode(0, 1, message)
        if i == 0:
            assert frame.stamp_entries == dimension  # full resync stamp
        decoded = codec.decode(0, 1, frame.data)  # gap present; must not raise
        assert decoded == message
    assert codec.stamps_full > full_before
    if after > 1:
        # The chain resumed: deltas carry only the changed component.
        assert frame.stamp_entries <= 1


@settings(**COMMON)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=10_000),
)
def test_unsynced_reconnect_without_mark_dirty_desyncs(dimension, lost, seed):
    """The converse: skipping ``mark_dirty`` after a loss is unsound —
    the first post-gap delta must raise, which is exactly why the live
    supervisor dirties the channel on every connection loss."""
    import random

    import pytest as _pytest

    from repro.clocks import VectorClock
    from repro.protocols.messages import WriteRequest
    from repro.protocols.wire import WireCodec, WireDesyncError

    rng = random.Random(seed)
    codec = WireCodec()
    clock = [0] * dimension

    def next_message(request_id):
        clock[rng.randrange(dimension)] += 1
        return WriteRequest(
            request_id=request_id, location="x", value=request_id,
            stamp=VectorClock(tuple(clock)),
        )

    codec.decode(0, 1, codec.encode(0, 1, next_message(0)).data)
    for i in range(lost):
        codec.encode(0, 1, next_message(1 + i))
    tail = codec.encode(0, 1, next_message(1 + lost))
    if tail.stamp_entries < dimension:  # genuinely a delta frame
        with _pytest.raises(WireDesyncError):
            codec.decode(0, 1, tail.data)
