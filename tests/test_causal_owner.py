"""Unit tests for the causal owner protocol (Figure 4) — faithfulness."""

from dataclasses import fields

import pytest

from repro.checker import check_causal
from repro.clocks import VectorClock
from repro.errors import ProtocolError
from repro.memory import Namespace
from repro.protocols.base import DSMCluster
from repro.protocols.policies import LastWriterWins, OwnerFavoured
from repro.sim.tasks import sleep


def two_node_cluster(**kwargs):
    """x owned by node 0, y owned by node 1."""
    namespace = Namespace.explicit(2, {"x": 0, "y": 1, "z": 0})
    return DSMCluster(2, protocol="causal", namespace=namespace, **kwargs)


def run_ops(cluster, node_id, ops):
    """Run a list of ("r"/"w"/"d", loc[, value]) ops; return results."""
    results = []

    def process(api):
        for op in ops:
            if op[0] == "r":
                results.append((yield api.read(op[1])))
            elif op[0] == "w":
                results.append((yield api.write(op[1], op[2])))
            else:
                results.append(api.discard(op[1]))

    cluster.spawn(node_id, process)
    cluster.run()
    return results


class TestLocalOperations:
    def test_owner_read_is_local_and_free(self):
        cluster = two_node_cluster()
        values = run_ops(cluster, 0, [("r", "x")])
        assert values == [0]
        assert cluster.stats.total == 0
        assert cluster.nodes[0].stats.local_read_hits == 1

    def test_owner_write_is_local_and_free(self):
        cluster = two_node_cluster()
        run_ops(cluster, 0, [("w", "x", 7), ("r", "x")])
        assert cluster.stats.total == 0
        assert cluster.nodes[0].stats.local_writes == 1

    def test_owner_write_increments_own_component(self):
        cluster = two_node_cluster()
        run_ops(cluster, 0, [("w", "x", 7)])
        assert cluster.nodes[0].vt == VectorClock((1, 0))


class TestRemoteRead:
    def test_miss_costs_exactly_two_messages(self):
        cluster = two_node_cluster()
        values = run_ops(cluster, 1, [("r", "x")])
        assert values == [0]
        assert cluster.stats.total == 2
        assert cluster.stats.by_kind == {"READ": 1, "R_REPLY": 1}

    def test_second_read_hits_cache(self):
        cluster = two_node_cluster()
        run_ops(cluster, 1, [("r", "x"), ("r", "x")])
        assert cluster.stats.total == 2
        assert cluster.nodes[1].stats.local_read_hits == 1

    def test_reader_merges_writestamp(self):
        cluster = two_node_cluster()

        def writer(api):
            yield api.write("x", 1)

        def reader(api):
            yield sleep(cluster.sim, 5.0)
            value = yield api.read("x")
            return value

        cluster.spawn(0, writer)
        task = cluster.spawn(1, reader)
        cluster.run()
        assert task.result() == 1
        assert cluster.nodes[1].vt == VectorClock((1, 0))

    def test_read_miss_blocks_until_reply(self):
        cluster = two_node_cluster()
        times = []

        def reader(api):
            value = yield api.read("x")
            times.append(cluster.sim.now)

        cluster.spawn(1, reader)
        cluster.run()
        assert times == [2.0]  # one round trip at unit latency
        assert cluster.nodes[1].stats.blocked_time == 2.0


class TestRemoteWrite:
    def test_certification_costs_two_messages(self):
        cluster = two_node_cluster()
        run_ops(cluster, 1, [("w", "x", 9)])
        assert cluster.stats.by_kind == {"WRITE": 1, "W_REPLY": 1}

    def test_owner_and_writer_store_identical_stamp(self):
        cluster = two_node_cluster()
        run_ops(cluster, 1, [("w", "x", 9)])
        at_owner = cluster.nodes[0].store.get("x")
        at_writer = cluster.nodes[1].store.get("x")
        assert at_owner.value == at_writer.value == 9
        assert at_owner.stamp == at_writer.stamp
        assert at_owner.writer == 1

    def test_write_outcome_applied(self):
        cluster = two_node_cluster()
        outcomes = run_ops(cluster, 1, [("w", "x", 9)])
        assert outcomes[0].applied is True
        assert outcomes[0].value == 9


class TestInvalidationSweep:
    def test_read_reply_invalidates_older_cached_values(self):
        # Node 1 caches x (old), then node 0 writes y' and x'... classic
        # flag pattern: node1 caches x=0; node0 writes x=1 then y=1;
        # node1 reads y (sees 1, introduced) -> cached x must die.
        namespace = Namespace.explicit(2, {"x": 0, "y": 0})
        cluster = DSMCluster(2, protocol="causal", namespace=namespace)

        def writer(api):
            yield sleep(cluster.sim, 5.0)
            yield api.write("x", 1)
            yield api.write("y", 1)

        observed = []

        def reader(api):
            observed.append((yield api.read("x")))  # 0, cached
            yield sleep(cluster.sim, 10.0)
            observed.append((yield api.read("y")))  # 1, sweeps x
            observed.append((yield api.read("x")))  # must re-fetch -> 1

        cluster.spawn(0, writer)
        cluster.spawn(1, reader)
        cluster.run()
        assert observed == [0, 1, 1]
        assert cluster.nodes[1].store.invalidation_count == 1

    def test_write_service_sweeps_owner_cache(self):
        # Owner (node 0) caches y; node 1 writes y... no -- node 1 sends
        # a WRITE for x (owned by 0) carrying a stamp that dominates
        # node 0's cached copy of y.
        namespace = Namespace.explicit(2, {"x": 0, "y": 1})
        cluster = DSMCluster(2, protocol="causal", namespace=namespace)

        def owner(api):
            yield api.read("y")  # cache y = 0
            yield sleep(cluster.sim, 20.0)
            value = yield api.read("y")
            return value

        def remote(api):
            yield sleep(cluster.sim, 5.0)
            yield api.write("y", 5)   # local: y stamp now dominates
            yield api.write("x", 6)   # remote WRITE carries that stamp
            return None

        owner_task = cluster.spawn(0, owner)
        cluster.spawn(1, remote)
        cluster.run()
        # Owner's cached y=0 was swept when it serviced the WRITE; its
        # later read re-fetched the fresh value.
        assert owner_task.result() == 5

    def test_writer_does_not_sweep_on_reply(self):
        """Faithful to Figure 4: no invalidation at the writer when the
        W_REPLY arrives — its cached entries stay live."""
        namespace = Namespace.explicit(2, {"x": 0, "y": 0, "z": 1})
        cluster = DSMCluster(2, protocol="causal", namespace=namespace)

        def owner(api):
            yield api.write("y", 3)  # advance owner's clock

        def writer(api):
            yield api.read("x")       # cache x=0 with zero stamp
            yield sleep(cluster.sim, 10.0)
            yield api.write("z", 1)   # local write, bumps own clock
            yield api.write("x", 2)   # certified by owner (merged clock)
            # cached y?? -- writer has only x cached; it must survive:
            value = yield api.read("x")
            return value

        cluster.spawn(0, owner)
        task = cluster.spawn(1, writer)
        cluster.run()
        assert task.result() == 2
        # No invalidations ever happened at the writer.
        assert cluster.nodes[1].store.invalidation_count == 0

    def test_read_only_locations_survive(self):
        namespace = Namespace.explicit(
            2, {"A[0]": 0, "x": 0, "flag": 0}, read_only=("A[",)
        )
        cluster = DSMCluster(2, protocol="causal", namespace=namespace)

        def owner(api):
            yield api.write("A[0]", 1.5)
            yield sleep(cluster.sim, 10.0)
            yield api.write("flag", 1)

        reads = []

        def reader(api):
            yield sleep(cluster.sim, 5.0)
            reads.append((yield api.read("A[0]")))
            yield sleep(cluster.sim, 10.0)
            reads.append((yield api.read("flag")))  # sweeps non-read-only
            before = cluster.stats.total
            reads.append((yield api.read("A[0]")))  # still cached!
            assert cluster.stats.total == before

        cluster.spawn(0, owner)
        cluster.spawn(1, reader)
        cluster.run()
        assert reads == [1.5, 1, 1.5]


class TestDiscard:
    def test_discard_forces_refetch(self):
        cluster = two_node_cluster()
        run_ops(cluster, 1, [("r", "x"), ("d", "x"), ("r", "x")])
        assert cluster.stats.total == 4  # two misses

    def test_discard_unowned_uncached_false(self):
        cluster = two_node_cluster()
        results = run_ops(cluster, 1, [("d", "x")])
        assert results == [False]

    def test_discard_owned_is_refused(self):
        cluster = two_node_cluster()
        results = run_ops(cluster, 0, [("d", "x")])
        assert results == [False]

    def test_discard_all(self):
        cluster = two_node_cluster()

        def process(api):
            yield api.read("x")
            yield api.read("z")
            return api.discard_all()

        task = cluster.spawn(1, process)
        cluster.run()
        assert task.result() == 2


class TestConflictPolicies:
    def _race(self, policy):
        """Owner writes x, then a concurrent remote write arrives."""
        namespace = Namespace.explicit(2, {"x": 0})
        cluster = DSMCluster(
            2, protocol="causal", namespace=namespace, policy=policy
        )

        def owner(api):
            yield api.write("x", "owner-value")

        def remote(api):
            outcome = yield api.write("x", "remote-value")
            return outcome

        cluster.spawn(0, owner)
        task = cluster.spawn(1, remote)
        cluster.run()
        return cluster, task.result()

    def test_last_writer_wins_applies_concurrent_write(self):
        cluster, outcome = self._race(LastWriterWins())
        assert outcome.applied is True
        assert cluster.nodes[0].store.get("x").value == "remote-value"

    def test_owner_favoured_rejects_concurrent_write(self):
        cluster, outcome = self._race(OwnerFavoured())
        assert outcome.applied is False
        assert outcome.value == "owner-value"  # the surviving value
        assert cluster.nodes[0].store.get("x").value == "owner-value"
        assert cluster.nodes[1].stats.rejected_writes == 1

    def test_rejected_writer_caches_survivor(self):
        cluster, _ = self._race(OwnerFavoured())
        cached = cluster.nodes[1].store.get("x")
        assert cached.value == "owner-value"
        assert cached.writer == 0

    def test_owner_favoured_accepts_dominating_write(self):
        namespace = Namespace.explicit(2, {"x": 0})
        cluster = DSMCluster(
            2, protocol="causal", namespace=namespace, policy=OwnerFavoured()
        )

        def owner(api):
            yield api.write("x", "old")

        def remote(api):
            yield sleep(cluster.sim, 5.0)
            yield api.read("x")  # now causally after the owner's write
            outcome = yield api.write("x", "new")
            return outcome

        cluster.spawn(0, owner)
        task = cluster.spawn(1, remote)
        cluster.run()
        assert task.result().applied is True
        assert cluster.nodes[0].store.get("x").value == "new"

    def test_rejected_history_still_causal(self):
        cluster, _ = self._race(OwnerFavoured())
        assert check_causal(cluster.history()).ok


class TestNoCacheMode:
    def test_every_read_is_remote(self):
        namespace = Namespace.explicit(2, {"x": 0})
        cluster = DSMCluster(
            2, protocol="causal", namespace=namespace, no_cache=True
        )
        run_ops(cluster, 1, [("r", "x"), ("r", "x"), ("r", "x")])
        assert cluster.stats.count("READ") == 3

    def test_owned_reads_still_local(self):
        namespace = Namespace.explicit(2, {"x": 0})
        cluster = DSMCluster(
            2, protocol="causal", namespace=namespace, no_cache=True
        )
        run_ops(cluster, 0, [("r", "x")])
        assert cluster.stats.total == 0


class TestPageGranularity:
    def make_cluster(self):
        base = Namespace.array_paged(2, page_size=2)
        namespace = Namespace(
            2, owner_fn=lambda unit: 0, unit_fn=base._unit_fn
        )
        return DSMCluster(2, protocol="causal", namespace=namespace)

    def test_read_miss_fetches_whole_unit(self):
        cluster = self.make_cluster()

        def owner(api):
            yield api.write("v[0]", 10)
            yield api.write("v[1]", 11)

        def reader(api):
            yield sleep(cluster.sim, 5.0)
            first = yield api.read("v[0]")   # miss: fetches the page
            before = cluster.stats.total
            second = yield api.read("v[1]")  # same page: hit
            assert cluster.stats.total == before
            return (first, second)

        cluster.spawn(0, owner)
        task = cluster.spawn(1, reader)
        cluster.run()
        assert task.result() == (10, 11)

    def test_unit_invalidated_as_a_whole(self):
        cluster = self.make_cluster()

        def owner(api):
            yield api.write("v[0]", 10)
            yield api.write("v[1]", 11)
            yield sleep(cluster.sim, 10.0)
            yield api.write("v[0]", 20)
            yield api.write("flag", 1)

        def reader(api):
            yield sleep(cluster.sim, 5.0)
            yield api.read("v[0]")
            yield sleep(cluster.sim, 10.0)
            yield api.read("flag")          # introduces newer stamp
            value = yield api.read("v[1]")  # whole page was swept
            return value

        cluster.spawn(0, owner)
        task = cluster.spawn(1, reader)
        cluster.run()
        assert task.result() == 11
        assert cluster.nodes[1].store.invalidation_count >= 2


class TestProtocolErrors:
    def test_read_request_to_non_owner_rejected(self):
        from repro.protocols.messages import ReadRequest

        cluster = two_node_cluster()
        node1 = cluster.nodes[1]  # does not own x
        with pytest.raises(ProtocolError):
            node1.handle_message(
                0, ReadRequest(request_id=1, location="x", unit="x")
            )

    def test_unexpected_message_rejected(self):
        cluster = two_node_cluster()
        with pytest.raises(ProtocolError):
            cluster.nodes[0].handle_message(1, object())

    def test_read_reply_nobody_asked_for_rejected(self):
        from repro.protocols.messages import ReadReply

        cluster = two_node_cluster()
        stray = ReadReply(
            request_id=99, location="x", entries=(),
            stamp=VectorClock.zero(2),
        )
        with pytest.raises(ProtocolError, match=r"node 1 .*99.*'x'"):
            cluster.nodes[1].handle_message(0, stray)

    def test_write_reply_nobody_asked_for_rejected(self):
        from repro.protocols.messages import WriteReply

        cluster = two_node_cluster()
        node1 = cluster.nodes[1]
        before = node1.vt
        stray = WriteReply(
            request_id=7, location="x", value=1, stamp=VectorClock((5, 0)),
        )
        with pytest.raises(ProtocolError, match=r"node 1 .*7.*'x'"):
            node1.handle_message(0, stray)
        assert node1.vt == before  # nothing merged before the check

    def test_write_reply_answered_twice_rejected(self):
        from repro.protocols.messages import WriteReply

        cluster = two_node_cluster()
        node1 = cluster.nodes[1]
        done = node1.write("x", 4)
        (request_id,) = node1._pending_writes
        cluster.run()
        assert done.result().applied and not node1._pending_writes
        again = WriteReply(
            request_id=request_id, location="x", value=4, stamp=node1.vt,
        )
        with pytest.raises(
            ProtocolError, match=rf"node 1 .*{request_id}.*'x'"
        ):
            node1.handle_message(0, again)

    def test_only_figure_4s_four_kinds_are_handled(self):
        """Every other registered wire type is refused, none ignored."""
        from repro.protocols.messages import (
            ReadReply, ReadRequest, WriteReply, WriteRequest,
        )
        from repro.protocols.wire import cost_table

        node = two_node_cluster().nodes[0]
        foreign = set(cost_table()) - {
            ReadRequest, ReadReply, WriteRequest, WriteReply,
        }
        assert len(foreign) == 16
        filler = dict(
            request_id=1, seq=1, location="x", value=1, writer=0, sender=0,
            requester=0, owner=0, copyset=(), stamp=VectorClock.zero(2),
        )
        for cls in foreign:
            message = cls(**{f.name: filler[f.name] for f in fields(cls)})
            with pytest.raises(ProtocolError, match="unexpected"):
                node.handle_message(1, message)

    def test_read_reply_lacking_the_location_rejected(self):
        """Also when a stamp was merged while the reply was in flight."""
        from repro.protocols.messages import EntryPayload, ReadReply

        cluster = two_node_cluster()
        node1 = cluster.nodes[1]
        node1.read("x")  # a miss: the request is now in flight
        (request_id,) = node1._pending_reads
        node1._note_stamp(VectorClock((3, 0)))  # non-empty flight log
        stamp = VectorClock((1, 0))
        reply = ReadReply(
            request_id=request_id, location="x",
            entries=(EntryPayload("z", 1, stamp, writer=0),), stamp=stamp,
        )
        with pytest.raises(
            ProtocolError, match=rf"node 1.*{request_id}.*'x'"
        ):
            node1.handle_message(0, reply)


class TestWatch:
    def test_watch_resolves_on_owner_write(self):
        cluster = two_node_cluster()
        seen = []

        def observer(api):
            value = yield cluster.watch("x", lambda v: v == 3)
            seen.append((value, cluster.sim.now))

        def writer(api):
            yield sleep(cluster.sim, 4.0)
            yield api.write("x", 3)

        cluster.spawn(1, observer)
        cluster.spawn(0, writer)
        cluster.run()
        assert seen == [(3, 4.0)]

    def test_watch_immediate_when_already_true(self):
        cluster = two_node_cluster()

        def process(api):
            yield api.write("x", 3)
            value = yield cluster.watch("x", lambda v: v == 3)
            return value

        task = cluster.spawn(0, process)
        cluster.run()
        assert task.result() == 3

    def test_watch_exchanges_no_messages(self):
        cluster = two_node_cluster()

        def observer(api):
            yield cluster.watch("x", lambda v: v == 1)

        def writer(api):
            yield sleep(cluster.sim, 2.0)
            yield api.write("x", 1)

        cluster.spawn(1, observer)
        cluster.spawn(0, writer)
        cluster.run()
        assert cluster.stats.total == 0
