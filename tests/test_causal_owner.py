"""Unit tests for the causal owner protocol (Figure 4) — faithfulness."""

from dataclasses import fields

import pytest

from repro.checker import check_causal
from repro.clocks import VectorClock
from repro.errors import ProtocolError
from repro.memory import Namespace
from repro.protocols.base import DSMCluster
from repro.protocols.policies import LastWriterWins, OwnerFavoured
from repro.sim.latency import PerLinkLatency
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
        """Whatever was merged while the reply was in flight: nothing, a
        served write's stamp, an own operation's."""
        from repro.protocols.messages import EntryPayload, ReadReply

        for merged in ((), (False,), (True,)):
            cluster = two_node_cluster()
            node1 = cluster.nodes[1]
            node1.read("x")  # a miss: the request is now in flight
            (request_id,) = node1._pending_reads
            for own in merged:
                node1._note_stamp(VectorClock((3, 0)), own=own)
            stamp = VectorClock((1, 0))
            reply = ReadReply(
                request_id=request_id, location="x",
                entries=(EntryPayload("z", 1, stamp, writer=0),), stamp=stamp,
            )
            with pytest.raises(
                ProtocolError, match=rf"node 1.*{request_id}.*'x'"
            ):
                node1.handle_message(0, reply)


class TestInFlightReplay:
    """What happens to an R_REPLY that missed a sweep while it travelled
    (DESIGN.md §4.2): x owned by node 0, y by node 1, z by node 2, and
    the link node 0 -> node 1 is slow, so node 1's reply for x is still
    out when the stamp that overtakes it arrives."""

    @staticmethod
    def cluster(**kwargs):
        namespace = Namespace.explicit(3, {"x": 0, "y": 1, "z": 2})
        latency = PerLinkLatency(default=1.0, links={(0, 1): 10.0})
        return DSMCluster(
            3, protocol="causal", namespace=namespace, latency=latency,
            **kwargs,
        )

    @staticmethod
    def reader(results):
        """r(x); node 1's copy of x and the READs sent so far; r(x)."""
        def process(api):
            results.append((yield api.read("x")))
            results.append(api.store.get("x"))
            results.append(api.network.stats.by_kind["READ"])
            results.append((yield api.read("x")))
        return process

    def test_overtaken_by_a_served_write_is_returned_uncached(self):
        cluster = self.cluster()
        node1 = cluster.nodes[1]
        results = []

        def writer(api):
            yield sleep(cluster.sim, 2.0)  # node 0 has replied x = 0
            yield api.write("x", 2)
            yield api.write("y", 3)  # served by node 1 at t = 5

        cluster.spawn(1, self.reader(results))
        cluster.spawn(2, writer)
        cluster.run()
        # One round trip; the line is dropped, not the read; the next
        # read misses and fetches what overtook it.
        assert results == [0, None, 1, 2]
        assert cluster.stats.by_kind["R_REPLY"] == 2
        assert (node1.overtaken_reads, node1.stale_read_retries) == (1, 0)
        assert node1.stats.remote_reads == 2
        assert check_causal(cluster.history()).ok

    def test_overtaken_by_an_own_write_ack_is_re_requested(self):
        """Case (b): a second task's W_REPLY lands while the first task's
        read is out; its stamp dominates the initial x."""
        cluster = self.cluster()
        node1 = cluster.nodes[1]
        results = []

        def second_task(api):
            yield api.write("z", 9)  # W_REPLY at t = 2, stamp (0, 1, 0)

        cluster.spawn(1, self.reader(results))
        cluster.spawn(1, second_task)
        cluster.run()
        value, cached, reads, again = results
        assert (value, cached.value, reads, again) == (0, 0, 2, 0)
        assert (node1.overtaken_reads, node1.stale_read_retries) == (0, 1)

    def test_overtaken_by_a_second_tasks_reply_is_re_requested(self):
        cluster = self.cluster()
        node1 = cluster.nodes[1]
        results = []
        run_ops(cluster, 2, [("w", "z", 5)])

        def second_task(api):
            yield api.read("z")  # R_REPLY at t = 2, stamp (0, 0, 1)

        cluster.spawn(1, self.reader(results))
        cluster.spawn(1, second_task)
        cluster.run()
        value, cached, reads, again = results
        assert (value, cached.value, reads, again) == (0, 0, 3, 0)
        assert (node1.overtaken_reads, node1.stale_read_retries) == (0, 1)

    def test_a_second_tasks_hit_turns_served_stamps_into_own(self):
        """Serving w(y)3 alone would return x = 0 uncached; a second task
        then *reading* y puts w(x)2 in the causal past of the waiting
        read, which must not return 0 after it."""
        cluster = self.cluster()
        node1 = cluster.nodes[1]
        results = []

        def writer(api):
            yield sleep(cluster.sim, 2.0)
            yield api.write("x", 2)
            yield api.write("y", 3)

        def second_task(api):
            yield sleep(cluster.sim, 6.0)
            results.append((yield api.read("y")))

        cluster.spawn(1, self.reader(results))
        cluster.spawn(2, writer)
        cluster.spawn(1, second_task)
        cluster.run()
        assert results[:2] == [3, 2]  # r(y)3, then r(x)2 on the second ask
        assert results[3] == 2  # two READs for the one r(x)
        assert (node1.overtaken_reads, node1.stale_read_retries) == (0, 1)
        assert check_causal(cluster.history()).ok

    def test_not_overtaken_is_installed(self):
        """A concurrent stamp merged in flight kills nothing."""
        cluster = self.cluster()
        node1 = cluster.nodes[1]
        results = []
        run_ops(cluster, 0, [("w", "x", 1)])  # x carries stamp (1, 0, 0)

        def writer(api):
            yield sleep(cluster.sim, 2.0)
            yield api.write("y", 3)  # stamp (0, 0, 1): concurrent with x's

        cluster.spawn(1, self.reader(results))
        cluster.spawn(2, writer)
        cluster.run()
        value, cached, reads, again = results
        assert (value, cached.value, reads, again) == (1, 1, 1, 1)
        assert cluster.stats.by_kind["READ"] == 1  # the re-read hit
        assert (node1.overtaken_reads, node1.stale_read_retries) == (0, 0)

    def test_overtaken_write_ack_completes_the_write_uncached(self):
        """The same window on the write side: node 1's W_REPLY for x is
        out when it serves w(y)3, which follows the w(x)2 the owner
        applied over it.  Cached, x = 1 would be re-read after r(y)3."""
        from repro.obs.collector import TraceCollector

        cluster = self.cluster()
        collector = TraceCollector()
        cluster.attach_obs(collector)
        node1 = cluster.nodes[1]
        results = []

        def writer(api):
            yield sleep(cluster.sim, 2.0)  # node 0 has certified x = 1
            yield api.write("x", 2)
            yield api.write("y", 3)  # served by node 1 at t = 5

        def process(api):
            results.append((yield api.write("x", 1)).applied)
            results.append(api.store.get("x"))
            results.append((yield api.read("y")))
            results.append((yield api.read("x")))

        cluster.spawn(1, process)
        cluster.spawn(2, writer)
        cluster.run()
        assert results == [True, None, 3, 2]
        assert (node1.overtaken_writes, node1.overtaken_reads) == (1, 0)
        (event,) = [e for e in collector.events if e.name == "write.overtaken"]
        assert (event.node, event.args["location"]) == (1, "x")
        assert check_causal(cluster.history()).ok

    @pytest.mark.parametrize("own", [False, True])
    def test_events_say_why_the_line_was_not_cached(self, own):
        from repro.obs.collector import TraceCollector
        from repro.protocols.messages import EntryPayload, ReadReply

        cluster = self.cluster()
        collector = TraceCollector()
        cluster.attach_obs(collector)
        node1 = cluster.nodes[1]
        node1.read("x")
        (request_id,) = node1._pending_reads
        dominating, zero = VectorClock((0, 0, 4)), VectorClock.zero(3)
        node1._note_stamp(dominating, own=own)
        node1.handle_message(0, ReadReply(
            request_id=request_id, location="x",
            entries=(EntryPayload("x", 0, zero, writer=-1),), stamp=zero,
        ))
        (event,) = [
            e for e in collector.events if e.name.startswith("read.")
        ]
        assert event.name == ("read.stale_retry" if own else "read.overtaken")
        assert event.args["location"] == "x"
        assert tuple(event.args["requested_stamp"]) == tuple(zero)
        assert tuple(event.args["dominating"]) == tuple(dominating)


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
