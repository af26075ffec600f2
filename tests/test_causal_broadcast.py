"""Unit tests for the ISIS-style causal-broadcast memory (Figure 3)."""

import hashlib

import pytest

from repro.checker import check_causal
from repro.errors import ProtocolError
from repro.protocols.base import DSMCluster
from repro.sim.latency import PerLinkLatency
from repro.sim.tasks import sleep


def make_cluster(n=3, latency=None, seed=0):
    return DSMCluster(n, protocol="broadcast", latency=latency, seed=seed)


class TestLocalSemantics:
    def test_reads_and_writes_are_local(self):
        cluster = make_cluster(2)

        def process(api):
            yield api.write("x", 1)
            return (yield api.read("x"))

        task = cluster.spawn(0, process)
        cluster.run()
        assert task.result() == 1

    def test_write_broadcasts_to_all_others(self):
        cluster = make_cluster(4)

        def process(api):
            yield api.write("x", 1)

        cluster.spawn(0, process)
        cluster.run()
        assert cluster.stats.count("CB_WRITE") == 3

    def test_replicas_converge_after_delivery(self):
        cluster = make_cluster(3)

        def process(api):
            yield api.write("x", 7)

        cluster.spawn(0, process)
        cluster.run()
        for node in cluster.nodes:
            assert node.replica_value("x") == 7

    def test_discard_is_noop(self):
        cluster = make_cluster(2)
        assert cluster.nodes[0].discard("x") is False

    def test_unknown_message_rejected(self):
        cluster = make_cluster(2)
        with pytest.raises(ProtocolError):
            cluster.nodes[0].handle_message(1, object())


class TestCausalDelivery:
    def test_out_of_causal_order_messages_held_back(self):
        # P0's second write depends on nothing; but make P1 observe
        # P0's writes in order even when the first is slow: the CBCAST
        # rule must hold back write #2 until write #1 arrives.
        latency = PerLinkLatency(default=1.0)
        cluster = make_cluster(2, latency=latency)
        deliveries = []
        node1 = cluster.nodes[1]
        original_apply = node1._apply

        def spying_apply(msg):
            deliveries.append((msg.location, msg.value))
            original_apply(msg)

        node1._apply = spying_apply

        def writer(api):
            latency.set_link(0, 1, 10.0)   # first message: slow
            yield api.write("a", 1)
            latency.set_link(0, 1, 1.0)    # second message: fast
            yield api.write("b", 2)

        cluster.spawn(0, writer)
        # FIFO clamping would also order these; use sends from distinct
        # channels to truly exercise the vector rule:
        cluster.run()
        assert deliveries == [("a", 1), ("b", 2)]

    def test_transitive_causality_across_nodes(self):
        # P0 writes x; P1 sees x then writes y; P2 must never apply y
        # before x even if P1->P2 is fast and P0->P2 is slow.
        latency = PerLinkLatency(default=1.0, links={(0, 2): 20.0})
        cluster = make_cluster(3, latency=latency)
        deliveries = []
        node2 = cluster.nodes[2]
        original_apply = node2._apply

        def spying_apply(msg):
            deliveries.append((msg.location, msg.value))
            original_apply(msg)

        node2._apply = spying_apply

        def p0(api):
            yield api.write("x", 1)

        def p1(api):
            yield api.watch("x", lambda v: v == 1)
            yield api.read("x")
            yield api.write("y", 2)

        cluster.spawn(0, p0)
        cluster.spawn(1, p1)
        cluster.run()
        assert deliveries == [("x", 1), ("y", 2)]
        assert cluster.nodes[2].held_back_count == 0

    def test_held_back_counter_while_waiting(self):
        latency = PerLinkLatency(default=1.0, links={(0, 2): 20.0})
        cluster = make_cluster(3, latency=latency)

        def p0(api):
            yield api.write("x", 1)

        def p1(api):
            yield api.watch("x", lambda v: v == 1)
            yield api.write("y", 2)

        cluster.spawn(0, p0)
        cluster.spawn(1, p1)
        cluster.run(until=10.0)
        # y's broadcast reached node 2 but is buffered awaiting x.
        assert cluster.nodes[2].held_back_count == 1
        assert cluster.nodes[2].replica_value("y") == 0


    def test_a_skipped_sender_sequence_number_is_held_until_the_gap_fills(self):
        """The strict CBCAST rule: ``stamp[sender] == delivered[sender] + 1``.

        Node 0's second broadcast reaches node 1 before its first.  Its
        other components are all delivered, so a rule that only asked
        for ``stamp[sender] > delivered[sender]`` would apply it.
        """
        from repro.clocks import VectorClock
        from repro.protocols.messages import BroadcastWrite

        node = make_cluster(2).nodes[1]
        first = BroadcastWrite(0, 1, "x", "old", VectorClock((1, 0)))
        second = BroadcastWrite(0, 2, "x", "new", VectorClock((2, 0)))
        node.handle_message(0, second)
        assert node.held_back_count == 1
        assert node.replica_value("x") == 0
        node.handle_message(0, first)
        assert node.held_back_count == 0
        assert node.replica_value("x") == "new"  # applied in sender order
        assert node.delivered == VectorClock((2, 0))


class TestHeldBackPile:
    """A burst that holds back far more than eight broadcasts.

    Node 0's broadcasts reach node 1 last (40x link delay) while the
    other writers — having already delivered them — keep broadcasting
    writes that causally depend on them; those pile up at node 1 and
    drain in one scan when node 0's arrive.  Writes are paced with
    sleeps: back-to-back broadcasts all launch at t=0, carry no
    cross-node dependencies, and nothing would be held back.

    The digests were taken at the commit that still had a vectorised
    twin of the delivery scan (engaged from eight held messages up);
    both agreed on them, so they pin the scan's order now that one scan
    is left.  Node 1 finishes its own reads before the pile drains, so
    the recorded history alone would not notice a reordered scan; the
    order in which node 1 applies the broadcasts does.
    """

    HISTORY = "52fac9852984a71f"
    APPLIED_AT_NODE_1 = "e8b1f533fa1ff35c"

    def test_pile_drains_in_the_pinned_order(self):
        latency = PerLinkLatency(default=1.0, links={(0, 1): 40.0})
        cluster = DSMCluster(5, protocol="broadcast", seed=9, latency=latency)
        node1 = cluster.nodes[1]
        applied = []
        peak_held = 0
        original_apply = node1._apply

        def spying_apply(msg):
            nonlocal peak_held
            peak_held = max(peak_held, node1.held_back_count)
            applied.append((msg.sender, msg.location, msg.value))
            original_apply(msg)

        node1._apply = spying_apply

        def writer(api, me):
            for i in range(16):
                yield api.write(f"loc{i % 3}", (me, i))
                yield api.read(f"loc{(i + me) % 3}")
                yield sleep(cluster.sim, 2.0)

        for node in range(5):
            cluster.spawn(node, writer, node)
        cluster.run()

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        assert peak_held > 8
        assert len(applied) == 4 * 16
        assert digest(repr(applied)) == self.APPLIED_AT_NODE_1
        assert digest(cluster.history().to_text()) == self.HISTORY


class TestFigure3Anomaly:
    def test_scenario_produces_non_causal_history(self):
        from repro.harness.scenarios import run_figure3_on_broadcast

        history = run_figure3_on_broadcast()
        assert not check_causal(history).ok

    def test_scenario_matches_paper_text(self, figure3):
        from repro.harness.scenarios import run_figure3_on_broadcast

        history = run_figure3_on_broadcast()
        assert history.to_text() == figure3.to_text()

    def test_divergent_final_replicas(self):
        # Concurrent writes applied in delivery order leave replicas
        # disagreeing — the root cause of the Figure 3 anomaly.
        from repro.harness.scenarios import run_figure3_on_broadcast
        # Reconstruct the cluster run to inspect replicas directly.
        cluster = make_cluster(3, seed=0)

        def p1(api):
            yield api.write("x", 5)

        def p2(api):
            yield api.write("x", 2)

        cluster.spawn(0, p1)
        cluster.spawn(1, p2)
        cluster.run()
        finals = {node.replica_value("x") for node in cluster.nodes}
        # Node 0 last applied 2 (arrives after its local 5); node 1 last
        # applied 5; a genuinely divergent outcome.
        assert finals == {2, 5}
