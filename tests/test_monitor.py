"""The streaming causal-consistency monitor (DESIGN.md §4.8).

Anchors the online monitor to the paper's acceptance scenarios: the
Figure 3 stream must be flagged at its first violating read with the
same verdict the offline checker reaches, the Figure 4 owner-protocol
run must pass while monitored live, GC must keep the window bounded on
communicating workloads, and a flagged violation must shrink to a
replayable FORMAT_VERSION-2 counterexample.
"""

import json

import pytest

from repro.checker import check_causal
from repro.checker.history import History
from repro.checker.live_values import LiveSetCache
from repro.errors import ReproError
from repro.mc.counterexample import Counterexample, replay
from repro.monitor import (
    CausalStreamMonitor,
    MonitorViolationError,
    attach_monitor,
    feed_history,
    feed_trace,
    violation_counterexample,
)
from repro.obs.collector import TraceCollector
from repro.obs.runs import run_traced_figure3, run_traced_figure4
from repro.protocols.base import DSMCluster

FIG3_TEXT = """
    P1: w(x)5 w(y)3
    P2: w(x)2 r(y)3 r(x)5 w(z)4
    P3: r(z)4 r(x)2
"""


def _verdict_map(history, **monitor_kwargs):
    """proc-index -> online ok for every read of ``history``."""
    verdicts = {}
    monitor = CausalStreamMonitor(
        len(history.processes),
        on_verdict=lambda v: verdicts.__setitem__(
            (v.op.proc, v.op.index), v.ok
        ),
        **monitor_kwargs,
    )
    result = feed_history(monitor, history)
    return verdicts, result


class TestFigureScenarios:
    def test_fig3_flags_first_violating_read(self):
        history = History.parse(FIG3_TEXT)
        verdicts, result = _verdict_map(history)
        offline = check_causal(history)
        assert not result.ok and not offline.ok
        # Same per-read verdicts as the offline checker, every read.
        for verdict in offline.verdicts:
            proc, index = verdict.read.op_id
            assert verdicts[(proc, index)] == verdict.ok
        # The first (and only) violation is P3's stale r(x)2.
        first = result.first_violation
        assert first is not None
        assert (first.op.proc, first.op.location, first.op.value) == (2, "x", 2)
        assert first.reason == "stale-source"
        assert "VIOLATION" in first.explain()
        # Evidence: the windowed alpha at that read excludes w(x)2.
        assert first.op.source not in first.live
        assert first.causal_past  # populated on violations

    def test_fig3_live_stream_flags_online(self):
        run = run_traced_figure3()
        monitor = CausalStreamMonitor(3)
        result = feed_trace(monitor, run.collector.to_jsonable())
        assert not result.ok
        assert result.first_violation.reason == "stale-source"
        # The traced run's recorded history agrees offline.
        assert not check_causal(run.history).ok

    def test_fig4_passes_live_attached(self):
        collector = TraceCollector()
        run = run_traced_figure4(collector=collector)
        monitor = CausalStreamMonitor(3)
        result = feed_trace(monitor, collector.to_jsonable())
        assert result.ok
        assert result.reads_checked == len(run.history.reads())
        assert check_causal(run.history).ok

    def test_strict_mode_raises_on_first_violation(self):
        history = History.parse(FIG3_TEXT)
        monitor = CausalStreamMonitor(3, raise_on_violation=True)
        with pytest.raises(MonitorViolationError) as excinfo:
            feed_history(monitor, history)
        assert excinfo.value.verdict.reason == "stale-source"


class TestLiveAttachment:
    def _fig4_cluster(self):
        from repro.memory import Namespace
        from repro.sim.tasks import sleep

        namespace = Namespace.explicit(3, {"x": 0, "y": 1, "z": 2})
        cluster = DSMCluster(n_nodes=3, protocol="causal", namespace=namespace)

        def p0(api):
            yield sleep(cluster.sim, 2.0)
            yield api.write("x", 1)
            yield api.write("y", 1)

        def p1(api):
            yield api.read("x")

        def p2(api):
            yield api.read("x")
            yield sleep(cluster.sim, 6.0)
            yield api.read("y")
            yield api.read("x")

        cluster.spawn(0, p0)
        cluster.spawn(1, p1)
        cluster.spawn(2, p2)
        return cluster

    def test_attach_monitor_judges_while_running(self):
        cluster = self._fig4_cluster()
        subscription = attach_monitor(cluster)
        cluster.run()
        result = subscription.result()
        assert result.ok
        assert result.reads_checked == 4
        # Kernel ticks since attach, from the kernel's own counter.
        assert subscription.kernel_events == cluster.sim.events_processed > 0

    def test_detach_stops_delivery(self):
        cluster = self._fig4_cluster()
        subscription = attach_monitor(cluster)
        subscription.detach()
        cluster.run()
        assert subscription.result().ops_processed == 0
        # Detach leaves no subscriber behind: on the metrics-only
        # collector every kind is unwanted again (still counted).
        obs = cluster.obs
        assert obs.metrics.count_of("proto.op.commit") > 0
        assert not obs.wants("proto", "op.commit")
        assert not obs.wants("kernel", "execute")

    def test_monitor_gauges_populated(self):
        cluster = self._fig4_cluster()
        subscription = attach_monitor(cluster)
        cluster.run()
        result = subscription.result()
        registry = subscription.monitor.metrics
        assert registry is cluster.obs.metrics
        assert registry.counter("monitor.ops").value == result.ops_processed
        assert registry.gauge("monitor.window_ops").value == (
            subscription.monitor.window_size()
        )
        assert registry.gauge("monitor.frontier_width").value >= 0


class TestDemandDrivenDifferential:
    """What a run does, counts and is judged to be must not depend on
    which of its events anybody asked to see."""

    @staticmethod
    def _run(monkeypatch, protocol, keep_events, monitored):
        import repro.apps.workload as workload

        captured = []

        class Observed(DSMCluster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.attach_obs(TraceCollector(keep_events=keep_events))
                self.verdicts = []
                if monitored:
                    attach_monitor(self, on_verdict=lambda v: self.verdicts.append(
                        (v.op.proc, v.op.index, v.ok)
                    ))
                captured.append(self)

        monkeypatch.setattr(workload, "DSMCluster", Observed)
        outcome = workload.run_random_execution(workload.WorkloadConfig(
            n_nodes=4, n_locations=6, ops_per_proc=60,
            protocol=protocol, seed=1991,
        ))
        (cluster,) = captured
        counters = {
            name: metric.value
            for name, metric in cluster.obs.metrics.counters.items()
            if not name.startswith("monitor.")
        }
        return outcome.history, counters, cluster

    @pytest.mark.parametrize("protocol", ["causal", "broadcast"])
    def test_same_run_same_counts_same_verdicts(self, monkeypatch, protocol):
        from repro.checker import history_fingerprint

        history, counters, full = self._run(
            monkeypatch, protocol, True, monitored=True
        )
        assert len(full.obs.events) == sum(counters.values())
        offline = check_causal(history)
        for keep_events, monitored in ((False, False), (False, True)):
            other_history, other_counters, other = self._run(
                monkeypatch, protocol, keep_events, monitored
            )
            assert history_fingerprint(other_history) == (
                history_fingerprint(history)
            )
            assert other_counters == counters
            assert other.obs.events == []
            if monitored:
                assert other.verdicts == full.verdicts
                assert len(other.verdicts) == len(history.reads())
                assert all(ok for _, _, ok in other.verdicts) == offline.ok


    def test_fig3_flagged_identically_on_a_metrics_only_collector(self):
        flagged = []
        for keep_events in (True, False):
            collector = TraceCollector(keep_events=keep_events)
            monitor = CausalStreamMonitor(3)
            collector.subscribe(
                monitor.observe, category="proto", name="op.commit"
            )
            run_traced_figure3(collector=collector)
            result = monitor.result()
            assert not result.ok
            flagged.append([
                (v.op.proc, v.op.index, v.reason) for v in result.violations
            ])
        assert flagged[0] == flagged[1] != []


class TestWindowAndGC:
    def _communicating_cluster(self, rounds=40):
        # Two nodes ping-ponging through shared locations, each waiting
        # for the other's latest value before answering: every round adds
        # reads-from edges in both directions, so the minimum frontier
        # chases the stream and GC can retire the dominated prefix.
        cluster = DSMCluster(n_nodes=2, protocol="broadcast")

        def ping(api):
            for i in range(1, rounds + 1):
                yield api.write("a", i)
                yield api.watch("b", lambda v, want=i: v == want)
                yield api.read("b")

        def pong(api):
            for i in range(1, rounds + 1):
                yield api.watch("a", lambda v, want=i: v == want)
                yield api.read("a")
                yield api.write("b", i)

        cluster.spawn(0, ping)
        cluster.spawn(1, pong)
        return cluster, rounds

    def test_gc_bounds_window_on_communicating_workload(self):
        cluster, rounds = self._communicating_cluster()
        subscription = attach_monitor(cluster, gc_interval=16)
        cluster.run()
        result = subscription.result()
        assert result.ok
        assert result.ops_processed == 4 * rounds  # watch is not a memory op
        assert result.gc_retired > 0
        # The window stays far below the history length.
        assert result.max_window < result.ops_processed / 2

    def test_window_invariant_counts_candidates_notices_pending(self):
        cluster, _ = self._communicating_cluster(rounds=10)
        subscription = attach_monitor(cluster, gc_interval=8)
        cluster.run()
        monitor = subscription.monitor
        candidates = sum(len(c) for c in monitor._candidates.values())
        notices = sum(
            len(group)
            for groups in monitor._notices.values()
            for group in groups.values()
        )
        pending = sum(len(q) for q in monitor._pending)
        assert monitor.window_size() == candidates + notices + pending

    def test_dead_source_read_flagged_after_gc(self):
        # P0 overwrites x many times while P1 keeps reading the newest
        # value; GC retires the overwritten candidates.  A read then
        # naming a long-retired write must flag as dead-source.
        monitor = CausalStreamMonitor(2, gc_interval=4)
        for i in range(12):
            monitor.feed_op(
                proc=0, kind="w", location="x", value=i, source=("val", "x", i)
            )
            monitor.feed_op(
                proc=1, kind="r", location="x", value=i, source=("val", "x", i)
            )
        assert monitor.gc_retired > 0
        monitor.feed_op(
            proc=1, kind="r", location="x", value=0, source=("val", "x", 0)
        )
        result = monitor.result()
        assert not result.ok
        assert result.first_violation.reason == "dead-source"

    def test_unresolved_read_fails_like_offline_cycle(self):
        # A read whose source never commits parks forever: the stream is
        # truncated (or cyclic), and the verdict must not be "causal".
        monitor = CausalStreamMonitor(2)
        monitor.feed_op(
            proc=0, kind="r", location="x", value=9, source=("val", "x", 9)
        )
        result = monitor.result()
        assert not result.ok
        assert len(result.unresolved) == 1
        assert "unresolved" in result.explain()

    def test_shared_live_cache_hits_across_monitors(self):
        cache = LiveSetCache()
        history = History.parse(FIG3_TEXT)
        _verdict_map(history, live_cache=cache)
        first_misses = cache.misses
        assert first_misses > 0
        _verdict_map(history, live_cache=cache)
        assert cache.hits > 0
        assert cache.misses == first_misses  # second pass fully cached


class TestCounterexampleHandoff:
    def test_fig3_violation_shrinks_to_replayable_artifact(self, tmp_path):
        run = run_traced_figure3()
        monitor = CausalStreamMonitor(3)
        result = feed_trace(monitor, run.collector.to_jsonable())
        assert not result.ok
        cex = violation_counterexample(monitor, protocol=run.protocol)
        assert cex is not None
        assert cex.model == "causal"
        # Round-trip through disk and re-execute: the saved artifact must
        # reproduce a causal violation, not merely describe one.
        path = tmp_path / "cex.json"
        cex.save(path)
        loaded = Counterexample.load(path)
        assert json.loads(path.read_text())["format_version"] == 2
        outcome = replay(loaded)
        assert not check_causal(outcome.history).ok


class TestStreamSubscription:
    def test_filtered_subscriber_sees_only_matching_events(self):
        collector = TraceCollector()
        got = []
        collector.subscribe(got.append, category="proto", name="op.commit")
        collector.emit("proto", "op.commit", node=0)
        collector.emit("proto", "msg.send", node=0)
        collector.emit("net", "op.commit", node=0)
        assert [(e.category, e.name) for e in got] == [("proto", "op.commit")]

    def test_unfiltered_subscriber_sees_everything(self):
        collector = TraceCollector()
        got = []
        collector.subscribe(got.append)
        collector.emit("a", "one")
        collector.emit("b", "two")
        assert len(got) == 2

    def test_unsubscribe_unknown_callback_raises(self):
        collector = TraceCollector()
        with pytest.raises(ValueError, match="not a subscriber"):
            collector.unsubscribe(lambda event: None)

    def test_unsubscribe_removes_only_that_callback(self):
        collector = TraceCollector()
        first, second = [], []
        on_first = collector.subscribe(first.append)
        collector.subscribe(second.append)
        collector.unsubscribe(on_first)
        collector.emit("a", "one")
        assert not first and len(second) == 1


class TestConstruction:
    def test_rejects_non_positive_proc_count(self):
        with pytest.raises(ReproError):
            CausalStreamMonitor(0)

    def test_feed_order_independence(self):
        # Round-robin vs process-at-a-time feeding must agree verdict-
        # for-verdict (parking linearises causality either way).
        history = History.parse(FIG3_TEXT)
        round_robin, _ = _verdict_map(history)
        sequential = {}
        monitor = CausalStreamMonitor(
            3,
            on_verdict=lambda v: sequential.__setitem__(
                (v.op.proc, v.op.index), v.ok
            ),
        )
        for proc, ops in enumerate(history.processes):
            for op in ops:
                monitor.feed_op(
                    proc=op.proc,
                    kind=op.kind,
                    location=op.location,
                    value=op.value,
                    source=op.write_id if op.is_write else op.read_from,
                )
        assert sequential == round_robin
