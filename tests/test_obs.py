"""Tests for the causal tracing and metrics layer (``repro.obs``).

Covers the collector and metrics registry, the exporters (Chrome trace
validation, causal-DAG reachability, timeline), trace emission under
message drops and fault windows, the zero-cost-when-detached contract,
and the acceptance property: every invalidation sweep in a traced
Figure 4 run is causally after the write that triggered it, asserted by
walking the exported happens-before DAG.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    TraceCollector,
    TraceEvent,
    dag_reachable,
    format_timeline,
    run_traced_figure3,
    run_traced_figure4,
    to_causal_dag,
    to_chrome_trace,
    to_dot,
    validate_chrome_trace,
)
from repro.protocols.base import DSMCluster
from repro.protocols.messages import ReadRequest
from repro.sim.faults import FaultSchedule
from repro.sim.kernel import Simulator
from repro.sim.network import Network


def read_request(n: int = 1) -> ReadRequest:
    return ReadRequest(request_id=n, location="x")


class TestCollector:
    def test_emit_assigns_sequence_and_defaults(self):
        collector = TraceCollector()
        first = collector.emit("proto", "op.read", node=1)
        second = collector.emit("proto", "op.write", node=1, time=3.5)
        assert (first.seq, second.seq) == (1, 2)
        assert first.time == 0.0  # unbound collector defaults to t=0
        assert second.time == 3.5

    def test_bound_collector_stamps_sim_time(self):
        sim = Simulator()
        collector = TraceCollector()
        collector.bind(sim)
        sim.schedule(4.0, lambda: collector.emit("kernel", "probe"))
        sim.run()
        assert collector.events[-1].time == 4.0

    def test_clock_normalised_to_tuple(self):
        from repro.clocks import VectorClock

        collector = TraceCollector()
        vt = VectorClock.zero(3).increment(1)
        event = collector.emit("store", "apply", node=1, clock=vt)
        assert event.clock == (0, 1, 0)
        assert collector.emit("store", "apply", clock=(1, 2)).clock == (1, 2)

    def test_emit_counts_category_name(self):
        collector = TraceCollector()
        collector.emit("net", "send")
        collector.emit("net", "send")
        collector.emit("net", "drop")
        assert collector.metrics.count_of("net.send") == 2
        assert collector.metrics.count_of("net.drop") == 1

    def test_keep_events_false_still_counts(self):
        collector = TraceCollector(keep_events=False)
        collector.emit("net", "send")
        assert len(collector) == 0
        assert collector.metrics.count_of("net.send") == 1

    def test_select_filters(self):
        collector = TraceCollector()
        collector.emit("net", "send", node=0)
        collector.emit("net", "deliver", node=1)
        collector.emit("proto", "op.read", node=1)
        assert len(collector.select("net")) == 2
        assert len(collector.select("net", "send")) == 1
        assert len(collector.select(node=1)) == 2

    def test_jsonable_round_trip(self):
        collector = TraceCollector()
        collector.emit("proto", "op.write", node=2, clock=(1, 0), location="x")
        collector.emit("net", "send", node=2, dur=1.5, bytes=40)
        payload = collector.to_jsonable()
        rebuilt = TraceCollector.from_jsonable(payload)
        assert [e.seq for e in rebuilt] == [e.seq for e in collector]
        assert rebuilt.events[0].clock == (1, 0)
        assert rebuilt.events[0].args["location"] == "x"
        assert rebuilt.events[1].dur == 1.5


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2)
        registry.gauge("depth").set(7.0)
        registry.histogram("occ").observe(2.0)
        registry.histogram("occ").observe(4.0)
        assert registry.count_of("a") == 3
        assert registry.gauges["depth"].value == 7.0
        hist = registry.histograms["occ"]
        assert (hist.count, hist.total, hist.min, hist.max) == (2, 6.0, 2.0, 4.0)
        assert hist.mean == 3.0

    def test_ratio_and_missing_counters(self):
        registry = MetricsRegistry()
        registry.counter("inv").inc(6)
        registry.counter("writes").inc(3)
        assert registry.ratio("inv", "writes") == 2.0
        assert registry.ratio("inv", "absent") == 0.0
        assert registry.count_of("absent") == 0

    def test_snapshot_is_json_safe_and_sorted(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.histogram("h")  # empty histogram renders zeros
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["histograms"]["h"]["count"] == 0
        assert snap["histograms"]["h"]["p99"] == 0.0
        json.dumps(snap)

    def test_histogram_quantiles_exact_below_reservoir_limit(self):
        from repro.obs.metrics import Histogram

        hist = Histogram()
        for value in range(1, 101):  # 1..100, well under SAMPLE_LIMIT
            hist.observe(float(value))
        snap = hist.as_dict()
        assert snap["p50"] == hist.quantile(0.5) == 51.0
        assert snap["p95"] == 96.0
        assert snap["p99"] == 100.0
        assert snap["count"] == 100 and snap["max"] == 100.0

    def test_histogram_quantiles_survive_reservoir_thinning(self):
        from repro.obs.metrics import Histogram

        hist = Histogram()
        n = Histogram.SAMPLE_LIMIT * 8
        for value in range(n):
            hist.observe(float(value))
        # Thinning keeps every stride-th sample: quantiles approximate
        # the true ones within a stride's width, deterministically.
        assert len(hist._samples) <= Histogram.SAMPLE_LIMIT
        assert abs(hist.quantile(0.5) - n / 2) <= n * 0.05
        assert hist.quantile(0.99) >= hist.quantile(0.5) >= hist.quantile(0.0)
        assert hist.as_dict()["count"] == n

    def test_histogram_quantiles_deterministic(self):
        from repro.obs.metrics import Histogram

        def build():
            hist = Histogram()
            for i in range(3000):
                hist.observe(float((i * 37) % 1000))
            return hist.as_dict()

        assert build() == build()


class TestZeroCostWhenDetached:
    def test_components_default_to_detached(self):
        cluster = DSMCluster(2, protocol="causal")
        assert cluster.sim.obs is None
        assert cluster.network.obs is None
        assert all(node.obs is None for node in cluster.nodes)
        assert all(node.store.obs is None for node in cluster.nodes)

    def test_detached_run_identical_to_attached(self):
        """Tracing must be purely observational: same history, same wire."""

        def run(attach: bool):
            cluster = DSMCluster(3, protocol="causal", seed=9)
            collector = TraceCollector()
            if attach:
                cluster.attach_obs(collector)

            def process(api, me):
                for i in range(6):
                    location = f"loc{(me + i) % 4}"
                    if i % 2 == 0:
                        yield api.write(location, (me, i))
                    else:
                        yield api.read(location)

            for node in range(3):
                cluster.spawn(node, process, node)
            cluster.run()
            return cluster, collector

        detached, unused = run(attach=False)
        attached, collector = run(attach=True)
        assert len(unused) == 0
        assert len(collector) > 0
        assert detached.history().to_text() == attached.history().to_text()
        assert detached.stats.total == attached.stats.total
        assert detached.stats.bytes_total == attached.stats.bytes_total


def _mixed_cluster(seed: int = 11, n_nodes: int = 3, ops: int = 30):
    """A small seeded read/write/discard mix on the owner protocol."""
    cluster = DSMCluster(n_nodes, protocol="causal", seed=seed)

    def process(api, me):
        rng = cluster.sim.derived_rng(f"mix-{me}")
        for i in range(ops):
            location = f"loc{rng.randrange(5)}"
            roll = rng.random()
            if roll < 0.1:
                api.discard(location)
                yield api.read(location)
            elif roll < 0.6:
                yield api.read(location)
            else:
                yield api.write(location, (me, i))

    for node in range(n_nodes):
        cluster.spawn(node, process, node)
    return cluster


@pytest.fixture
def built_events(monkeypatch):
    """Every TraceEvent a collector constructs while the test runs."""
    import repro.obs.collector as module

    built = []

    class Counted(TraceEvent):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(module, "TraceEvent", Counted)
    return built


class TestDemandDrivenEmission:
    """An event is built iff something will read it; every kind is
    counted regardless (DESIGN.md §4.7)."""

    def test_nothing_is_built_without_a_consumer(self, built_events):
        cluster = _mixed_cluster()
        collector = TraceCollector(keep_events=False)
        cluster.attach_obs(collector)
        cluster.run()
        assert built_events == []
        assert collector.emit("net", "send", node=0) is None
        counters = collector.metrics.counters
        assert counters["proto.op.commit"].value == len(cluster.history())
        assert counters["net.send"].value == cluster.stats.total + 1

    def test_commit_subscriber_builds_one_event_per_op(self, built_events):
        cluster = _mixed_cluster()
        collector = TraceCollector(keep_events=False)
        cluster.attach_obs(collector)
        seen = []
        collector.subscribe(seen.append, category="proto", name="op.commit")
        cluster.run()
        assert len(built_events) == len(cluster.history()) > 0
        assert seen == built_events
        assert [event.seq for event in seen] == list(range(1, len(seen) + 1))

    def test_subscribing_mid_run_takes_effect_at_the_next_emit(
        self, built_events
    ):
        collector = TraceCollector(keep_events=False)
        assert not collector.wants("net", "send")
        sends, everything = [], []
        collector.subscribe(sends.append, category="net", name="send")
        assert collector.wants("net", "send")
        assert not collector.wants("net", "deliver")
        first = collector.emit("net", "send", node=0)
        collector.subscribe(everything.append)  # wildcard: all kinds wanted
        assert collector.wants("net", "deliver")
        second = collector.emit("net", "deliver", node=1)
        collector.unsubscribe(everything.append)
        assert not collector.wants("net", "deliver")
        assert collector.emit("net", "deliver", node=1) is None
        collector.unsubscribe(sends.append)
        assert not collector.wants("net", "send")
        assert sends == [first] and everything == [second]
        assert built_events == [first, second]
        # wants() counted each declined ask, emit() every call.
        assert collector.metrics.count_of("net.send") == 3
        assert collector.metrics.count_of("net.deliver") == 4

    def test_attaching_a_reader_to_a_running_cluster(self, built_events):
        cluster = _mixed_cluster()
        collector = TraceCollector(keep_events=False)
        cluster.attach_obs(collector)
        cluster.sim.run(until=10.0)
        assert built_events == []
        before = collector.metrics.count_of("kernel.execute")
        seen = collector.subscribe([].append)
        cluster.run()
        after = collector.metrics.count_of("kernel.execute")
        built = [e for e in built_events if e.name == "execute"]
        assert len(built) == after - before > 0
        collector.unsubscribe(seen)

    def test_untagged_kernel_events_are_never_built(self, built_events):
        """The guard CI bounds at 10% (`repro.bench.bench_obs`) is all an
        untagged event pays: even with a reader wanting every kind, the
        kernel asks for nothing to be built."""
        ticks = 500

        def chain(tag):
            sim = Simulator()
            collector = TraceCollector(keep_events=False)
            collector.bind(sim)
            sim.obs = collector
            collector.subscribe([].append)
            count = [0]

            def tick():
                count[0] += 1
                if count[0] < ticks:
                    sim.schedule(1.0, tick, tag=tag)

            sim.schedule(1.0, tick, tag=tag)
            sim.run()
            assert count[0] == ticks

        chain(tag=None)
        assert built_events == []
        chain(tag=("task", "tick"))
        assert len(built_events) == ticks

    @given(
        filters=st.lists(
            st.tuples(
                st.sampled_from([None, "net", "proto"]),
                st.sampled_from([None, "send", "op.commit"]),
            ),
            max_size=4,
        ),
        keep=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_wants_is_some_filter_matches_or_events_are_kept(
        self, filters, keep
    ):
        collector = TraceCollector(keep_events=keep)
        for category, name in filters:
            collector.subscribe(lambda event: None, category, name)
        for category in ("net", "proto", "store"):
            for name in ("send", "op.commit", "apply"):
                matched = any(
                    c in (None, category) and n in (None, name)
                    for c, n in filters
                )
                assert collector.wants(category, name) == (keep or matched)
                built = collector.emit(category, name)
                assert (built is not None) == (keep or matched)


class TestChromeTraceExport:
    def test_traced_run_validates(self):
        run = run_traced_figure4()
        payload = to_chrome_trace(run.collector)
        validate_chrome_trace(payload)
        assert len(payload["traceEvents"]) == len(run.collector)

    def test_sends_become_duration_slices(self):
        run = run_traced_figure4()
        payload = to_chrome_trace(run.collector)
        slices = [r for r in payload["traceEvents"] if r["ph"] == "X"]
        sends = run.collector.select("net", "send")
        assert len(slices) == len(sends)
        assert all(r["dur"] > 0 for r in slices)

    def test_validator_accepts_string_and_list_forms(self):
        import json

        run = run_traced_figure3()
        payload = to_chrome_trace(run.collector)
        validate_chrome_trace(json.dumps(payload))
        validate_chrome_trace(payload["traceEvents"])

    @pytest.mark.parametrize(
        "record",
        [
            {"ph": "i", "ts": 0, "pid": 0, "tid": "net", "s": "t"},  # no name
            {"name": "x", "ph": "?", "ts": 0, "pid": 0, "tid": "n"},  # bad ph
            {"name": "x", "ph": "i", "ts": -1, "pid": 0, "tid": "n"},  # bad ts
            {"name": "x", "ph": "i", "ts": 0, "tid": "n"},  # missing pid
            {"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": "n"},  # no dur
        ],
    )
    def test_validator_rejects_malformed_records(self, record):
        with pytest.raises(ReproError):
            validate_chrome_trace({"traceEvents": [record]})


class TestCausalDag:
    def test_invalidations_causally_after_triggering_write(self):
        """The acceptance property: walk the exported DAG from each
        invalidation sweep back to the write that triggered it."""
        run = run_traced_figure4()
        sweeps = run.collector.select("proto", "inv.sweep")
        assert sweeps, "Figure 4 scenario must produce invalidation sweeps"
        writes = run.collector.select("proto", "op.write")
        dag = to_causal_dag(run.collector)
        for sweep in sweeps:
            assert sweep.args["invalidated"], "sweeps are emitted only when real"
            writer, component = sweep.args["trigger"]
            trigger = next(
                w for w in writes
                if w.node == writer and w.clock[writer] == component
            )
            assert dag_reachable(dag, trigger.seq, sweep.seq), (
                f"sweep {sweep.seq} not causally after write {trigger.seq}"
            )

    def test_dag_vertices_are_exactly_clock_bearing_events(self):
        run = run_traced_figure4()
        dag = to_causal_dag(run.collector)
        assert {n["id"] for n in dag["nodes"]} == {
            e.seq for e in run.collector.causal_events()
        }

    def test_concurrent_events_not_reachable(self):
        events = [
            TraceEvent(seq=1, time=0.0, category="proto", name="a",
                       node=0, clock=(1, 0), dur=0.0, args={}),
            TraceEvent(seq=2, time=0.0, category="proto", name="b",
                       node=1, clock=(0, 1), dur=0.0, args={}),
        ]
        dag = to_causal_dag(events)
        assert dag["edges"] == []
        assert not dag_reachable(dag, 1, 2)
        assert not dag_reachable(dag, 2, 1)

    def test_transitive_reduction_drops_implied_edges(self):
        events = [
            TraceEvent(seq=1, time=0.0, category="p", name="a",
                       node=0, clock=(1, 0), dur=0.0, args={}),
            TraceEvent(seq=2, time=1.0, category="p", name="b",
                       node=0, clock=(2, 0), dur=0.0, args={}),
            TraceEvent(seq=3, time=2.0, category="p", name="c",
                       node=0, clock=(3, 0), dur=0.0, args={}),
        ]
        dag = to_causal_dag(events)
        assert [1, 3] not in dag["edges"]  # implied via 1 -> 2 -> 3
        assert dag_reachable(dag, 1, 3)

    def test_dot_output_names_every_vertex(self):
        run = run_traced_figure4()
        dag = to_causal_dag(run.collector)
        dot = to_dot(dag)
        assert dot.startswith("digraph causal {")
        for node in dag["nodes"]:
            assert f"n{node['id']}" in dot


class TestTimeline:
    def test_one_line_per_event_and_truncation(self):
        run = run_traced_figure3()
        full = format_timeline(run.collector)
        assert len(full.splitlines()) == len(run.collector)
        short = format_timeline(run.collector, limit=5)
        assert len(short.splitlines()) == 6  # 5 events + truncation marker
        assert "truncated" in short


class TestDropTracing:
    def _network(self):
        sim = Simulator()
        net = Network(sim)
        net.register(0, lambda src, msg: None)
        net.register(1, lambda src, msg: None)
        collector = TraceCollector()
        collector.bind(sim)
        net.obs = collector
        return sim, net, collector

    def test_partitioned_sends_emit_drops_with_byte_accounting(self):
        sim, net, collector = self._network()
        net.partition(0, 1, bidirectional=False)
        net.send(0, 1, read_request(1))
        net.send(0, 1, read_request(2))
        sim.run()
        drops = collector.select("net", "drop")
        assert len(drops) == 2
        assert net.stats.dropped == 2
        assert net.stats.dropped_bytes > 0
        assert sum(d.args["bytes"] for d in drops) == net.stats.dropped_bytes
        assert collector.select("net", "deliver") == []

    def test_partition_open_close_are_events(self):
        sim, net, collector = self._network()
        net.partition(0, 1)
        net.heal(0, 1)
        opened = collector.select("fault", "partition.open")
        closed = collector.select("fault", "partition.close")
        assert len(opened) == len(closed) == 1
        assert opened[0].args == {"src": 0, "dst": 1, "bidirectional": True}
        assert opened[0].seq < closed[0].seq

    def test_drop_rate_and_crash_are_events(self):
        sim, net, collector = self._network()
        net.set_drop_rate(0.5)
        net.crash(1)
        net.heal_all()
        assert collector.select("fault", "drop_rate")[0].args["rate"] == 0.5
        assert collector.select("fault", "crash")[0].node == 1
        assert len(collector.select("fault", "heal_all")) == 1

    def test_crash_after_send_emits_drop_on_arrival(self):
        sim, net, collector = self._network()
        net.send(0, 1, read_request())
        net.crash(1)  # in flight: lost on arrival
        sim.run()
        lost = collector.select("net", "drop_on_arrival")
        assert len(lost) == 1
        assert lost[0].node == 1
        assert collector.select("net", "deliver") == []

    def test_fault_window_brackets_drops_in_trace(self):
        """A timed partition window shows up as open -> drops -> close."""
        sim, net, collector = self._network()
        schedule = FaultSchedule(sim, net)
        schedule.partition_between(0, 1, start=1.0, end=3.0)
        schedule.install()
        sim.schedule(0.0, lambda: net.send(0, 1, read_request(1)))  # delivered
        sim.schedule(2.0, lambda: net.send(0, 1, read_request(2)))  # dropped
        sim.schedule(4.0, lambda: net.send(0, 1, read_request(3)))  # delivered
        sim.run()
        opened = collector.select("fault", "partition.open")
        closed = collector.select("fault", "partition.close")
        drops = collector.select("net", "drop")
        assert len(opened) == 2 and len(closed) == 2  # both directions
        assert len(drops) == 1
        assert opened[0].seq < drops[0].seq < closed[0].seq
        assert len(collector.select("net", "deliver")) == 2
        assert net.stats.dropped_bytes == drops[0].args["bytes"]

    def test_drops_under_tracing_match_untraced_accounting(self):
        """Tracing must not perturb the drop byte/count accounting."""

        def run(attach: bool):
            sim = Simulator(seed=3)
            net = Network(sim)
            net.register(0, lambda src, msg: None)
            net.register(1, lambda src, msg: None)
            if attach:
                collector = TraceCollector()
                collector.bind(sim)
                net.obs = collector
            net.set_drop_rate(0.5)
            for n in range(20):
                net.send(0, 1, read_request(n))
            sim.run()
            return net.stats

        untraced = run(attach=False)
        traced = run(attach=True)
        assert traced.dropped == untraced.dropped
        assert traced.dropped_bytes == untraced.dropped_bytes
        assert traced.total == untraced.total


class TestCounterexampleTrace:
    @pytest.fixture(scope="class")
    def traced_cex(self):
        from repro.mc import ExploreConfig, explore, preset

        config = ExploreConfig(
            strategy="random",
            seed=0,
            max_schedules=2000,
            expected_model="causal",
            stop_on_violation=True,
        )
        result = explore(preset("fig3"), config)
        assert result.violations
        return result.violations[0].with_causal_trace()

    def test_trace_embedded_and_ends_with_verdict(self, traced_cex):
        assert len(traced_cex.events) > 0
        last = traced_cex.events[-1]
        assert (last["cat"], last["name"]) == ("check", "verdict")
        assert last["args"]["ok"] is False
        assert "causal trace" in traced_cex.summary()

    def test_round_trip_preserves_events(self, traced_cex, tmp_path):
        from repro.mc import Counterexample

        path = tmp_path / "cex.json"
        traced_cex.save(path)
        loaded = Counterexample.load(path)
        assert loaded.events == traced_cex.events
        assert loaded.trace == traced_cex.trace
        assert [e.seq for e in loaded.causal_trace_events()] == [
            e["seq"] for e in traced_cex.events
        ]

    def test_v1_files_load_with_empty_trace(self, traced_cex):
        from repro.mc import Counterexample

        payload = traced_cex.to_jsonable()
        payload["format_version"] = 1
        del payload["events"]
        loaded = Counterexample.from_jsonable(payload)
        assert loaded.events == ()

    def test_unknown_format_version_rejected(self, traced_cex):
        from repro.mc import Counterexample
        from repro.mc.program import McError

        payload = traced_cex.to_jsonable()
        payload["format_version"] = 99
        with pytest.raises(McError):
            Counterexample.from_jsonable(payload)


class TestBenchObsSection:
    def test_bench_obs_reports_overheads_and_metrics(self):
        from repro.bench import bench_obs
        from repro.checker import CachedCausalChecker

        result = bench_obs(rounds=2, events=2000)
        assert result["detached_events_per_sec"] > 0
        assert result["attached_untagged_events_per_sec"] > 0
        assert result["attached_tagged_events_per_sec"] > 0
        # Ratios to the detached chain, minus one: bounded below by -1.
        assert result["guard_overhead"] > -1
        assert result["emit_overhead"] > -1

        traced = run_traced_figure4()
        registry = traced.collector.metrics
        assert len(traced.collector.events) > 0
        assert registry.ratio("proto.inv.sweep", "proto.op.write") > 0
        checker = CachedCausalChecker()
        checker.obs = traced.collector
        checker.check(traced.history)
        checker.check(traced.history)  # dominated re-check: a table hit
        assert checker.history_hit_rate == 0.5  # 1 miss, 1 hit
        assert "counters" in registry.snapshot()

    def test_read_miss_round_trip_histogram_fed(self):
        run = run_traced_figure4()
        hist = run.collector.metrics.histograms["read_miss.round_trip"]
        assert hist.count > 0
        assert hist.min > 0  # every miss pays at least one round trip


class TestTraceCli:
    @pytest.mark.parametrize("fmt", ["chrome", "dot", "json", "timeline"])
    def test_trace_subcommand_writes_output(self, fmt, tmp_path, capsys):
        from repro.harness.cli import main

        out = tmp_path / f"trace.{fmt}"
        code = main([
            "trace", "--scenario", "fig3", "--format", fmt, "-o", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text
        if fmt == "chrome":
            validate_chrome_trace(text)

    def test_timeline_to_stdout(self, capsys):
        from repro.harness.cli import main

        code = main(["trace", "--format", "timeline", "--limit", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "truncated" in output


def test_math_nan_sanity():
    # Guard against accidental import-order weirdness with math above.
    assert math.isnan(float("nan"))
