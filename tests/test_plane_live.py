"""The telemetry plane over real sockets (``-m live``).

The deterministic contracts live in ``test_plane.py``; these tests put
the same plane on the asyncio runtime and check the properties the
paper's observability story needs end to end:

* **differential**: the monitor riding the *aggregated* sideband
  stream reaches the same verdict as a direct-attached monitor and as
  the offline checker, for fig3/fig4/fig5 over UDS and TCP;
* **never silent**: under injected sideband faults (dropped frames,
  killed connections) every emitted event is either merged or booked
  as lost — and the loss is reported as gaps in the merged trace;
* **isolation**: attaching the plane changes nothing on the protocol
  sockets — same message count, byte ledger equal up to delta-stamp
  timing jitter, orders of magnitude below the sideband's own traffic;
* **flight recorder**: a live wall-clock timeout dumps a replayable
  FORMAT_VERSION-2 counterexample reconstructed from the shard rings.
"""

import logging
import socket

import pytest
from test_plane import MALFORMED_STREAMS

from repro.apps.workload import WorkloadConfig
from repro.checker import check_causal
from repro.errors import SimulationError
from repro.mc.counterexample import replay
from repro.memory import Namespace
from repro.obs.plane import TelemetryPlane
from repro.runtime import (
    SCENARIOS,
    LiveCluster,
    run_scenario_live,
    run_workload_live,
)

pytestmark = pytest.mark.live


def _conserved(plane: TelemetryPlane) -> bool:
    """The never-silent law: merged + lost == emitted, exactly."""
    agg = plane.aggregator
    emitted = sum(shard._seq for shard in plane.shards.values())
    return agg.events_merged + agg.events_lost == emitted


class TestAggregatedMonitorDifferential:
    """Aggregated vs direct-attached vs offline — all one verdict."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("transport", ["uds", "tcp"])
    def test_verdicts_agree(self, name, transport):
        plane = TelemetryPlane()
        aggregated = run_scenario_live(
            name, transport=transport, monitor=True, plane=plane
        )
        direct = run_scenario_live(name, transport=transport, monitor=True)
        offline = check_causal(aggregated.history)
        expected = SCENARIOS[name].expect_causal
        assert aggregated.monitor_result.ok == expected
        assert direct.monitor_result.ok == expected
        assert offline.ok == expected
        # Fault-free sideband: nothing lost, everything merged.
        assert plane.aggregator.events_lost == 0
        assert plane.aggregator.frames_lost == 0
        assert _conserved(plane)
        assert aggregated.telemetry is not None
        assert aggregated.telemetry["aggregator"]["events_merged"] > 0

    def test_monitor_sees_every_commit_through_the_sideband(self):
        plane = TelemetryPlane()
        outcome = run_scenario_live("fig4", monitor=True, plane=plane)
        commits = plane.out.select("proto", "op.commit")
        assert len(commits) == len(outcome.history)
        assert outcome.monitor_result.reads_checked == sum(
            1
            for ops in outcome.history.processes
            for op in ops
            if op.kind == "r"
        )


class TestSidebandFaults:
    """Telemetry loss is accounted and reported, never silent."""

    def test_dropped_frames_become_gaps(self):
        def drop(runtime, plane):
            yield runtime.sleep(0.02)
            plane.sideband.drop_next_frames(0, 2)
            plane.sideband.drop_next_frames(2, 1)

        plane = TelemetryPlane(flush_every=2)
        outcome = run_scenario_live(
            "fig4", monitor=True, plane=plane, fault=drop
        )
        agg = plane.aggregator
        dropped = plane.sideband.frames_dropped
        assert dropped > 0
        assert agg.frames_lost == dropped
        assert agg.gaps  # human-readable loss ticker
        assert _conserved(plane)
        if agg.events_lost:
            # The loss is *in the merged trace*, not just a counter.
            gap_events = plane.out.select("plane", "gap")
            assert sum(e.args["count"] for e in gap_events) == agg.events_lost
        # The run itself is untouched: verdict still produced, and the
        # offline checker (protocol history, not telemetry) still holds.
        assert outcome.monitor_result is not None
        assert check_causal(outcome.history).ok

    def test_killed_sideband_connection_reconnects_and_reconciles(self):
        def kill(runtime, plane):
            yield runtime.sleep(0.02)
            plane.sideband.kill_connection(1)

        plane = TelemetryPlane(flush_every=2)
        outcome = run_scenario_live(
            "fig4", monitor=True, plane=plane, fault=kill
        )
        assert check_causal(outcome.history).ok
        # Whatever the outage cost, the ledger still balances...
        assert _conserved(plane)
        agg = plane.aggregator
        # ...and any loss was reported.
        if agg.events_lost or agg.frames_lost:
            assert agg.gaps
        # The link came back: the merge kept receiving after the kill.
        assert agg.frames_merged > 0

    def test_sideband_faults_never_touch_protocol_verdicts(self):
        """fig3's anomaly survives telemetry loss — the data plane and
        the telemetry plane fail independently."""

        def drop(runtime, plane):
            yield runtime.sleep(0.01)
            plane.sideband.drop_next_frames(1, 3)

        plane = TelemetryPlane(flush_every=2)
        outcome = run_scenario_live("fig3", monitor=True, plane=plane, fault=drop)
        assert check_causal(outcome.history).ok is False
        assert _conserved(plane)


    @pytest.mark.parametrize("transport", ["uds", "tcp"])
    def test_hostile_input_closes_only_its_own_connection(
        self, transport, caplog
    ):
        """Each malformed stream of ``MALFORMED_STREAMS``, sent over a
        raw socket to the aggregator's port: counted, that connection
        closed, nothing logged as an unhandled task exception — and the
        shards' own connections keep merging without loss."""
        streams = list(MALFORMED_STREAMS.values())

        def hostile(runtime, plane):
            yield runtime.sleep(0.01)
            sideband = plane.sideband
            family = socket.AF_UNIX if transport == "uds" else socket.AF_INET
            for stream in streams:
                with socket.socket(family, socket.SOCK_STREAM) as client:
                    client.connect(sideband._addr)
                    client.sendall(stream)
            while sideband.frames_rejected < len(streams):
                yield runtime.sleep(0.004)

        plane = TelemetryPlane()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            outcome = run_scenario_live(
                "fig4", transport=transport, monitor=True, plane=plane,
                fault=hostile,
            )
        assert outcome.telemetry["sideband"]["frames_rejected"] == len(streams)
        assert [r for r in caplog.records if r.name == "asyncio"] == []
        agg = plane.aggregator
        assert agg.events_merged > 0
        assert agg.events_lost == 0 and agg.frames_lost == 0
        assert _conserved(plane)
        assert outcome.monitor_result.ok


class TestSubscribeFiltersLive:
    """collector.subscribe filters on the merged stream, live runtime."""

    def test_category_and_name_filters(self):
        plane = TelemetryPlane()
        commits, proto, everything = [], [], []
        plane.out.subscribe(commits.append, category="proto", name="op.commit")
        plane.out.subscribe(proto.append, category="proto")
        plane.out.subscribe(everything.append)
        outcome = run_scenario_live("fig4", plane=plane)
        assert commits and all(
            e.category == "proto" and e.name == "op.commit" for e in commits
        )
        assert len(commits) == len(outcome.history)
        assert set(e.name for e in proto) >= {"op.commit"}
        assert all(e.category == "proto" for e in proto)
        assert len(everything) == plane.aggregator.events_merged
        assert len(everything) > len(proto) >= len(commits)

    def test_unsubscribe_stops_delivery(self):
        plane = TelemetryPlane()
        seen = []
        plane.out.subscribe(seen.append, category="proto", name="op.commit")
        plane.out.unsubscribe(seen.append)
        run_scenario_live("fig5", plane=plane)
        assert seen == []


class TestIsolation:
    """The sideband never leaks into the protocol sockets' ledger."""

    def test_plane_attach_is_invisible_to_the_protocol(self):
        # Broadcast memory sends exactly (writes x (n-1)) messages for
        # a seeded op mix, independent of timing — so the message-count
        # canary is strict here, where the causal protocol's cache-miss
        # traffic would jitter with scheduling.
        config = WorkloadConfig(
            protocol="broadcast",
            n_nodes=3,
            n_locations=4,
            ops_per_proc=25,
            seed=11,
        )
        detached = run_workload_live(config)
        plane = TelemetryPlane()
        attached = run_workload_live(config, plane=plane)

        assert detached.telemetry is None
        assert attached.telemetry is not None
        # Same protocol conversation either way.
        assert attached.total_messages == detached.total_messages
        assert len(attached.history) == len(detached.history)
        # Protocol-socket bytes equal up to delta-stamp timing jitter —
        # a few entries, orders below the sideband's own traffic.
        sideband = plane.sideband.sideband_bytes
        delta = attached.socket_bytes - detached.socket_bytes
        assert sideband > 0
        assert abs(delta) < max(
            64, detached.socket_bytes // 100, sideband // 10
        )

    def test_link_stats_exported_as_gauges(self):
        plane = TelemetryPlane()
        outcome = run_scenario_live("fig4", plane=plane)
        assert outcome.link_stats  # per-directed-channel accounting
        snapshot = plane.out.metrics.snapshot()
        link_gauges = {
            name: value
            for name, value in snapshot["gauges"].items()
            if name.startswith("live.link.")
        }
        assert link_gauges
        assert any(name.endswith(".socket_bytes") for name in link_gauges)
        writes = [
            value for name, value in link_gauges.items()
            if name.endswith(".socket_writes")
        ]
        assert sum(writes) == snapshot["gauges"]["live.socket_writes"]
        assert sum(writes) == outcome.socket_writes > 0

        from repro.analysis import gauge_table

        rendered = gauge_table(snapshot, prefix="live.link.").render()
        assert "live.link." in rendered


class TestFlightRecorderLive:
    def test_timeout_dumps_replayable_counterexample(self, tmp_path):
        """A live wall-clock timeout becomes a deterministic schedule
        that blocks the same window of operations."""
        cluster = LiveCluster(
            2,
            protocol="causal",
            namespace=Namespace.explicit(2, {"x": 0, "z": 0}),
        )
        plane = cluster.attach_plane(TelemetryPlane())
        plane.enable_flight(owners={"x": 0, "z": 0}, seed=0)
        runtime = cluster.runtime

        def writer(api):
            yield api.write("x", 1)

        def reader(api):
            yield api.read("x")
            runtime.fail_link(0, 1)
            runtime.fail_link(1, 0)
            yield api.read("z")  # the owner can never answer

        cluster.spawn(0, writer, name="writer")
        cluster.spawn(1, reader, name="blocked-reader")
        with pytest.raises(SimulationError, match="blocked-reader"):
            cluster.run(timeout=0.6)

        assert plane.flight.triggered
        reason, detail, ring = plane.flight.incidents[0]
        assert reason == "timeout"
        assert "blocked-reader" in detail
        assert ring  # the shard rings were snapshotted at the fault

        path = tmp_path / "flight.json"
        cex = plane.flight.dump_to(path)
        assert cex is not None and path.exists()
        assert cex.kind == "deadlock"
        outcome = replay(cex, check=True)
        assert not outcome.completed

    def test_cli_live_flight_recorder_on_fig3(self, tmp_path, capsys):
        from repro.harness.cli import main

        path = tmp_path / "fig3_flight.json"
        code = main(
            ["live", "--scenario", "fig3", "--plane",
             "--flight-recorder", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0  # fig3's violation is the expected verdict
        assert "flight recorder: violation" in out
        assert path.exists()

        from repro.mc.counterexample import Counterexample

        cex = Counterexample.load(path)
        replay(cex, check=True)


class TestTopCli:
    def test_top_plain_smoke(self, capsys):
        from repro.harness.cli import main

        code = main(
            ["top", "--plain", "--nodes", "2", "--ops", "10",
             "--interval", "0.05", "--timeout", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "workload (uds): CAUSAL" in out
        assert "telemetry:" in out
        assert "frames merged" in out
