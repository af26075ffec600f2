"""The live asyncio/socket runtime, differentially tested against the sim.

The headline claim of the runtime package: the UNMODIFIED protocol
engines run over real sockets, and for every paper scenario the live
execution's *legality verdict* — offline :func:`check_causal` plus the
streaming monitor attached to the socket-fed trace — equals the
simulator's.  Histories may differ op-for-op (wall-clock
nondeterminism); verdicts must not.

Everything here is ``@pytest.mark.live`` and excluded from the default
deterministic run; select with ``pytest -m live``.
"""

import asyncio
import logging
import os
import pickle
import socket
import struct

import pytest

from _wire_audit import frame_excess
from repro.apps.workload import WorkloadConfig
from repro.checker import check_causal
from repro.errors import ProtocolError, SimulationError
from repro.protocols.base import DSMCluster
from repro.protocols.wire import WIRE_VERSION
from repro.runtime import (
    LiveCluster,
    SCENARIOS,
    run_differential,
    run_scenario_live,
    run_workload_live,
)

pytestmark = pytest.mark.live


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestDifferentialEquivalence:
    """One scenario, two drivers, equal verdicts — the acceptance bar."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_verdicts_match_simulator(self, name):
        result = run_differential(name)
        assert result.equivalent, result.explain()
        # The scenario table itself pins the expected class.
        assert result.sim_ok == SCENARIOS[name].expect_causal
        assert result.live_ok == result.sim_ok

    @pytest.mark.parametrize("name", ["fig4", "fig5"])
    def test_causal_scenarios_survive_the_wire_codec(self, name):
        """Delta-stamp framing over real sockets changes no verdict."""
        result = run_differential(name, delta_stamps=True)
        assert result.equivalent, result.explain()
        codec = result.live_outcome.cluster.runtime.codec
        assert codec.stamps_encoded > 0

    def test_fig3_anomaly_reproduces_over_tcp(self):
        result = run_differential("fig3", transport="tcp")
        assert result.equivalent, result.explain()
        assert result.live_ok is False

    def test_monitor_rides_the_socket_stream(self):
        outcome = run_scenario_live("fig5", monitor=True)
        assert outcome.monitor_result is not None
        assert outcome.monitor_result.ok
        # Every read in the live history got an online verdict.
        reads = [
            (op.proc, op.index)
            for ops in outcome.history.processes
            for op in ops
            if op.is_read
        ]
        assert reads and set(reads) <= set(outcome.online_verdicts)


def _asyncio_errors(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR]


class TestCleanShutdown:
    """A finished run leaves no asyncio tasks and no sockets behind."""

    def test_no_leaked_tasks_or_sockets(self, caplog):
        fds_before = _open_fds()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            outcome = run_scenario_live("fig4")
        # Tear-down cancels no accept handler, so asyncio's stream
        # protocol has no "Exception in callback ... CancelledError"
        # to report.
        assert _asyncio_errors(caplog) == []
        runtime = outcome.cluster.runtime
        # The runtime records what was still alive when its loop closed;
        # a clean run retires every IO task inside _shutdown.
        assert runtime.leaked_tasks == []
        # asyncio.run tore the loop down entirely.
        with pytest.raises(RuntimeError):
            asyncio.get_running_loop()
        assert _open_fds() <= fds_before + 1  # allow fd-number jitter

    def test_run_reports_stats(self):
        outcome = run_scenario_live("fig4")
        assert outcome.elapsed > 0
        assert outcome.total_messages > 0
        assert outcome.model_bytes > 0
        # The socket carries the modelled bytes plus, per frame, a
        # 4-byte length prefix and a tag byte per int/float/str value.
        overhead = outcome.socket_bytes - outcome.model_bytes
        assert 4 * outcome.total_messages <= overhead <= 8 * outcome.total_messages
        assert outcome.cluster.runtime.frames_rejected == 0

    @pytest.mark.parametrize("transport", ["uds", "tcp"])
    def test_workload_teardown_logs_nothing(self, caplog, transport):
        """Six connections, a thousand frames: still a silent tear-down,
        and the clean-run counters all read zero."""
        config = WorkloadConfig(
            n_nodes=4, n_locations=8, ops_per_proc=40, delta_stamps=True, seed=5,
        )
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            outcome = run_workload_live(config, transport=transport, link_delay=0.0)
        runtime = outcome.cluster.runtime
        assert _asyncio_errors(caplog) == []
        assert runtime.leaked_tasks == []
        assert (runtime.frames_rejected, runtime.resyncs) == (0, 0)
        assert outcome.socket_bytes <= 1.15 * outcome.model_bytes

    def test_simulator_knobs_are_rejected(self):
        cluster = LiveCluster(2)
        with pytest.raises(ProtocolError):
            cluster.run(until=10.0)

    def test_timeout_surfaces_blocked_tasks(self):
        """The live analogue of deadlock detection: a read whose owner
        never answers (the link is down and stays down) hits the
        wall-clock deadline and names the blocked task."""
        from repro.memory import Namespace

        cluster = LiveCluster(
            2, protocol="causal",
            namespace=Namespace.explicit(2, {"x": 0}),
        )
        cluster.runtime.fail_link(0, 1)
        cluster.runtime.fail_link(1, 0)

        def reader(api):
            yield api.read("x")

        cluster.spawn(1, reader, name="blocked-reader")
        with pytest.raises(SimulationError, match="blocked-reader"):
            cluster.run(timeout=0.5)


class TestFaultRecovery:
    """Connection loss mid-run: the codec's full-stamp resync recovers."""

    def _run_with_fault(self, inject, n_ops=15):
        cluster = LiveCluster(
            3, protocol="broadcast", seed=7, delta_stamps=True,
            link_delay=0.005,
        )
        runtime = cluster.runtime

        def writer(api, me):
            for i in range(n_ops):
                yield api.write(f"loc{i % 3}", f"n{me}v{i}")
                yield runtime.sleep(0.004)

        def saboteur():
            yield runtime.sleep(0.02)
            inject(runtime)

        for proc in range(3):
            cluster.spawn(proc, writer, proc, name=f"w{proc}")
        runtime.spawn(saboteur(), name="saboteur")
        cluster.run()
        return cluster, runtime

    def test_killed_connection_resyncs_and_stays_legal(self):
        cluster, runtime = self._run_with_fault(
            lambda rt: rt.kill_connection(0, 1)
        )
        assert runtime.resyncs > 0
        # Post-resync traffic reopened every delta chain from a full
        # stamp; a leaked delta would have been refused by the reader
        # (WireDesyncError) and counted.
        assert runtime.codec.stamps_full > 0
        assert runtime.frames_rejected == 0
        result = check_causal(cluster.history())
        assert result.ok, result.explain()

    def test_deterministic_frame_gap_recovers(self):
        """drop_next_frames loses already-encoded frames — the receiver
        sees a channel_seq gap, exactly like a crash-on-arrival in the
        sim — and the next full stamp must clear it."""
        cluster, runtime = self._run_with_fault(
            lambda rt: rt.drop_next_frames(0, 2, 3)
        )
        assert runtime.stats.dropped >= 3
        assert runtime.codec.stamps_full > 0
        assert runtime.frames_rejected == 0
        result = check_causal(cluster.history())
        assert result.ok, result.explain()

    def test_failed_link_drops_before_encode(self):
        """fail_link is the sim Network's fault-drop path: messages are
        dropped *before* encoding and the channel is dirtied, so the
        heal-side resync is bookkeeping, not recovery."""
        def inject(rt):
            rt.fail_link(0, 1)

        cluster, runtime = self._run_with_fault(inject)
        assert runtime.stats.dropped > 0
        # Broadcast writers never block on replies, so the run completes
        # and everything that was delivered is still causally legal.
        result = check_causal(cluster.history())
        assert result.ok, result.explain()


class TestHostileInput:
    """Nothing arriving on a socket kills a reader or the run."""

    def _broadcast_run(self, sabotage, transport="uds", until=lambda rt: True):
        cluster = LiveCluster(
            3, protocol="broadcast", seed=3, delta_stamps=True,
            link_delay=0.002, transport=transport,
        )
        runtime = cluster.runtime

        def writer(api, me):
            for i in range(15):
                yield api.write(f"loc{i % 3}", f"n{me}v{i}")
                yield runtime.sleep(0.004)
            while not until(runtime):
                yield runtime.sleep(0.004)

        def saboteur():
            yield runtime.sleep(0.02)
            sabotage(runtime)

        for proc in range(3):
            cluster.spawn(proc, writer, proc, name=f"w{proc}")
        runtime.spawn(saboteur(), name="saboteur")
        cluster.run()
        return cluster, runtime

    @pytest.mark.parametrize("transport", ["uds", "tcp"])
    def test_garbage_from_a_raw_socket_is_counted_not_fatal(
        self, transport, caplog
    ):
        hello = struct.pack(">4sBH", b"cDSM", WIRE_VERSION, 0)
        payloads = [
            os.urandom(64),                                  # no hello at all
            pickle.dumps(("hello", 0)),                      # the old handshake
            struct.pack(">4sBH", b"cDSM", WIRE_VERSION + 1, 0),  # wrong version
            struct.pack(">4sBH", b"cDSM", WIRE_VERSION, 2),  # node 2 dialling itself
            # Node 0 is already connected: an impersonator is refused
            # before any of its frames (a 4 GiB one here) is looked at.
            hello + struct.pack(">I", 2 ** 32 - 1) + b"x" * 32,
        ]

        def sabotage(runtime):
            family = socket.AF_UNIX if transport == "uds" else socket.AF_INET
            for payload in payloads:
                with socket.socket(family, socket.SOCK_STREAM) as client:
                    client.connect(runtime._addrs[2])
                    client.sendall(payload)

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            cluster, runtime = self._broadcast_run(
                sabotage, transport,
                until=lambda rt: rt.frames_rejected >= len(payloads),
            )
        assert runtime.frames_rejected == len(payloads)
        # No legitimate connection was touched, and every write landed.
        assert runtime.resyncs == 0
        assert runtime.leaked_tasks == []
        assert _asyncio_errors(caplog) == []
        result = check_causal(cluster.history())
        assert result.ok, result.explain()
        assert all(len(node._replica) == 3 for node in cluster.nodes)

    def test_corrupted_frame_closes_and_resyncs_the_channel(self):
        """One bad frame on an established channel: refused, counted,
        connection closed, both directions restart from full stamps, and
        the run — which loses that frame, like any link fault — goes on."""
        def sabotage(runtime):
            encode = runtime.codec.encode
            state = {"armed": True}

            def corrupting(src, dst, message):
                frame = encode(src, dst, message)
                if state["armed"] and (src, dst) == (0, 1):
                    state["armed"] = False
                    data = bytearray(frame.data)
                    data[1] = 0xEE  # no such frame kind
                    frame = frame._replace(data=bytes(data))
                return frame

            runtime.codec.encode = corrupting

        cluster, runtime = self._broadcast_run(sabotage)
        assert runtime.frames_rejected == 1
        assert "unknown frame kind" in runtime.last_rejection
        assert runtime.resyncs >= 2  # both ends of the closed connection
        assert runtime.codec.stamps_full > 3  # the chains reopened
        result = check_causal(cluster.history())
        assert result.ok, result.explain()


class TestByteLedger:
    """The simulator's byte ledger and the live sockets carry one wire.

    One processor works while the others only serve it, so the message
    sequence is the same under both drivers and the per-(kind, src, dst)
    ledgers — counts, model bytes, stamp entries carried and full — must
    be equal record for record; the socket total is then that ledger
    plus a length prefix per frame and the documented tag bytes.
    """

    @staticmethod
    def _program(api):
        for i in range(18):
            location = f"loc{i % 5}"
            if i % 3 == 0:
                yield api.write(location, f"v{i}")
            elif i % 3 == 1:
                yield api.write(location, i)
            else:
                api.discard(location)
                yield api.read(location)

    def _both(self, protocol, program, **knobs):
        sim = DSMCluster(3, protocol=protocol, seed=1, trace_messages=True, **knobs)
        live = LiveCluster(3, protocol=protocol, seed=1, link_delay=0.0, **knobs)
        for cluster in (sim, live):
            cluster.spawn(0, program, name="only")
        return sim, live

    def _assert_equal_ledgers(self, sim, live):
        runtime = live.runtime
        assert runtime.stats._edges == sim.stats._edges
        assert runtime.stats.dropped == sim.stats.dropped
        delivered = [r for r in sim.network.trace if not r.dropped]
        assert runtime.socket_bytes == (
            sim.stats.bytes_total
            + 4 * len(delivered)
            + sum(frame_excess(r.payload) for r in delivered)
        )
        assert runtime.frames_rejected == 0 and runtime.resyncs == 0

    @pytest.mark.parametrize("delta_stamps", [False, True])
    @pytest.mark.parametrize("protocol", ["causal", "atomic", "li"])
    def test_live_ledger_equals_simulator_ledger(self, protocol, delta_stamps):
        sim, live = self._both(protocol, self._program, delta_stamps=delta_stamps)
        sim.run()
        live.run()
        assert sim.stats.total >= 8
        self._assert_equal_ledgers(sim, live)
        assert live.history().to_text() == sim.history().to_text()

    def test_live_ledger_equals_simulator_ledger_over_a_dead_link(self):
        """Same claim with sends dropped before encoding on one link."""
        def program(api):
            for i in range(10):
                yield api.write(f"loc{i % 2}", i)

        sim, live = self._both("broadcast", program, delta_stamps=True)
        sim.network.partition(0, 1, bidirectional=False)
        live.runtime.fail_link(0, 1)
        sim.run()
        live.run()
        assert sim.stats.dropped == 10
        self._assert_equal_ledgers(sim, live)
