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
        # Delayed links coalesce what came due: never more writes than frames.
        assert 0 < outcome.socket_writes <= outcome.total_messages
        assert outcome.socket_writes == sum(
            link.socket_writes for link in outcome.link_stats
        )

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


def _links_up(runtime, pairs=1):
    """Every channel of ``pairs`` node pairs has its connection."""
    channels = runtime._channels.values()
    return len(channels) == 2 * pairs and all(c.conn is not None for c in channels)


def test_the_ci_gate_measures_a_clean_run():
    """`bench_live_gate` at toy size: every message of the delayed run is
    timed, nothing is lost, and the timing hooks are gone afterwards."""
    from repro.bench import LIVE_GATE_DELAY, bench_live_gate
    from repro.runtime.live import AsyncioRuntime

    before = AsyncioRuntime.send, AsyncioRuntime.register
    gate = bench_live_gate(rounds=1, ops_per_proc=30)
    assert (AsyncioRuntime.send, AsyncioRuntime.register) == before
    assert gate["clean"] and gate["ops"] == 120
    assert gate["live_over_sim"] > 0 and gate["frames_per_write"] >= 1
    assert gate["transit_p50_ms"] >= LIVE_GATE_DELAY * 1e3


@pytest.mark.parametrize("delay, writes", [(0.0, 5), (0.01, 1)])
def test_a_flush_writes_everything_that_has_come_due(delay, writes):
    """Zero delay: encoded and written inside ``send()``, one write per
    frame.  Delayed: one timer per channel, one write for all five."""
    from repro.protocols import messages as m
    from repro.runtime.live import AsyncioRuntime

    runtime = AsyncioRuntime(2, link_delay=delay)
    received = []
    runtime.register(0, lambda src, message: None)
    runtime.register(1, lambda src, message: received.append(message.request_id))

    def driver():
        while not _links_up(runtime):
            yield runtime.sleep(0.002)
        channel = runtime._channels[(0, 1)]
        timers = set()
        for request_id in range(5):
            runtime.send(0, 1, m.Invalidate(request_id, "x"))
            timers.add(channel.timer)
        assert len(timers) == 1 and (channel.timer is None) == (delay == 0)
        assert channel.socket_writes == (writes if delay == 0 else 0)
        while len(received) < 5:
            yield runtime.sleep(0.002)

    runtime.spawn(driver(), name="driver")
    runtime.run(timeout=10.0)
    assert received == [0, 1, 2, 3, 4]
    (link,) = [s for s in runtime.link_stats() if s.messages]
    assert (link.src, link.dst, link.messages) == (0, 1, 5)
    assert link.socket_writes == runtime.socket_writes == writes


class TestBackPressure:
    """A stalled peer: messages wait in the channel, un-encoded."""

    K = 7

    def _stalled(self, after_stall):
        """Stall 0->1 for real (tiny send buffer, write-buffer limit 0,
        peer not reading), queue K messages behind the stall, then hand
        over to ``after_stall(runtime, sender, receiver, filler, seq)``,
        a generator.  Returns the runtime and node 1's request ids."""
        from repro.clocks import VectorClock
        from repro.protocols import messages as m
        from repro.protocols.wire import WireCodec
        from repro.runtime.live import AsyncioRuntime

        runtime = AsyncioRuntime(2, codec=WireCodec(), link_delay=0.0)
        received = []
        runtime.register(0, lambda src, message: None)
        runtime.register(1, lambda src, message: received.append(message.request_id))
        ids = iter(range(1, 10_000))

        def send(value="v"):
            request_id = next(ids)
            stamp = VectorClock((request_id, 0))
            runtime.send(0, 1, m.WriteRequest(request_id, "x", value, stamp))

        def queued():
            (link,) = [s for s in runtime.link_stats() if (s.src, s.dst) == (0, 1)]
            return link.queue_depth

        def driver():
            while not _links_up(runtime):
                yield runtime.sleep(0.002)
            sender = runtime._channels[(0, 1)].conn
            receiver = runtime._channels[(1, 0)].conn
            sock = sender.transport.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sender.transport.set_write_buffer_limits(high=0)
            receiver.transport.pause_reading()
            filler = 0
            while not sender.paused:
                send("f" * 8192)
                filler += 1
                assert filler < 1000, "the socket never filled"
            assert queued() == 0  # everything so far was encoded
            seq = runtime.codec._send_state[(0, 1)].seq
            assert seq == filler
            for _ in range(self.K):
                send()
            assert queued() == self.K
            assert runtime.codec._send_state[(0, 1)].seq == seq
            assert runtime.stats.by_pair[(0, 1)] == filler
            yield from after_stall(runtime, sender, receiver, filler, seq)

        runtime.spawn(driver(), name="driver")
        runtime.run(timeout=30.0)
        assert runtime.leaked_tasks == [] and runtime.frames_rejected == 0
        return runtime, received

    def test_messages_wait_unencoded_and_arrive_in_order(self):
        def after_stall(runtime, sender, receiver, filler, seq):
            receiver.transport.resume_reading()
            while runtime.frames_delivered < filler + self.K:
                yield runtime.sleep(0.002)
            assert not sender.paused
            assert runtime.codec._send_state[(0, 1)].seq == seq + self.K

        runtime, received = self._stalled(after_stall)
        assert received == list(range(1, len(received) + 1))
        assert len(received) == runtime.stats.by_pair[(0, 1)] > self.K
        assert (runtime.stats.dropped, runtime.resyncs) == (0, 0)

    def test_kill_during_the_stall_drops_them_without_a_sequence_gap(self):
        from repro.clocks import VectorClock
        from repro.protocols import messages as m

        dropped = []

        def after_stall(runtime, sender, receiver, filler, seq):
            dropped.extend(range(filler + 1, filler + self.K + 1))
            runtime.kill_connection(0, 1)
            # Never encoded: dropped and counted, no sequence number used.
            assert runtime.stats.dropped == self.K
            assert runtime.link_stats()[0].queue_depth == 0
            assert runtime.codec._send_state[(0, 1)].seq == seq
            # Sent while the link is down: waits for the redial.
            runtime.send(0, 1, m.WriteRequest(9999, "x", "v", VectorClock((1, 0))))
            assert runtime.link_stats()[0].queue_depth == 1
            before = runtime.frames_delivered
            while runtime.frames_delivered == before:
                yield runtime.sleep(0.002)
            assert runtime.codec._send_state[(0, 1)].seq == seq + 1

        runtime, received = self._stalled(after_stall)
        assert received[-1] == 9999
        assert len(dropped) == self.K and not set(received) & set(dropped)
        assert runtime.resyncs == 2  # both ends of the killed connection


class TestNoTaskPerConnection:
    """The transport is callbacks: tasks do not scale with connections
    or messages, through a kill and a rejected frame included."""

    MAIN = {"AsyncioRuntime._main", "AsyncioRuntime._wait_tasks"}  # + wait_for's
    #: A dial in flight: our connect, and asyncio's own accept half of it.
    DIALS = {"AsyncioRuntime._connect", "BaseSelectorEventLoop._accept_connection2"}

    def test_mid_run_tasks_are_main_its_waiter_and_pending_dials(self, caplog):
        cluster = LiveCluster(
            4, protocol="broadcast", seed=11, delta_stamps=True, link_delay=0.001,
        )
        runtime = cluster.runtime
        samples = []

        def writer(api, me):
            for i in range(30):
                yield api.write(f"loc{i % 3}", f"n{me}v{i}")
                yield runtime.sleep(0.002)

        def corrupt_one_frame():
            encode = runtime.codec.encode

            def corrupting(src, dst, message):
                frame = encode(src, dst, message)
                if (src, dst) == (2, 3):
                    runtime.codec.encode = encode
                    frame = frame._replace(data=frame.data[:1] + b"\xee" + frame.data[2:])
                return frame

            runtime.codec.encode = corrupting

        def probe():
            for step in range(40):
                yield runtime.sleep(0.002)
                if step == 8:
                    runtime.kill_connection(0, 1)
                if step == 16:
                    corrupt_one_frame()
                samples.append((
                    [t.get_coro().__qualname__ for t in asyncio.all_tasks()],
                    sum(c.conn is not None for c in runtime._channels.values()),
                ))

        for proc in range(4):
            cluster.spawn(proc, writer, proc, name=f"w{proc}")
        runtime.spawn(probe(), name="probe")
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            cluster.run()
        assert runtime.resyncs >= 4 and runtime.frames_rejected == 1
        assert len(samples) == 40
        for names, connected in samples:
            assert set(names) <= self.MAIN | self.DIALS, names
            assert len([n for n in names if n in self.MAIN]) == len(set(names) & self.MAIN)
            if connected == 12:  # nothing left to dial
                assert set(names) <= self.MAIN, names
        # Twelve endpoints up and hundreds of frames moving, on two tasks.
        assert sum(connected == 12 for _, connected in samples) > 10
        assert any(connected < 12 for _, connected in samples)
        assert runtime.stats.total > 300
        assert runtime.leaked_tasks == []
        assert _asyncio_errors(caplog) == []
        assert check_causal(cluster.history()).ok


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
