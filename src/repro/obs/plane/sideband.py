"""The observation sideband — telemetry's own sockets, never protocol's.

The plane's wire rule: telemetry frames travel over a *dedicated*
channel (one aggregator server socket, one client connection per
shard), so attaching observation cannot perturb the protocol sockets'
accounting — ``NetworkStats`` and ``AsyncioRuntime.socket_bytes`` are
byte-identical with the plane on or off, and the bench's v8 section
asserts exactly that.  Sideband traffic is counted separately
(:attr:`LiveSideband.sideband_bytes`).

Mechanically this is a miniature of the live runtime's own transport
(same loop, same framing discipline, same fault surface):

* every :class:`~repro.obs.plane.shard.NodeShard` gets a
  :class:`_ShardLink` — an outbound frame deque drained by a writer
  task over a connection a supervisor keeps alive;
* the aggregator end is one accept-all server; frames are
  self-identifying (each carries its shard id), so there is no hello
  handshake — the reader just splits frames off the stream and feeds
  them with a receive-wall stamp for skew estimation;
* a heartbeat task flushes every shard periodically, so idle shards
  still advance the aggregator's watermark and a quiet node cannot
  stall the merge;
* faults mirror the protocol transport's: :meth:`drop_next_frames`
  loses frames *after* they consumed a frame sequence number (a
  detectable gap), :meth:`kill_connection` aborts a shard's transport
  mid-run (buffered frames lost, supervisor reconnects).

Shutdown drains politely (flush, bounded wait for queues and the
reader to catch up) and then reconciles: any frames cut but never
merged are counted as tail loss, so even a gap at the very end of a
run — which no later frame can reveal — is reported, never silent.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.obs.plane.aggregator import TelemetryAggregator
from repro.obs.plane.frames import TelemetryFrame, encode_frame, split_frames
from repro.obs.plane.shard import NodeShard

__all__ = ["LiveSideband"]

#: How often idle shards are flushed (heartbeat frames; seconds).
DEFAULT_HEARTBEAT = 0.05

#: Shutdown drain deadline (seconds) — how long stop() waits for
#: queued frames to reach the aggregator before reconciling tail loss.
DRAIN_DEADLINE = 2.0


class _ShardLink:
    """One shard's outbound half: frame queue + connection state."""

    __slots__ = (
        "shard", "queue", "wake", "frames_sent", "force_drop",
        "supervisor", "writer_task", "writer",
    )

    def __init__(self, shard: NodeShard):
        self.shard = shard
        self.queue: Deque[TelemetryFrame] = deque()
        self.wake = asyncio.Event()
        self.frames_sent = 0
        self.force_drop = 0
        self.supervisor: Optional[asyncio.Task] = None
        self.writer_task: Optional[asyncio.Task] = None
        self.writer = None

    def enqueue(self, frame: TelemetryFrame) -> None:
        self.queue.append(frame)
        self.wake.set()


class LiveSideband:
    """Dedicated telemetry transport for one live run.

    Parameters
    ----------
    aggregator:
        Destination for every received frame.
    transport:
        ``"uds"`` or ``"tcp"`` — normally mirrored from the runtime so
        the sideband exercises the same socket family as the protocol.
    heartbeat:
        Idle-flush period; 0 disables the heartbeat (tests that drive
        flushes by hand).
    """

    def __init__(
        self,
        aggregator: TelemetryAggregator,
        transport: str = "uds",
        heartbeat: float = DEFAULT_HEARTBEAT,
        reconnect_delay: float = 0.02,
    ):
        self.aggregator = aggregator
        self.transport = transport
        self.heartbeat = heartbeat
        self.reconnect_delay = reconnect_delay
        self.sideband_bytes = 0
        self.frames_dropped = 0
        #: Connections closed for sending a frame that does not parse.
        self.frames_rejected = 0
        self.links: Dict[Any, _ShardLink] = {}
        self._server = None
        self._addr: Any = None
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._reader_tasks: List[asyncio.Task] = []
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, shards: List[NodeShard]) -> None:
        """Bring the server up and connect every shard's link."""
        self.aggregator.bind_recv_wall(time.monotonic)
        if self.transport == "uds":
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-obs-")
            path = os.path.join(self._tmpdir.name, "telemetry.sock")
            self._server = await asyncio.start_unix_server(
                self._handle_stream, path=path
            )
            self._addr = path
        else:
            self._server = await asyncio.start_server(
                self._handle_stream, host="127.0.0.1", port=0
            )
            self._addr = self._server.sockets[0].getsockname()[:2]
        for shard in shards:
            link = _ShardLink(shard)
            self.links[shard.node] = link
            self.aggregator.add_source(shard.node)
            shard.sink = link.enqueue
            link.supervisor = asyncio.ensure_future(self._link_supervisor(link))
        if self.heartbeat > 0:
            self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())

    async def stop(self) -> None:
        """Flush, drain, tear down, reconcile tail loss, close merge."""
        # Final flush: frame whatever is still pending on every shard,
        # then detach the sinks so post-run emits cannot race teardown.
        for link in self.links.values():
            link.shard.flush()
            link.shard.sink = None
        await self._drain()
        self._closing = True
        tasks = [self._heartbeat_task] if self._heartbeat_task else []
        for link in self.links.values():
            if link.supervisor is not None:
                tasks.append(link.supervisor)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._reader_tasks):
            task.cancel()
        if self._reader_tasks:
            await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        self._reader_tasks.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        self._reconcile()
        self.aggregator.close()

    async def _drain(self) -> None:
        """Wait (bounded) for queued frames to arrive at the aggregator.

        Frames lost to a killed connection will never arrive, so besides
        the hard deadline we give up early when the aggregator stops
        making progress — the reconcile step then books the difference
        as tail loss.
        """
        deadline = time.monotonic() + DRAIN_DEADLINE
        last_progress = (time.monotonic(), self.aggregator.frames_merged)
        while time.monotonic() < deadline:
            pending = any(link.queue for link in self.links.values())
            behind = any(
                self.aggregator.sources[node].frames_seen < link.frames_sent
                for node, link in self.links.items()
            )
            if not pending and not behind:
                return
            merged = self.aggregator.frames_merged
            if merged != last_progress[1]:
                last_progress = (time.monotonic(), merged)
            elif not pending and time.monotonic() - last_progress[0] > 0.25:
                return  # stalled: the missing frames are gone for good
            await asyncio.sleep(0.005)

    def _reconcile(self) -> None:
        """Account for tail loss no future frame could ever reveal."""
        for node, link in self.links.items():
            self.aggregator.reconcile(
                node, link.shard.frames_cut, link.shard._seq
            )

    # ------------------------------------------------------------------
    # Faults (the differential tests' telemetry-loss injection)
    # ------------------------------------------------------------------
    def drop_next_frames(self, node: Any, count: int = 1) -> None:
        """Lose the next ``count`` frames from ``node``'s link.

        The frames were already cut (frame_seq consumed), so the
        aggregator sees a numbered gap — deterministic telemetry loss.
        """
        link = self.links[node]
        link.force_drop += count

    def kill_connection(self, node: Any) -> None:
        """Abort ``node``'s sideband transport mid-run.

        Frames buffered in the socket are lost (a gap); the link
        supervisor reconnects and later frames flow again.
        """
        link = self.links[node]
        if link.writer is not None:
            link.writer.transport.abort()

    # ------------------------------------------------------------------
    # Shard side: connection supervision + writer
    # ------------------------------------------------------------------
    async def _link_supervisor(self, link: _ShardLink) -> None:
        while not self._closing:
            try:
                if self.transport == "uds":
                    _, writer = await asyncio.open_unix_connection(self._addr)
                else:
                    host, port = self._addr
                    _, writer = await asyncio.open_connection(host, port)
            except (ConnectionError, OSError):
                await asyncio.sleep(self.reconnect_delay)
                continue
            link.writer = writer
            link.writer_task = asyncio.ensure_future(self._write_loop(link))
            try:
                await asyncio.wait({link.writer_task})
            finally:
                link.writer_task.cancel()
                await asyncio.gather(link.writer_task, return_exceptions=True)
                link.writer = None
                writer.close()
            if self._closing:
                return
            await asyncio.sleep(self.reconnect_delay)

    async def _write_loop(self, link: _ShardLink) -> None:
        writer = link.writer
        try:
            while True:
                while not link.queue:
                    link.wake.clear()
                    await link.wake.wait()
                frame = link.queue.popleft()
                if link.force_drop > 0:
                    link.force_drop -= 1
                    self.frames_dropped += 1
                    continue
                data = encode_frame(frame)
                self.sideband_bytes += len(data)
                link.frames_sent += 1
                writer.write(data)
                await writer.drain()
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            return  # connection died; the supervisor reconnects

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat)
            for link in self.links.values():
                # Cut a frame even when idle: the heartbeat's wall stamp
                # is what advances this shard's merge watermark.
                link.shard.flush()

    # ------------------------------------------------------------------
    # Aggregator side: the receive stream
    # ------------------------------------------------------------------
    async def _handle_stream(self, reader, writer) -> None:
        self._reader_tasks.append(asyncio.current_task())
        buffer = b""
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                buffer += chunk
                try:
                    frames, buffer = split_frames(buffer)
                except ValueError:
                    # Hostile or corrupt input: close this connection
                    # only.  A real shard reconnects, and the frames it
                    # lost show as a sequence gap at the aggregator.
                    self.frames_rejected += 1
                    return
                now = time.monotonic()
                for frame in frames:
                    self.aggregator.feed(frame, recv_wall=now)
        except (ConnectionError, OSError, asyncio.CancelledError):
            return
        finally:
            writer.close()
            task = asyncio.current_task()
            if task in self._reader_tasks:
                self._reader_tasks.remove(task)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "transport": self.transport,
            "sideband_bytes": self.sideband_bytes,
            "frames_dropped": self.frames_dropped,
            "frames_rejected": self.frames_rejected,
            "links": len(self.links),
        }
