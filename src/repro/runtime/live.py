"""Real execution: the asyncio/socket driver behind the runtime handle.

The same protocol-engine code that runs under the deterministic
simulator runs here over real byte streams: every node gets a listening
socket (Unix-domain by default, TCP on request), every ordered node
pair a framed channel, and application generators are driven by the
*simulator's own* :class:`~repro.sim.tasks.Task` machinery pointed at
the asyncio event loop instead of the event heap.  Zero engine forks —
the engines cannot tell which driver they are on.

Wire format
-----------
A connection opens with a fixed 7-byte hello (magic, wire version, the
dialling node's id); after it, each frame is a 4-byte big-endian length
followed by exactly the bytes :class:`~repro.protocols.wire.WireCodec`
produced for the message — the layout of DESIGN.md Section 4.5, the
same bytes the simulator's network carries, and nothing else.  The
per-channel delta-stamp chain is sound here because a SOCK_STREAM
connection gives exactly the per-channel FIFO the codec requires; a run
without ``delta_stamps`` uses the same codec with every stamp full.

Nothing read from a socket is trusted: a bad hello, a length outside
``[HEADER_BYTES, MAX_FRAME]`` (checked before the read it would size),
and any frame the codec refuses are counted in ``frames_rejected`` and
close that connection, which then resyncs from full stamps like any
other lost connection.  Only an exception raised by an engine's own
handler fails the run.

What is and is not preserved
----------------------------
* Handler atomicity: the event loop is single-threaded and handlers are
  plain synchronous calls — an engine's ``handle_message`` runs to
  completion exactly as in the simulator.
* Per-channel FIFO: frames are encoded by a single writer task per
  directed channel and decoded in stream order.
* Determinism is **not** preserved: wall-clock scheduling makes message
  interleavings racy.  The differential harness therefore compares
  checker *verdicts*, never raw histories.

Faults
------
``fail_link`` mirrors the simulator's partition (sends dropped before
encoding, channel marked dirty).  ``kill_connection`` is a harder fault
with no simulator twin: it aborts the live transport mid-run, losing
any frames still queued or buffered in the socket — frames that already
consumed a channel sequence number.  The receiver sees a sequence gap,
the sender's next frame carries a full writestamp (``mark_dirty``), and
the codec's resync path recovers; connections re-establish
automatically.  ``drop_next_frames`` deterministically forces the same
encoded-then-lost gap (the live analogue of the simulator's
crash-on-arrival drop) for tests that must not race.
"""

from __future__ import annotations

import asyncio
import os
import struct
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.protocols.wire import (
    HEADER_BYTES,
    MAX_FRAME,
    WIRE_VERSION,
    WireCodec,
    WireError,
)
from repro.runtime.base import Runtime
from repro.sim.kernel import NO_ARG
from repro.sim.tasks import Future, Task
from repro.sim.trace import NetworkStats

__all__ = ["AsyncioRuntime", "LinkStats"]


@dataclass(frozen=True)
class LinkStats:
    """One directed channel's live accounting, model beside actual.

    ``model_bytes`` is the wire-model cost (the number the simulator
    would report for the same messages); ``socket_bytes`` is what
    actually hit the socket (each frame's bytes plus its 4-byte length
    prefix).  ``queue_depth`` is the outbound backlog at sampling time.
    """

    src: int
    dst: int
    messages: int
    model_bytes: int
    socket_bytes: int
    queue_depth: int

_LENGTH = struct.Struct(">I")
_HELLO = struct.Struct(">4sBH")  # magic, wire version, dialling node id
_MAGIC = b"cDSM"

#: Default artificial per-link one-way delay (seconds).  Real loopback
#: latency is microseconds, which collapses every interleaving the
#: scenarios rely on; a small floor keeps message flight observable.
DEFAULT_LINK_DELAY = 0.002


class _LiveScheduler:
    """Adapter letting the simulator's Task machinery drive generators here.

    :class:`~repro.sim.tasks.Task` touches its scheduler only as
    ``self._scheduler.sim.call_soon(...)`` — so a shim whose ``sim`` is
    the live runtime re-targets every resume at the asyncio loop.
    """

    def __init__(self, runtime: "AsyncioRuntime"):
        self.sim = runtime
        self.tasks: List[Task] = []

    def spawn(self, gen, name: str = "") -> Task:
        if not name:
            name = f"task-{len(self.tasks)}"
        task = Task(self, gen, name)
        self.tasks.append(task)
        self.sim.call_soon(task._step, tag=task._tag, arg=None)
        return task


class _Side:
    """One endpoint's live view of a connection: its reader and writer."""

    __slots__ = ("owner", "peer", "reader", "writer", "tasks")

    def __init__(self, owner: int, peer: int, reader, writer):
        self.owner = owner
        self.peer = peer
        self.reader = reader
        self.writer = writer
        self.tasks: List[asyncio.Task] = []


class _OutQueue:
    """Persistent outbound queue for one directed channel.

    Survives connection loss: messages enqueued while the link is down
    are transmitted after reconnection (the codec's full-stamp resync
    covers the frames that were lost in flight)."""

    __slots__ = ("items", "wake")

    def __init__(self):
        self.items: deque = deque()
        self.wake = asyncio.Event()


class AsyncioRuntime(Runtime):
    """Run protocol engines over real sockets on one asyncio loop.

    Parameters
    ----------
    n_nodes:
        Endpoint count; ids ``0..n_nodes-1`` (plus any extra ids that
        register, e.g. the central server at id ``n_nodes``).
    transport:
        ``"uds"`` (Unix-domain sockets in a temp dir) or ``"tcp"``
        (127.0.0.1, ephemeral ports).
    codec:
        The :class:`~repro.protocols.wire.WireCodec` that frames every
        message; defaults to one writing full stamps (pass
        ``WireCodec()`` for per-channel delta-encoded writestamps).
    link_delay:
        Artificial one-way delay: a float applied to every link, or a
        ``{(src, dst): seconds}`` map (missing pairs get the default).
        Static per channel, so FIFO is preserved.
    seed:
        Seeds :meth:`derived_rng` exactly like the simulator, so a
        workload generator draws the identical op sequence under both
        drivers.
    """

    def __init__(
        self,
        n_nodes: int,
        *,
        transport: str = "uds",
        codec=None,
        link_delay=None,
        seed: int = 0,
        settle: float = 0.05,
        reconnect_delay: float = 0.02,
    ):
        if transport not in ("uds", "tcp"):
            raise SimulationError(f"unknown transport {transport!r}")
        self.n_nodes = n_nodes
        self.transport = transport
        self.codec = codec if codec is not None else WireCodec(delta=False)
        self.seed = seed
        self.settle = settle
        self.reconnect_delay = reconnect_delay
        if isinstance(link_delay, dict):
            self._delay_map = dict(link_delay)
            self._delay_default = DEFAULT_LINK_DELAY
        else:
            self._delay_map = {}
            self._delay_default = (
                DEFAULT_LINK_DELAY if link_delay is None else float(link_delay)
            )
        self.stats = NetworkStats()
        #: Actual bytes written to sockets (frames + headers); the
        #: NetworkStats byte column keeps the wire *model* cost so live
        #: and simulated runs stay comparable.
        self.socket_bytes = 0
        #: Same, broken down per directed channel (LinkStats feedstock).
        self.socket_bytes_by_link: Dict[Tuple[int, int], int] = {}
        self.frames_delivered = 0
        #: Hellos and frames refused (malformed, oversized, wrong channel
        #: or version; 0 on a clean run), and why the latest one was.
        self.frames_rejected = 0
        self.last_rejection: Optional[str] = None
        #: Attached :class:`~repro.obs.plane.TelemetryPlane`, if any.
        #: The runtime starts its sideband after the protocol servers,
        #: notifies it on timeout/crash (flight-recorder triggers) and
        #: stops it before tear-down — observation rides the same loop
        #: but never the same sockets.
        self.plane = None
        self._handlers: Dict[int, Callable[[int, object], None]] = {}
        self._scheduler = _LiveScheduler(self)
        self.tasks: List[Task] = []
        self._pending_spawns: List[Tuple[Any, str]] = []
        #: Observability hooks (collector / kernel-stream compatible).
        self.obs = None
        self.stream = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0: Optional[float] = None
        self.elapsed = 0.0
        self._closing = False
        self._error: Optional[BaseException] = None
        self._done = None  # asyncio.Event, created inside the loop
        self._failed_links: Set[Tuple[int, int]] = set()
        self._force_drop: Dict[Tuple[int, int], int] = {}
        self._out: Dict[Tuple[int, int], _OutQueue] = {}
        self._sides: Dict[Tuple[int, int], _Side] = {}
        self._servers: List = []
        self._supervisors: List[asyncio.Task] = []
        self._io_tasks: Set[asyncio.Task] = set()
        self._accept_tasks: Set[asyncio.Task] = set()
        #: Accepted connections still waiting for their hello.
        self._greeting: Set[asyncio.StreamWriter] = set()
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self._addrs: Dict[int, Any] = {}
        #: Channels forced full-stamp at least once (resync evidence).
        self.resyncs = 0
        #: Task names still alive after tear-down (always empty unless
        #: shutdown accounting has a bug); populated by :meth:`_shutdown`.
        self.leaked_tasks: List[str] = []

    # ------------------------------------------------------------------
    # Runtime interface: time, callbacks, rng, tasks
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        if self._t0 is None:
            return 0.0
        return time.monotonic() - self._t0

    def call_soon(self, callback, tag=None, arg=NO_ARG):
        if arg is NO_ARG:
            self._loop.call_soon(callback)
        else:
            self._loop.call_soon(callback, arg)

    def schedule(self, delay: float, callback, tag=None, arg=NO_ARG):
        if arg is NO_ARG:
            self._loop.call_later(delay, callback)
        else:
            self._loop.call_later(delay, callback, arg)

    def derived_rng(self, label: str):
        import random

        return random.Random(f"{self.seed}/{label}")

    def sleep(self, duration: float) -> Future:
        future = Future(label=f"sleep:{duration}")
        self._loop.call_later(duration, future.resolve, None)
        return future

    def spawn(self, gen, name: str = "") -> Optional[Task]:
        """Queue a generator; it starts when :meth:`run` brings the loop up."""
        if self._loop is None:
            self._pending_spawns.append((gen, name))
            return None
        task = self._scheduler.spawn(gen, name=name)
        self.tasks.append(task)
        return task

    # ------------------------------------------------------------------
    # Runtime interface: messaging
    # ------------------------------------------------------------------
    def register(self, node_id: int, handler) -> None:
        if node_id in self._handlers:
            raise SimulationError(f"node {node_id} registered twice")
        self._handlers[node_id] = handler

    def send(self, src: int, dst: int, message: object) -> None:
        if src == dst or dst not in self._handlers or src not in self._handlers:
            raise SimulationError(f"invalid live channel {src}->{dst}")
        if (src, dst) in self._failed_links:
            # Mirror of the simulator's partition drop: the receiver
            # never sees the frame, so the delta chain must restart.
            self.codec.mark_dirty(src, dst)
            self.stats.dropped += 1
            return
        queue = self._out.get((src, dst))
        if queue is None:
            queue = self._out[(src, dst)] = _OutQueue()
        ready_at = time.monotonic() + self._link_delay(src, dst)
        queue.items.append((ready_at, message))
        queue.wake.set()

    def send_fanout(self, src: int, dsts: Sequence[int], message: object) -> None:
        for dst in dsts:
            self.send(src, dst, message)

    def _link_delay(self, src: int, dst: int) -> float:
        return self._delay_map.get((src, dst), self._delay_default)

    # ------------------------------------------------------------------
    # Back-compat views: DSMNode exposes .sim/.network through these.
    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self

    @property
    def network(self):
        return self

    # ------------------------------------------------------------------
    # Link accounting (the obs-gauge surface of the live transport)
    # ------------------------------------------------------------------
    def link_stats(self) -> List[LinkStats]:
        """Per-directed-channel accounting, model beside socket truth."""
        pairs = self.stats.by_pair
        byte_pairs = self.stats.bytes_by_pair
        channels = sorted(
            set(pairs) | set(self.socket_bytes_by_link) | set(self._out)
        )
        out = []
        for src, dst in channels:
            queue = self._out.get((src, dst))
            out.append(
                LinkStats(
                    src=src,
                    dst=dst,
                    messages=pairs.get((src, dst), 0),
                    model_bytes=byte_pairs.get((src, dst), 0),
                    socket_bytes=self.socket_bytes_by_link.get((src, dst), 0),
                    queue_depth=len(queue.items) if queue is not None else 0,
                )
            )
        return out

    def export_gauges(self, metrics) -> None:
        """Publish live link/transport stats as obs gauges.

        Makes socket bytes, resyncs and queue depths visible to
        ``metrics.snapshot()`` and :func:`repro.analysis.tables.snapshot_table`
        — not only to bench output.  Called automatically at the end of
        every observed run; callable any time for a mid-run sample.
        """
        for link in self.link_stats():
            prefix = f"live.link.{link.src}->{link.dst}"
            metrics.gauge(f"{prefix}.socket_bytes").set(link.socket_bytes)
            metrics.gauge(f"{prefix}.model_bytes").set(link.model_bytes)
            metrics.gauge(f"{prefix}.queue_depth").set(link.queue_depth)
        metrics.gauge("live.socket_bytes").set(self.socket_bytes)
        metrics.gauge("live.model_bytes").set(self.stats.bytes_total)
        metrics.gauge("live.resyncs").set(self.resyncs)
        metrics.gauge("live.frames_rejected").set(self.frames_rejected)
        metrics.gauge("live.frames_delivered").set(self.frames_delivered)
        metrics.gauge("live.dropped").set(self.stats.dropped)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_link(self, src: int, dst: int) -> None:
        """Drop all (src → dst) sends until :meth:`heal_link`."""
        self._failed_links.add((src, dst))

    def heal_link(self, src: int, dst: int) -> None:
        self._failed_links.discard((src, dst))

    def drop_next_frames(self, src: int, dst: int, count: int = 1) -> None:
        """Lose the next ``count`` frames *after* encoding.

        The frames consume channel sequence numbers, so the receiver
        sees a gap — the deterministic analogue of frames lost in
        socket buffers when a connection dies."""
        self._force_drop[(src, dst)] = self._force_drop.get((src, dst), 0) + count

    def kill_connection(self, a: int, b: int) -> None:
        """Abort the live connection between ``a`` and ``b`` mid-run.

        Everything in flight is lost: queued outbound messages (never
        encoded — no gap) and frames buffered in the sockets (encoded —
        a real sequence gap).  Both directions resync from full stamps
        and the client side reconnects automatically."""
        for channel in ((a, b), (b, a)):
            queue = self._out.get(channel)
            if queue is not None:
                self.stats.dropped += len(queue.items)
                queue.items.clear()
            self.codec.mark_dirty(*channel)
        for channel in ((a, b), (b, a)):
            side = self._sides.get(channel)
            if side is not None:
                for task in side.tasks:
                    task.cancel()
                side.writer.transport.abort()

    # ------------------------------------------------------------------
    # Top-level run
    # ------------------------------------------------------------------
    def run(self, timeout: float = 30.0) -> None:
        """Bring the mesh up, run every spawned program, tear down.

        Raises the first application/task failure, or
        :class:`~repro.errors.SimulationError` on timeout (the live
        analogue of the simulator's deadlock detection)."""
        asyncio.run(self._main(timeout))
        for task in self.tasks:
            if task.resolved and task.failed:
                exc = task.exception()
                if self.plane is not None:
                    self.plane.on_crash(
                        f"task {task.name}: {type(exc).__name__}: {exc}"
                    )
                raise exc
        if self._error is not None:
            raise self._error

    async def _main(self, timeout: float) -> None:
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        self._t0 = time.monotonic()
        try:
            await self._start_servers()
            if self.plane is not None:
                # Telemetry sideband up before any protocol task runs,
                # so the very first op.commit is already streamable.
                await self.plane.start_live()
            self._start_supervisors()
            for gen, name in self._pending_spawns:
                task = self._scheduler.spawn(gen, name=name)
                self.tasks.append(task)
            self._pending_spawns.clear()
            try:
                await asyncio.wait_for(self._wait_tasks(), timeout)
            except asyncio.TimeoutError:
                blocked = [t.name for t in self.tasks if not t.resolved]
                if self.plane is not None:
                    # Flight-recorder trigger: snapshot the rings *now*,
                    # while they still hold the ops that led here.
                    self.plane.on_timeout(blocked)
                raise SimulationError(
                    f"live run timed out after {timeout}s; "
                    f"blocked tasks: {blocked}"
                ) from None
            if self._error is None and self.settle > 0:
                # Grace period: let fire-and-forget deliveries (broadcast
                # writes, trailing acks) drain before tear-down.
                await asyncio.sleep(self.settle)
        finally:
            self.elapsed = time.monotonic() - self._t0
            registry = None
            if self.plane is not None:
                registry = self.plane.out.metrics
            elif self.obs is not None:
                registry = self.obs.metrics
            if registry is not None:
                self.export_gauges(registry)
            if self.plane is not None:
                await self.plane.stop_live()
            await self._shutdown()

    async def _wait_tasks(self) -> None:
        if not self.tasks:
            return
        remaining = [len(self.tasks)]
        done = asyncio.Event()

        def on_done(_):
            remaining[0] -= 1
            if remaining[0] == 0:
                done.set()

        for task in self.tasks:
            task.add_done_callback(on_done)
        waiter = asyncio.ensure_future(done.wait())
        aborted = asyncio.ensure_future(self._done.wait())
        try:
            await asyncio.wait(
                {waiter, aborted}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            waiter.cancel()
            aborted.cancel()

    def _abort(self, exc: BaseException) -> None:
        if self._error is None:
            self._error = exc
            if self.plane is not None:
                # First failure only: later aborts are cascade, and the
                # flight recorder wants the rings at the root cause.
                self.plane.on_crash(f"{type(exc).__name__}: {exc}")
        if self._done is not None:
            self._done.set()

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------
    async def _start_servers(self) -> None:
        node_ids = sorted(self._handlers)
        if self.transport == "uds":
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-live-")
            for node in node_ids:
                path = os.path.join(self._tmpdir.name, f"node{node}.sock")
                server = await asyncio.start_unix_server(
                    self._make_accept_handler(node), path=path
                )
                self._servers.append(server)
                self._addrs[node] = path
        else:
            for node in node_ids:
                server = await asyncio.start_server(
                    self._make_accept_handler(node), host="127.0.0.1", port=0
                )
                self._servers.append(server)
                self._addrs[node] = server.sockets[0].getsockname()[:2]

    def _make_accept_handler(self, node: int):
        async def handle(reader, writer):
            # The Server owns this task; track it ourselves because (on
            # 3.11) Server.wait_closed does not wait for open handlers,
            # and _shutdown must see it finish before the leak audit.
            self._accept_tasks.add(asyncio.current_task())
            self._greeting.add(writer)
            try:
                hello = await reader.readexactly(_HELLO.size)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                writer.close()
                return
            finally:
                self._greeting.discard(writer)
            magic, version, peer = _HELLO.unpack(hello)
            # Only the lower id of a pair dials, and only one connection
            # per pair is live: anything else is not one of ours.
            if (
                magic != _MAGIC
                or version != WIRE_VERSION
                or peer not in self._handlers
                or peer >= node
                or (node, peer) in self._sides
            ):
                self._reject(f"hello {hello!r} refused by node {node}")
                writer.close()
                return
            await self._serve_side(_Side(node, peer, reader, writer))

        return handle

    def _reject(self, reason: str) -> None:
        """Count input this runtime refused; the caller closes the link."""
        self.frames_rejected += 1
        self.last_rejection = reason

    def _start_supervisors(self) -> None:
        node_ids = sorted(self._handlers)
        for i, a in enumerate(node_ids):
            for b in node_ids[i + 1 :]:
                task = asyncio.ensure_future(self._client_supervisor(a, b))
                self._supervisors.append(task)

    async def _client_supervisor(self, a: int, b: int) -> None:
        """Node ``a``'s side of the (a, b) connection; reconnects on loss."""
        while not self._closing:
            try:
                if self.transport == "uds":
                    reader, writer = await asyncio.open_unix_connection(
                        self._addrs[b]
                    )
                else:
                    host, port = self._addrs[b]
                    reader, writer = await asyncio.open_connection(host, port)
            except (ConnectionError, OSError):
                await asyncio.sleep(self.reconnect_delay)
                continue
            writer.write(_HELLO.pack(_MAGIC, WIRE_VERSION, a))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                writer.close()
                continue
            await self._serve_side(_Side(a, b, reader, writer))
            await asyncio.sleep(self.reconnect_delay)

    async def _serve_side(self, side: _Side) -> None:
        """Pump one endpoint's reader+writer until the connection dies."""
        self._sides[(side.owner, side.peer)] = side
        side.tasks = [
            asyncio.ensure_future(self._read_loop(side)),
            asyncio.ensure_future(self._write_loop(side)),
        ]
        self._io_tasks.update(side.tasks)
        try:
            await asyncio.wait(side.tasks, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in side.tasks:
                task.cancel()
            await asyncio.gather(*side.tasks, return_exceptions=True)
            self._io_tasks.difference_update(side.tasks)
            if self._sides.get((side.owner, side.peer)) is side:
                del self._sides[(side.owner, side.peer)]
            side.writer.close()
            if not self._closing:
                # Lost connection: this endpoint's outbound chain must
                # restart from a full stamp once the peers reconnect.
                self.codec.mark_dirty(side.owner, side.peer)
                self.resyncs += 1

    # ------------------------------------------------------------------
    # Per-connection I/O loops
    # ------------------------------------------------------------------
    async def _read_loop(self, side: _Side) -> None:
        reader = side.reader
        src, dst = side.peer, side.owner
        decode = self.codec.decode
        handler = self._handlers[dst]
        try:
            while True:
                (length,) = _LENGTH.unpack(await reader.readexactly(4))
                if not HEADER_BYTES <= length <= MAX_FRAME:
                    self._reject(f"{src}->{dst}: frame length {length}")
                    return
                data = await reader.readexactly(length)
                try:
                    message = decode(src, dst, data)
                except WireError as exc:
                    # Returning ends this connection; both directions
                    # then resync from full stamps like any lost link.
                    self._reject(f"{src}->{dst}: {exc}")
                    return
                self.frames_delivered += 1
                if self.stream is not None:
                    self.stream((src, dst))
                try:
                    handler(src, message)
                except BaseException as exc:  # noqa: BLE001 - fail the whole run
                    self._abort(exc)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return  # connection lost; the supervisor handles resync

    async def _write_loop(self, side: _Side) -> None:
        src, dst = side.owner, side.peer
        writer = side.writer
        queue = self._out.get((src, dst))
        if queue is None:
            queue = self._out[(src, dst)] = _OutQueue()
        codec = self.codec
        try:
            while True:
                while not queue.items:
                    queue.wake.clear()
                    await queue.wake.wait()
                ready_at, message = queue.items[0]
                delay = ready_at - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                    continue  # re-check: the queue may have been cleared
                queue.items.popleft()
                data, nbytes, stamp_entries, stamp_entries_full = (
                    codec.encode(src, dst, message)
                )
                force = self._force_drop.get((src, dst), 0)
                if force > 0:
                    # Encoded (sequence number consumed) then lost: the
                    # receiver will see a gap on the next frame.
                    self._force_drop[(src, dst)] = force - 1
                    codec.mark_dirty(src, dst)
                    self.stats.dropped += 1
                    continue
                self.stats.count_sent(
                    message.kind, src, dst, self._link_delay(src, dst),
                    byte_size=nbytes,
                    stamp_entries=stamp_entries,
                    stamp_entries_full=stamp_entries_full,
                )
                nbytes_wire = _LENGTH.size + len(data)
                self.socket_bytes += nbytes_wire
                self.socket_bytes_by_link[(src, dst)] = (
                    self.socket_bytes_by_link.get((src, dst), 0) + nbytes_wire
                )
                writer.write(_LENGTH.pack(len(data)) + data)
                await writer.drain()
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            return  # connection lost mid-write; frames in flight are gone
        except BaseException as exc:  # noqa: BLE001 - fail the whole run
            self._abort(exc)

    # ------------------------------------------------------------------
    # Tear-down
    # ------------------------------------------------------------------
    async def _shutdown(self) -> None:
        self._closing = True
        for task in self._supervisors:
            task.cancel()
        for task in list(self._io_tasks):
            task.cancel()
        pending = self._supervisors + list(self._io_tasks)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._io_tasks.clear()
        for side in list(self._sides.values()):
            side.writer.close()
        self._sides.clear()
        for server in self._servers:
            server.close()
        # Accept handlers are never cancelled: asyncio's stream protocol
        # reads each handler task's exception() when it finishes and logs
        # a cancelled one as an error.  With their I/O tasks gone (above)
        # and any connection still waiting for its hello closed (here),
        # every handler returns by itself.
        for writer in list(self._greeting):
            writer.close()
        if self._accept_tasks:
            await asyncio.gather(*self._accept_tasks, return_exceptions=True)
        self._accept_tasks.clear()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        # Anything still alive at this point (besides the _main task
        # itself) escaped the supervisor/IO-task accounting — the leak
        # test asserts this list is empty after every run.
        current = asyncio.current_task()
        self.leaked_tasks = [
            task.get_name()
            for task in asyncio.all_tasks()
            if task is not current and not task.done()
        ]
