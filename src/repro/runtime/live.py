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
``[HEADER_BYTES, MAX_FRAME]`` (checked when the prefix arrives, before
any of that frame is waited for), and any frame the codec refuses are
counted in ``frames_rejected`` and close that connection, which then
resyncs from full stamps like any other lost connection.  Only an
exception raised by an engine's own handler fails the run.

Transport: callbacks, no tasks
------------------------------
Each connection endpoint is one :class:`asyncio.Protocol` and each
directed pair one plain channel record that outlives connections, so no
message costs a task switch.  ``send()`` appends to the channel and
flushes it: on a zero-delay link inline (encode, count,
``transport.write`` before ``send()`` returns), on a delayed link from
one ``loop.call_later`` per channel that writes every message that has
come due in a single ``transport.write``.  A frame is encoded only in
that flush, so a message still in the channel has consumed no sequence
number.  ``data_received`` slices complete ``u32 length | frame``
records out of what has arrived and calls ``decode`` and the handler
directly — **the engine's handler runs inside the transport's read
callback**.  Back-pressure: between asyncio's ``pause_writing`` and
``resume_writing`` a channel's messages stay in it, un-encoded.

What is and is not preserved
----------------------------
* Handler atomicity: the event loop is single-threaded and handlers are
  plain synchronous calls — an engine's ``handle_message`` runs to
  completion exactly as in the simulator.
* Per-channel FIFO: a channel is one deque flushed from its head into
  one connection, and the receiver parses the stream in order.
* Determinism is **not** preserved: wall-clock scheduling makes message
  interleavings racy.  The differential harness therefore compares
  checker *verdicts*, never raw histories.

Faults
------
``fail_link`` mirrors the simulator's partition (sends dropped before
encoding, channel marked dirty).  ``kill_connection`` is a harder fault
with no simulator twin: it aborts the live transport mid-run, losing
any frames buffered in the socket — frames that already consumed a
channel sequence number.  The receiver sees a sequence gap, the
sender's next frame carries a full writestamp (``mark_dirty``), and the
codec's resync path recovers; the lower id of the pair redials, and
messages sent while the link is down wait in the channel for the new
connection.  ``drop_next_frames`` deterministically forces the same
encoded-then-lost gap (the live analogue of the simulator's
crash-on-arrival drop) for tests that must not race.
"""

from __future__ import annotations

import asyncio
import os
import random
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
    prefix), in ``socket_writes`` calls to ``transport.write`` — a
    delayed channel coalesces, so ``messages / socket_writes`` can exceed
    1.  ``queue_depth`` is the backlog when sampled: sent, not encoded."""

    src: int
    dst: int
    messages: int
    model_bytes: int
    socket_bytes: int
    queue_depth: int
    socket_writes: int


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
    ``self._scheduler.sim.call_soon(...)`` and ``.may_continue()`` — so a
    shim whose ``sim`` is the live runtime re-targets every resume at the
    asyncio loop.
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


class _Channel:
    """One directed pair's outbound state; outlives its connections.

    ``items`` holds ``(ready_at, message)`` in send order, un-encoded:
    messages sent while the link is down, paused or not yet due wait
    here for the next flush (the codec's full-stamp resync covers the
    frames a lost connection had in flight)."""

    __slots__ = ("src", "dst", "delay", "items", "conn", "timer",
                 "drop_next", "socket_bytes", "socket_writes")

    def __init__(self, src: int, dst: int, delay: float):
        self.src = src
        self.dst = dst
        self.delay = delay
        self.items: deque = deque()
        #: ``src``'s endpoint of the live connection to ``dst``, if any.
        self.conn: Optional["_Conn"] = None
        #: The pending ``call_later`` flush of a delayed channel.
        self.timer: Optional[asyncio.TimerHandle] = None
        self.drop_next = 0  # frames to lose after encoding
        self.socket_bytes = 0
        self.socket_writes = 0


class _Conn(asyncio.Protocol):
    """``owner``'s endpoint of one connection: parses what arrives.

    Dialled endpoints know their ``peer``; an accepted one learns it
    from the hello (``peer is None`` until then).  ``channel`` is the
    outbound ``(owner, peer)`` channel this endpoint writes for, from
    :meth:`AsyncioRuntime._attach` until the endpoint closes."""

    __slots__ = ("runtime", "owner", "peer", "transport", "channel",
                 "pending", "paused")

    def __init__(self, runtime: "AsyncioRuntime", owner: int,
                 peer: Optional[int] = None):
        self.runtime = runtime
        self.owner = owner
        self.peer = peer
        self.transport: Optional[asyncio.Transport] = None
        self.channel: Optional[_Channel] = None
        self.pending = b""  # bytes received short of a whole record
        self.paused = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        runtime = self.runtime
        runtime._conns.add(self)
        if runtime._closing:
            self.shut(abort=True)
        elif self.peer is not None:  # the dialling end speaks first
            transport.write(_HELLO.pack(_MAGIC, WIRE_VERSION, self.owner))
            runtime._attach(self)

    def shut(self, abort: bool = False) -> None:
        """Close this endpoint; its channel stops writing at once (and
        the transport, its reader removed, delivers nothing more)."""
        self.runtime._detach(self)
        (self.transport.abort if abort else self.transport.close)()

    def connection_lost(self, exc) -> None:
        self.runtime._conns.discard(self)
        self.runtime._detach(self)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        if self.channel is not None and self.channel.timer is None:
            self.runtime._flush(self.channel)

    def _refuse(self, reason: str) -> None:
        """Count input this endpoint will not take and close the link."""
        runtime = self.runtime
        runtime.frames_rejected += 1
        runtime.last_rejection = reason
        self.shut()

    def data_received(self, data: bytes) -> None:
        if self.pending:
            data = self.pending + data
        pos, end = 0, len(data)
        runtime, dst = self.runtime, self.owner
        if self.peer is None:
            if end < _HELLO.size:
                self.pending = data
                return
            pos = _HELLO.size
            magic, version, peer = _HELLO.unpack_from(data)
            # Only the lower id of a pair dials, and only one connection
            # per pair is live: anything else is not one of ours.
            if (
                magic != _MAGIC
                or version != WIRE_VERSION
                or peer not in runtime._handlers
                or peer >= dst
                or runtime._channel(dst, peer).conn is not None
            ):
                self._refuse(f"hello {data[:pos]!r} refused by node {dst}")
                return
            self.peer = peer
            runtime._attach(self)
        src = self.peer
        decode = runtime.codec.decode
        handler = runtime._handlers[dst]
        while self.channel is not None and end - pos >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(data, pos)
            if not HEADER_BYTES <= length <= MAX_FRAME:
                self._refuse(f"{src}->{dst}: frame length {length}")
                return
            start = pos + _LENGTH.size
            if end - start < length:
                break
            pos = start + length
            try:
                message = decode(src, dst, data[start:pos])
            except WireError as exc:
                # Closing ends this connection; both directions then
                # resync from full stamps like any lost link.
                self._refuse(f"{src}->{dst}: {exc}")
                return
            runtime.frames_delivered += 1
            try:
                handler(src, message)
            except Exception as exc:  # noqa: BLE001 - fail the whole run
                runtime._abort(exc)
        self.pending = data[pos:]


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
        #: Attached collector, or None (same contract as ``Simulator.obs``).
        self.obs = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0: Optional[float] = None
        self.elapsed = 0.0
        self._closing = False
        self._error: Optional[BaseException] = None
        self._done = None  # asyncio.Event, created inside the loop
        self._failed_links: Set[Tuple[int, int]] = set()
        self._channels: Dict[Tuple[int, int], _Channel] = {}
        #: Every open endpoint, accepted ones awaiting a hello included.
        self._conns: Set[_Conn] = set()
        self._servers: List = []
        #: Connection attempts in flight — the only tasks besides _main.
        self._dials: Set[asyncio.Task] = set()
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self._addrs: Dict[int, Any] = {}
        #: Channels forced full-stamp at least once (resync evidence).
        self.resyncs = 0
        #: Task names still alive after tear-down (always empty unless
        #: shutdown accounting has a bug); populated by :meth:`_shutdown`.
        self.leaked_tasks: List[str] = []

    # -- Runtime interface: time, callbacks, rng, tasks ----------------
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

    def may_continue(self) -> bool:
        """Never: a task here resumes through the asyncio loop only."""
        return False

    def schedule(self, delay: float, callback, tag=None, arg=NO_ARG):
        if arg is NO_ARG:
            self._loop.call_later(delay, callback)
        else:
            self._loop.call_later(delay, callback, arg)

    def derived_rng(self, label: str):
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

    # -- Runtime interface: messaging ----------------------------------
    def register(self, node_id: int, handler) -> None:
        if node_id in self._handlers:
            raise SimulationError(f"node {node_id} registered twice")
        self._handlers[node_id] = handler

    def send(self, src: int, dst: int, message: object) -> None:
        channel = self._channels.get((src, dst)) or self._channel(src, dst)
        if self._failed_links and (src, dst) in self._failed_links:
            # Mirror of the simulator's partition drop: the receiver
            # never sees the frame, so the delta chain must restart.
            self.codec.mark_dirty(src, dst)
            self.stats.dropped += 1
            return
        delay = channel.delay
        ready_at = time.monotonic() + delay if delay else 0.0
        channel.items.append((ready_at, message))
        if channel.timer is None:
            self._flush(channel)

    def send_fanout(self, src: int, dsts: Sequence[int], message: object) -> None:
        for dst in dsts:
            self.send(src, dst, message)

    def _channel(self, src: int, dst: int) -> _Channel:
        channel = self._channels.get((src, dst))
        if channel is None:
            if src == dst or dst not in self._handlers or src not in self._handlers:
                raise SimulationError(f"invalid live channel {src}->{dst}")
            delay = self._delay_map.get((src, dst), self._delay_default)
            channel = self._channels[(src, dst)] = _Channel(src, dst, delay)
        return channel

    def _flush(self, channel: _Channel) -> None:
        """Encode and write what ``channel`` holds that has come due.

        Runs inline from ``send()`` on a zero-delay link and from the
        channel's one timer on a delayed one; everything due goes out in
        a single ``transport.write``.  Without a connection, or with a
        paused one, messages stay here un-encoded until ``_attach`` /
        ``resume_writing`` flush again."""
        channel.timer = None
        conn = channel.conn
        if conn is None or conn.paused:
            return
        items = channel.items
        src, dst, delay = channel.src, channel.dst, channel.delay
        now = time.monotonic() if delay else 0.0
        records = []
        try:
            while items:
                ready_at, message = items[0]
                if ready_at > now:
                    channel.timer = self._loop.call_later(
                        ready_at - now, self._flush, channel
                    )
                    break
                items.popleft()
                data, nbytes, stamp_entries, stamp_entries_full = (
                    self.codec.encode(src, dst, message)
                )
                if channel.drop_next:
                    # Encoded (sequence number consumed) then lost: the
                    # receiver sees a gap on the next frame.
                    channel.drop_next -= 1
                    self.codec.mark_dirty(src, dst)
                    self.stats.dropped += 1
                    continue
                self.stats.count_sent(
                    message.kind, src, dst, delay,
                    byte_size=nbytes,
                    stamp_entries=stamp_entries,
                    stamp_entries_full=stamp_entries_full,
                )
                records.append(_LENGTH.pack(len(data)))
                records.append(data)
        except Exception as exc:  # noqa: BLE001 - fail the whole run
            self._abort(exc)
        if records:
            data = b"".join(records)
            channel.socket_bytes += len(data)
            channel.socket_writes += 1
            conn.transport.write(data)

    # -- Back-compat views: DSMNode exposes .sim/.network through these
    @property
    def sim(self):
        return self

    @property
    def network(self):
        return self

    # -- Link accounting (the obs-gauge surface of the live transport) -
    @property
    def socket_bytes(self) -> int:
        """Bytes written to sockets (frames + prefixes); ``stats`` is the model."""
        return sum(c.socket_bytes for c in self._channels.values())

    @property
    def socket_writes(self) -> int:
        """The ``transport.write`` calls that carried them."""
        return sum(c.socket_writes for c in self._channels.values())

    def link_stats(self) -> List[LinkStats]:
        """Per-directed-channel accounting, model beside socket truth."""
        pairs = self.stats.by_pair
        byte_pairs = self.stats.bytes_by_pair
        return [
            LinkStats(
                src=src,
                dst=dst,
                messages=pairs.get((src, dst), 0),
                model_bytes=byte_pairs.get((src, dst), 0),
                socket_bytes=channel.socket_bytes,
                queue_depth=len(channel.items),
                socket_writes=channel.socket_writes,
            )
            for (src, dst), channel in sorted(self._channels.items())
        ]

    def export_gauges(self, metrics) -> None:
        """Publish live link/transport stats as obs gauges.

        Makes socket bytes and writes, resyncs and queue depths visible
        to ``metrics.snapshot()`` and
        :func:`repro.analysis.tables.snapshot_table`.  Called at the end
        of every observed run; callable any time for a mid-run sample."""
        for link in self.link_stats():
            prefix = f"live.link.{link.src}->{link.dst}"
            metrics.gauge(f"{prefix}.socket_bytes").set(link.socket_bytes)
            metrics.gauge(f"{prefix}.model_bytes").set(link.model_bytes)
            metrics.gauge(f"{prefix}.queue_depth").set(link.queue_depth)
            metrics.gauge(f"{prefix}.socket_writes").set(link.socket_writes)
        metrics.gauge("live.socket_bytes").set(self.socket_bytes)
        metrics.gauge("live.socket_writes").set(self.socket_writes)
        metrics.gauge("live.model_bytes").set(self.stats.bytes_total)
        metrics.gauge("live.resyncs").set(self.resyncs)
        metrics.gauge("live.frames_rejected").set(self.frames_rejected)
        metrics.gauge("live.frames_delivered").set(self.frames_delivered)
        metrics.gauge("live.dropped").set(self.stats.dropped)

    # -- Fault injection -----------------------------------------------
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
        self._channel(src, dst).drop_next += count

    def kill_connection(self, a: int, b: int) -> None:
        """Abort the live connection between ``a`` and ``b`` mid-run.

        Everything in flight is lost: queued outbound messages (never
        encoded — no gap) and frames buffered in the sockets (encoded —
        a real sequence gap).  Both directions resync from full stamps
        and the client side reconnects automatically."""
        for channel in (self._channel(a, b), self._channel(b, a)):
            self.stats.dropped += len(channel.items)
            channel.items.clear()
            self.codec.mark_dirty(channel.src, channel.dst)
            if channel.conn is not None:
                channel.conn.shut(abort=True)

    # -- Top-level run -------------------------------------------------
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
            node_ids = sorted(self._handlers)
            for i, a in enumerate(node_ids):
                for b in node_ids[i + 1:]:
                    self._dial(a, b)
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
            observer = self.plane.out if self.plane is not None else self.obs
            if observer is not None:
                self.export_gauges(observer.metrics)
            if self.plane is not None:
                await self.plane.stop_live()
            await self._shutdown()

    async def _wait_tasks(self) -> None:
        """Until every task spawned so far resolves, or :meth:`_abort`."""
        remaining = [len(self.tasks)]

        def on_done(_):
            remaining[0] -= 1
            if remaining[0] == 0:
                self._done.set()

        for task in self.tasks:
            task.add_done_callback(on_done)
        if self.tasks:
            await self._done.wait()

    def _abort(self, exc: BaseException) -> None:
        if self._error is None:
            self._error = exc
            if self.plane is not None:
                # First failure only: later aborts are cascade, and the
                # flight recorder wants the rings at the root cause.
                self.plane.on_crash(f"{type(exc).__name__}: {exc}")
        if self._done is not None:
            self._done.set()

    # -- Connection establishment --------------------------------------
    async def _start_servers(self) -> None:
        if self.transport == "uds":
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-live-")
        for node in sorted(self._handlers):
            accept = lambda node=node: _Conn(self, node)  # noqa: E731
            if self.transport == "uds":
                path = os.path.join(self._tmpdir.name, f"node{node}.sock")
                server = await self._loop.create_unix_server(accept, path=path)
                self._addrs[node] = path
            else:
                server = await self._loop.create_server(accept, "127.0.0.1", 0)
                self._addrs[node] = server.sockets[0].getsockname()[:2]
            self._servers.append(server)

    def _dial(self, a: int, b: int) -> None:
        """Start node ``a``'s connection to ``b`` (the lower id dials)."""
        if not self._closing:
            self._dials.add(asyncio.ensure_future(self._connect(a, b)))

    async def _connect(self, a: int, b: int) -> None:
        dial = lambda: _Conn(self, a, b)  # noqa: E731
        try:
            if self.transport == "uds":
                await self._loop.create_unix_connection(dial, self._addrs[b])
            else:
                await self._loop.create_connection(dial, *self._addrs[b])
        except (ConnectionError, OSError):
            self._loop.call_later(self.reconnect_delay, self._dial, a, b)
        except Exception as exc:  # noqa: BLE001 - fail the whole run
            self._abort(exc)
        finally:
            self._dials.discard(asyncio.current_task())

    def _attach(self, conn: _Conn) -> None:
        """``conn`` is now its channel's connection: send what waited."""
        channel = conn.channel = self._channel(conn.owner, conn.peer)
        channel.conn = conn
        if channel.timer is None:
            self._flush(channel)

    def _detach(self, conn: _Conn) -> None:
        """``conn`` is gone (closed by us, by the peer, or aborted)."""
        channel = conn.channel
        if channel is not None:
            channel.conn = conn.channel = None
        if channel is None or self._closing:
            return  # never said hello, detached already, or tearing down
        # Lost connection: this endpoint's outbound chain must restart
        # from a full stamp once the peers reconnect.
        self.codec.mark_dirty(conn.owner, conn.peer)
        self.resyncs += 1
        if conn.owner < conn.peer:  # the lower id dialled, and redials
            self._loop.call_later(
                self.reconnect_delay, self._dial, conn.owner, conn.peer
            )

    # -- Tear-down -----------------------------------------------------
    async def _shutdown(self) -> None:
        self._closing = True
        for task in self._dials:
            task.cancel()
        if self._dials:
            await asyncio.gather(*self._dials, return_exceptions=True)
        for server in self._servers:
            server.close()
        for conn in list(self._conns):
            conn.shut(abort=True)
        while self._conns:
            # Each abort queued its connection_lost; an endpoint that
            # connects this late is shut by its own connection_made.
            await asyncio.sleep(0)
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        # Anything still alive now (besides the _main task itself)
        # escaped the dial accounting: the leak test wants this empty.
        current = asyncio.current_task()
        self.leaked_tasks = [
            task.get_name()
            for task in asyncio.all_tasks()
            if task is not current and not task.done()
        ]
