"""The reliable, per-channel FIFO message layer.

Section 3 of the paper assumes "only local memory accesses and reliable,
ordered message passing between any two processors".  This module provides
exactly that contract on top of the simulation kernel:

* **Reliable** — every sent message is delivered (unless a test explicitly
  injects a partition or drop via :mod:`repro.sim.faults`).
* **Ordered** — per directed pair (src, dst), messages are delivered in send
  order.  The network enforces this by clamping each delivery time to be no
  earlier than the previous delivery on the same channel, even under jittery
  latency models.

Nodes are integers.  Each node registers a single handler; protocol engines
dispatch internally on the message's ``kind``.

Every send is charged a deterministic wire cost (bytes and writestamp
entries, per :mod:`repro.protocols.wire`) which accumulates in
:attr:`Network.stats` per kind and per directed edge.  With a
:class:`~repro.protocols.wire.WireCodec` installed every message crosses
the network as its encoded frame (the bytes the live runtime puts on a
socket, stamps delta-encoded per channel); the network tells the codec
about every loss (drop, partition, crash) so it falls back to full stamps.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.sim.kernel import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.trace import MessageRecord, MessageTrace, NetworkStats

__all__ = ["Network", "Delivery"]

Handler = Callable[[int, object], None]


class Delivery:
    """One prepared message delivery: the kernel event's payload record.

    ``_prepare`` allocates exactly one of these per accepted message; the
    kernel then dispatches it through the single bound method
    :meth:`Network._deliver` (``callback(arg)``), replacing the closure +
    cell pair the old per-message lambdas allocated.
    """

    __slots__ = ("deliver_at", "src", "dst", "payload", "kind")

    def __init__(self, deliver_at, src, dst, payload, kind):
        self.deliver_at = deliver_at
        self.src = src
        self.dst = dst
        self.payload = payload
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Delivery(t={self.deliver_at!r}, {self.src}->{self.dst}, "
            f"kind={self.kind!r})"
        )


class Network:
    """Connects protocol engines with reliable FIFO channels.

    Parameters
    ----------
    sim:
        The simulation kernel supplying time and the RNG.
    latency:
        Delay model; defaults to :class:`ConstantLatency` (1 time unit).
    trace_messages:
        If True, keep a full :class:`MessageTrace` (tests and examples);
        counters in :attr:`stats` are always maintained.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        trace_messages: bool = False,
        send_service_time: float = 0.0,
        codec: Optional[object] = None,
        batch_delivery: bool = False,
    ):
        if send_service_time < 0:
            raise NetworkError(
                f"service time must be non-negative, got {send_service_time}"
            )
        # Imported here, not at module level: repro.protocols.base imports
        # repro.sim, so a module-level import of the wire model would be
        # circular.  Networks are built long after both packages load.
        from repro.protocols.wire import WireCodec, cost_table, fast_cost

        if codec is not None and not isinstance(codec, WireCodec):
            raise NetworkError(f"codec must be a WireCodec, got {codec!r}")
        self._measure = fast_cost
        self._cost_table = cost_table()
        self.codec = codec
        self.sim = sim
        self.latency = latency or ConstantLatency(1.0)
        #: Per-sender transmit serialization: each outgoing message
        #: occupies the sender's interface for this long, modelling
        #: bounded NIC bandwidth.  0 (default) = infinite bandwidth,
        #: which is the paper's counting model.
        self.send_service_time = send_service_time
        self._sender_busy_until: Dict[int, float] = {}
        self.stats = NetworkStats()
        self.trace = MessageTrace(enabled=trace_messages)
        self._handlers: Dict[int, Handler] = {}
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        self._partitioned: Set[Tuple[int, int]] = set()
        self._crashed: Set[int] = set()
        self._drop_rate: float = 0.0
        #: True iff any partition/crash/drop-rate is configured.  The
        #: per-message fast path tests this one flag instead of three
        #: structures; every fault mutator recomputes it.
        self._faults_active = False
        self._seq = 0
        self._rng = sim.derived_rng("network")
        #: When True, :meth:`send_fanout` groups a fan-out's same-instant
        #: deliveries into one kernel heap entry (event-order equivalent
        #: to individual sends; see :meth:`send_fanout`).
        self.batch_delivery = batch_delivery
        #: Attached TraceCollector, or None (all emits are guarded).
        self.obs = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, node_id: int, handler: Handler) -> None:
        """Attach the message handler for ``node_id``."""
        if node_id in self._handlers:
            raise NetworkError(f"node {node_id} registered twice")
        self._handlers[node_id] = handler

    @property
    def node_ids(self) -> list[int]:
        """All registered node ids, sorted."""
        return sorted(self._handlers)

    # ------------------------------------------------------------------
    # Fault injection (test instrument; the paper assumes a reliable net)
    # ------------------------------------------------------------------
    def partition(self, src: int, dst: int, bidirectional: bool = True) -> None:
        """Silently drop messages on the given link(s)."""
        self._partitioned.add((src, dst))
        if bidirectional:
            self._partitioned.add((dst, src))
        self._refresh_faults_flag()
        if self.obs is not None and self.obs.wants("fault", "partition.open"):
            self.obs.emit(
                "fault", "partition.open",
                src=src, dst=dst, bidirectional=bidirectional,
            )

    def heal(self, src: int, dst: int, bidirectional: bool = True) -> None:
        """Undo :meth:`partition` for the given link(s)."""
        self._partitioned.discard((src, dst))
        if bidirectional:
            self._partitioned.discard((dst, src))
        self._refresh_faults_flag()
        if self.obs is not None and self.obs.wants("fault", "partition.close"):
            self.obs.emit(
                "fault", "partition.close",
                src=src, dst=dst, bidirectional=bidirectional,
            )

    def heal_all(self) -> None:
        """Remove every partition and crash."""
        self._partitioned.clear()
        self._crashed.clear()
        self._refresh_faults_flag()
        if self.obs is not None and self.obs.wants("fault", "heal_all"):
            self.obs.emit("fault", "heal_all")

    def crash(self, node_id: int) -> None:
        """Drop all messages to and from ``node_id``."""
        self._crashed.add(node_id)
        self._refresh_faults_flag()
        if self.codec is not None:
            # In-flight messages to the node will be lost on arrival;
            # restart every affected delta chain from a full stamp.
            self.codec.mark_node_dirty(node_id)
        if self.obs is not None and self.obs.wants("fault", "crash"):
            self.obs.emit("fault", "crash", node=node_id)

    def set_drop_rate(self, rate: float) -> None:
        """Drop each message independently with probability ``rate``."""
        if not 0.0 <= rate <= 1.0:
            raise NetworkError(f"drop rate must be in [0, 1], got {rate}")
        self._drop_rate = rate
        self._refresh_faults_flag()
        if self.obs is not None and self.obs.wants("fault", "drop_rate"):
            self.obs.emit("fault", "drop_rate", rate=rate)

    def _refresh_faults_flag(self) -> None:
        self._faults_active = bool(
            self._partitioned or self._crashed or self._drop_rate > 0.0
        )

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: object) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        The message object must expose a ``kind`` attribute (a short string)
        used for counting; protocol message dataclasses all do.

        ``send`` is exactly the single-destination case of
        :meth:`send_fanout`: both run one :meth:`_prepare` per message and
        hand the resulting :class:`Delivery` record to :meth:`_dispatch`.
        """
        delivery = self._prepare(src, dst, message)
        if delivery is not None:
            self._dispatch(delivery)

    def _dispatch(self, delivery: Delivery) -> None:
        """Schedule one prepared delivery as an arg-carrying kernel event."""
        self.sim.schedule_at(
            delivery.deliver_at,
            self._deliver,
            tag=("deliver", delivery.src, delivery.dst, delivery.kind),
            arg=delivery,
        )

    def send_fanout(self, src: int, dsts, message: object) -> None:
        """Send one message to several destinations (a broadcast fan-out).

        Semantically identical to ``send`` in destination order.  With
        :attr:`batch_delivery` enabled, deliveries landing at the same
        instant are scheduled as ONE kernel heap entry
        (:meth:`~repro.sim.kernel.Simulator.schedule_fanout_at`), which
        amortises heap churn and trace emission across the group.

        Event-order equivalence: individually scheduled fan-out events
        carry consecutive sequence numbers, so no foreign same-time event
        can pop between them; running them back-to-back inside one entry
        executes the identical global callback order.  Deliveries clamped
        to distinct times (per-channel FIFO floors) stay separate events.
        """
        groups: Dict[float, list] = {}
        for dst in dsts:
            delivery = self._prepare(src, dst, message)
            if delivery is not None:
                groups.setdefault(delivery.deliver_at, []).append(delivery)
        for deliver_at, group in groups.items():
            if self.batch_delivery and len(group) > 1:
                self.sim.schedule_fanout_at(
                    deliver_at,
                    self._deliver,
                    group,
                    tag=(
                        "deliver_batch", src,
                        tuple(d.dst for d in group), group[0].kind,
                    ),
                )
            else:
                for delivery in group:
                    self._dispatch(delivery)

    def _reject_endpoints(self, src: int, dst: int) -> None:
        """Cold path: diagnose an invalid (src, dst) pair and raise."""
        if dst not in self._handlers:
            raise NetworkError(f"message to unregistered node {dst}")
        if src not in self._handlers:
            raise NetworkError(f"message from unregistered node {src}")
        raise NetworkError("a node may not message itself; use local state")

    def _prepare(self, src: int, dst: int, message: object):
        """Account, encode, and time one message; returns the prepared
        :class:`Delivery` or None when the message drops."""
        handlers = self._handlers
        if src == dst or dst not in handlers or src not in handlers:
            self._reject_endpoints(src, dst)

        try:
            kind = message.kind
        except AttributeError:
            kind = type(message).__name__
        self._seq += 1
        seq = self._seq
        now = self.sim.now

        dropped = self._faults_active and (
            (src, dst) in self._partitioned
            or src in self._crashed
            or dst in self._crashed
            or (self._drop_rate > 0.0 and self._rng.random() < self._drop_rate)
        )
        if dropped:
            if self.codec is not None:
                # The receiver will never see this message, so the delta
                # basis diverges: restart the chain from a full stamp.
                self.codec.mark_dirty(src, dst)
            # Dropped sends still consumed the sender's bandwidth: charge
            # the undeltaed wire cost (the codec never saw the message,
            # so no delta basis advanced).
            nbytes, stamp_entries = self._measure(message)
            record = MessageRecord(
                seq=seq, src=src, dst=dst, kind=kind, payload=message,
                sent_at=now, delivered_at=float("inf"), dropped=True,
                byte_size=nbytes, stamp_entries=stamp_entries,
            )
            self.stats.record(record)
            self.trace.record(record)
            if self.obs is not None and self.obs.wants("net", "drop"):
                self.obs.emit(
                    "net", "drop", node=src,
                    kind=kind, src=src, dst=dst, bytes=nbytes,
                )
            return None

        if self.codec is not None:
            # The delivery carries the frame's bytes, as a socket would.
            payload, nbytes, stamp_entries, stamp_entries_full = (
                self.codec.encode(src, dst, message)
            )
        else:
            payload = message
            cost_fn = self._cost_table.get(type(message))
            if cost_fn is not None:
                nbytes, stamp_entries = cost_fn(message)
            else:
                nbytes, stamp_entries = self._measure(message)
            stamp_entries_full = stamp_entries

        delay = self.latency.delay(src, dst, self._rng)
        if delay < 0:
            raise NetworkError(f"latency model produced negative delay {delay}")
        transmit_at = now
        service = self.send_service_time
        if service > 0:
            transmit_at = max(now, self._sender_busy_until.get(src, 0.0))
            self._sender_busy_until[src] = transmit_at + service
            transmit_at += service
        deliver_at = transmit_at + delay
        # FIFO clamp: never deliver before an earlier message on the channel.
        channel = (src, dst)
        last = self._last_delivery
        floor = last.get(channel)
        if floor is not None and floor > deliver_at:
            deliver_at = floor
        last[channel] = deliver_at

        self.stats.count_sent(
            kind, src, dst, deliver_at - now,
            byte_size=nbytes,
            stamp_entries=stamp_entries,
            stamp_entries_full=stamp_entries_full,
        )
        if self.trace.enabled:
            # The full MessageRecord is only materialised when someone is
            # listening — construction dominates `send` otherwise.
            self.trace.record(MessageRecord(
                seq=seq, src=src, dst=dst, kind=kind, payload=message,
                sent_at=now, delivered_at=deliver_at, dropped=False,
                byte_size=nbytes, stamp_entries=stamp_entries,
            ))
        if self.obs is not None and self.obs.wants("net", "send"):
            # The flight is a span: ts = send time, dur = time on the wire.
            self.obs.emit(
                "net", "send", node=src, dur=deliver_at - now,
                kind=kind, src=src, dst=dst, bytes=nbytes,
            )
        return Delivery(deliver_at, src, dst, payload, kind)

    def _deliver(self, delivery: Delivery) -> None:
        src = delivery.src
        dst = delivery.dst
        payload = delivery.payload
        if self._crashed and dst in self._crashed:
            # Crashed after send; message lost on arrival.  The receiver's
            # delta basis never advanced, so the channel must resync.
            if self.codec is not None:
                self.codec.mark_dirty(src, dst)
            if self.obs is not None and self.obs.wants("net", "drop_on_arrival"):
                self.obs.emit(
                    "net", "drop_on_arrival", node=dst,
                    kind=delivery.kind, src=src, dst=dst,
                )
            return
        if self.codec is not None:
            payload = self.codec.decode(src, dst, payload)
        if self.obs is not None and self.obs.wants("net", "deliver"):
            self.obs.emit(
                "net", "deliver", node=dst,
                kind=delivery.kind, src=src, dst=dst,
            )
        self._handlers[dst](src, payload)
