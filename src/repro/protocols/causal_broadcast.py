"""Causal-broadcast memory — the paper's Figure 3 *non-example*.

Section 2: "One way to relate the two models is to assume that each
processor has a copy of the memory (a cache) and writes are sent as
broadcast messages to all processors ...  It may seem that when the
message delivery order preserves causality (for example by using the
causal broadcast protocol of ISIS) the values returned by read operations
will satisfy the requirements of causal memory.  This, however, is not
true."

This engine implements that tempting-but-wrong design faithfully:

* every node replicates every location;
* a write applies locally at once and is broadcast to all other nodes
  with an ISIS-style vector stamp counting *broadcasts delivered per
  sender*;
* delivery is delayed until every causally prior broadcast has been
  delivered (the standard CBCAST rule), then the value simply overwrites
  the local copy;
* reads are local and immediate.

Concurrent writes to one location may be delivered in different orders
at different nodes, so replicas diverge and reads can return values
outside their live sets — the Figure 3 anomaly, which the causal checker
catches (the ``fig3`` program of :mod:`repro.apps.figures`).

With ``batching=True`` (the wire-level fast path) writes still apply
locally at once, but dissemination is deferred: writes accumulate in a
flush window, same-location writes coalesce (only the last survives),
and one :class:`~repro.protocols.messages.BroadcastBatch` per
destination carries the window.  Coalesced-away broadcasts leave *gaps*
in the sender's sequence, so the delivery rule relaxes from
``stamp[sender] == delivered[sender] + 1`` to ``stamp[sender] >
delivered[sender]`` — safe because a batch frame lists its surviving
writes in sender order and each write's stamp dominates the stamps of
everything coalesced beneath it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.clocks import VectorClock
from repro.errors import ProtocolError
from repro.memory.local_store import INITIAL_WRITER, MemoryEntry
from repro.protocols.base import DSMNode, WriteOutcome
from repro.protocols.messages import BroadcastBatch, BroadcastWrite
from repro.sim import Future

__all__ = ["CausalBroadcastNode"]

#: How many scheduler turns a flush may wait for more same-instant writes.
_WB_MAX_DELAY_HOPS = 16
#: Window-size bound: a window this large flushes regardless.
_WB_MAX_WINDOW = 32


class CausalBroadcastNode(DSMNode):
    """One fully replicated node updated by causal broadcasts."""

    def __init__(self, node_id: int, *, batching: bool = False, **kwargs: Any):
        super().__init__(node_id, **kwargs)
        # V_i[j] = number of broadcasts from j delivered here (own
        # broadcasts count as delivered immediately).
        self.delivered = VectorClock.zero(self.n_nodes)
        self._replica: Dict[str, MemoryEntry] = {}
        self._held_back: List[BroadcastWrite] = []
        self.batching = batching
        #: Pending window, location -> the surviving broadcast for it.
        self._wb_window: Dict[str, BroadcastWrite] = {}
        self._wb_flush_scheduled = False
        self._wb_flush_hops = 0
        self._wb_flush_mark = 0
        self._wb_writes_seen = 0
        self.wb_batches = 0
        self.wb_batched_writes = 0
        self.wb_coalesced = 0

    # ------------------------------------------------------------------
    # Application API — reads and writes are local and non-blocking
    # ------------------------------------------------------------------
    def read(self, location: str) -> Future:
        """Read the local replica (never a message)."""
        self.stats.reads += 1
        self.stats.local_read_hits += 1
        entry = self._entry(location)
        if self.obs is not None and self.obs.wants("proto", "op.read"):
            self.obs.emit(
                "proto", "op.read", node=self.node_id, clock=self.delivered,
                location=location, hit=True,
            )
        self._record_read(location, entry)
        future = Future(label=f"bread:{self.node_id}:{location}")
        future.resolve(entry.value)
        return future

    def write(self, location: str, value: Any) -> Future:
        """Apply locally, broadcast to everyone else (n-1 messages)."""
        self.stats.writes += 1
        self.stats.local_writes += 1
        self.delivered = self.delivered.increment(self.node_id)
        stamp = self.delivered
        if self.obs is not None and self.obs.wants("proto", "op.write"):
            self.obs.emit(
                "proto", "op.write", node=self.node_id, clock=stamp,
                location=location,
                mode="batched" if self.batching else "broadcast",
            )
        entry = MemoryEntry(value=value, stamp=stamp, writer=self.node_id)
        self._replica[location] = entry
        self._notify_watchers(location, value)
        self._record_write(location, value, entry)
        message = BroadcastWrite(
            sender=self.node_id,
            seq=stamp[self.node_id],
            location=location,
            value=value,
            stamp=stamp,
        )
        if self.batching:
            # Defer dissemination; only the last write per location in
            # the window is broadcast.  Each write still incremented
            # delivered[self], so coalescing leaves sender-sequence gaps
            # the batched delivery rule is built to jump.
            if location in self._wb_window:
                self.wb_coalesced += 1
                if self.obs is not None and self.obs.wants("proto", "wb.coalesce"):
                    self.obs.emit(
                        "proto", "wb.coalesce", node=self.node_id,
                        clock=stamp, location=location,
                    )
            self._wb_window[location] = message
            self._wb_writes_seen += 1
            if not self._wb_flush_scheduled:
                self._wb_flush_scheduled = True
                self._wb_flush_hops = 0
                self._wb_flush_mark = self._wb_writes_seen
                self.runtime.call_soon(self._wb_flush_tick)
        else:
            self.runtime.send_fanout(
                self.node_id,
                (t for t in range(self.n_nodes) if t != self.node_id),
                message,
            )
        future = Future(label=f"bwrite:{self.node_id}:{location}")
        future.resolve(WriteOutcome(location=location, value=value))
        return future

    def _wb_flush_tick(self) -> None:
        """Delayed flush: re-arm while same-instant writes keep coming.

        The first tick always re-arms once (the application's next step
        is scheduled behind it); afterwards only actual growth of the
        window extends the wait, bounded by ``_WB_MAX_DELAY_HOPS`` turns
        and ``_WB_MAX_WINDOW`` surviving writes.
        """
        if not self._wb_window:
            self._wb_flush_scheduled = False
            return
        grew = self._wb_writes_seen != self._wb_flush_mark
        if (
            (self._wb_flush_hops == 0 or grew)
            and self._wb_flush_hops < _WB_MAX_DELAY_HOPS
            and len(self._wb_window) < _WB_MAX_WINDOW
        ):
            self._wb_flush_hops += 1
            self._wb_flush_mark = self._wb_writes_seen
            self.runtime.call_soon(self._wb_flush_tick)
            return
        self._wb_flush()

    def _wb_flush(self) -> None:
        """Broadcast the window: one BroadcastBatch per destination."""
        self._wb_flush_scheduled = False
        if not self._wb_window:
            return
        survivors = sorted(
            self._wb_window.values(), key=lambda m: m.stamp[self.node_id]
        )
        self._wb_window = {}
        self.wb_batches += 1
        self.wb_batched_writes += len(survivors)
        if self.obs is not None and self.obs.wants("proto", "wb.flush"):
            self.obs.emit(
                "proto", "wb.flush", node=self.node_id, clock=self.delivered,
                writes=len(survivors),
            )
            self.obs.metrics.histogram("wb.batch_occupancy").observe(
                len(survivors)
            )
        batch = BroadcastBatch(sender=self.node_id, writes=tuple(survivors))
        self.runtime.send_fanout(
            self.node_id,
            (t for t in range(self.n_nodes) if t != self.node_id),
            batch,
        )

    def discard(self, location: str) -> bool:
        """Replicas are authoritative; there is nothing to discard."""
        return False

    def watch(self, location: str, predicate):
        """Watch this node's *replica* (the base class watches the store)."""
        future = Future(label=f"watch:{self.node_id}:{location}")
        entry = self._entry(location)
        if predicate(entry.value):
            future.resolve(entry.value)
            return future
        self._watchers.setdefault(location, []).append((predicate, future))
        return future

    # ------------------------------------------------------------------
    # CBCAST delivery
    # ------------------------------------------------------------------
    def handle_message(self, src: int, message: object) -> None:
        """Buffer the broadcast and deliver everything now deliverable."""
        if isinstance(message, BroadcastBatch):
            # FIFO channels + in-frame sender order means held_back stays
            # ordered per sender, which the jump delivery rule requires.
            self._held_back.extend(message.writes)
        elif isinstance(message, BroadcastWrite):
            self._held_back.append(message)
        else:
            raise ProtocolError(
                f"broadcast node {self.node_id} got unexpected {message!r}"
            )
        self._deliver_ready()

    def _deliver_ready(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for held in list(self._held_back):
                if self._deliverable(held):
                    self._held_back.remove(held)
                    self._apply(held)
                    progressed = True

    def _deliverable(self, msg: BroadcastWrite) -> bool:
        stamp = msg.stamp.components
        delivered = self.delivered.components
        sender = msg.sender
        if self.batching:
            # Coalesced-away broadcasts leave gaps in the sender
            # sequence; the sender component may jump forward.  Held
            # messages from one sender are scanned in send order and
            # their stamps are componentwise monotone, so an earlier
            # survivor always delivers before a later one.
            if stamp[sender] <= delivered[sender]:
                return False
        elif stamp[sender] != delivered[sender] + 1:
            return False
        return all(
            s <= d
            for k, (s, d) in enumerate(zip(stamp, delivered))
            if k != sender
        )

    def _apply(self, msg: BroadcastWrite) -> None:
        self.delivered = self.delivered.update(msg.stamp)
        if self.obs is not None and self.obs.wants("proto", "bc.apply"):
            self.obs.emit(
                "proto", "bc.apply", node=self.node_id, clock=msg.stamp,
                location=msg.location, sender=msg.sender,
            )
        entry = MemoryEntry(value=msg.value, stamp=msg.stamp, writer=msg.sender)
        # The naive design: delivery order decides, even between
        # concurrent writes — this is precisely what breaks causal
        # memory's semantics (Figure 3).
        self._replica[msg.location] = entry
        self._notify_watchers(msg.location, msg.value)

    # ------------------------------------------------------------------
    # Replica access
    # ------------------------------------------------------------------
    def _entry(self, location: str) -> MemoryEntry:
        entry = self._replica.get(location)
        if entry is None:
            entry = MemoryEntry(
                value=self.store.initial_value,
                stamp=VectorClock.zero(self.n_nodes),
                writer=INITIAL_WRITER,
            )
            self._replica[location] = entry
        return entry

    @property
    def held_back_count(self) -> int:
        """Broadcasts buffered awaiting causally prior deliveries."""
        return len(self._held_back)

    def replica_value(self, location: str) -> Any:
        """Peek at the replica without recording a read (tests)."""
        return self._entry(location).value
