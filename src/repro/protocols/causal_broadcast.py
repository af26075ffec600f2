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
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.clocks import VectorClock
from repro.errors import ProtocolError
from repro.memory.local_store import INITIAL_WRITER, MemoryEntry
from repro.protocols.base import DSMNode, WriteOutcome
from repro.protocols.messages import BroadcastWrite
from repro.sim import Future

__all__ = ["CausalBroadcastNode"]


class CausalBroadcastNode(DSMNode):
    """One fully replicated node updated by causal broadcasts."""

    def __init__(self, node_id: int, **kwargs: Any):
        super().__init__(node_id, **kwargs)
        # V_i[j] = number of broadcasts from j delivered here (own
        # broadcasts count as delivered immediately).
        self.delivered = VectorClock.zero(self.n_nodes)
        self._replica: Dict[str, MemoryEntry] = {}
        self._held_back: List[BroadcastWrite] = []

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
        label = f"bread:{self.node_id}:{location}"
        return Future.completed(entry.value, label)

    def write(self, location: str, value: Any) -> Future:
        """Apply locally, broadcast to everyone else (n-1 messages)."""
        self.stats.writes += 1
        self.stats.local_writes += 1
        self.delivered = self.delivered.increment(self.node_id)
        stamp = self.delivered
        if self.obs is not None and self.obs.wants("proto", "op.write"):
            self.obs.emit(
                "proto", "op.write", node=self.node_id, clock=stamp,
                location=location, mode="broadcast",
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
        self.runtime.send_fanout(
            self.node_id,
            (t for t in range(self.n_nodes) if t != self.node_id),
            message,
        )
        future = Future(label=f"bwrite:{self.node_id}:{location}")
        future.resolve(WriteOutcome(location=location, value=value))
        return future

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
        if not isinstance(message, BroadcastWrite):
            raise ProtocolError(
                f"broadcast node {self.node_id} got unexpected {message!r}"
            )
        self._held_back.append(message)
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
        if stamp[sender] != delivered[sender] + 1:
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
