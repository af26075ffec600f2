"""Li–Hudak dynamic distributed-manager DSM (migrating ownership).

The paper's Section 4.1 names Li's shared virtual memory [Li & Hudak,
TOCS 1989] as "a representative atomic DSM".  The fixed-owner baseline
in :mod:`repro.protocols.atomic_owner` captures its invalidation cost
model; this engine implements the *actual* dynamic distributed manager
algorithm, where ownership migrates to writers:

* every node keeps a per-location hint ``prob_owner`` (initially the
  static hash owner) — requests are forwarded along hint chains until
  they reach the true owner;
* a read miss chases the chain; the owner adds the requester to the
  location's copyset and replies directly; the requester repoints its
  hint at the replying owner;
* a write by a non-owner requests *ownership*: the request chases the
  chain (each forwarder repoints its hint at the requester — Li's path
  compression), the owner hands over the value and copyset, and the new
  owner invalidates every copy before applying its write — after which
  further writes by the same node are local;
* a node whose ownership request is in flight marks itself *pending*
  and queues any requests that reach it until the grant arrives, which
  (with FIFO channels) keeps forwarding chains acyclic and finite.

Executions remain sequentially consistent: per location there is a
single owner at any time, ownership transfers are serialized, writes
install only after every stale copy is invalidated, and processors
block per operation.  The fuzz tests verify this with the SC checker.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Deque, Dict, Optional, Set, Tuple

from repro.clocks import VectorClock
from repro.errors import ProtocolError
from repro.memory.local_store import MemoryEntry
from repro.protocols.base import DSMNode, WriteOutcome
from repro.sim import Future

__all__ = ["LiHudakNode"]


def _identity_stamp(n_nodes: int, writer: int, seq: int) -> VectorClock:
    components = [0] * n_nodes
    components[writer] = seq
    return VectorClock(components)


# ----------------------------------------------------------------------
# Messages (module-local: only this engine speaks them)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MigRead:
    """Read request, forwarded along prob_owner chains."""

    kind: ClassVar[str] = "M_READ"
    request_id: int
    location: str
    requester: int


@dataclass(frozen=True)
class MigReadReply:
    """Owner's direct reply to the original requester."""

    kind: ClassVar[str] = "M_REPLY"
    request_id: int
    location: str
    value: Any
    stamp: VectorClock
    writer: int
    owner: int


@dataclass(frozen=True)
class MigOwnRequest:
    """Ownership (write) request, forwarded with path compression."""

    kind: ClassVar[str] = "M_OWN"
    request_id: int
    location: str
    requester: int


@dataclass(frozen=True)
class MigGrant:
    """Ownership transfer: current value + copyset to the new owner."""

    kind: ClassVar[str] = "M_GRANT"
    request_id: int
    location: str
    value: Any
    stamp: VectorClock
    writer: int
    copyset: Tuple[int, ...]


@dataclass(frozen=True)
class MigInvalidate:
    """New owner tells a copyset member to drop its copy."""

    kind: ClassVar[str] = "M_INV"
    request_id: int
    location: str


@dataclass(frozen=True)
class MigInvalidateAck:
    """Copy dropped."""

    kind: ClassVar[str] = "M_INV_ACK"
    request_id: int
    location: str


class _OwnedState:
    """Per-location state held only at the current owner."""

    __slots__ = ("entry", "copyset")

    def __init__(self, entry: MemoryEntry, copyset: Set[int]):
        self.entry = entry
        self.copyset = copyset


class _PendingWrite:
    """A local write waiting for ownership and/or invalidation."""

    __slots__ = ("future", "value", "seq", "awaiting", "started")

    def __init__(self, future: Future, value: Any, seq: int, started: float):
        self.future = future
        self.value = value
        self.seq = seq
        self.awaiting: Set[int] = set()
        self.started = started


class LiHudakNode(DSMNode):
    """One processor of the migrating-ownership coherent DSM."""

    def __init__(self, node_id: int, **kwargs: Any):
        super().__init__(node_id, **kwargs)
        self._write_seq = 0
        self._prob_owner: Dict[str, int] = {}
        self._owned: Dict[str, _OwnedState] = {}
        self._pending_reads: Dict[int, Tuple[Future, str, float]] = {}
        # One in-flight local write per location (ops block per process,
        # but several processes' requests can target one location here).
        self._pending_writes: Dict[str, _PendingWrite] = {}
        self._busy: Set[str] = set()  # owner mid-invalidation
        self._deferred: Dict[str, Deque[Callable[[], None]]] = {}
        self._cache: Dict[str, MemoryEntry] = {}
        self._request_meta: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Ownership bookkeeping
    # ------------------------------------------------------------------
    def _initial_owner(self, location: str) -> int:
        return self.namespace.owner(location)

    def prob_owner(self, location: str) -> int:
        """Current best guess of the location's owner."""
        return self._prob_owner.get(location, self._initial_owner(location))

    def is_owner(self, location: str) -> bool:
        """True iff this node currently owns the location."""
        if location in self._owned:
            return True
        # Bootstrapping: the static owner owns until a grant moves it.
        if (
            self._initial_owner(location) == self.node_id
            and location not in self._prob_owner
        ):
            self._owned[location] = _OwnedState(
                entry=self.store.initial_entry(), copyset=set()
            )
            return True
        return False

    def _pending_self(self, location: str) -> bool:
        return location in self._pending_writes

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------
    def read(self, location: str) -> Future:
        """Read: local at the owner or on a valid copy, else chase."""
        self.stats.reads += 1
        future = Future(label=f"mread:{self.node_id}:{location}")
        if self.is_owner(location):
            if location in self._busy:
                self._defer(location, lambda: self._finish_owner_read(
                    location, future))
            else:
                self._finish_owner_read(location, future)
            return future
        cached = self._cache.get(location)
        if cached is not None:
            self.stats.local_read_hits += 1
            self._record_read(location, cached)
            future.resolve(cached.value)
            return future
        self.stats.remote_reads += 1
        request_id = self.next_request_id()
        self._pending_reads[request_id] = (future, location, self.runtime.now)
        self.runtime.send(
            self.node_id,
            self.prob_owner(location),
            MigRead(request_id=request_id, location=location,
                    requester=self.node_id),
        )
        return future

    def _finish_owner_read(self, location: str, future: Future) -> None:
        entry = self._owned[location].entry
        self.stats.local_read_hits += 1
        self._record_read(location, entry)
        future.resolve(entry.value)

    def write(self, location: str, value: Any) -> Future:
        """Write: local at the owner after invalidation, else migrate."""
        self.stats.writes += 1
        self._write_seq += 1
        future = Future(label=f"mwrite:{self.node_id}:{location}")
        pending = _PendingWrite(
            future=future, value=value, seq=self._write_seq,
            started=self.runtime.now,
        )
        if self.is_owner(location):
            self.stats.local_writes += 1
            if location in self._busy or location in self._pending_writes:
                self._defer(
                    location,
                    lambda: self._begin_owned_write(location, pending),
                )
            else:
                self._pending_writes[location] = pending
                self._begin_invalidation(location)
        else:
            self.stats.remote_writes += 1
            if location in self._pending_writes:
                raise ProtocolError(
                    "one application process per node: overlapping writes"
                )
            self._pending_writes[location] = pending
            request_id = self.next_request_id()
            self._request_meta[request_id] = location
            self.runtime.send(
                self.node_id,
                self.prob_owner(location),
                MigOwnRequest(
                    request_id=request_id, location=location,
                    requester=self.node_id,
                ),
            )
            # Optimistically point at ourselves: we are the next owner.
            self._prob_owner[location] = self.node_id
        return future

    def _begin_owned_write(self, location: str, pending: _PendingWrite) -> None:
        if location in self._busy or location in self._pending_writes:
            self._defer(
                location, lambda: self._begin_owned_write(location, pending)
            )
            return
        self._pending_writes[location] = pending
        self._begin_invalidation(location)

    # ------------------------------------------------------------------
    # Invalidation at the (possibly new) owner
    # ------------------------------------------------------------------
    def _begin_invalidation(self, location: str) -> None:
        state = self._owned[location]
        pending = self._pending_writes[location]
        targets = state.copyset - {self.node_id}
        pending.awaiting = set(targets)
        self._busy.add(location)
        if not targets:
            self._finish_write(location)
            return
        for target in sorted(targets):
            self.runtime.send(
                self.node_id,
                target,
                MigInvalidate(request_id=pending.seq, location=location),
            )

    def _finish_write(self, location: str) -> None:
        state = self._owned[location]
        pending = self._pending_writes.pop(location)
        entry = MemoryEntry(
            value=pending.value,
            stamp=_identity_stamp(self.n_nodes, self.node_id, pending.seq),
            writer=self.node_id,
        )
        state.entry = entry
        state.copyset = set()
        self._cache.pop(location, None)
        self._busy.discard(location)
        self._notify_watchers(location, pending.value)
        self.stats.blocked_time += self.runtime.now - pending.started
        self._record_write(location, pending.value, entry)
        pending.future.resolve(
            WriteOutcome(location=location, value=pending.value)
        )
        self._drain(location)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, src: int, message: object) -> None:
        """Dispatch one delivered message (runs atomically)."""
        if isinstance(message, MigRead):
            self._on_read(message)
        elif isinstance(message, MigReadReply):
            self._on_read_reply(message)
        elif isinstance(message, MigOwnRequest):
            self._on_own_request(message)
        elif isinstance(message, MigGrant):
            self._on_grant(message)
        elif isinstance(message, MigInvalidate):
            self._on_invalidate(src, message)
        elif isinstance(message, MigInvalidateAck):
            self._on_invalidate_ack(src, message)
        else:
            raise ProtocolError(
                f"li-hudak node {self.node_id} got unexpected {message!r}"
            )

    # -- read chain ------------------------------------------------------
    def _on_read(self, msg: MigRead) -> None:
        location = msg.location
        if self.is_owner(location):
            if location in self._busy:
                self._defer(location, lambda: self._on_read(msg))
                return
            state = self._owned[location]
            state.copyset.add(msg.requester)
            self.runtime.send(
                self.node_id,
                msg.requester,
                MigReadReply(
                    request_id=msg.request_id,
                    location=location,
                    value=state.entry.value,
                    stamp=state.entry.stamp,
                    writer=state.entry.writer,
                    owner=self.node_id,
                ),
            )
            return
        if self._pending_self(location):
            # We are about to own it; serve once the grant arrives.
            self._defer(location, lambda: self._on_read(msg))
            return
        self.runtime.send(self.node_id, self.prob_owner(location), msg)

    def _on_read_reply(self, msg: MigReadReply) -> None:
        future, location, started = self._pending_reads.pop(msg.request_id)
        entry = MemoryEntry(value=msg.value, stamp=msg.stamp, writer=msg.writer)
        self._cache[location] = entry
        self._prob_owner[location] = msg.owner
        self.stats.blocked_time += self.runtime.now - started
        self._record_read(location, entry)
        future.resolve(msg.value)

    # -- ownership chain ---------------------------------------------------
    def _on_own_request(self, msg: MigOwnRequest) -> None:
        location = msg.location
        if self.is_owner(location):
            if location in self._busy or location in self._pending_writes:
                self._defer(location, lambda: self._on_own_request(msg))
                return
            state = self._owned.pop(location)
            self._prob_owner[location] = msg.requester
            if self.obs is not None and self.obs.wants("proto", "own.grant"):
                self.obs.emit(
                    "proto", "own.grant", node=self.node_id,
                    clock=state.entry.stamp, location=location,
                    to=msg.requester,
                )
            self.runtime.send(
                self.node_id,
                msg.requester,
                MigGrant(
                    request_id=msg.request_id,
                    location=location,
                    value=state.entry.value,
                    stamp=state.entry.stamp,
                    writer=state.entry.writer,
                    copyset=tuple(sorted(state.copyset | {self.node_id})),
                ),
            )
            # Anything still queued here chases the new owner.
            self._drain(location)
            return
        if self._pending_self(location) and msg.requester != self.node_id:
            self._defer(location, lambda: self._on_own_request(msg))
            return
        target = self.prob_owner(location)
        # Path compression: future requests here go to the new owner.
        self._prob_owner[location] = msg.requester
        self.runtime.send(self.node_id, target, msg)

    def _on_grant(self, msg: MigGrant) -> None:
        location = msg.location
        if self.obs is not None and self.obs.wants("proto", "own.transfer"):
            self.obs.emit(
                "proto", "own.transfer", node=self.node_id,
                clock=msg.stamp, location=location,
            )
        self._prob_owner[location] = self.node_id
        self._owned[location] = _OwnedState(
            entry=MemoryEntry(
                value=msg.value, stamp=msg.stamp, writer=msg.writer
            ),
            copyset=set(msg.copyset),
        )
        self._begin_invalidation(location)

    # -- invalidation ------------------------------------------------------
    def _on_invalidate(self, src: int, msg: MigInvalidate) -> None:
        if (
            self.obs is not None
            and msg.location in self._cache
            and self.obs.wants("proto", "inv.cache")
        ):
            self.obs.emit(
                "proto", "inv.cache", node=self.node_id,
                location=msg.location, owner=src,
            )
        self._cache.pop(msg.location, None)
        self.runtime.send(
            self.node_id,
            src,
            MigInvalidateAck(request_id=msg.request_id, location=msg.location),
        )

    def _on_invalidate_ack(self, src: int, msg: MigInvalidateAck) -> None:
        pending = self._pending_writes.get(msg.location)
        if pending is None or msg.request_id != pending.seq:
            raise ProtocolError(
                f"stray M_INV_ACK at node {self.node_id} for {msg.location!r}"
            )
        pending.awaiting.discard(src)
        if not pending.awaiting:
            self._finish_write(msg.location)

    # ------------------------------------------------------------------
    # Deferred-operation queue
    # ------------------------------------------------------------------
    def _defer(self, location: str, thunk: Callable[[], None]) -> None:
        self._deferred.setdefault(location, deque()).append(thunk)

    def _drain(self, location: str) -> None:
        while (
            location not in self._busy
            and location not in self._pending_writes
        ):
            queue = self._deferred.get(location)
            if not queue:
                self._deferred.pop(location, None)
                return
            thunk = queue.popleft()
            thunk()

    # ------------------------------------------------------------------
    # Overrides: the migrating cache is engine-local, not in the store
    # ------------------------------------------------------------------
    def watch(self, location: str, predicate):
        """Watch this node's current copy (owned or cached).

        Note that ownership migrates: a watch registered at a node that
        later loses ownership fires only for values that reach *this*
        node.  Tests watch the node they know will own the location.
        """
        future = Future(label=f"watch:{self.node_id}:{location}")
        if self.is_owner(location):
            entry: Optional[MemoryEntry] = self._owned[location].entry
        else:
            entry = self._cache.get(location)
        if entry is not None and predicate(entry.value):
            future.resolve(entry.value)
            return future
        self._watchers.setdefault(location, []).append((predicate, future))
        return future

    def discard(self, location: str) -> bool:
        """Drop a cached copy (the owner's authoritative copy stays)."""
        if self.is_owner(location):
            return False
        return self._cache.pop(location, None) is not None
