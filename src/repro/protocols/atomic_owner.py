"""The atomic (strongly consistent) owner DSM baseline.

Section 4.1 compares the causal protocol against "a comparable owner
protocol for atomic memory where locations (pages) are stored at the
owner and cached at other nodes.  An atomic write requires that all
cached copies in the system be invalidated.  (In Li [15], a
representative atomic DSM, a read set is maintained by the owner and
invalidation messages are sent to all nodes in the read set.)"

This engine implements exactly that comparison target:

* the owner of a location maintains its *copyset* (Li's read set);
* a read miss fetches the value from the owner, which adds the reader to
  the copyset (2 messages);
* every write is serialized at the owner; before the new value is
  installed, ``INV`` messages go to every copyset member and the owner
  waits for all ``INV_ACK`` s (``2 * |copyset|`` messages — the paper's
  lower bound counts only the invalidations, hence its "at least");
* while a write to a location is in flight, further reads and writes of
  that location queue at the owner, so no processor can observe the new
  value before every stale copy is gone.

With blocking processors, FIFO channels, and install-after-invalidate
writes, executions of this protocol are sequentially consistent — which
the test suite verifies mechanically with the checker of
:mod:`repro.checker.sequential_checker` on randomized workloads.

Vector clocks play no protocol role here; entries carry a synthetic
stamp built from the writer's local write counter purely so recorded
histories have unique write identities.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.clocks import VectorClock
from repro.errors import ProtocolError
from repro.memory.local_store import MemoryEntry
from repro.protocols.base import DSMNode, WriteOutcome
from repro.protocols.messages import (
    AtomicReadReply,
    AtomicReadRequest,
    AtomicWriteReply,
    AtomicWriteRequest,
    Invalidate,
    InvalidateAck,
)
from repro.sim import Future

__all__ = ["AtomicOwnerNode"]


def _identity_stamp(n_nodes: int, writer: int, seq: int) -> VectorClock:
    """A unique per-(writer, seq) stamp for history recording."""
    components = [0] * n_nodes
    components[writer] = seq
    return VectorClock(components)


class _WriteJob:
    """One write being serialized at the owner."""

    __slots__ = ("writer", "value", "seq", "request_id", "awaiting", "started")

    def __init__(
        self,
        writer: int,
        value: Any,
        seq: int,
        request_id: int,
        started: float = 0.0,
    ):
        self.writer = writer
        self.value = value
        self.seq = seq
        self.request_id = request_id
        self.awaiting: Set[int] = set()
        self.started = started


class AtomicOwnerNode(DSMNode):
    """One processor of the coherent (atomic) DSM baseline."""

    def __init__(self, node_id: int, **kwargs: Any):
        super().__init__(node_id, **kwargs)
        self._write_seq = 0
        self._pending_reads: Dict[int, Tuple[Future, str, float]] = {}
        self._pending_writes: Dict[int, Tuple[Future, str, Any, int, float]] = {}
        # Owner-side state.
        self._copyset: Dict[str, Set[int]] = {}
        self._active_writes: Dict[str, _WriteJob] = {}
        self._deferred: Dict[str, Deque[Callable[[], None]]] = {}
        # Local futures for writes to owned locations (serialized too).
        self._local_write_futures: Dict[int, Future] = {}

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------
    def read(self, location: str) -> Future:
        """Read: local on a valid copy, owner round trip on a miss."""
        self.stats.reads += 1
        future = Future(label=f"aread:{self.node_id}:{location}")
        if self.store.owns(location):
            # Owner reads serialize with in-flight writes to stay atomic.
            if location in self._active_writes or self._deferred.get(location):
                self._defer(location, lambda: self._finish_local_read(location, future))
            else:
                self._finish_local_read(location, future)
            return future
        if self.store.is_valid(location):
            entry = self.store.get(location)
            assert entry is not None
            self.stats.local_read_hits += 1
            self._record_read(location, entry)
            future.resolve(entry.value)
            return future
        self.stats.remote_reads += 1
        request_id = self.next_request_id()
        self._pending_reads[request_id] = (future, location, self.runtime.now)
        self.runtime.send(
            self.node_id,
            self.namespace.owner(location),
            AtomicReadRequest(request_id=request_id, location=location),
        )
        return future

    def _finish_local_read(self, location: str, future: Future) -> None:
        entry = self.store.get(location)
        assert entry is not None
        self.stats.local_read_hits += 1
        self._record_read(location, entry)
        future.resolve(entry.value)

    def write(self, location: str, value: Any) -> Future:
        """Write: serialized at the owner, completes after invalidation."""
        self.stats.writes += 1
        self._write_seq += 1
        seq = self._write_seq
        future = Future(label=f"awrite:{self.node_id}:{location}")
        if self.store.owns(location):
            self.stats.local_writes += 1
            request_id = self.next_request_id()
            self._local_write_futures[request_id] = future
            job = _WriteJob(
                writer=self.node_id, value=value, seq=seq,
                request_id=request_id, started=self.runtime.now,
            )
            self._enqueue_write(location, job)
        else:
            self.stats.remote_writes += 1
            request_id = self.next_request_id()
            self._pending_writes[request_id] = (
                future, location, value, seq, self.runtime.now,
            )
            self.runtime.send(
                self.node_id,
                self.namespace.owner(location),
                AtomicWriteRequest(
                    request_id=request_id, location=location, value=value, seq=seq
                ),
            )
        return future

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, src: int, message: object) -> None:
        """Dispatch one delivered message (runs atomically)."""
        if isinstance(message, AtomicReadRequest):
            self._serve_read(src, message)
        elif isinstance(message, AtomicWriteRequest):
            self._serve_write(src, message)
        elif isinstance(message, AtomicReadReply):
            self._complete_read(message)
        elif isinstance(message, AtomicWriteReply):
            self._complete_write(message)
        elif isinstance(message, Invalidate):
            self._serve_invalidate(src, message)
        elif isinstance(message, InvalidateAck):
            self._absorb_ack(src, message)
        else:
            raise ProtocolError(
                f"atomic node {self.node_id} got unexpected {message!r}"
            )

    # ------------------------------------------------------------------
    # Owner-side read service
    # ------------------------------------------------------------------
    def _serve_read(self, src: int, msg: AtomicReadRequest) -> None:
        if not self.store.owns(msg.location):
            raise ProtocolError(
                f"node {self.node_id} received A_READ for {msg.location!r}"
            )
        if msg.location in self._active_writes or self._deferred.get(msg.location):
            self._defer(msg.location, lambda: self._do_serve_read(src, msg))
            return
        self._do_serve_read(src, msg)

    def _do_serve_read(self, src: int, msg: AtomicReadRequest) -> None:
        # Deferred thunks must NOT re-check the deferred queue: two reads
        # parked behind the same write would each see the other queued
        # and re-defer forever once drained.  Like _start_write, only an
        # active write justifies going back to sleep.
        if msg.location in self._active_writes:
            self._defer(msg.location, lambda: self._do_serve_read(src, msg))
            return
        entry = self.store.get(msg.location)
        assert entry is not None
        self._copyset.setdefault(msg.location, set()).add(src)
        self.runtime.send(
            self.node_id,
            src,
            AtomicReadReply(
                request_id=msg.request_id,
                location=msg.location,
                value=entry.value,
                stamp=entry.stamp,
                writer=entry.writer,
            ),
        )

    def _complete_read(self, msg: AtomicReadReply) -> None:
        future, location, started = self._pending_reads.pop(msg.request_id)
        entry = MemoryEntry(value=msg.value, stamp=msg.stamp, writer=msg.writer)
        self.store.put(location, entry)
        self._notify_watchers(location, msg.value)
        self.stats.blocked_time += self.runtime.now - started
        self._record_read(location, entry)
        future.resolve(msg.value)

    # ------------------------------------------------------------------
    # Owner-side write serialization
    # ------------------------------------------------------------------
    def _serve_write(self, src: int, msg: AtomicWriteRequest) -> None:
        if not self.store.owns(msg.location):
            raise ProtocolError(
                f"node {self.node_id} received A_WRITE for {msg.location!r}"
            )
        job = _WriteJob(
            writer=src, value=msg.value, seq=msg.seq, request_id=msg.request_id
        )
        self._enqueue_write(msg.location, job)

    def _enqueue_write(self, location: str, job: _WriteJob) -> None:
        if location in self._active_writes or self._deferred.get(location):
            self._defer(location, lambda: self._start_write(location, job))
        else:
            self._start_write(location, job)

    def _start_write(self, location: str, job: _WriteJob) -> None:
        if location in self._active_writes:
            # Re-deferred by the drain loop; keep strict FIFO.
            self._defer(location, lambda: self._start_write(location, job))
            return
        self._active_writes[location] = job
        targets = self._copyset.get(location, set()) - {self.node_id, job.writer}
        job.awaiting = set(targets)
        if self.obs is not None and self.obs.wants("proto", "inv.round"):
            self.obs.emit(
                "proto", "inv.round", node=self.node_id,
                clock=_identity_stamp(self.n_nodes, job.writer, job.seq),
                location=location, writer=job.writer,
                targets=sorted(targets),
            )
        if not targets:
            self._finish_write(location)
            return
        for target in sorted(targets):
            self.runtime.send(
                self.node_id,
                target,
                Invalidate(request_id=job.request_id, location=location),
            )

    def _serve_invalidate(self, src: int, msg: Invalidate) -> None:
        if not self.store.owns(msg.location):
            self.store.invalidate(msg.location)
        self.runtime.send(
            self.node_id,
            src,
            InvalidateAck(request_id=msg.request_id, location=msg.location),
        )

    def _absorb_ack(self, src: int, msg: InvalidateAck) -> None:
        job = self._active_writes.get(msg.location)
        if job is None or job.request_id != msg.request_id:
            raise ProtocolError(
                f"stray INV_ACK for {msg.location!r} at node {self.node_id}"
            )
        job.awaiting.discard(src)
        if not job.awaiting:
            self._finish_write(msg.location)

    def _finish_write(self, location: str) -> None:
        job = self._active_writes.pop(location)
        entry = MemoryEntry(
            value=job.value,
            stamp=_identity_stamp(self.n_nodes, job.writer, job.seq),
            writer=job.writer,
        )
        if self.obs is not None and self.obs.wants("proto", "op.write.done"):
            self.obs.emit(
                "proto", "op.write.done", node=self.node_id,
                clock=entry.stamp, location=location, writer=job.writer,
            )
        self.store.put(location, entry)
        self._notify_watchers(location, job.value)
        if job.writer == self.node_id:
            self._copyset[location] = set()
            self._record_write(location, job.value, entry)
            self.stats.blocked_time += self.runtime.now - job.started
            future = self._local_write_futures.pop(job.request_id)
            future.resolve(WriteOutcome(location=location, value=job.value))
        else:
            self._copyset[location] = {job.writer}
            self.runtime.send(
                self.node_id,
                job.writer,
                AtomicWriteReply(
                    request_id=job.request_id, location=location, value=job.value
                ),
            )
        self._drain(location)

    def _complete_write(self, msg: AtomicWriteReply) -> None:
        future, location, value, seq, started = self._pending_writes.pop(
            msg.request_id
        )
        entry = MemoryEntry(
            value=value,
            stamp=_identity_stamp(self.n_nodes, self.node_id, seq),
            writer=self.node_id,
        )
        self.store.put(location, entry)
        self.stats.blocked_time += self.runtime.now - started
        self._record_write(location, value, entry)
        future.resolve(WriteOutcome(location=location, value=value))

    # ------------------------------------------------------------------
    # Deferred-operation queue (per-location serialization)
    # ------------------------------------------------------------------
    def _defer(self, location: str, thunk: Callable[[], None]) -> None:
        self._deferred.setdefault(location, deque()).append(thunk)

    def _drain(self, location: str) -> None:
        # A drained thunk can itself finish a write and re-enter _drain,
        # so re-fetch the queue each round and tolerate its removal.
        while location not in self._active_writes:
            queue = self._deferred.get(location)
            if not queue:
                self._deferred.pop(location, None)
                return
            thunk = queue.popleft()
            thunk()
