"""The paper's simple owner protocol (Figure 4) — causal DSM.

Every location has a fixed owner.  Reads of owned or cached locations are
local; a read miss sends ``[READ, x]`` to the owner and blocks for
``[R_REPLY, x, v', VT']``.  A write to a non-owned location sends
``[WRITE, x, v, VT_i]`` and blocks until the owner certifies it with
``[W_REPLY, x, v, VT']``.  Vector timestamps (*writestamps*) are attached
to every value; whenever a new value is introduced into a local memory —
by a read reply at the requester, or by a serviced ``WRITE`` at the owner
— every cached value with a strictly older writestamp is invalidated
("all cached values that could potentially participate in a violation of
causality", Section 3).

Faithfulness notes (see DESIGN.md Section 4.2):

* The writer performs **no invalidation sweep** when its ``W_REPLY``
  arrives — exactly as in Figure 4.  Certification creates no app-level
  reads-from edge into the writer, so its cached values remain live.
* The owner stores a certified write with its **merged** vector time, and
  the writer ends with the same stamp after its final ``update`` — both
  copies of the write carry one identical, globally unique writestamp.
* An incoming remote write is never strictly older than the owner's
  current entry (its own component is always ahead); it either dominates
  it or is concurrent with it.  Concurrent incoming writes are resolved
  by the configured :class:`~repro.protocols.policies.ConflictPolicy` —
  Figure 4 verbatim corresponds to
  :class:`~repro.protocols.policies.LastWriterWins`; the dictionary
  application of Section 4.2 uses
  :class:`~repro.protocols.policies.OwnerFavoured`.

Paper enhancements implemented as options:

* **Page granularity** — supply a paged
  :class:`~repro.memory.namespace.Namespace`; replies then carry every
  location of the unit the owner holds, and invalidation drops whole
  units.
* **Read-only segments** — namespace-declared read-only locations are
  exempt from invalidation (the solver's constant ``A`` and ``b``).
* **No-cache mode** — read replies are not cached, forcing "a request to
  the owner on every read", which per Section 3.2 "results in a memory
  that satisfies atomic correctness".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.clocks import CONCURRENT, VectorClock
from repro.errors import ProtocolError
from repro.memory.local_store import MemoryEntry
from repro.protocols.base import DSMNode, WriteOutcome
from repro.protocols.messages import (
    EntryPayload,
    ReadReply,
    ReadRequest,
    WriteReply,
    WriteRequest,
)
from repro.protocols.policies import ConflictPolicy, LastWriterWins
from repro.sim import Future

__all__ = ["CausalOwnerNode"]


class CausalOwnerNode(DSMNode):
    """One processor of the causal DSM (Figure 4 plus options)."""

    def __init__(
        self,
        node_id: int,
        *,
        policy: Optional[ConflictPolicy] = None,
        no_cache: bool = False,
        unsafe_write_behind: bool = False,
        **kwargs: Any,
    ):
        super().__init__(node_id, **kwargs)
        self.vt = VectorClock.zero(self.n_nodes)
        self.policy = policy or LastWriterWins()
        self.no_cache = no_cache
        # The "reducing the blocking of processors" temptation: complete
        # remote writes immediately instead of blocking for W_REPLY.
        # This is UNSAFE — it breaks causal memory (experiment E13 shows
        # the violation) — and exists to demonstrate why Figure 4's
        # writes block.
        self.unsafe_write_behind = unsafe_write_behind
        self._pending_reads: Dict[int, Tuple[Future, str, float]] = {}
        #: Per pending read: foreign stamps merged while its reply is in
        #: flight.  _complete_read replays the sweeps those stamps ran
        #: against payloads that were not yet cached (see _note_stamp).
        self._read_flight: Dict[int, List[VectorClock]] = {}
        #: Read replies rejected as overtaken and re-requested.
        self.stale_read_retries = 0
        self._pending_writes: Dict[
            int, Tuple[Optional[Future], str, Any, float]
        ] = {}

    # ------------------------------------------------------------------
    # r_i(x)v  (Figure 4, first procedure)
    # ------------------------------------------------------------------
    def read(self, location: str) -> Future:
        """Read ``location``; local on a hit, blocking request on a miss."""
        self.stats.reads += 1
        future = Future(label="read")
        # get() returns None exactly when is_valid() is False (owned
        # locations always materialise), so one lookup decides hit/miss.
        entry = self.store.get(location)
        if entry is not None:
            self.stats.local_read_hits += 1
            self._record_read(location, entry)
            if self.obs is not None and self.obs.wants("proto", "op.read"):
                self.obs.emit(
                    "proto", "op.read", node=self.node_id, clock=self.vt,
                    location=location, hit=True,
                )
            future.resolve(entry.value)
            return future
        self.stats.remote_reads += 1
        if self.obs is not None and self.obs.wants("proto", "op.read"):
            self.obs.emit(
                "proto", "op.read", node=self.node_id, clock=self.vt,
                location=location, hit=False,
                owner=self.namespace.owner(location),
            )
        self._send_read_request(future, location, self.runtime.now)
        return future

    def _send_read_request(
        self, future: Future, location: str, started: float
    ) -> None:
        """Dispatch (or re-dispatch) one read miss to the owner."""
        request_id = self.next_request_id()
        self._pending_reads[request_id] = (future, location, started)
        self._read_flight[request_id] = []
        self.runtime.send(
            self.node_id,
            self.namespace.owner(location),
            ReadRequest(
                request_id=request_id,
                location=location,
                unit=self.namespace.unit(location),
            ),
        )

    def _note_stamp(self, stamp: VectorClock) -> None:
        """Log a just-merged foreign stamp for reads whose reply is in flight.

        The protocol's cache invariant — no cached entry is strictly
        older than a stamp this node has merged — is maintained by the
        invalidation sweep, which only sees entries *present* when the
        stamp arrives.  A read reply in flight at that moment missed the
        sweep: its payloads may be strictly older than knowledge this
        node has since gained (serving a peer's WRITE, another reply, a
        write ack).  _complete_read replays the missed sweeps against
        each payload before trusting it.
        """
        if self._read_flight:
            for log in self._read_flight.values():
                log.append(stamp)

    @staticmethod
    def _overtaken(stamp: VectorClock, flight: List[VectorClock]) -> bool:
        """Would any sweep missed while in flight have killed this stamp?"""
        for merged in flight:
            if stamp.strictly_less(merged):
                return True
        return False

    # ------------------------------------------------------------------
    # w_i(x)v  (Figure 4, second procedure)
    # ------------------------------------------------------------------
    def write(self, location: str, value: Any) -> Future:
        """Write ``location``; local if owned, certified by the owner if not."""
        self.stats.writes += 1
        self.vt = self.vt.increment(self.node_id)
        if self.obs is not None and self.obs.wants("proto", "op.write"):
            self.obs.emit(
                "proto", "op.write", node=self.node_id, clock=self.vt,
                location=location,
                mode="local" if self.store.owns(location) else "remote",
            )
        future = Future(label="write")
        if self.store.owns(location):
            entry = MemoryEntry(value=value, stamp=self.vt, writer=self.node_id)
            self.store.put(location, entry)
            self.stats.local_writes += 1
            self._record_write(location, value, entry)
            self._notify_watchers(location, value)
            future.resolve(WriteOutcome(location=location, value=value))
            return future
        self.stats.remote_writes += 1
        request_id = self.next_request_id()
        owner = self.namespace.owner(location)
        self.runtime.send(
            self.node_id,
            owner,
            WriteRequest(
                request_id=request_id,
                location=location,
                value=value,
                stamp=self.vt,
            ),
        )
        if self.unsafe_write_behind:
            # Complete immediately with a tentative cached entry; the
            # eventual W_REPLY only merges clocks.  (writer, VT[writer])
            # identifies the write, so the tentative and the owner's
            # copies share one identity despite differing merged stamps.
            self._pending_writes[request_id] = (
                None, location, value, self.runtime.now,
            )
            entry = MemoryEntry(value=value, stamp=self.vt, writer=self.node_id)
            if not self.no_cache:
                self.store.put(location, entry)
            self._record_write(location, value, entry)
            future.resolve(WriteOutcome(location=location, value=value))
            return future
        self._pending_writes[request_id] = (future, location, value, self.runtime.now)
        return future

    def discard(self, location: str) -> bool:
        # Pass-through: perf/tracer.py:31 patches this class's
        # __dict__["discard"] by name (ROADMAP "Finish one instrument" 1).
        return super().discard(location)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, src: int, message: object) -> None:
        """Dispatch one delivered message (runs atomically)."""
        kind = type(message)
        if kind is ReadReply:
            self._complete_read(message)
        elif kind is ReadRequest:
            self._serve_read(src, message)
        elif kind is WriteRequest:
            self._serve_write(src, message)
        elif kind is WriteReply:
            self._complete_write(message)
        else:
            raise ProtocolError(
                f"causal node {self.node_id} got unexpected {message!r}"
            )

    # ------------------------------------------------------------------
    # [READ, x] at the owner (Figure 4, third procedure)
    # ------------------------------------------------------------------
    def _serve_read(self, src: int, msg: ReadRequest) -> None:
        if not self.store.owns(msg.location):
            raise ProtocolError(
                f"node {self.node_id} received READ for {msg.location!r} "
                f"owned by {self.namespace.owner(msg.location)}"
            )
        requested = self.store.get(msg.location)
        assert requested is not None
        entries = [
            EntryPayload(
                location=msg.location,
                value=requested.value,
                stamp=requested.stamp,
                writer=requested.writer,
            )
        ]
        reply_stamp = requested.stamp
        # Page granularity: ship every location of the unit the owner holds.
        for other in self.store.locations_in_unit(msg.unit):
            if other == msg.location:
                continue
            entry = self.store.get(other)
            assert entry is not None
            entries.append(
                EntryPayload(
                    location=other,
                    value=entry.value,
                    stamp=entry.stamp,
                    writer=entry.writer,
                )
            )
            reply_stamp = reply_stamp.update(entry.stamp)
        self.runtime.send(
            self.node_id,
            src,
            ReadReply(
                request_id=msg.request_id,
                location=msg.location,
                entries=tuple(entries),
                stamp=reply_stamp,
            ),
        )

    def _complete_read(self, msg: ReadReply) -> None:
        pending = self._pending_reads.pop(msg.request_id, None)
        if pending is None:
            raise ProtocolError(
                f"node {self.node_id} got stray R_REPLY {msg.request_id} "
                f"for {msg.location!r}"
            )
        future, location, started = pending
        flight = self._read_flight.pop(msg.request_id)
        # VT_i := update(VT_i, VT')
        self.vt = self.vt.update(msg.stamp)
        self._note_stamp(msg.stamp)
        if flight:
            requested = next(
                (p for p in msg.entries if p.location == location), None
            )
            if requested is None:
                raise self._reply_lacks_location(msg, location)
            if self._overtaken(requested.stamp, flight):
                # The reply was overtaken: while it travelled, this node
                # merged a stamp that strictly dominates the payload —
                # had the value been cached it would have been swept, so
                # returning (or caching) it now could serve a value a
                # newer same-location write in our causal past already
                # overwrote.  Ask the owner again; by now it has applied
                # the write the dominating stamp carries word of.
                self.stale_read_retries += 1
                if self.obs is not None and self.obs.wants("proto", "read.stale_retry"):
                    self.obs.emit(
                        "proto", "read.stale_retry", node=self.node_id,
                        clock=self.vt, location=location,
                        requested_stamp=requested.stamp,
                    )
                self._send_read_request(future, location, started)
                return
        requested_entry: Optional[MemoryEntry] = None
        if self.no_cache:
            for payload in msg.entries:
                if payload.location == location:
                    requested_entry = MemoryEntry(
                        value=payload.value,
                        stamp=payload.stamp,
                        writer=payload.writer,
                    )
        else:
            # forall y in C_i : M_i[y].VT < VT'  =>  M_i[y] := bottom
            # Page-mates overtaken in flight (see _note_stamp) are
            # treated as not shipped: not installed, not kept.
            fresh = [
                payload for payload in msg.entries
                if not flight or payload.location == location
                or not self._overtaken(payload.stamp, flight)
            ]
            installed = [payload.location for payload in fresh]
            swept = self.store.invalidate_older_than(msg.stamp, keep=installed)
            if self.obs is not None and swept and self.obs.wants("proto", "inv.sweep"):
                # The triggering write is the requested payload's: its
                # (writer, own-component) pair names the write whose
                # arrival forced stale cached values out.
                requested = next(
                    (p for p in msg.entries if p.location == location), None
                )
                if requested is None:
                    raise self._reply_lacks_location(msg, location)
                self.obs.emit(
                    "proto", "inv.sweep", node=self.node_id, clock=self.vt,
                    invalidated=swept, cause="read_reply",
                    trigger=[requested.writer,
                             requested.stamp[requested.writer]]
                    if requested.writer >= 0 else None,
                )
            for payload in fresh:
                entry = MemoryEntry(
                    value=payload.value,
                    stamp=payload.stamp,
                    writer=payload.writer,
                )
                self.store.put(payload.location, entry)
                self._notify_watchers(payload.location, payload.value)
                if payload.location == location:
                    requested_entry = entry
        if requested_entry is None:
            raise self._reply_lacks_location(msg, location)
        self.stats.blocked_time += self.runtime.now - started
        if self.obs is not None:
            self.obs.metrics.histogram("read_miss.round_trip").observe(
                self.runtime.now - started
            )
        self._record_read(location, requested_entry)
        future.resolve(requested_entry.value)

    def _reply_lacks_location(
        self, msg: ReadReply, location: str
    ) -> ProtocolError:
        return ProtocolError(
            f"node {self.node_id}: R_REPLY {msg.request_id} did not contain "
            f"the requested location {location!r}"
        )

    # ------------------------------------------------------------------
    # [WRITE, x, v, VT] at the owner (Figure 4, fourth procedure)
    # ------------------------------------------------------------------
    def _serve_write(self, src: int, msg: WriteRequest) -> None:
        if not self.store.owns(msg.location):
            raise ProtocolError(
                f"node {self.node_id} received WRITE for {msg.location!r} "
                f"owned by {self.namespace.owner(msg.location)}"
            )
        # VT_i := update(VT_i, VT)
        self.vt = self.vt.update(msg.stamp)
        self._note_stamp(msg.stamp)
        current = self.store.get(msg.location)
        assert current is not None
        if current.stamp.compare(msg.stamp) == CONCURRENT:
            apply = self.policy.apply_concurrent(
                owner_id=self.node_id,
                location=msg.location,
                current=current,
                incoming_writer=src,
                incoming_value=msg.value,
                incoming_stamp=msg.stamp,
            )
        else:
            apply = True  # the incoming stamp dominates the stored one
        if apply:
            entry = MemoryEntry(value=msg.value, stamp=self.vt, writer=src)
            self.store.put(msg.location, entry)
            self._notify_watchers(msg.location, msg.value)
            # forall y in C_i : M_i[y].VT < VT_i  =>  M_i[y] := bottom
            swept = self.store.invalidate_older_than(self.vt)
            if self.obs is not None and swept and self.obs.wants("proto", "inv.sweep"):
                self.obs.emit(
                    "proto", "inv.sweep", node=self.node_id, clock=self.vt,
                    invalidated=swept, cause="serve_write",
                    trigger=[src, msg.stamp[src]],
                )
            self.runtime.send(
                self.node_id,
                src,
                WriteReply(
                    request_id=msg.request_id,
                    location=msg.location,
                    value=msg.value,
                    stamp=self.vt,
                ),
            )
        else:
            # Policy rejected the concurrent write: no new value enters
            # this memory, so no sweep; report the surviving entry.
            self.runtime.send(
                self.node_id,
                src,
                WriteReply(
                    request_id=msg.request_id,
                    location=msg.location,
                    value=msg.value,
                    stamp=self.vt,
                    applied=False,
                    current=EntryPayload(
                        location=msg.location,
                        value=current.value,
                        stamp=current.stamp,
                        writer=current.writer,
                    ),
                ),
            )

    def _complete_write(self, msg: WriteReply) -> None:
        pending = self._pending_writes.pop(msg.request_id, None)
        if pending is None:
            raise ProtocolError(
                f"node {self.node_id} got stray W_REPLY {msg.request_id} "
                f"for {msg.location!r}"
            )
        future, location, value, started = pending
        # VT_i := update(VT_i, VT')
        self.vt = self.vt.update(msg.stamp)
        self._note_stamp(msg.stamp)
        if future is None:
            # E13's unsafe branch: the operation already completed; refresh
            # the tentative cached entry to the canonical stamp.
            if msg.applied and not self.no_cache:
                cached = self.store.get(location)
                if (
                    cached is not None
                    and cached.writer == self.node_id
                    and cached.stamp[self.node_id] == msg.stamp[self.node_id]
                ):
                    # Same write (own component matches), same value and
                    # writer — only the stamp changes, so restamp in place.
                    self.store.restamp(location, msg.stamp)
            return
        self.stats.blocked_time += self.runtime.now - started
        if msg.applied:
            # M_i[x] := (v, VT') — the writer caches its own write under
            # the owner's merged stamp, which is the canonical writestamp
            # of this write (identical to the owner's stored copy; in
            # Figure 4's single-threaded setting VT_i equals VT' here).
            # No invalidation sweep, faithful to Figure 4.
            entry = MemoryEntry(value=value, stamp=msg.stamp, writer=self.node_id)
            if not self.no_cache:
                self.store.put(location, entry)
            self._record_write(location, value, entry)
            future.resolve(WriteOutcome(location=location, value=value))
            return
        # Rejected by the owner's policy: the write still occupies its
        # place in program order (recorded with its own unique stamp);
        # the owner's surviving entry is introduced like a read reply.
        self.stats.rejected_writes += 1
        ghost = MemoryEntry(value=value, stamp=self.vt, writer=self.node_id)
        self._record_write(location, value, ghost)
        assert msg.current is not None
        survivor = MemoryEntry(
            value=msg.current.value,
            stamp=msg.current.stamp,
            writer=msg.current.writer,
        )
        if not self.no_cache:
            self._note_stamp(survivor.stamp)
            swept = self.store.invalidate_older_than(
                survivor.stamp, keep=[location]
            )
            if self.obs is not None and swept and self.obs.wants("proto", "inv.sweep"):
                self.obs.emit(
                    "proto", "inv.sweep", node=self.node_id, clock=self.vt,
                    invalidated=swept, cause="write_rejected",
                    trigger=[survivor.writer,
                             survivor.stamp[survivor.writer]]
                    if survivor.writer >= 0 else None,
                )
            self.store.put(location, survivor)
            self._notify_watchers(location, survivor.value)
        future.resolve(
            WriteOutcome(location=location, value=survivor.value, applied=False)
        )
