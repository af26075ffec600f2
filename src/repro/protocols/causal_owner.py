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
        **kwargs: Any,
    ):
        super().__init__(node_id, **kwargs)
        self.vt = VectorClock.zero(self.n_nodes)
        self.policy = policy or LastWriterWins()
        self.no_cache = no_cache
        self._pending_reads: Dict[int, Tuple[Future, str, float]] = {}
        #: Per pending request: foreign stamps merged while its reply is
        #: in flight, as (served, own) — own once an operation of this
        #: node completed after the merge.  Completion replays the sweeps
        #: they ran against lines not yet cached (see _note_stamp).
        self._flight: Dict[
            int, Tuple[List[VectorClock], List[VectorClock]]
        ] = {}
        #: Read replies overtaken by an own operation and re-requested.
        self.stale_read_retries = 0
        #: Read replies overtaken by a served write: returned, not cached.
        self.overtaken_reads = 0
        #: Write acks overtaken in flight: completed, not cached.
        self.overtaken_writes = 0
        self._pending_writes: Dict[int, Tuple[Future, str, Any, float]] = {}

    # ------------------------------------------------------------------
    # r_i(x)v  (Figure 4, first procedure)
    # ------------------------------------------------------------------
    def read(self, location: str) -> Future:
        """Read ``location``; local on a hit, blocking request on a miss."""
        self.stats.reads += 1
        # get() returns None exactly when is_valid() is False (owned
        # locations always materialise), so one lookup decides hit/miss.
        entry = self.store.get(location)
        if entry is not None:
            self.stats.local_read_hits += 1
            if self._flight:
                self._note_stamp(own=True)  # another task's miss is out
            self._record_read(location, entry)
            if self.obs is not None and self.obs.wants("proto", "op.read"):
                self.obs.emit(
                    "proto", "op.read", node=self.node_id, clock=self.vt,
                    location=location, hit=True,
                )
            return Future.completed(entry.value, "read")
        self.stats.remote_reads += 1
        if self.obs is not None and self.obs.wants("proto", "op.read"):
            self.obs.emit(
                "proto", "op.read", node=self.node_id, clock=self.vt,
                location=location, hit=False,
                owner=self.namespace.owner(location),
            )
        future = Future(label="read")
        self._send_read_request(future, location, self.runtime.now)
        return future

    def _send_read_request(
        self, future: Future, location: str, started: float
    ) -> None:
        """Dispatch (or re-dispatch) one read miss to the owner."""
        request_id = self.next_request_id()
        self._pending_reads[request_id] = (future, location, started)
        self._flight[request_id] = ([], [])
        self.runtime.send(
            self.node_id,
            self.namespace.owner(location),
            ReadRequest(
                request_id=request_id,
                location=location,
                unit=self.namespace.unit(location),
            ),
        )

    def _note_stamp(
        self, stamp: Optional[VectorClock] = None, own: bool = False
    ) -> None:
        """Log a just-merged foreign stamp for requests whose reply is in flight.

        The cache invariant — no cached entry is strictly older than a
        stamp this node has merged — is kept by the invalidation sweep,
        which only sees entries *present* when the stamp arrives.  A reply
        in flight at that moment missed the sweep; completion replays it:
        a line it would have killed is not cached.

        ``own`` marks an operation of this node completing (a reply, an
        ack, another task's hit): what was merged so far is now behind
        the program order a waiting read will be recorded after, so a
        payload it dominates is not even returned.  Serving a peer's
        WRITE adds no operation here and stays served.
        """
        for served, owned in self._flight.values():
            if stamp is not None:
                served.append(stamp)
            if own:
                owned += served
                served.clear()

    @staticmethod
    def _overtaken(
        stamp: VectorClock, flight: List[VectorClock]
    ) -> Optional[VectorClock]:
        """The merged stamp whose missed sweep would have killed ``stamp``."""
        for merged in flight:
            if stamp.strictly_less(merged):
                return merged
        return None

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
        if self.store.owns(location):
            entry = MemoryEntry(value=value, stamp=self.vt, writer=self.node_id)
            self.store.put(location, entry)
            self.stats.local_writes += 1
            self._record_write(location, value, entry)
            self._notify_watchers(location, value)
            outcome = WriteOutcome(location=location, value=value)
            return Future.completed(outcome, "write")
        future = Future(label="write")
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
        self._pending_writes[request_id] = (future, location, value, self.runtime.now)
        self._flight[request_id] = ([], [])
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
                msg.location, requested.value, requested.stamp,
                requested.writer,
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
                EntryPayload(other, entry.value, entry.stamp, entry.writer)
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
        served, owned = self._flight.pop(msg.request_id)
        requested = next(
            (p for p in msg.entries if p.location == location), None
        )
        if requested is None:
            raise ProtocolError(
                f"node {self.node_id}: R_REPLY {msg.request_id} did not "
                f"contain the requested location {location!r}"
            )
        # VT_i := update(VT_i, VT')
        self.vt = self.vt.update(msg.stamp)
        self._note_stamp(msg.stamp, own=True)
        fresh = () if self.no_cache else msg.entries
        if served or owned:
            by = self._overtaken(requested.stamp, owned)
            if by is not None:
                # Overtaken, and an own operation completed since: the
                # read is recorded after it, and a newer write to x may
                # now be in its causal past.  Ask the owner again; it has
                # applied the write the dominating stamp carries word of.
                self.stale_read_retries += 1
                self._emit_overtaken(
                    "read.stale_retry", location, requested.stamp, by
                )
                self._send_read_request(future, location, started)
                return
            by = self._overtaken(requested.stamp, served)
            if by is not None:
                # Only served WRITEs intervened: this node's history is
                # what it was when the request left, so the owner's value
                # is live for the read.  The missed sweep costs the line,
                # not the read: return it uncached, as no-cache mode does.
                self.overtaken_reads += 1
                self._emit_overtaken(
                    "read.overtaken", location, requested.stamp, by
                )
            flight = served + owned
            fresh = [
                payload for payload in fresh
                if self._overtaken(payload.stamp, flight) is None
            ]
        # forall y in C_i : M_i[y].VT < VT'  =>  M_i[y] := bottom
        swept = self.store.invalidate_older_than(
            msg.stamp, keep=[payload.location for payload in fresh]
        )
        if swept:
            self._emit_sweep(swept, "read_reply", requested)
        for payload in fresh:
            self.store.put(
                payload.location,
                MemoryEntry(payload.value, payload.stamp, payload.writer),
            )
            self._notify_watchers(payload.location, payload.value)
        self.stats.blocked_time += self.runtime.now - started
        if self.obs is not None:
            self.obs.metrics.histogram("read_miss.round_trip").observe(
                self.runtime.now - started
            )
        # A payload is an entry on the wire: value, stamp, writer.
        self._record_read(location, requested)
        future.resolve(requested.value)

    def _ack_cacheable(
        self, location: str, entry: MemoryEntry, flight: List[VectorClock]
    ) -> bool:
        """May what a W_REPLY brought be cached?  Not when a sweep the ack
        missed in flight would have killed it: the write completes, the
        line is dropped."""
        by = self._overtaken(entry.stamp, flight)
        if by is not None:
            self.overtaken_writes += 1
            self._emit_overtaken("write.overtaken", location, entry.stamp, by)
        return by is None

    def _emit_overtaken(
        self, name: str, location: str, stamp: VectorClock, by: VectorClock
    ) -> None:
        if self.obs is not None and self.obs.wants("proto", name):
            self.obs.emit(
                "proto", name, node=self.node_id, clock=self.vt,
                location=location, requested_stamp=stamp, dominating=by,
            )

    def _emit_sweep(self, swept: List[str], cause: str, entry) -> None:
        """``inv.sweep``, naming the write whose arrival forced lines out."""
        if self.obs is not None and self.obs.wants("proto", "inv.sweep"):
            self.obs.emit(
                "proto", "inv.sweep", node=self.node_id, clock=self.vt,
                invalidated=swept, cause=cause,
                trigger=[entry.writer, entry.stamp[entry.writer]]
                if entry.writer >= 0 else None,
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
        survivor = None
        if apply:
            entry = MemoryEntry(value=msg.value, stamp=self.vt, writer=src)
            self.store.put(msg.location, entry)
            self._notify_watchers(msg.location, msg.value)
            # forall y in C_i : M_i[y].VT < VT_i  =>  M_i[y] := bottom
            swept = self.store.invalidate_older_than(self.vt)
            if swept:
                self._emit_sweep(swept, "serve_write", entry)
        else:
            # Policy rejected the concurrent write: no new value enters
            # this memory, so no sweep; report the surviving entry.
            survivor = EntryPayload(
                msg.location, current.value, current.stamp, current.writer
            )
        self.runtime.send(
            self.node_id,
            src,
            WriteReply(
                request_id=msg.request_id,
                location=msg.location,
                value=msg.value,
                stamp=self.vt,
                applied=apply,
                current=survivor,
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
        served, owned = self._flight.pop(msg.request_id)
        # VT_i := update(VT_i, VT')
        self.vt = self.vt.update(msg.stamp)
        self._note_stamp(msg.stamp, own=True)
        self.stats.blocked_time += self.runtime.now - started
        if msg.applied:
            # M_i[x] := (v, VT') — the writer caches its own write under
            # the owner's merged stamp, which is the canonical writestamp
            # of this write (identical to the owner's stored copy; in
            # Figure 4's single-threaded setting VT_i equals VT' here).
            # No invalidation sweep, faithful to Figure 4.
            entry = MemoryEntry(value=value, stamp=msg.stamp, writer=self.node_id)
            if not self.no_cache and self._ack_cacheable(
                location, entry, served + owned
            ):
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
            msg.current.value, msg.current.stamp, msg.current.writer
        )
        if not self.no_cache:
            fresh = self._ack_cacheable(location, survivor, served + owned)
            self._note_stamp(survivor.stamp, own=True)
            swept = self.store.invalidate_older_than(
                survivor.stamp, keep=[location] if fresh else ()
            )
            if swept:
                self._emit_sweep(swept, "write_rejected", survivor)
            if fresh:
                self.store.put(location, survivor)
                self._notify_watchers(location, survivor.value)
        future.resolve(
            WriteOutcome(location=location, value=survivor.value, applied=False)
        )
