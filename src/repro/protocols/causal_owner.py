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

The wire-level fast path (``batching=True``, see DESIGN.md Section 4.5)
replaces per-write round trips with a bounded write-behind queue that
stays causal:

* A remote write completes immediately (the future resolves, a tentative
  copy is cached under the write's own stamp) and joins the queue.
  Adjacent queued writes to the same owner form a *run*; same-location
  writes within a run are **coalesced** (the superseded write's
  certification obligation transfers to its successor).
* Runs flush one at a time as :class:`~repro.protocols.messages.WriteBatch`
  frames, each acknowledged by a single piggybacked
  :class:`~repro.protocols.messages.WriteBatchReply` — cross-owner order
  is enforced by waiting for the previous run's ack, so a later write is
  never visible anywhere before an earlier write is certified.
* Flushes trigger on enqueue (one scheduler turn later, so a burst of
  writes in the same instant shares one frame), on a local read miss,
  and whenever a remote request has to wait on the queue.
* **Causal safety barrier**: while any own write is uncertified, this
  node serves no ``READ`` — incoming read requests are deferred until
  the queue drains.  Certifications (incoming batches) are served
  immediately, but the stamps they hand out are clamped to the node's
  *visible* vector time — the prefix of its own component covered by
  certified-or-owned writes — so no uncertified write's component ever
  leaves the node.  Together the two rules preserve exactly the
  Figure 4 invariant: any value a processor can observe causally
  follows only certified writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.clocks import CONCURRENT, VectorClock
from repro.errors import ProtocolError
from repro.memory.local_store import MemoryEntry
from repro.protocols.base import DSMNode, WriteOutcome
from repro.protocols.messages import (
    BatchedWriteReply,
    EntryPayload,
    ReadReply,
    ReadRequest,
    WriteBatch,
    WriteBatchReply,
    WriteReply,
    WriteRequest,
)
from repro.protocols.policies import ConflictPolicy, LastWriterWins
from repro.sim import Future

__all__ = ["CausalOwnerNode"]

#: Flush-delay bound: how many scheduler turns a flush may wait for the
#: application to add more same-instant writes to the window.
_WB_MAX_DELAY_HOPS = 16
#: Run-size bound: a head run this large flushes regardless (the
#: "bounded" in bounded write-behind queue).
_WB_MAX_RUN = 32


@dataclass(frozen=True)
class _QueuedWrite:
    """One write-behind entry awaiting certification."""

    location: str
    value: Any
    stamp: VectorClock
    seq: int


@dataclass
class _Run:
    """Adjacent queued writes sharing one owner — one future batch frame.

    ``seqs`` lists every own-component value whose certification this
    run is responsible for, including writes coalesced away (their
    obligation transfers to the surviving write).
    """

    owner: int
    writes: List[_QueuedWrite]
    seqs: List[int]
    request_id: int = 0


class CausalOwnerNode(DSMNode):
    """One processor of the causal DSM (Figure 4 plus options)."""

    def __init__(
        self,
        node_id: int,
        *,
        policy: Optional[ConflictPolicy] = None,
        no_cache: bool = False,
        unsafe_write_behind: bool = False,
        batching: bool = False,
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
        if batching and no_cache:
            raise ProtocolError(
                "batching requires caching (tentative entries live in the "
                "cache); no_cache+batching is not a meaningful mode"
            )
        if batching and unsafe_write_behind:
            raise ProtocolError(
                "batching already completes writes early, safely; combining "
                "it with unsafe_write_behind is contradictory"
            )
        self.batching = batching
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
        # --- write-behind batching state (batching=True only) ---------
        #: Queued runs, oldest first; the head flushes next.
        self._wb_runs: List[_Run] = []
        #: The run whose WriteBatch is in flight (at most one).
        self._wb_outstanding: Optional[_Run] = None
        self._wb_flush_scheduled = False
        self._wb_flush_hops = 0
        self._wb_flush_mark = 0
        self._wb_enqueues = 0
        #: Own-component values written but not yet owner-certified.
        #: Non-empty == this node must not serve reads (safety barrier).
        self._wb_uncertified: set = set()
        #: Incoming ReadRequests parked until the queue drains.
        self._wb_deferred_reads: List[Tuple[int, ReadRequest]] = []
        #: Owned locations written locally while earlier own writes sat
        #: uncertified: their entry stamps omit the certified stamps of
        #: those writes and are patched by _restamp_owned on each ack.
        self._wb_owned_stale: Dict[str, None] = {}
        # Occupancy counters for the bandwidth report.
        self.wb_batches = 0
        self.wb_batched_writes = 0
        self.wb_coalesced = 0
        self.wb_deferred_read_count = 0

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
        if self.batching:
            # A read miss is a flush point: push queued writes out now so
            # the owner (FIFO channel) certifies them before serving us.
            self._wb_flush()
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
        node has since gained (certifying a peer's batch, another reply,
        a write ack).  _complete_read replays the missed sweeps against
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
            mode = (
                "local" if self.store.owns(location)
                else ("batched" if self.batching else "remote")
            )
            self.obs.emit(
                "proto", "op.write", node=self.node_id, clock=self.vt,
                location=location, mode=mode,
            )
        future = Future(label="write")
        if self.store.owns(location):
            entry = MemoryEntry(value=value, stamp=self.vt, writer=self.node_id)
            self.store.put(location, entry)
            if self.batching and self._wb_uncertified:
                # This entry's stamp cannot yet cover the certified
                # stamps of the queued writes it follows in program
                # order; serving it as-is would under-inform readers'
                # invalidation sweeps.  Patch it as acks arrive.
                self._wb_owned_stale[location] = None
            self.stats.local_writes += 1
            self._record_write(location, value, entry)
            self._notify_watchers(location, value)
            future.resolve(WriteOutcome(location=location, value=value))
            return future
        self.stats.remote_writes += 1
        if self.batching:
            # Complete immediately, queue for certification.  Unlike
            # unsafe_write_behind this stays causal: while the write is
            # uncertified, this node defers incoming reads and clamps the
            # stamps it hands out, so the write is observable only here.
            seq = self.vt[self.node_id]
            entry = MemoryEntry(value=value, stamp=self.vt, writer=self.node_id)
            self.store.put(location, entry)
            self._record_write(location, value, entry)
            self._notify_watchers(location, value)
            self._wb_uncertified.add(seq)
            self._wb_enqueue(
                self.namespace.owner(location), location, value, self.vt, seq
            )
            future.resolve(WriteOutcome(location=location, value=value))
            # Scheduled (not immediate): writes issued later in this same
            # simulated instant join the same frame.
            self._schedule_flush()
            return future
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
        """The paper's ``discard``, refusing to evict dirty lines.

        A tentative (uncertified) write-behind entry is a *dirty* cache
        line: evicting it before write-back would let the next read miss
        fetch causally older state from the owner — a read-your-writes
        violation.  Such lines stay cached until their run is acked.
        """
        if self.batching:
            cached = self.store.get(location)
            if (
                cached is not None
                and cached.writer == self.node_id
                and cached.stamp[self.node_id] in self._wb_uncertified
            ):
                return False
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
            if self.batching and self._wb_uncertified:
                # Safety barrier: our cache holds tentative writes whose
                # components must not leak.  Park the read, hurry the
                # queue along, serve after the drain.
                self.wb_deferred_read_count += 1
                self._wb_deferred_reads.append((src, message))
                if self.obs is not None and self.obs.wants("proto", "wb.defer_read"):
                    self.obs.emit(
                        "proto", "wb.defer_read", node=self.node_id,
                        clock=self.vt, location=message.location,
                        requester=src,
                    )
                self._wb_flush()
            else:
                self._serve_read(src, message)
        elif kind is WriteRequest:
            self._serve_write(src, message)
        elif kind is WriteReply:
            self._complete_write(message)
        elif kind is WriteBatch:
            self._serve_write_batch(src, message)
        elif kind is WriteBatchReply:
            self._complete_write_batch(message)
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
                if self.batching:
                    self._wb_flush()
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
                if self.batching and self._tentative_is_newer(
                    payload.location, payload.stamp
                ):
                    # A page-mate of the miss is a location we have an
                    # uncertified queued write for; the owner's copy
                    # predates it.  Installing it would un-do our own
                    # write (breaking read-your-writes), so keep ours.
                    # The missed location itself can never hit this: a
                    # tentative entry is valid, hence never a miss.
                    continue
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
            # (sparing dirty write-behind lines msg.stamp cannot cover)
            swept = self.store.invalidate_older_than(
                self.vt, keep=self._dirty_keep(msg.stamp)
            )
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
        future, location, value, started = self._pending_writes.pop(msg.request_id)
        # VT_i := update(VT_i, VT')
        self.vt = self.vt.update(msg.stamp)
        self._note_stamp(msg.stamp)
        if future is None:
            # Write-behind: the operation already completed; just refresh
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

    # ------------------------------------------------------------------
    # Write-behind batching (the wire-level fast path, batching=True)
    # ------------------------------------------------------------------
    def _tentative_is_newer(self, location: str, stamp: VectorClock) -> bool:
        """True if our cached copy of ``location`` is an own write newer
        than ``stamp`` — i.e. an uncertified tentative the peer cannot
        know about yet, which must survive installs from stale replies."""
        cached = self.store.get(location)
        return (
            cached is not None
            and cached.writer == self.node_id
            and cached.stamp[self.node_id] > stamp[self.node_id]
        )

    def _dirty_keep(self, external: VectorClock) -> Optional[List[str]]:
        """Dirty cache lines an owner-side sweep must spare.

        A *dirty* line is a tentative own write whose certification is
        still queued or in flight.  Sweeping with ``self.vt`` would kill
        it immediately — ``vt``'s own component always covers the write's
        sequence number, so the entry is "strictly older" by
        self-knowledge alone — and the next read would miss and fetch
        pre-write state from the owner: a read-your-writes violation.

        The exemption is exact, not conservative: a write overwriting the
        dirty line causally follows its certification, so any external
        stamp carrying such an overwrite satisfies
        ``external[me] >= seq``.  Lines whose seq the external stamp does
        cover are left to the normal sweep comparison (the owner really
        certified them; the ack is merely in flight).
        """
        if not self._wb_uncertified:
            return None
        me = self.node_id
        bound = external[me]
        uncertified = self._wb_uncertified
        store = self.store
        keep: List[str] = []
        runs = self._wb_runs
        if self._wb_outstanding is not None:
            runs = [self._wb_outstanding, *runs]
        for run in runs:
            for queued in run.writes:
                cached = store.get(queued.location)
                if (
                    cached is not None
                    and cached.writer == me
                    and cached.stamp[me] in uncertified
                    and cached.stamp[me] > bound
                ):
                    keep.append(queued.location)
        return keep or None

    def _visible_vt(self) -> VectorClock:
        """This node's vector time with the own component clamped to the
        newest *certified* own write.

        Any stamp handed to another node while writes are queued must not
        cover an uncertified own component — a peer merging it could then
        observe (via a third party) a state that causally requires a
        write nobody else has seen.  Components of other nodes are always
        safe to pass on: they entered ``vt`` through messages, so their
        writes are already visible elsewhere.
        """
        if not self._wb_uncertified:
            return self.vt
        horizon = min(self._wb_uncertified) - 1
        comps = self.vt.components
        me = self.node_id
        if comps[me] <= horizon:
            return self.vt
        return VectorClock._from_trusted(
            comps[:me] + (horizon,) + comps[me + 1:]
        )

    def _wb_enqueue(
        self, owner: int, location: str, value: Any, stamp: VectorClock, seq: int
    ) -> None:
        self._wb_enqueues += 1
        if self._wb_runs and self._wb_runs[-1].owner == owner:
            run = self._wb_runs[-1]
            for i, queued in enumerate(run.writes):
                if queued.location == location and self.policy.coalescable(
                    location, queued.value, value
                ):
                    # Same-location coalescing: the old write will never
                    # be sent; the new write inherits its certification
                    # obligation (``seqs`` keeps both components, so the
                    # read barrier stays up until this run is acked).
                    # The survivor moves to the *end* of the run — it is
                    # the newest write, and batch sub-writes must stay in
                    # program order (strictly increasing own components)
                    # or the owner would certify them out of causal order.
                    run.writes.pop(i)
                    run.writes.append(_QueuedWrite(location, value, stamp, seq))
                    run.seqs.append(seq)
                    self.wb_coalesced += 1
                    if self.obs is not None and self.obs.wants("proto", "wb.coalesce"):
                        self.obs.emit(
                            "proto", "wb.coalesce", node=self.node_id,
                            clock=stamp, location=location,
                        )
                    return
            run.writes.append(_QueuedWrite(location, value, stamp, seq))
            run.seqs.append(seq)
            return
        self._wb_runs.append(
            _Run(owner=owner, writes=[_QueuedWrite(location, value, stamp, seq)],
                 seqs=[seq])
        )

    def _schedule_flush(self) -> None:
        """Arm the delayed flush (coalesces same-instant write bursts)."""
        if self._wb_flush_scheduled or self._wb_outstanding is not None:
            return
        self._wb_flush_scheduled = True
        self._wb_flush_hops = 0
        self._wb_flush_mark = self._wb_enqueues
        self.runtime.call_soon(self._wb_flush_tick)

    def _wb_flush_tick(self) -> None:
        """The delayed-flush timer, one scheduler turn at a time.

        The application's continuation is scheduled *after* this tick
        was armed, so the first tick always re-arms once — giving the
        app one turn to extend the window — and keeps re-arming while
        new writes actually arrive, up to ``_WB_MAX_DELAY_HOPS`` turns
        or a full head run.  All hops happen at one simulated instant;
        only event order is spent.
        """
        if self._wb_outstanding is not None or not self._wb_runs:
            self._wb_flush_scheduled = False
            return
        grew = self._wb_enqueues != self._wb_flush_mark
        if (
            (self._wb_flush_hops == 0 or grew)
            and self._wb_flush_hops < _WB_MAX_DELAY_HOPS
            and len(self._wb_runs[-1].writes) < _WB_MAX_RUN
        ):
            self._wb_flush_hops += 1
            self._wb_flush_mark = self._wb_enqueues
            self.runtime.call_soon(self._wb_flush_tick)
            return
        self._wb_flush()

    def _wb_flush(self) -> None:
        """Send the head run now, unless one is already in flight.

        One batch in flight at a time: the next run leaves only when the
        previous run's ack returns.  This serialization is what makes
        cross-owner causal order hold — owner B cannot certify a later
        write before owner A certified an earlier one.
        """
        self._wb_flush_scheduled = False
        if self._wb_outstanding is not None or not self._wb_runs:
            return
        run = self._wb_runs.pop(0)
        run.request_id = self.next_request_id()
        self._wb_outstanding = run
        self.wb_batches += 1
        self.wb_batched_writes += len(run.writes)
        if self.obs is not None and self.obs.wants("proto", "wb.flush"):
            self.obs.emit(
                "proto", "wb.flush", node=self.node_id, clock=self.vt,
                owner=run.owner, writes=len(run.writes),
            )
            self.obs.metrics.histogram("wb.batch_occupancy").observe(
                len(run.writes)
            )
        self.runtime.send(
            self.node_id,
            run.owner,
            WriteBatch(
                request_id=run.request_id,
                writes=tuple(
                    WriteRequest(
                        request_id=run.request_id,
                        location=w.location,
                        value=w.value,
                        stamp=w.stamp,
                    )
                    for w in run.writes
                ),
            ),
        )

    def _serve_write_batch(self, src: int, msg: WriteBatch) -> None:
        """Certify a peer's batch — always immediately, never deferred.

        Deferring certifications (like reads) could deadlock: two nodes
        whose queues target each other would wait forever.  Immediate
        service is safe because the reply stamps are clamped to
        :meth:`_visible_vt`.
        """
        replies = []
        for req in msg.writes:
            replies.append(self._certify_batched(src, req))
        self.runtime.send(
            self.node_id,
            src,
            WriteBatchReply(
                request_id=msg.request_id,
                replies=tuple(replies),
                stamp=self._visible_vt(),
            ),
        )

    def _certify_batched(self, src: int, msg: WriteRequest) -> BatchedWriteReply:
        """Figure 4's WRITE service for one sub-write of a batch.

        Identical to :meth:`_serve_write` except the stored/reported
        stamp is ``update(msg.stamp, visible_vt)`` rather than the full
        ``vt`` — the canonical writestamp must not cover this owner's own
        uncertified components.
        """
        if not self.store.owns(msg.location):
            raise ProtocolError(
                f"node {self.node_id} received batched WRITE for "
                f"{msg.location!r} owned by {self.namespace.owner(msg.location)}"
            )
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
            apply = True
        if apply:
            stamp = msg.stamp.update(self._visible_vt())
            entry = MemoryEntry(value=msg.value, stamp=stamp, writer=src)
            self.store.put(msg.location, entry)
            self._notify_watchers(msg.location, msg.value)
            # Spare dirty write-behind lines msg.stamp cannot cover; see
            # _dirty_keep (self.vt alone would kill our own queued writes).
            swept = self.store.invalidate_older_than(
                self.vt, keep=self._dirty_keep(msg.stamp)
            )
            if self.obs is not None and swept and self.obs.wants("proto", "inv.sweep"):
                self.obs.emit(
                    "proto", "inv.sweep", node=self.node_id, clock=self.vt,
                    invalidated=swept, cause="serve_batch",
                    trigger=[src, msg.stamp[src]],
                )
            return BatchedWriteReply(location=msg.location, stamp=stamp)
        if (
            current.writer == self.node_id
            and self._wb_uncertified
            and current.stamp[self.node_id] >= min(self._wb_uncertified)
        ):
            # The surviving entry is an own *local* write performed after
            # writes still sitting in our queue — its causal past is not
            # yet certified, so its value must not leave this node.
            # Reply without it; the rejected writer discards its copy and
            # will fetch the survivor by a later (deferred) read.
            survivor_payload = None
        else:
            survivor_payload = EntryPayload(
                location=msg.location,
                value=current.value,
                stamp=current.stamp,
                writer=current.writer,
            )
        return BatchedWriteReply(
            location=msg.location,
            stamp=msg.stamp.update(self._visible_vt()),
            applied=False,
            current=survivor_payload,
        )

    def _restamp_owned(self, replies: Tuple[BatchedWriteReply, ...]) -> None:
        """Fold freshly certified stamps into later own local writes.

        A local write to an owned location performed while earlier own
        writes sat uncertified was stamped without their *certified*
        stamps — program order says it causally follows them, but only
        the owner knows the stamp each one certifies at.  Served as-is,
        such an entry under-informs readers: the reply tells them the
        preceding writes exist (our own component counts them) but not
        what they dominate, so the readers' sweeps cannot invalidate
        values those writes overwrote — a Definition 2 violation once a
        reader holds such a stale line.  After every certification ack,
        merge each certified stamp into the entries of own local writes
        that follow it, restoring ``M_i[x].VT >= VT(w)`` for every write
        ``w`` preceding ``x``'s write in program order.
        """
        me = self.node_id
        still_stale: Dict[str, None] = {}
        floor = min(self._wb_uncertified) if self._wb_uncertified else None
        for location in self._wb_owned_stale:
            entry = self.store.get(location)
            if entry is None or entry.writer != me:
                # Overwritten by a certified foreign write whose stamp
                # came enriched from its owner; nothing left to patch.
                continue
            seq = entry.stamp[me]
            stamp = entry.stamp
            for sub in replies:
                # Only writes preceding this one in program order are
                # part of its causal past (a batch can certify writes
                # queued after the local write happened).
                if sub.stamp[me] < seq:
                    stamp = stamp.update(sub.stamp)
            if stamp is not entry.stamp:
                # Value and writer are unchanged; only the stamp grows.
                self.store.restamp(location, stamp)
            if floor is not None and floor < seq:
                # Some write preceding this one is still uncertified;
                # keep patching on the next ack.
                still_stale[location] = None
        self._wb_owned_stale = still_stale

    def _restamp_queued(self, replies: Tuple[BatchedWriteReply, ...]) -> None:
        """Fold freshly certified stamps into still-queued writes.

        The stamp a queued write ships to its owner is frozen at enqueue
        time.  If earlier own writes were uncertified then, the frozen
        stamp omits their certified stamps, and — when those writes
        certify at a *different* owner — so does the stamp this write
        eventually certifies at (our own component counts them, but the
        components their certification added are lost).  Readers of the
        under-stamped write then cannot invalidate values the earlier
        writes overwrote.  Runs are ack-chained, so patching the queue
        on every ack (before the next flush) is enough: every batch
        leaves carrying the certified stamps of all program-order
        predecessors certified so far.
        """
        me = self.node_id
        for run in self._wb_runs:
            for i, queued in enumerate(run.writes):
                stamp = queued.stamp
                for sub in replies:
                    if sub.stamp[me] < queued.seq:
                        stamp = stamp.update(sub.stamp)
                if stamp is not queued.stamp:
                    run.writes[i] = _QueuedWrite(
                        location=queued.location,
                        value=queued.value,
                        stamp=stamp,
                        seq=queued.seq,
                    )

    def _complete_write_batch(self, msg: WriteBatchReply) -> None:
        run = self._wb_outstanding
        if run is None or run.request_id != msg.request_id:
            raise ProtocolError(
                f"node {self.node_id} got stray batch reply {msg.request_id}"
            )
        self._wb_outstanding = None
        self.vt = self.vt.update(msg.stamp)
        self._note_stamp(msg.stamp)
        if self.obs is not None and self.obs.wants("proto", "wb.ack"):
            self.obs.emit(
                "proto", "wb.ack", node=self.node_id, clock=self.vt,
                writes=len(run.writes),
            )
        for queued, sub in zip(run.writes, msg.replies):
            self.vt = self.vt.update(sub.stamp)
            self._note_stamp(sub.stamp)
            if sub.applied:
                # Refresh the tentative entry to the canonical stamp —
                # unless a newer own write to the location is queued
                # behind this one (its tentative copy must survive).
                cached = self.store.get(queued.location)
                if (
                    cached is not None
                    and cached.writer == self.node_id
                    and cached.stamp[self.node_id] == sub.stamp[self.node_id]
                ):
                    # Same tentative write; only its stamp is refreshed.
                    self.store.restamp(queued.location, sub.stamp)
                continue
            # Rejected by the owner's policy: adopt the surviving entry,
            # as the unbatched path does — except when a newer own write
            # to the location is still queued (it supersedes the survivor
            # locally and will face the owner's policy itself).
            self.stats.rejected_writes += 1
            if self._tentative_is_newer(queued.location, sub.stamp):
                continue
            if sub.current is None:
                # The owner withheld the survivor (its causal past was
                # uncertified).  Drop our rejected tentative; the next
                # read will miss and fetch the certified survivor.
                cached = self.store.get(queued.location)
                if (
                    cached is not None
                    and cached.writer == self.node_id
                    and cached.stamp[self.node_id] == sub.stamp[self.node_id]
                ):
                    self.store.discard(queued.location)
                continue
            survivor = MemoryEntry(
                value=sub.current.value,
                stamp=sub.current.stamp,
                writer=sub.current.writer,
            )
            self._note_stamp(survivor.stamp)
            swept = self.store.invalidate_older_than(
                survivor.stamp, keep=[queued.location]
            )
            if self.obs is not None and swept and self.obs.wants("proto", "inv.sweep"):
                self.obs.emit(
                    "proto", "inv.sweep", node=self.node_id, clock=self.vt,
                    invalidated=swept, cause="batch_rejected",
                    trigger=[survivor.writer,
                             survivor.stamp[survivor.writer]]
                    if survivor.writer >= 0 else None,
                )
            self.store.put(queued.location, survivor)
            self._notify_watchers(queued.location, survivor.value)
        for seq in run.seqs:
            self._wb_uncertified.discard(seq)
        if self._wb_owned_stale:
            self._restamp_owned(msg.replies)
        if self._wb_runs:
            self._restamp_queued(msg.replies)
            # Ack-chained: launch the next run in the same instant.
            self._wb_flush()
        elif not self._wb_uncertified and self._wb_deferred_reads:
            drained, self._wb_deferred_reads = self._wb_deferred_reads, []
            for src, deferred in drained:
                self._serve_read(src, deferred)
