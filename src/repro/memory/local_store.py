"""The local memory ``M_i`` of one processor.

Each processor ``P_i`` has a local memory indexed by location names.  Owned
locations are always present (the owner holds the current value); other
locations may hold cached copies or the distinguished value ``bottom``
(modelled here as *absence* of an entry), meaning invalid/not cached
(paper, Section 3.1).  ``C_i`` — the set of currently cached locations — is
exactly :meth:`LocalStore.cached_locations`.

Every entry is a ``(value, writestamp, writer)`` triple.  The writer id is
an extension over the paper's ``(value, VT)`` pair, needed by the
owner-favoured conflict-resolution policy of the dictionary application
(Section 4.2): the owner must recognise that the stored concurrent value
was written by itself.

The store also enforces the paper's invariant that "the locations owned by
a processor can never be invalidated by that processor".

Performance notes (the invalidation sweep runs on every value install):

* ``C_i`` and a per-unit membership index are maintained incrementally,
  so :meth:`cached_locations` is a set copy (no ownership re-derivation)
  and the sweep never rescans the whole store to find a doomed unit's
  members.  Ownership and read-only verdicts per location are immutable,
  so they are memoised.
* A *sweep watermark* records the last swept stamp for which the store is
  known to hold no cached, invalidatable entry strictly older than it.
  A sweep whose stamp does not advance past the watermark is provably a
  no-op (everything it could invalidate is already gone) and is skipped
  in O(n) — the owner protocol issues exactly such redundant sweeps when
  serviced writes do not advance its clock.  Any install into the cache
  clears the guarantee, so the skip never changes observable contents
  (see ``tests/test_prop_local_store.py`` for the equivalence property).
* The sweep itself is the loop Figure 4 writes: one pass over the sweep
  candidates (cached, not read-only), each line's own component tuple
  tested against the incoming stamp.  On the ``perf`` shapes a sweep
  scans two to six lines, so nothing is batched (DESIGN.md §4.9 records
  the vectorised mirror this replaced and why it went).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set

from repro.clocks import EQUAL, VectorClock
from repro.errors import MemoryError_
from repro.memory.namespace import Namespace

__all__ = ["MemoryEntry", "LocalStore", "INITIAL_WRITER"]

#: Writer id used for the distinguished initial writes that, per the paper,
#: "precede all operations in any process sequence".
INITIAL_WRITER = -1


class MemoryEntry:
    """One location's value, its writestamp, and who wrote it.

    A plain slotted record (one allocation, no ``__dict__``) rather than
    a dataclass: entries are the highest-churn objects of the protocol
    hot path.  Equality and hashing match the old frozen-dataclass
    semantics.  Fields are writable so the store can refresh a
    writestamp in place (:meth:`LocalStore.restamp`) when it already
    owns the entry — but all mutation must go through the store, which
    keeps the sweep watermark coherent.
    """

    __slots__ = ("value", "stamp", "writer")

    def __init__(self, value: Any, stamp: VectorClock, writer: int):
        self.value = value
        self.stamp = stamp
        self.writer = writer

    def older_than(self, stamp: VectorClock) -> bool:
        """Strictly older under the vector order (the invalidation test)."""
        return self.stamp.strictly_less(stamp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryEntry):
            return NotImplemented
        return (
            self.value == other.value
            and self.stamp == other.stamp
            and self.writer == other.writer
        )

    def __hash__(self) -> int:
        return hash((self.value, self.stamp, self.writer))

    def __repr__(self) -> str:
        return (
            f"MemoryEntry(value={self.value!r}, stamp={self.stamp!r}, "
            f"writer={self.writer!r})"
        )


class LocalStore:
    """``M_i``: owned locations plus a cache of remote locations.

    Parameters
    ----------
    node_id:
        This processor's id (the ``i`` in ``M_i``).
    namespace:
        Shared ownership/unit map.
    n_nodes:
        Vector-clock dimension, used to synthesize initial entries.
    initial_value:
        The distinguished value all locations are initialised to; the
        paper's examples use 0.
    """

    def __init__(
        self,
        node_id: int,
        namespace: Namespace,
        n_nodes: int,
        initial_value: Any = 0,
    ):
        self.node_id = node_id
        self.namespace = namespace
        self.n_nodes = n_nodes
        self.initial_value = initial_value
        self._entries: Dict[str, MemoryEntry] = {}
        # ``C_i`` maintained incrementally (dict-as-ordered-set: iteration
        # follows insertion order, keeping sweeps deterministic across
        # processes where plain set order would be hash-randomized).
        self._cached: Dict[str, None] = {}
        # unit -> present locations of that unit (cached *and* owned).
        self._unit_index: Dict[str, Dict[str, None]] = {}
        # Cached and not read-only: the only entries a sweep can touch
        # (ordered set, like ``_cached``).
        self._sweep_candidates: Dict[str, None] = {}
        # Ownership / read-only verdicts are pure functions of the
        # location; memoise them per store.
        self._owns_memo: Dict[str, bool] = {}
        self._read_only_memo: Dict[str, bool] = {}
        # Sweep watermark: when ``_watermark_clean`` no cached,
        # invalidatable entry is strictly older than ``_watermark``.
        self._watermark: Optional[VectorClock] = None
        self._watermark_clean = False
        # Counters consumed by benchmarks / experiment reports.
        self.invalidation_count = 0
        self.discard_count = 0
        self.sweeps_performed = 0
        self.sweeps_skipped = 0
        #: Attached TraceCollector, or None (all emits are guarded).
        self.obs = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def owns(self, location: str) -> bool:
        """True iff this node owns ``location``'s unit."""
        owned = self._owns_memo.get(location)
        if owned is None:
            owned = self.namespace.owns(self.node_id, location)
            self._owns_memo[location] = owned
        return owned

    def get(self, location: str) -> Optional[MemoryEntry]:
        """The entry for ``location``, or None if invalid (``bottom``).

        Owned locations are never ``bottom``: a never-written owned
        location yields the distinguished initial entry (zero writestamp),
        reflecting the paper's assumption of initial writes preceding all
        operations.
        """
        entry = self._entries.get(location)
        if entry is None and self.owns(location):
            entry = self.initial_entry()
            self._install(location, entry)
        return entry

    def initial_entry(self) -> MemoryEntry:
        """The entry representing the distinguished initial write."""
        return MemoryEntry(
            value=self.initial_value,
            stamp=VectorClock.zero(self.n_nodes),
            writer=INITIAL_WRITER,
        )

    def is_valid(self, location: str) -> bool:
        """True iff reading ``location`` needs no remote message."""
        return location in self._entries or self.owns(location)

    def cached_locations(self) -> Set[str]:
        """``C_i``: locations cached here (present but not owned).

        Maintained incrementally; this returns a snapshot copy.
        """
        return set(self._cached)

    def owned_locations(self) -> Set[str]:
        """Owned locations that have an explicit entry."""
        return {loc for loc in self._entries if loc not in self._cached}

    def locations_in_unit(self, unit: str) -> List[str]:
        """Present locations belonging to the given sharing unit."""
        members = self._unit_index.get(unit)
        return list(members) if members else []

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(self, location: str, entry: MemoryEntry) -> None:
        """Install a value (a local write, a reply, or a serviced WRITE)."""
        self._install(location, entry)
        if self.obs is not None and self.obs.wants("store", "apply"):
            self.obs.emit(
                "store", "apply", node=self.node_id, clock=entry.stamp,
                location=location, writer=entry.writer,
                owned=self.owns(location),
            )

    def restamp(self, location: str, stamp: VectorClock) -> MemoryEntry:
        """Refresh a present entry's writestamp in place (same value/writer).

        E13's write-behind mutant (``repro.harness.scenarios``) replaces
        a tentative entry with the identical value under its certified
        stamp; this mutates the store-owned entry instead of allocating
        a replacement.  A cached entry clears the sweep-watermark
        guarantee exactly as a re-install would (its stamp changed, so
        the next sweep must look).
        """
        entry = self._entries[location]
        entry.stamp = stamp
        if location in self._cached:
            self._watermark_clean = False
        if self.obs is not None and self.obs.wants("store", "apply"):
            self.obs.emit(
                "store", "apply", node=self.node_id, clock=stamp,
                location=location, writer=entry.writer,
                owned=self.owns(location),
            )
        return entry

    def invalidate(self, location: str) -> None:
        """Set ``M_i[location] := bottom``.  Owned locations never can be."""
        if self.owns(location):
            raise MemoryError_(
                f"node {self.node_id} cannot invalidate owned location "
                f"{location!r}"
            )
        if location in self._entries:
            self._remove_cached(location, invalidation=True)
            if self.obs is not None and self.obs.wants("store", "invalidate"):
                self.obs.emit(
                    "store", "invalidate", node=self.node_id,
                    location=location,
                )

    def invalidate_older_than(
        self,
        stamp: VectorClock,
        keep: Optional[Iterable[str]] = None,
    ) -> List[str]:
        """Figure 4's invalidation sweep.

        Invalidate every cached location whose writestamp is strictly less
        than ``stamp`` (``M_i[y].VT < VT'``).  Locations the namespace marks
        read-only, and any in ``keep``, survive.  When page granularity is
        in use, an entire unit is invalidated as soon as any of its entries
        is older (conservative, hence still correct).

        Returns the list of invalidated locations (for tracing).
        """
        if (
            self._watermark_clean
            and self._watermark is not None
            and stamp.compare(self._watermark) <= EQUAL  # LESS or EQUAL
        ):
            # Nothing invalidatable is older than the watermark, so
            # nothing can be older than this non-advancing stamp.
            self.sweeps_skipped += 1
            return []
        # The loop the paper wrote (``forall y in C_i : M_i[y].VT < VT'``)
        # over the lines a sweep may touch.  Nothing is removed until the
        # whole scan has passed, so a stamp or line of the wrong
        # dimension (ClockError) leaves the store as it was.
        candidates = self._sweep_candidates
        entries = self._entries
        keep_set = frozenset(keep) if keep else frozenset()
        doomed_units: Dict[str, None] = {}
        kept_old = False
        unit_of = self.namespace.unit
        s = stamp.components
        width = len(s)
        for location in candidates:
            entry = entries[location]
            # strictly_less reordered: the writer's component decides
            # "not older" at once on most lines (DESIGN.md §4.10).
            w, t = entry.writer, entry.stamp.components
            if w >= 0 and len(t) == width and t[w] > s[w]:
                continue
            if entry.stamp.strictly_less(stamp):
                if location in keep_set:
                    kept_old = True  # survivor below the sweep stamp
                else:
                    doomed_units[unit_of(location)] = None
        self.sweeps_performed += 1
        invalidated: List[str] = []
        for unit in doomed_units:
            for location in list(self._unit_index[unit]):
                if location not in candidates or location in keep_set:
                    continue  # owned/read-only unit-mates are never swept
                self._remove_cached(location, invalidation=True)
                invalidated.append(location)
        self._watermark = stamp
        self._watermark_clean = not kept_old
        return invalidated

    def discard(self, location: str) -> bool:
        """The paper's ``discard``: drop one cached copy (replacement /
        liveness).  Returns True if a copy was present.  Owned locations
        cannot be discarded."""
        if self.owns(location):
            raise MemoryError_(
                f"node {self.node_id} cannot discard owned location {location!r}"
            )
        if location in self._entries:
            self._remove_cached(location, invalidation=False)
            if self.obs is not None and self.obs.wants("store", "discard"):
                self.obs.emit(
                    "store", "discard", node=self.node_id, location=location,
                )
            return True
        return False

    def discard_all(self) -> int:
        """Drop the entire cache; returns the number of dropped copies."""
        cached = list(self._cached)
        for location in cached:
            self._remove_cached(location, invalidation=False)
        if self.obs is not None and cached and self.obs.wants("store", "discard_all"):
            self.obs.emit(
                "store", "discard_all", node=self.node_id, count=len(cached),
            )
        return len(cached)

    # ------------------------------------------------------------------
    # Internal bookkeeping (the single install/removal paths)
    # ------------------------------------------------------------------
    def _install(self, location: str, entry: MemoryEntry) -> None:
        if location not in self._entries:
            unit = self.namespace.unit(location)
            members = self._unit_index.get(unit)
            if members is None:
                self._unit_index[unit] = {location: None}
            else:
                members[location] = None
            if not self.owns(location):
                self._cached[location] = None
                if not self._is_read_only(location):
                    self._sweep_candidates[location] = None
        if location in self._cached:
            # A cache install may be older than the watermark; the next
            # sweep must look again.
            self._watermark_clean = False
        self._entries[location] = entry

    def _remove_cached(self, location: str, *, invalidation: bool) -> None:
        del self._entries[location]
        self._cached.pop(location, None)
        self._sweep_candidates.pop(location, None)
        unit = self.namespace.unit(location)
        members = self._unit_index.get(unit)
        if members is not None:
            members.pop(location, None)
            if not members:
                del self._unit_index[unit]
        if invalidation:
            self.invalidation_count += 1
        else:
            self.discard_count += 1

    def _is_read_only(self, location: str) -> bool:
        verdict = self._read_only_memo.get(location)
        if verdict is None:
            verdict = self.namespace.is_read_only(location)
            self._read_only_memo[location] = verdict
        return verdict

    def __contains__(self, location: str) -> bool:
        return self.is_valid(location)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LocalStore node={self.node_id} entries={len(self._entries)} "
            f"cached={len(self._cached)}>"
        )
