"""Live sets — Definition 1 of the paper.

Given a read ``o = r(x)v`` and a write ``o' = w(x)v'``, the value ``v'``
is *live* for ``o`` iff either:

1. ``o'`` is concurrent with ``o`` (with the reads-from edge established
   by ``o`` itself excluded from the causality relation); or
2. ``o' *-> o`` with no intervening operation ``o'' = a(x)u`` (read or
   write, ``u`` from a different write) such that ``o' *-> o'' *-> o``.

The initial write of each location participates like any other write, so
``alpha`` sets can contain the distinguished initial value, matching the
paper's worked examples (``alpha(r1(z)5) = {0, 5}`` in Figure 2).

The computation is mask arithmetic over the index a
:class:`CausalOrder` builds once per history; nothing here walks the
history.  For a read ``o`` on location ``x``, ``past`` is its causal
past with its own reads-from edge left out (one OR per non-reads-from
predecessor) and ``reaching = past & ops(x)`` the same-location
operations in it.  The candidate writes ``W(x)`` then split three ways
with three ANDs:

* ``W(x) & desc(o)`` — causally later, never live;
* ``W(x) & ~past & ~desc(o)`` — concurrent, live by condition 1, with no
  per-candidate work;
* ``W(x) & past`` — live by condition 2 unless
  ``desc(w) & reaching & ~same_source(w)`` is non-empty, i.e. unless an
  intervening operation carrying another write's value serves notice.

Only the third group costs a big-int test per write, and only the read's
*causal frontier* is put to it: a surviving ``w`` is the source of the
last ``reaching`` op of some program-order chain
(:meth:`CausalOrder.frontier_writes`), so a read makes at most
``n_procs + 1`` such tests however many overwritten writes lie in its
past.  What still grows with the history is the width of each mask.
``tests/test_checker_index.py`` pins all of this against a literal
per-pair reading of the definition.

Memoisation (the ROADMAP "checker search pruning" item): the live set of
a read is fully determined by its *causal-past fingerprint* — the read's
identity, the reads-from assignments of every read in its causal past
(with the read's own rf edge excluded), the same-location operations
that reach it, the candidate-write layout, and which candidates causally
follow it.  Program order contributes nothing extra: it is derivable
from the operation ids in the fingerprint, and every causal path into
the past runs entirely through past operations, whose rf edges the
fingerprint pins down.  A :class:`LiveSetCache` keyed on that
fingerprint therefore serves reads of *different* histories — exactly
the situation the :mod:`repro.mc` schedule explorer creates, where
thousands of dominated schedules re-derive the same causal pasts — with
a guaranteed-identical result.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.checker.causality import CausalOrder, bit_indices
from repro.checker.history import History, Operation
from repro.errors import CheckError

__all__ = ["live_set", "live_values", "read_fingerprint", "LiveSetCache"]


class LiveSetCache:
    """Memoises live-set computation across reads *and histories*.

    The key is :func:`read_fingerprint`; the value is the tuple of
    positions (into the read's candidate-write list) that are live.
    Positions, not operations, so a hit from one history can be replayed
    onto the equal-shaped candidates of another.

    Share one instance across many :func:`check_causal` calls (the
    explorer and the benchmark runner do); verdicts are unchanged — see
    ``test_checker_memo.py``, which pins cached == uncached over
    thousands of generated histories.
    """

    __slots__ = ("hits", "misses", "_table")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._table: Dict[Tuple, Tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._table)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the table."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all memoised entries (counters are kept)."""
        self._table.clear()


def read_fingerprint(
    history: History, order: CausalOrder, read: Operation
) -> Tuple:
    """The causal-past fingerprint that determines ``read``'s live set.

    Two reads (in the same history or different ones) with equal
    fingerprints have equal live sets *as candidate positions*.  The
    components, and why they suffice:

    * the read's id, location and source — identifies the operation and
      its rf edge (which Definition 1 excludes);
    * ``past_reads`` — every read (any location) reaching this one with
      its rf edge excluded, with its rf assignment.  All causal paths
      between past operations run through past operations, and every
      non-program-order edge on such a path is the rf edge of a past
      read, so this pins the entire causal relation over the past
      (program-order edges are derivable from the operation ids);
    * ``past_loc`` — the same-location operations serving notice
      (condition 2's candidates), with the write each one carries;
    * ``candidates`` — the candidate-write layout (positions matter);
    * ``follows`` — candidates causally *after* the read, which are
      excluded from the live set but whose ordering paths may run
      through non-past operations, so they cannot be derived from the
      past components.
    """
    j = order.index_of(read)
    ops = order.ops
    past = order.past_mask(j)
    loc = order.location_ops(read.location)
    past_reads: List[Tuple] = []
    for k in bit_indices(past & order.reads_mask()):
        op = ops[k]
        past_reads.append((op.proc, op.index, op.read_from))
    past_loc: List[Tuple] = []
    for k in bit_indices(past & loc.mask):
        op = ops[k]
        source = op.write_id if op.is_write else op.read_from
        past_loc.append((op.proc, op.index, source))
    follows = tuple(
        ops[k].write_id
        for k in bit_indices(order.descendant_mask(j) & loc.writes_mask)
    )
    return (
        read.op_id,
        read.location,
        read.read_from,
        tuple(past_reads),
        tuple(past_loc),
        loc.write_ids,
        follows,
    )


def live_set(
    history: History,
    order: CausalOrder,
    read: Operation,
    cache: Optional[LiveSetCache] = None,
) -> List[Operation]:
    """The writes whose values are live for ``read`` (``alpha(o)`` as ops).

    Returns write operations rather than raw values so callers can
    distinguish distinct writes of equal values.  With ``cache``, the
    result is memoised under the read's causal-past fingerprint.
    """
    if not read.is_read:
        raise CheckError(f"live_set called on non-read {read}")
    loc = order.location_ops(read.location)
    key: Optional[Tuple] = None
    if cache is not None:
        key = read_fingerprint(history, order, read)
        positions = cache._table.get(key)
        if positions is not None:
            cache.hits += 1
            return [loc.writes[p] for p in positions]
        cache.misses += 1
    ops = order.ops
    live_indices = list(bit_indices(order.live_mask(order.index_of(read), loc)))
    if key is not None:
        position = loc.write_position
        cache._table[key] = tuple(position[i] for i in live_indices)
    return [ops[i] for i in live_indices]


def live_values(
    history: History,
    order: CausalOrder,
    read: Operation,
    cache: Optional[LiveSetCache] = None,
) -> Set[Any]:
    """``alpha(o)`` as a set of values (the form the paper's examples use)."""
    return {write.value for write in live_set(history, order, read, cache)}
