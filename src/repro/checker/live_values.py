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
"""

from __future__ import annotations

from typing import Any, List, Set

from repro.checker.causality import CausalOrder, bit_indices
from repro.checker.history import Operation
from repro.errors import CheckError

__all__ = ["live_set", "live_values"]


def live_set(order: CausalOrder, read: Operation) -> List[Operation]:
    """The writes whose values are live for ``read`` (``alpha(o)`` as ops).

    Returns write operations rather than raw values so callers can
    distinguish distinct writes of equal values.
    """
    if not read.is_read:
        raise CheckError(f"live_set called on non-read {read}")
    loc = order.location_ops(read.location)
    ops = order.ops
    live = order.live_mask(order.index_of(read), loc)
    return [ops[i] for i in bit_indices(live)]


def live_values(order: CausalOrder, read: Operation) -> Set[Any]:
    """``alpha(o)`` as a set of values (the form the paper's examples use)."""
    return {write.value for write in live_set(order, read)}
