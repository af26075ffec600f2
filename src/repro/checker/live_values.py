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

Each write of the read's location is put to the one live predicate,
:meth:`~repro.checker.causality.CausalFeed.live_ids`, an exact test on
the clocks the order assigned; nothing walks the history beyond the
location's writes.
``tests/test_checker_index.py`` pins every live set against a literal
per-pair reading of the definition on a graph search of its own.
"""

from __future__ import annotations

from typing import Any, List, Set

from repro.checker.causality import CausalOrder
from repro.checker.history import Operation

__all__ = ["live_set", "live_values"]


def live_set(order: CausalOrder, read: Operation) -> List[Operation]:
    """The writes whose values are live for ``read`` (``alpha(o)`` as ops).

    Returns write operations rather than raw values so callers can
    distinguish distinct writes of equal values; the initial write
    first, then the location's writes in ``History.writes`` order.
    """
    return order.live_set(read)


def live_values(order: CausalOrder, read: Operation) -> Set[Any]:
    """``alpha(o)`` as a set of values (the form the paper's examples use)."""
    return {write.value for write in live_set(order, read)}
