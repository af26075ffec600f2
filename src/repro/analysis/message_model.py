"""The paper's message-counting model (Section 4.1).

For the synchronous linear solver with ``n`` workers, one location per
worker, and handshake bits owned by their worker:

* **Causal memory** — each worker re-reads ``n - 1`` remote components
  (``2(n-1)`` messages) and each handshake bit costs one remote read and
  one remote write by the coordinator (``2 * 4 = 8`` messages), giving
  exactly ``2n + 6`` messages per processor per iteration.
* **Atomic memory** — the same reads and handshakes, plus invalidation
  of the ``n - 1`` cached copies when each owner writes its component:
  "at least ``3n + 5``".  The paper's bound counts invalidation messages
  but not their acknowledgements; a real protocol (like the baseline in
  :mod:`repro.protocols.atomic_owner`) also pays acks and handshake-bit
  invalidations, landing at ``4n + 8`` in this reproduction's
  measurements.

These closed forms are compared against *measured* counts by experiment
E6 (``python -m repro solver-table``; see ``tests/test_experiments.py``).

The wire layer adds a *byte* axis to the same analysis: the dominant
metadata cost of causal DSM is the vector writestamp, ``4n`` bytes per
full stamp.  Its size rules are :func:`repro.protocols.wire.stamp_full_bytes`
and :func:`repro.protocols.wire.stamp_delta_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

__all__ = [
    "causal_messages_per_processor",
    "atomic_messages_lower_bound",
    "atomic_messages_measured_model",
    "central_messages_estimate",
    "crossover_analysis",
    "ComparisonRow",
]


def causal_messages_per_processor(n: int) -> int:
    """Paper: ``2n + 6`` messages per processor per iteration."""
    return 2 * n + 6


def atomic_messages_lower_bound(n: int) -> int:
    """Paper: "at least ``3n + 5``" (invalidations counted, acks not)."""
    return 3 * n + 5


def atomic_messages_measured_model(n: int) -> int:
    """What the full baseline actually pays: ``4n + 8``.

    ``2(n-1)`` read misses + ``2(n-1)`` invalidations-with-acks for the
    component write + 8 handshake messages + 4 handshake-bit
    invalidations-with-acks.
    """
    return 4 * n + 8


def central_messages_estimate(n: int) -> int:
    """Central server, no caching at all: every operation is 2 messages.

    Per worker per iteration: ``2(n-1)`` component reads + 2 for the
    component write + 16 for the four handshake steps (each needing a
    remote read *and* producing a remote write) + ``2(n+1)`` re-reads of
    the constant row of ``A`` and of ``b`` (nothing is cached).
    """
    return 2 * (n - 1) + 2 + 16 + 2 * (n + 1)


@dataclass(frozen=True)
class ComparisonRow:
    """Analytic comparison at one system size."""

    n: int
    causal: int
    atomic_bound: int
    atomic_model: int
    savings_vs_bound: int

    @property
    def ratio(self) -> float:
        """Atomic lower bound over causal cost."""
        return self.atomic_bound / self.causal


def crossover_analysis(ns: Iterable[int]) -> List[ComparisonRow]:
    """Tabulate the analytic comparison over system sizes.

    The paper's claim has no crossover: causal memory wins for every
    ``n >= 1`` (``(3n+5) - (2n+6) = n - 1 >= 0``), and the advantage
    grows linearly.  This function makes that claim checkable.
    """
    rows = []
    for n in ns:
        causal = causal_messages_per_processor(n)
        bound = atomic_messages_lower_bound(n)
        rows.append(
            ComparisonRow(
                n=n,
                causal=causal,
                atomic_bound=bound,
                atomic_model=atomic_messages_measured_model(n),
                savings_vs_bound=bound - causal,
            )
        )
    return rows
