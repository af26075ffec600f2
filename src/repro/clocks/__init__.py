"""Logical clocks.

The owner protocol of the paper (Figure 4) tracks causality with vector
timestamps: "a simple vector timestamp protocol [Mattern 1989] may be used
to capture precisely the evolving partial ordering of events".  A vector
time attached to a written value is called a *writestamp*.

:mod:`repro.clocks.vector_clock`
    Immutable fixed-dimension vector clocks with ``increment``, ``update``
    (component-wise max) and the strict partial order the paper defines:
    ``VT < VT'`` iff every component is <= and some component is <.
:mod:`repro.clocks.lamport`
    Scalar Lamport clocks, provided for comparison and for tests that show
    scalar clocks cannot detect concurrency (why the protocol needs vectors).
"""

from repro.clocks.lamport import LamportClock
from repro.clocks.vector_clock import (
    CONCURRENT,
    EQUAL,
    GREATER,
    LESS,
    VectorClock,
)

__all__ = [
    "VectorClock",
    "LamportClock",
    "LESS",
    "GREATER",
    "EQUAL",
    "CONCURRENT",
]
