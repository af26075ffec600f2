"""Consistency checkers for operation histories.

This package implements the paper's Section 2 semantics as executable
mathematics: operation histories with program order and reads-from, the
causality relation as exact vector clocks (assigned by
:class:`~repro.checker.causality.CausalFeed`, the one feed the streaming
monitor runs too), the live sets ``alpha(o)`` of Definition 1, and the
causal-memory correctness condition of Definition 2.  Every protocol execution recorded by the
simulator can be validated against these definitions — the
reproduction's ground truth.

Checkers for neighbouring consistency models (sequential consistency,
PRAM, per-location coherence) are included to situate causal memory in
the consistency hierarchy and to reproduce the paper's negative claims
(Figure 5 is causal but not sequentially consistent; Figure 3 is PRAM-ish
broadcast behaviour but not causal).
"""

from repro.checker.history import (
    History,
    HistoryRecorder,
    Operation,
    INIT_PROC,
    initial_write_id,
)
from repro.checker.causality import CausalOrder, CausalityCycleError
from repro.checker.live_values import live_set, live_values
from repro.checker.causal_checker import (
    CachedCausalChecker,
    CausalCheckResult,
    check_causal,
    history_fingerprint,
)
from repro.checker.sequential_checker import (
    SequentialCheckResult,
    check_sequential,
)
from repro.checker.pram_checker import check_pram
from repro.checker.coherence_checker import check_coherence
from repro.checker.slow_memory import check_slow
from repro.checker.generator import random_history
from repro.checker.report import ConsistencyProfile, classify

__all__ = [
    "History",
    "HistoryRecorder",
    "Operation",
    "INIT_PROC",
    "initial_write_id",
    "CausalOrder",
    "CausalityCycleError",
    "live_set",
    "live_values",
    "check_causal",
    "CausalCheckResult",
    "CachedCausalChecker",
    "history_fingerprint",
    "check_sequential",
    "SequentialCheckResult",
    "check_pram",
    "check_coherence",
    "check_slow",
    "random_history",
    "classify",
    "ConsistencyProfile",
]
