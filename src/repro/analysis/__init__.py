"""Analytic models and reporting for the reproduction's experiments.

:mod:`repro.analysis.message_model`
    The paper's Section 4.1 message-counting formulas (``2n + 6`` for
    causal memory, at least ``3n + 5`` for atomic memory) and helpers
    comparing them against measured counts.
:mod:`repro.analysis.tables`
    Minimal ASCII/markdown table rendering used by the CLI and
    EXPERIMENTS.md generation.
:mod:`repro.analysis.results`
    The JSON results store ``repro all --save`` / ``--baseline`` writes
    and compares.
"""

from repro.analysis.message_model import (
    atomic_messages_lower_bound,
    causal_messages_per_processor,
    central_messages_estimate,
    crossover_analysis,
)
from repro.analysis.results import ResultDelta, ResultsStore
from repro.analysis.tables import (
    Table,
    gauge_table,
    histogram_table,
    snapshot_table,
)

__all__ = [
    "ResultsStore",
    "ResultDelta",
    "causal_messages_per_processor",
    "atomic_messages_lower_bound",
    "central_messages_estimate",
    "crossover_analysis",
    "Table",
    "snapshot_table",
    "histogram_table",
    "gauge_table",
]
