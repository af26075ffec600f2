"""Causal tracing and metrics (``repro.obs``).

The observability layer for the whole stack: typed trace events stamped
with vector clocks (:mod:`repro.obs.events`), the collector every
instrumented component emits into (:mod:`repro.obs.collector`), the
metrics registry (:mod:`repro.obs.metrics`), exporters for Chrome
``trace_event`` JSON / causal DAGs / timelines (:mod:`repro.obs.export`),
traced runs of the scenario registry (:mod:`repro.obs.runs`), and the
distributed telemetry plane — per-node shards, sideband streaming,
causal aggregation, flight recorder — in :mod:`repro.obs.plane`.

Instrumentation is zero-cost when detached: components hold ``obs =
None`` and every emit site is guarded, so a run without a collector
allocates no event records — see DESIGN.md Section 4.7.
"""

from repro.obs.collector import TraceCollector
from repro.obs.events import CATEGORIES, TraceEvent
from repro.obs.export import (
    dag_reachable,
    format_timeline,
    to_causal_dag,
    to_chrome_trace,
    to_dot,
    validate_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.plane import NodeShard, TelemetryAggregator, TelemetryPlane
from repro.obs.runs import (
    TracedRun,
    run_traced,
    run_traced_figure3,
    run_traced_figure4,
)

__all__ = [
    "TraceCollector",
    "TraceEvent",
    "CATEGORIES",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "to_chrome_trace",
    "validate_chrome_trace",
    "to_causal_dag",
    "to_dot",
    "dag_reachable",
    "format_timeline",
    "TracedRun",
    "run_traced",
    "run_traced_figure3",
    "run_traced_figure4",
    "TelemetryPlane",
    "TelemetryAggregator",
    "NodeShard",
]
