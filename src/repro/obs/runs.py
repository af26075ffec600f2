"""Traced scenario runs for the ``repro trace`` / ``repro monitor`` CLI and CI.

:func:`run_traced` runs one scenario of the registry
(:mod:`repro.apps.figures`) on the simulator with a
:class:`~repro.obs.collector.TraceCollector` attached to every layer,
and returns the collector together with the recorded history.

``fig4`` is the acceptance scenario: an owner-protocol run whose trace
must show every ``proto.inv.sweep`` causally *after* the write that
triggered it (the DAG-walking test in ``tests/test_obs.py`` asserts
exactly that on the exported causal DAG); ``fig3`` is the CI smoke
trace — writes, broadcast applies and cross-node delivery under tracing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checker.history import History
from repro.obs.collector import TraceCollector
from repro.runtime.scenarios import SCENARIOS, run_scenario_sim

__all__ = ["TracedRun", "run_traced", "run_traced_figure3", "run_traced_figure4"]


@dataclass
class TracedRun:
    """A finished traced scenario: the trace plus what produced it."""

    scenario: str
    protocol: str
    n_nodes: int
    collector: TraceCollector
    history: History


def run_traced(name: str, seed: int = 0, collector=None) -> TracedRun:
    """Run registry scenario ``name`` on the simulator, traced."""
    if collector is None:
        collector = TraceCollector()
    history = run_scenario_sim(name, seed=seed, collector=collector)
    spec = SCENARIOS[name]
    return TracedRun(name, spec.protocol, spec.n_nodes, collector, history)


def run_traced_figure3(seed: int = 0, collector=None) -> TracedRun:
    """Figure 3 on causal-broadcast memory, traced."""
    return run_traced("fig3", seed=seed, collector=collector)


def run_traced_figure4(seed: int = 0, collector=None) -> TracedRun:
    """The owner-protocol invalidation scenario, traced."""
    return run_traced("fig4", seed=seed, collector=collector)
