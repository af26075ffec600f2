"""Pluggable execution runtimes for the DSM protocol engines.

The protocol engines (Figure 4 causal owner, causal broadcast, atomic
owner, Li/Hudak, central server) are pure state machines: they interact
with the world only through a tiny driver-facing surface — ``now``,
``call_soon``, ``send``/``send_fanout``, ``register``.  This package
names that surface (:class:`Runtime`) and provides two drivers:

:class:`SimRuntime`
    The deterministic discrete-event simulator the repo has always run
    on, refactored behind the runtime handle.  Byte-identical behaviour;
    the handle is bound-method forwarding, so the hot path is unchanged.
:class:`AsyncioRuntime`
    Real execution — the same unmodified engine code driven by an
    asyncio event loop, exchanging self-delimiting wire frames over
    Unix domain sockets or TCP, with the wire codec's per-channel delta-stamp
    state and full-stamp resync on reconnect.

:class:`LiveCluster` mirrors :class:`~repro.protocols.base.DSMCluster`
over the live driver; :mod:`repro.runtime.scenarios` runs the one
Figure 3/4/5 registry (:mod:`repro.apps.figures`) and the one random
workload generator (:mod:`repro.apps.workload`) under either driver; and
:mod:`repro.runtime.differential` runs each scenario under both drivers
and asserts checker/monitor verdict equality — the histories may differ
(live nondeterminism), the legality verdicts must not.
"""

from repro.runtime.base import Runtime, SimRuntime
from repro.runtime.live import AsyncioRuntime, LinkStats
from repro.runtime.cluster import LiveCluster, LiveOutcome
from repro.runtime.scenarios import (
    SCENARIOS,
    run_scenario_live,
    run_scenario_sim,
    run_workload_live,
)
from repro.runtime.differential import DifferentialResult, run_differential

__all__ = [
    "Runtime",
    "SimRuntime",
    "AsyncioRuntime",
    "LinkStats",
    "LiveCluster",
    "LiveOutcome",
    "SCENARIOS",
    "run_scenario_live",
    "run_scenario_sim",
    "run_workload_live",
    "DifferentialResult",
    "run_differential",
]
