"""Simulator and live front-ends over the scenario registry and workload.

The Figure 3/4/5 programs live in :mod:`repro.apps.figures` and the
random workload's generator in :mod:`repro.apps.workload`; this module
only builds a cluster — simulated or live — and runs them on it, so the
differential suite compares two drivers of one program by construction.
A ``tick`` scales the programs' think-time sleeps per driver.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.apps.figures import SCENARIO_OWNERS, SCENARIOS, Scenario
from repro.apps.workload import spawn_workload, zipf_cdf
from repro.protocols.base import DSMCluster
from repro.runtime.cluster import LiveCluster, LiveOutcome

__all__ = [
    "Scenario",
    "SCENARIOS",
    "SCENARIO_OWNERS",
    "SIM_TICK",
    "LIVE_TICK",
    "run_scenario_sim",
    "run_scenario_live",
    "run_workload_live",
]

#: Sleep scale per driver: simulated seconds vs wall-clock hundredths.
SIM_TICK = 1.0
LIVE_TICK = 0.01


def run_scenario_sim(name: str, seed: int = 0, collector=None):
    """Run one scenario under the simulator; returns its History.

    ``collector`` is attached to every layer before the processes spawn.
    """
    spec = SCENARIOS[name]
    cluster = DSMCluster(
        n_nodes=spec.n_nodes,
        protocol=spec.protocol,
        seed=seed,
        namespace=spec.namespace(),
    )
    if collector is not None:
        cluster.attach_obs(collector)
    spec.spawn(cluster, SIM_TICK)
    cluster.run()
    return cluster.history()


def _run_live(
    cluster: LiveCluster,
    start: Callable[[], None],
    monitor: bool,
    plane,
    flight: bool,
    owners: Optional[Dict[str, int]] = None,
    fault=None,
    latencies: Optional[list] = None,
) -> LiveOutcome:
    """The one live runner: wire observation, ``start`` the program, run.

    With ``monitor`` a :class:`~repro.monitor.CausalStreamMonitor` rides
    the run via the live collector, and the outcome carries its result
    plus the per-read online verdicts keyed ``(proc, index)``.

    ``plane`` attaches a :class:`~repro.obs.plane.TelemetryPlane` (pass
    ``True`` for a default one) — per-node shards over the telemetry
    sideband; the monitor then observes the *aggregated* stream.
    ``flight`` arms the plane's flight recorder, pinning ``owners``.
    ``fault`` is an optional generator function called with the runtime
    and plane, spawned alongside the program (telemetry-fault injection).
    """
    if plane is not None:
        plane = cluster.attach_plane(None if plane is True else plane)
        if flight:
            plane.enable_flight(owners=owners, seed=cluster.runtime.seed)
        if plane.dashboard is not None:
            # Live latency feed for the `repro top` panel.
            plane.dashboard.latencies = latencies
    subscription = None
    online: Dict = {}
    if monitor:
        from repro.monitor import attach_monitor

        subscription = attach_monitor(
            cluster,
            on_verdict=lambda v: online.__setitem__((v.op.proc, v.op.index), v.ok),
        )
        if plane is not None:
            plane.watch_monitor(subscription.monitor)
    if fault is not None:
        cluster.runtime.spawn(fault(cluster.runtime, plane), name="fault")
    start()
    cluster.run()
    return LiveOutcome(
        cluster,
        cluster.history(),
        monitor_result=subscription.result() if subscription else None,
        online_verdicts=online if monitor else None,
        latencies=latencies,
    )


def run_scenario_live(
    name: str,
    seed: int = 0,
    transport: str = "uds",
    delta_stamps: bool = False,
    monitor: bool = False,
    timeout: float = 30.0,
    plane=None,
    flight: bool = False,
    fault=None,
) -> LiveOutcome:
    """Run one registry scenario on the asyncio driver (see :func:`_run_live`)."""
    spec = SCENARIOS[name]
    cluster = LiveCluster(
        n_nodes=spec.n_nodes,
        protocol=spec.protocol,
        seed=seed,
        namespace=spec.namespace(),
        delta_stamps=delta_stamps,
        transport=transport,
        link_delay=spec.live_link_delay,
        timeout=timeout,
    )
    return _run_live(
        cluster, lambda: spec.spawn(cluster, LIVE_TICK), monitor, plane,
        flight, owners=spec.owners, fault=fault,
    )


def run_workload_live(
    config,
    zipf: float = 0.0,
    transport: str = "uds",
    link_delay=None,
    monitor: bool = False,
    timeout: float = 60.0,
    sample_latencies: bool = False,
    plane=None,
    flight: bool = False,
) -> LiveOutcome:
    """The random workload of :mod:`repro.apps.workload`, run live.

    Same generator, same derived-RNG labels as
    :func:`~repro.apps.workload.run_random_execution`.  ``zipf > 0``
    skews location choice (rank-``k`` location drawn with weight
    ``1/k**zipf``); ``sample_latencies`` fills the outcome's per-op
    completion latencies.
    """
    cluster = LiveCluster(
        n_nodes=config.n_nodes,
        protocol=config.protocol,
        seed=config.seed,
        no_cache=config.no_cache,
        delta_stamps=config.delta_stamps,
        transport=transport,
        link_delay=link_delay,
        timeout=timeout,
    )
    cdf = zipf_cdf(config.n_locations, zipf) if zipf > 0 else None
    latencies: Optional[list] = [] if sample_latencies else None
    return _run_live(
        cluster, lambda: spawn_workload(cluster, config, cdf, latencies),
        monitor, plane, flight, latencies=latencies,
    )
