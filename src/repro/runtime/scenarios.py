"""Driver-agnostic scenario programs: one program, two runtimes.

The Figure 3/4/5 programs here are the same generators the simulator
harness runs (`repro.harness.scenarios` / `repro.obs.runs`), written
once against the cluster surface both drivers share — ``spawn``,
``api.read/write/watch``, ``sleep`` through the runtime handle.  A
``tick`` parameter scales the think-time sleeps: seconds of virtual
time in the simulator, hundredths of a wall-clock second live.

Figure 3's anomaly depends on message timing (P2's concurrent ``x=2``
must reach P3 *after* P1's ``x=5``); the simulator gets this from its
latency model, the live driver from a static per-link delay map with a
slow (P2 → P3) link — milliseconds of margin against scheduler jitter,
so the differential suite is not a coin flip.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.memory import Namespace
from repro.protocols.base import DSMCluster
from repro.runtime.cluster import LiveCluster, LiveOutcome
from repro.sim.tasks import sleep

__all__ = [
    "Scenario",
    "SCENARIOS",
    "run_scenario_sim",
    "run_scenario_live",
    "run_workload_live",
]


def _spawn_figure3(cluster, tick: float) -> None:
    """Figure 3 on broadcast memory (NOT causal; the checker rejects it)."""

    def p1(api):
        yield api.write("x", 5)
        yield api.write("y", 3)

    def p2(api):
        yield api.write("x", 2)
        yield api.watch("y", lambda v: v == 3)
        yield api.read("y")
        yield api.read("x")
        yield api.write("z", 4)

    def p3(api):
        yield api.watch("z", lambda v: v == 4)
        yield api.read("z")
        yield api.read("x")

    cluster.spawn(0, p1, name="P1")
    cluster.spawn(1, p2, name="P2")
    cluster.spawn(2, p3, name="P3")


def _spawn_figure4(cluster, tick: float) -> None:
    """The owner-protocol invalidation scenario (causal; both sweep paths)."""

    def p0(api):
        yield sleep(cluster.sim, 2.0 * tick)
        yield api.write("x", 1)
        yield api.write("y", 1)

    def p1(api):
        yield api.read("x")  # cache x before P0 rewrites it

    def p2(api):
        yield api.read("x")  # cache x before P0 rewrites it
        yield sleep(cluster.sim, 6.0 * tick)
        yield api.read("y")  # reply stamp sweeps the stale cached x
        yield api.read("x")

    cluster.spawn(0, p0, name="P0")
    cluster.spawn(1, p1, name="P1")
    cluster.spawn(2, p2, name="P2")


def _spawn_figure5(cluster, tick: float) -> None:
    """Figure 5: causal but not sequentially consistent (stale re-reads)."""

    def p1(api):
        yield api.read("y")
        yield api.write("x", 1)
        yield api.read("y")

    def p2(api):
        yield api.read("x")
        yield api.write("y", 1)
        yield api.read("x")

    cluster.spawn(0, p1, name="P1")
    cluster.spawn(1, p2, name="P2")


@dataclass(frozen=True)
class Scenario:
    """One paper scenario runnable under either driver."""

    name: str
    protocol: str
    n_nodes: int
    spawn: Callable[[Any, float], None]
    #: Offline checker verdict both drivers must produce.
    expect_causal: bool
    namespace: Optional[Callable[[], Namespace]] = None
    #: Live per-link delay map enforcing the orderings the scenario
    #: needs (missing pairs get the runtime default).
    live_link_delay: Optional[Dict] = None


SCENARIOS: Dict[str, Scenario] = {
    "fig3": Scenario(
        name="fig3",
        protocol="broadcast",
        n_nodes=3,
        spawn=_spawn_figure3,
        expect_causal=False,
        # P2's concurrent x=2 must reach P3 well after P1's x=5.
        live_link_delay={(1, 2): 0.04},
    ),
    "fig4": Scenario(
        name="fig4",
        protocol="causal",
        n_nodes=3,
        spawn=_spawn_figure4,
        expect_causal=True,
        namespace=lambda: Namespace.explicit(3, {"x": 0, "y": 1, "z": 2}),
    ),
    "fig5": Scenario(
        name="fig5",
        protocol="causal",
        n_nodes=2,
        spawn=_spawn_figure5,
        expect_causal=True,
        namespace=lambda: Namespace.explicit(2, {"x": 0, "y": 1}),
    ),
}

#: Sleep scale per driver: simulated seconds vs wall-clock hundredths.
SIM_TICK = 1.0
LIVE_TICK = 0.01


def run_scenario_sim(name: str, seed: int = 0):
    """Run one scenario under the simulator; returns its History."""
    spec = SCENARIOS[name]
    cluster = DSMCluster(
        n_nodes=spec.n_nodes,
        protocol=spec.protocol,
        seed=seed,
        namespace=spec.namespace() if spec.namespace else None,
    )
    spec.spawn(cluster, SIM_TICK)
    cluster.run()
    return cluster.history()


#: Explicit location owners per scenario (the flight recorder's
#: ``make_spec`` pins; mirrors each scenario's namespace).
SCENARIO_OWNERS: Dict[str, Dict[str, int]] = {
    "fig3": {"x": 0, "y": 1, "z": 2},
    "fig4": {"x": 0, "y": 1, "z": 2},
    "fig5": {"x": 0, "y": 1},
}


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
    """Run one scenario on the asyncio driver; optionally monitored.

    With ``monitor=True`` a :class:`~repro.monitor.CausalStreamMonitor`
    rides the run via the live collector, and the outcome carries its
    result plus the per-read online verdicts keyed ``(proc, index)``.

    ``plane`` attaches a :class:`~repro.obs.plane.TelemetryPlane`
    (pass ``True`` for a default one) — per-node shards over the
    telemetry sideband; the monitor then observes the *aggregated*
    stream.  ``flight`` arms the plane's flight recorder.  ``fault``
    is an optional generator function called with the runtime and
    plane, spawned alongside the scenario (telemetry-fault injection).
    """
    spec = SCENARIOS[name]
    cluster = LiveCluster(
        n_nodes=spec.n_nodes,
        protocol=spec.protocol,
        seed=seed,
        namespace=spec.namespace() if spec.namespace else None,
        delta_stamps=delta_stamps,
        transport=transport,
        link_delay=spec.live_link_delay,
        timeout=timeout,
    )
    if plane is True:
        from repro.obs.plane import TelemetryPlane

        plane = TelemetryPlane()
    if plane is not None:
        cluster.attach_plane(plane)
        if flight:
            plane.enable_flight(owners=SCENARIO_OWNERS.get(name), seed=seed)
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
    spec.spawn(cluster, LIVE_TICK)
    cluster.run()
    return LiveOutcome(
        cluster,
        cluster.history(),
        monitor_result=subscription.result() if subscription else None,
        online_verdicts=online if monitor else None,
    )


def _zipf_cdf(n_locations: int, exponent: float):
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n_locations)]
    total = 0.0
    cdf = []
    for weight in weights:
        total += weight
        cdf.append(total)
    return cdf


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

    With ``zipf == 0`` the per-process RNG draws the *identical*
    operation sequence as :func:`~repro.apps.workload.run_random_execution`
    for the same config (same derived-RNG labels, same draw order) — the
    differential suite leans on that.  ``zipf > 0`` skews location
    choice Zipf-style (rank-``k`` location drawn with weight
    ``1/k**zipf``), the classic contended-hot-key mix.
    """
    cluster = LiveCluster(
        n_nodes=config.n_nodes,
        protocol=config.protocol,
        seed=config.seed,
        no_cache=config.no_cache,
        batching=config.batching,
        delta_stamps=config.delta_stamps,
        arena_backend=config.arena_backend,
        transport=transport,
        link_delay=link_delay,
        timeout=timeout,
    )
    if plane is True:
        from repro.obs.plane import TelemetryPlane

        plane = TelemetryPlane()
    if plane is not None:
        cluster.attach_plane(plane)
        if flight:
            plane.enable_flight(seed=config.seed)
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
    runtime = cluster.runtime
    cdf = _zipf_cdf(config.n_locations, zipf) if zipf > 0 else None
    latencies: list = []
    if plane is not None and plane.dashboard is not None:
        # Live latency feed for the `repro top` panel.
        plane.dashboard.latencies = latencies

    def process(api, proc: int):
        rng = runtime.derived_rng(f"workload-{proc}")
        counter = 0
        for _ in range(config.ops_per_proc):
            if cdf is not None:
                draw = rng.random() * cdf[-1]
                location = config.location(bisect_left(cdf, draw))
            else:
                location = config.location(rng.randrange(config.n_locations))
            roll = rng.random()
            started = runtime.now
            if roll < config.discard_fraction:
                api.discard(location)
                # A discard alone is not an operation; follow with a read
                # so the slot's fresh value actually enters the history.
                yield api.read(location)
            elif roll < config.discard_fraction + config.read_fraction:
                yield api.read(location)
            else:
                counter += 1
                yield api.write(location, f"n{proc}v{counter}")
            if sample_latencies:
                latencies.append(runtime.now - started)
            if config.think_time > 0:
                yield sleep(cluster.sim, rng.uniform(0, config.think_time))

    for proc in range(config.n_nodes):
        cluster.spawn(proc, process, proc, name=f"wl-{proc}")
    cluster.run()
    return LiveOutcome(
        cluster,
        cluster.history(),
        monitor_result=subscription.result() if subscription else None,
        online_verdicts=online if monitor else None,
        latencies=latencies,
    )
