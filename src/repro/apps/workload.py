"""Random read/write workloads for protocol safety testing.

The paper proves its protocol correct on paper; the reproduction proves
it mechanically: every execution the simulator can produce must satisfy
Definition 2.  This module generates seeded random workloads — mixed
reads, writes, and discards over a shared location pool, under jittery
latencies — runs them on a chosen protocol, and returns the recorded
history for the checkers.  Property-based tests drive this across many
seeds; the benchmark suite uses it for throughput measurements.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional

from repro.checker.history import History
from repro.memory import Namespace
from repro.protocols.base import DSMCluster
from repro.protocols.policies import ConflictPolicy
from repro.sim.latency import JitteredLatency, LatencyModel
from repro.sim.tasks import sleep

__all__ = [
    "WorkloadConfig",
    "WorkloadOutcome",
    "run_random_execution",
    "spawn_workload",
    "workload_process",
    "zipf_cdf",
]


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a random workload."""

    n_nodes: int = 3
    n_locations: int = 4
    ops_per_proc: int = 20
    read_fraction: float = 0.55
    discard_fraction: float = 0.1
    think_time: float = 0.0
    protocol: str = "causal"
    no_cache: bool = False
    # Accepted, never read: perf/workloads.py:275 passes it on every run
    # (ROADMAP "Finish one instrument" step 1 removes it).
    batching: bool = False
    delta_stamps: bool = False
    #: Coalesce same-instant deliveries into one scheduler entry.
    batch_delivery: bool = False
    seed: int = 0

    def location(self, index: int) -> str:
        """The name of the ``index``-th shared location."""
        return f"loc{index}"


@dataclass
class WorkloadOutcome:
    """A finished random execution, ready for checking."""

    config: WorkloadConfig
    history: History
    total_messages: int
    rejected_writes: int
    invalidations: int
    elapsed_sim_time: float


def zipf_cdf(n_locations: int, exponent: float) -> List[float]:
    """Cumulative weights of a Zipf draw: rank ``k`` weighs ``1/k**exponent``."""
    return list(
        accumulate(1.0 / (rank + 1) ** exponent for rank in range(n_locations))
    )


def workload_process(api, proc: int, config: WorkloadConfig, runtime,
                     cdf=None, latencies=None):
    """One process of the random workload — the only per-op loop.

    Both drivers run this generator: all randomness comes from the
    runtime's derived RNG stream of this process, so a seeded config
    issues the identical operation sequence on the simulator and live.
    ``cdf`` (see :func:`zipf_cdf`) skews location choice Zipf-style, the
    classic contended-hot-key mix; ``latencies`` collects per-operation
    completion times in runtime seconds.
    """
    rng = runtime.derived_rng(f"workload-{proc}")
    counter = 0
    for _ in range(config.ops_per_proc):
        if cdf is None:
            location = config.location(rng.randrange(config.n_locations))
        else:
            location = config.location(bisect_left(cdf, rng.random() * cdf[-1]))
        roll = rng.random()
        if latencies is not None:
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
        if latencies is not None:
            latencies.append(runtime.now - started)
        if config.think_time > 0:
            yield sleep(runtime, rng.uniform(0, config.think_time))


def spawn_workload(cluster, config: WorkloadConfig, cdf=None, latencies=None):
    """Start one :func:`workload_process` per node of ``cluster``."""
    for proc in range(config.n_nodes):
        cluster.spawn(
            proc, workload_process, proc, config, cluster.runtime, cdf,
            latencies, name=f"wl-{proc}",
        )


def run_random_execution(
    config: WorkloadConfig,
    latency: Optional[LatencyModel] = None,
    policy: Optional[ConflictPolicy] = None,
    namespace: Optional[Namespace] = None,
) -> WorkloadOutcome:
    """Run one seeded random workload and capture its history.

    Write values are globally unique (``n<node>v<counter>``) so the
    resulting histories are also valid under the paper's unique-writes
    assumption, though the checkers rely on recorded identities anyway.
    """
    cluster = DSMCluster(
        n_nodes=config.n_nodes,
        protocol=config.protocol,
        seed=config.seed,
        latency=latency or JitteredLatency(base=1.0, jitter_mean=0.5),
        namespace=namespace,
        policy=policy,
        record_history=True,
        no_cache=config.no_cache,
        delta_stamps=config.delta_stamps,
        batch_delivery=config.batch_delivery,
    )

    spawn_workload(cluster, config)
    cluster.run()
    rejected = sum(node.stats.rejected_writes for node in cluster.nodes)
    invalidations = sum(node.store.invalidation_count for node in cluster.nodes)
    return WorkloadOutcome(
        config=config,
        history=cluster.history(),
        total_messages=cluster.stats.total,
        rejected_writes=rejected,
        invalidations=invalidations,
        elapsed_sim_time=cluster.sim.now,
    )
