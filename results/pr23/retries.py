"""What an overtaken R_REPLY costs, counted on the benchmark's own inputs:
per workload, instance 0 of seed 1991 (the simulated ones) or the first four
instances (live-*): operations, read misses, re-requested replies
(`stale_read_retries`), replies returned uncached (`overtaken_reads`) and
write acks not cached (`overtaken_writes`; both 0 on the parent, which has no
such outcome), messages, and — live — how many
operations took how many link round trips (latency / 4 ms, rounded).

usage: cd <tree> && PYTHONPATH=src:. python results/pr23/retries.py
"""
import collections

import repro.apps.workload as sim_module
import repro.runtime.scenarios as live_module
from perf.spec import WORKLOADS
from perf.workloads import _captured, make_runner

SEED = 1991


def counters(cluster):
    nodes = cluster.nodes
    return (
        sum(node.stats.reads + node.stats.writes for node in nodes),
        sum(node.stats.remote_reads for node in nodes),
        sum(node.stale_read_retries for node in nodes),
        sum(getattr(node, "overtaken_reads", 0) for node in nodes),
        sum(getattr(node, "overtaken_writes", 0) for node in nodes),
    )


for spec in WORKLOADS:
    if spec.runner == "check":  # checks a recorded sim-mixed-shaped run
        continue
    runner = make_runner(spec, SEED)
    live = spec.runner == "live"
    msgs = 0
    totals = [0, 0, 0, 0, 0]
    trips = collections.Counter()
    for instance in range(4 if live else 1):
        config = runner.prepare(spec.size, instance)
        if live:
            outcome = live_module.run_workload_live(
                config, transport="uds",
                link_delay=spec.options["link_delay"], timeout=60.0,
                sample_latencies=True,
            )
            cluster, stats = outcome.cluster, outcome.cluster.runtime.stats
            delay = spec.options["link_delay"]
            if delay:
                for latency in outcome.latencies:
                    trips[round(latency / (2 * delay))] += 1
        elif spec.runner == "solver":
            from repro.apps.linear_solver import SynchronousSolver

            system, iterations, seed = config
            solver = SynchronousSolver(
                system, protocol="causal", iterations=iterations, seed=seed,
                wait_mode="oracle",
            )
            solver.run()
            cluster, stats = solver.cluster, solver.cluster.stats
        else:
            with _captured(sim_module, "DSMCluster") as built:
                outcome = sim_module.run_random_execution(config)
            cluster, stats = built[0], built[0].stats
        msgs += stats.total
        for index, value in enumerate(counters(cluster)):
            totals[index] += value
    ops, misses, retries, uncached, acks = totals
    print(f"{spec.name:13s} ops {ops:5d}  misses {misses:5d}  "
          f"stale_read_retries {retries:4d} ({retries / misses:.1%} of misses)  "
          f"overtaken_reads {uncached:4d}  overtaken_writes {acks:2d}  "
          f"msgs {msgs:5d} "
          f"({msgs / ops:.3f}/op, {2 * retries} retry traffic)")
    if trips:
        print("  round trips per op: " + "  ".join(
            f"{k}: {trips[k]}" for k in sorted(trips)))
