"""``python -m repro.bench`` — the substrate performance runner.

Measures the reproduction's own instruments end-to-end and appends the
numbers to a persistent JSON trajectory (``BENCH_substrate.json``, see
:mod:`repro.analysis.benchjson`):

* **kernel** — discrete-event throughput of :class:`~repro.sim.kernel.Simulator`
  on a self-rescheduling tick chain;
* **protocol** — application operation throughput of the Figure 4 causal
  owner protocol on a mixed read/write workload, at n ∈ {4, 8, 16}
  processors, including invalidation-sweep counters (performed vs
  skipped by the watermark) pulled from every node's
  :class:`~repro.memory.local_store.LocalStore`;
* **checker** — Definition 2 verification throughput of
  :func:`~repro.checker.check_causal` over recorded random executions,
  plus a ``memo`` A/B: the memoised checker
  (:class:`~repro.checker.CachedCausalChecker`) against the unmemoised
  one over an explorer-style corpus of random-schedule histories,
  asserting verdict equality and reporting the speedup and hit rates;
* **bandwidth** — an A/B of the wire-level fast path (schema v2): the
  same mixed workload run on the baseline causal protocol and on the
  batched + delta-stamp configuration, reporting bytes/op, writestamp
  entries/op, batch occupancy, and the relative reductions;
* **obs** — the tracing layer's cost and yield (schema v3): the kernel
  microbench re-run with a :class:`~repro.obs.collector.TraceCollector`
  attached (guard-only and full-emit variants, reported as overhead
  ratios against the detached run), plus the metrics snapshot of a
  traced Figure 4 run — invalidation sweeps per write, read-miss round
  trips, checker cache hit rate;
* **monitor** — the streaming consistency monitor (schema v4): the
  protocol workload run three ways — detached, collector-attached, and
  with a :class:`~repro.monitor.CausalStreamMonitor` subscribed —
  reporting the monitor's sustained events/sec, its marginal overhead
  on an attached run, peak window size, GC retirements and live-set
  cache hit rate.  The monitored run's verdict (must be causal) rides
  along as a correctness canary;

``--smoke`` shrinks the workloads so the whole run finishes in a few
seconds — that mode is exercised by the tier-1 test suite, keeping the
runner itself from bit-rotting.  ``--profile`` additionally runs the
largest-n protocol workload once under :mod:`cProfile` and records the
top-N cumulative-time table as ``protocol.profile`` (schema v6), so each
revision's hot-spot ranking is preserved alongside its throughput.

Examples
--------
::

    python -m repro.bench                       # full run, appends
    python -m repro.bench --smoke --label pr2   # quick, labelled
    repro-bench --output BENCH_substrate.json   # console-script form
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import sys
import time
from collections import defaultdict, deque
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.benchjson import BenchRecord, BenchTrajectory
from repro.errors import ReproError

__all__ = [
    "run_suite",
    "profile_protocol",
    "main",
    "DEFAULT_OUTPUT",
    "DEFAULT_NODE_COUNTS",
]

DEFAULT_OUTPUT = "BENCH_substrate.json"
DEFAULT_NODE_COUNTS = (4, 8, 16)


# ----------------------------------------------------------------------
# Individual measurements
# ----------------------------------------------------------------------
def _best_of(func, repeats: int) -> float:
    """Minimum wall-clock seconds of ``func`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def _best_of_interleaved(funcs, repeats: int) -> List[float]:
    """Per-variant minimum wall-clock seconds over interleaved rounds.

    Timing each variant in its own block lets slow drift (allocator
    growth, cyclic-GC cadence, frequency scaling) land entirely on the
    later variants and masquerade as overhead — at n=16 the same
    variant's wall time swings ±30% between blocks, swamping a 5%
    ratio.  Cycling through all variants each round exposes every
    variant to the same drift, so best-of ratios compare like with
    like.
    """
    best = [float("inf")] * len(funcs)
    for _ in range(repeats):
        for index, func in enumerate(funcs):
            started = time.perf_counter()
            func()
            best[index] = min(best[index], time.perf_counter() - started)
    return best


def bench_kernel(events: int, repeats: int) -> Dict[str, Any]:
    """Self-rescheduling tick chain through the simulator."""
    from repro.sim.kernel import Simulator

    def run() -> None:
        sim = Simulator()
        count = [0]

        def tick() -> None:
            count[0] += 1
            if count[0] < events:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        assert count[0] == events

    elapsed = _best_of(run, repeats)
    return {"events": events, "events_per_sec": events / elapsed}


def bench_protocol(
    n_nodes: int, ops_per_proc: int, repeats: int
) -> Dict[str, Any]:
    """Mixed read/write workload on the causal owner protocol."""
    from repro.protocols.base import DSMCluster

    n_locations = 2 * n_nodes
    outcome: Dict[str, Any] = {}

    def run() -> None:
        cluster = DSMCluster(n_nodes, protocol="causal", record_history=False)

        def process(api, me):
            for i in range(ops_per_proc):
                location = f"loc{(me + i) % n_locations}"
                if i % 3 == 0:
                    yield api.write(location, i)
                else:
                    yield api.read(location)

        for node in range(n_nodes):
            cluster.spawn(node, process, node)
        cluster.run()
        outcome["messages"] = cluster.stats.total
        # getattr defaults let the runner measure historical revisions
        # whose stores predate the sweep counters.
        outcome["sweeps_performed"] = sum(
            getattr(node.store, "sweeps_performed", 0) for node in cluster.nodes
        )
        outcome["sweeps_skipped"] = sum(
            getattr(node.store, "sweeps_skipped", 0) for node in cluster.nodes
        )
        outcome["invalidations"] = sum(
            node.store.invalidation_count for node in cluster.nodes
        )

    elapsed = _best_of(run, repeats)
    total_ops = n_nodes * ops_per_proc
    return {
        "ops": total_ops,
        "ops_per_sec": total_ops / elapsed,
        "messages": outcome["messages"],
        "sweeps_performed": outcome["sweeps_performed"],
        "sweeps_skipped": outcome["sweeps_skipped"],
        "invalidations": outcome["invalidations"],
    }


def bench_bandwidth(
    n_nodes: int, ops_per_proc: int, repeats: int
) -> Dict[str, Any]:
    """A/B the wire-level fast path against the baseline causal protocol.

    Both sides run the same mixed single-writer-per-location workload
    (each processor writes only its own locations, reads everyone's), so
    the final authoritative state is identical and the comparison
    isolates wire cost: the baseline pays full stamps and one round trip
    per remote write; the fast path delta-encodes stamps and batches
    write certifications.
    """
    from repro.protocols.base import DSMCluster

    def run_side(batching: bool, delta_stamps: bool) -> Dict[str, Any]:
        side: Dict[str, Any] = {}

        def run() -> None:
            cluster = DSMCluster(
                n_nodes,
                protocol="causal",
                seed=5,
                record_history=False,
                batching=batching,
                delta_stamps=delta_stamps,
            )

            def process(api, me):
                for i in range(ops_per_proc):
                    step = i % 6
                    if step < 2:
                        # Back-to-back writes to the processor's hot
                        # location (a solver updating its component);
                        # the write-behind queue coalesces these.
                        yield api.write(f"loc{me}", i)
                    elif step == 2:
                        yield api.write(f"loc{me}.{i % 4}", i)
                    else:
                        yield api.read(f"loc{(me + i) % n_nodes}")

            for node in range(n_nodes):
                cluster.spawn(node, process, node)
            cluster.run()
            stats = cluster.stats
            ops = n_nodes * ops_per_proc
            side["messages"] = stats.total
            side["bytes"] = stats.bytes_total
            side["bytes_per_op"] = stats.bytes_total / ops
            side["stamp_entries"] = stats.stamp_entries
            side["stamp_entries_per_op"] = stats.stamp_entries / ops
            side["stamp_entries_saved"] = stats.stamp_entries_saved
            if batching:
                batches = sum(n.wb_batches for n in cluster.nodes)
                batched = sum(n.wb_batched_writes for n in cluster.nodes)
                side["batches"] = batches
                side["batched_writes"] = batched
                coalesced = sum(n.wb_coalesced for n in cluster.nodes)
                side["coalesced"] = coalesced
                # Writes absorbed per frame: survivors + coalesced-away.
                side["batch_occupancy"] = (
                    (batched + coalesced) / batches if batches else 0.0
                )

        elapsed = _best_of(run, repeats)
        ops = n_nodes * ops_per_proc
        side["ops_per_sec"] = ops / elapsed
        return side

    baseline = run_side(batching=False, delta_stamps=False)
    fastpath = run_side(batching=True, delta_stamps=True)

    def reduction(key: str) -> float:
        return (
            1.0 - fastpath[key] / baseline[key] if baseline[key] else 0.0
        )

    return {
        "baseline": baseline,
        "fastpath": fastpath,
        "bytes_per_op_reduction": reduction("bytes_per_op"),
        "stamp_entries_per_op_reduction": reduction("stamp_entries_per_op"),
    }


def bench_obs(events: int, repeats: int) -> Dict[str, Any]:
    """Tracing overhead A/B on the kernel microbench, plus a traced run.

    Three timings of the same tick chain :func:`bench_kernel` uses:

    * ``detached`` — no collector: the pre-obs fast path (its ratio to
      the ``kernel`` section is pure run-to-run noise);
    * ``attached_untagged`` — collector attached but events untagged:
      the instrumented twin loop runs, never emits — isolates the
      per-event guard (this is the ratio CI bounds at 10%);
    * ``attached_tagged`` — collector attached (no event retention, one
      discarding subscriber so the kind is wanted) and every tick
      tagged: the full emit cost.

    The ``traced_fig4`` block is the yield side: the metrics snapshot of
    one traced Figure 4 run, with the checker re-checking its history
    twice through :class:`~repro.checker.CachedCausalChecker` so the
    cache-hit-rate counter is exercised.
    """
    from repro.checker import CachedCausalChecker
    from repro.obs import TraceCollector, run_traced_figure4
    from repro.sim.kernel import Simulator

    def chain(attach: bool, tagged: bool) -> float:
        def run() -> None:
            sim = Simulator()
            if attach:
                collector = TraceCollector(keep_events=False)
                collector.bind(sim)
                sim.obs = collector
                if tagged:
                    # A reader, or the events would be counted, not built.
                    collector.subscribe(deque(maxlen=0).append)
            tag = ("task", "tick") if tagged else None
            count = [0]

            def tick() -> None:
                count[0] += 1
                if count[0] < events:
                    sim.schedule(1.0, tick, tag=tag)

            sim.schedule(1.0, tick, tag=tag)
            sim.run()
            assert count[0] == events

        return _best_of(run, repeats)

    detached = chain(attach=False, tagged=False)
    untagged = chain(attach=True, tagged=False)
    tagged = chain(attach=True, tagged=True)

    traced = run_traced_figure4()
    collector = traced.collector
    checker = CachedCausalChecker()
    checker.obs = collector
    checker.check(traced.history)
    checker.check(traced.history)  # dominated re-check: a history-table hit
    registry = collector.metrics
    return {
        "events": events,
        "detached_events_per_sec": events / detached,
        "attached_untagged_events_per_sec": events / untagged,
        "attached_tagged_events_per_sec": events / tagged,
        "guard_overhead": untagged / detached - 1.0,
        "emit_overhead": tagged / detached - 1.0,
        "traced_fig4": {
            "trace_events": len(collector.events),
            "invalidations_per_write": registry.ratio(
                "proto.inv.sweep", "proto.op.write"
            ),
            "read_miss_round_trip_mean": registry.histogram(
                "read_miss.round_trip"
            ).mean,
            "checker_history_hit_rate": checker.history_hit_rate,
            "metrics": registry.snapshot(),
        },
    }


def bench_monitor(
    n_nodes: int, ops_per_proc: int, repeats: int
) -> Dict[str, Any]:
    """Streaming-monitor throughput and overhead A/B (schema v4).

    The same mixed workload :func:`bench_protocol` uses, timed four
    ways: detached (no collector), attached (metrics-only collector, no
    monitor — every kind counted, none built), hooked
    (collector plus a filtered subscriber whose filters never match —
    what the streaming-subscriber machinery costs every attached run
    that does *not* monitor, the ratio bounded at 10%), and monitored
    (a :class:`~repro.monitor.CausalStreamMonitor` subscribed to the
    collector).  ``monitor_overhead`` is the monitored run against the
    attached one — the full marginal price of synchronous online
    checking, reported honestly: per-op vector-clock work is the same
    order as this substrate's per-op cost, so expect tens of percent,
    and weigh it against ``events_per_sec``, the monitor's own
    sustained processing rate (ops through :meth:`observe` per second
    spent inside it).  The four variants are timed in interleaved
    rounds (:func:`_best_of_interleaved`) so machine drift between
    repeat blocks cannot masquerade as overhead.
    """
    from repro.monitor import CausalStreamMonitor
    from repro.obs import TraceCollector
    from repro.protocols.base import DSMCluster

    n_locations = 2 * n_nodes

    def build() -> DSMCluster:
        cluster = DSMCluster(n_nodes, protocol="causal", record_history=False)

        def process(api, me):
            for i in range(ops_per_proc):
                location = f"loc{(me + i) % n_locations}"
                if i % 3 == 0:
                    yield api.write(location, i)
                else:
                    yield api.read(location)

        for node in range(n_nodes):
            cluster.spawn(node, process, node)
        return cluster

    def run_detached() -> None:
        build().run()

    def run_attached() -> None:
        cluster = build()
        cluster.attach_obs(TraceCollector(keep_events=False))
        cluster.run()

    def run_hooked() -> None:
        # A subscriber whose filters match nothing: they are resolved
        # once per kind into the collector's plan, so every kind stays
        # unwanted — the pure cost of the subscriber hook riding along.
        cluster = build()
        collector = TraceCollector(keep_events=False)
        cluster.attach_obs(collector)
        collector.subscribe(
            lambda event: None, category="monitor", name="never"
        )
        cluster.run()

    state: Dict[str, Any] = {}

    def run_monitored() -> None:
        cluster = build()
        collector = TraceCollector(keep_events=False)
        cluster.attach_obs(collector)
        monitor = CausalStreamMonitor(n_nodes, metrics=collector.metrics)
        collector.subscribe(monitor.observe, category="proto", name="op.commit")
        cluster.run()
        state["monitor"] = monitor

    detached, attached, hooked, monitored = _best_of_interleaved(
        [run_detached, run_attached, run_hooked, run_monitored], repeats
    )
    monitor = state["monitor"]
    result = monitor.result()
    registry = monitor.metrics
    observe = registry.histogram("monitor.observe_us").as_dict()
    return {
        "ops": result.ops_processed,
        "reads_checked": result.reads_checked,
        "causal": result.ok,
        "events_per_sec": registry.gauge("monitor.events_per_sec").value,
        "run_ops_per_sec": (n_nodes * ops_per_proc) / monitored,
        "attached_overhead": attached / detached - 1.0,
        "hook_overhead": hooked / attached - 1.0,
        "monitor_overhead": monitored / attached - 1.0,
        "total_overhead": monitored / detached - 1.0,
        "max_window": result.max_window,
        "gc_retired": result.gc_retired,
        "cache_hit_rate": monitor.live_cache.hit_rate,
        "observe_p50_us": observe["p50"],
        "observe_p95_us": observe["p95"],
        "observe_p99_us": observe["p99"],
    }


def profile_protocol(
    n_nodes: int, ops_per_proc: int, top: int = 15
) -> Dict[str, Any]:
    """cProfile the protocol workload; returns a top-N cumulative table.

    One profiled run of the same mixed workload :func:`bench_protocol`
    times (the profiler's tracing slows it ~40%, so the run is *not*
    used for throughput numbers — it rides along purely to record where
    the time goes).  The table is the first ``top`` rows of the
    ``cumulative``-sorted stats, each row a plain dict so the JSON
    trajectory can carry it (schema v6, ``protocol.profile``).
    """
    import cProfile
    import pstats

    from repro.protocols.base import DSMCluster

    n_locations = 2 * n_nodes
    cluster = DSMCluster(n_nodes, protocol="causal", record_history=False)

    def process(api, me):
        for i in range(ops_per_proc):
            location = f"loc{(me + i) % n_locations}"
            if i % 3 == 0:
                yield api.write(location, i)
            else:
                yield api.read(location)

    for node in range(n_nodes):
        cluster.spawn(node, process, node)
    profiler = cProfile.Profile()
    profiler.enable()
    cluster.run()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: List[Dict[str, Any]] = []
    for func in stats.fcn_list[: top]:  # (file, line, name), sorted
        cc, nc, tottime, cumtime, _callers = stats.stats[func]
        file, line, name = func
        rows.append(
            {
                "function": name,
                "file": file,
                "line": line,
                "ncalls": nc,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
        )
    return {
        "workload": f"n={n_nodes}",
        "ops": n_nodes * ops_per_proc,
        "sort": "cumulative",
        "total_time": round(stats.total_tt, 6),
        "top": rows,
    }


def bench_checker(n_nodes: int, ops_per_proc: int, repeats: int) -> Dict[str, Any]:
    """Definition 2 verification of a recorded random execution."""
    from repro.apps.workload import WorkloadConfig, run_random_execution
    from repro.checker import check_causal

    outcome = run_random_execution(
        WorkloadConfig(
            n_nodes=n_nodes,
            n_locations=6,
            ops_per_proc=ops_per_proc,
            seed=2,
        )
    )
    total_ops = len(outcome.history)

    def run() -> None:
        result = check_causal(outcome.history)
        assert result.ok

    elapsed = _best_of(run, repeats)
    return {"ops": total_ops, "ops_per_sec": total_ops / elapsed}


def bench_checker_memo(schedules: int, repeats: int) -> Dict[str, Any]:
    """A/B the memoised causal checker on explorer-style history corpora.

    The corpus is what :mod:`repro.mc` actually produces: many random
    schedules of one small program, most of which record one of a
    handful of distinct histories.  The baseline re-checks every history
    from scratch; the cached side runs one
    :class:`~repro.checker.CachedCausalChecker` across the corpus
    (history-table hits for dominated schedules, shared live-set cache
    for the rest).  Verdict equality is asserted as part of the run.
    """
    import random as random_module

    from repro.checker import CachedCausalChecker, check_causal
    from repro.mc import ControlledRun, preset

    spec = preset("exhaustive")
    histories = []
    for index in range(schedules):
        rng = random_module.Random(f"bench-memo/{index}")
        run_state = ControlledRun(spec)
        while run_state.crashed is None:
            actions = run_state.actions()
            if not actions:
                break
            run_state.apply(actions[rng.randrange(len(actions))])
        histories.append(run_state.outcome().history)
    total_ops = sum(len(history) for history in histories)

    def run_uncached() -> None:
        for history in histories:
            check_causal(history)

    def run_cached() -> None:
        checker = CachedCausalChecker()
        for history in histories:
            checker.check(history)

    uncached = _best_of(run_uncached, repeats)
    cached = _best_of(run_cached, repeats)

    checker = CachedCausalChecker()
    verdicts_equal = all(
        check_causal(history).ok == checker.check(history).ok
        for history in histories
    )
    return {
        "histories": len(histories),
        "ops": total_ops,
        "uncached_ops_per_sec": total_ops / uncached,
        "cached_ops_per_sec": total_ops / cached,
        "speedup": uncached / cached if cached else 0.0,
        "history_hit_rate": checker.history_hit_rate,
        "live_hit_rate": checker.live_cache.hit_rate,
        "verdicts_equal": verdicts_equal,
    }


def bench_live(n_nodes: int, ops_per_proc: int) -> Dict[str, Any]:
    """The live asyncio/socket runtime vs the simulator (schema v7).

    Runs the same seeded random workload under both drivers — identical
    derived-RNG operation sequences, wire codec on, Unix-domain
    sockets — and reports live throughput, per-op completion-latency
    quantiles, and the byte ledger: the analytic wire-model bytes/op
    both drivers account identically vs the bytes actually written to
    the sockets (the codec's frames plus a 4-byte length prefix each).  The verdict cross-check (sim legality ==
    live legality) is part of the measurement; a drift marks the whole
    section suspect.
    """
    import time as time_module

    from repro.apps.workload import WorkloadConfig, run_random_execution
    from repro.checker import check_causal
    from repro.runtime import run_workload_live

    config = WorkloadConfig(
        protocol="causal",
        n_nodes=n_nodes,
        n_locations=4,
        ops_per_proc=ops_per_proc,
        seed=42,
        delta_stamps=True,
    )
    started = time_module.perf_counter()
    sim = run_random_execution(config)
    sim_wall = time_module.perf_counter() - started
    live = run_workload_live(config, sample_latencies=True)

    total_ops = len(live.history)
    latencies = sorted(live.latencies)

    def quantile(fraction: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(fraction * len(latencies)))]

    return {
        "transport": "uds",
        "nodes": n_nodes,
        "ops": total_ops,
        "elapsed_s": live.elapsed,
        "ops_per_sec": total_ops / live.elapsed if live.elapsed else 0.0,
        "sim_ops_per_sec": len(sim.history) / sim_wall if sim_wall else 0.0,
        "latency_p50_ms": quantile(0.50) * 1e3,
        "latency_p95_ms": quantile(0.95) * 1e3,
        "latency_p99_ms": quantile(0.99) * 1e3,
        "messages": live.total_messages,
        # The wire-model column both drivers share, vs real socket bytes.
        "model_bytes_per_op": live.model_bytes / total_ops if total_ops else 0.0,
        "socket_bytes_per_op": live.socket_bytes / total_ops if total_ops else 0.0,
        "framing_overhead": (
            live.socket_bytes / live.model_bytes if live.model_bytes else 0.0
        ),
        "verdicts_equal": check_causal(sim.history).ok
        == check_causal(live.history).ok,
    }


#: ``live_over_sim`` as recorded in EXPERIMENTS.md ("The live gate's
#: recorded ratio"); CI's ``live-smoke`` job fails under 0.85x of it.
LIVE_GATE_RATIO = 0.64
#: One-way delay of the gate's delayed run, and how far above it the
#: median send()-to-handler transit may sit (seconds).
LIVE_GATE_DELAY = 0.002
LIVE_GATE_TRANSIT_SLACK = 0.001


@contextlib.contextmanager
def _timed_transit(samples: List[float]):
    """Time each live message from its ``send()`` call to its handler's
    entry (FIFO-matched per channel, so only for a run that drops none)."""
    from repro.runtime.live import AsyncioRuntime

    in_flight: Dict[Any, deque] = defaultdict(deque)
    send, register = AsyncioRuntime.send, AsyncioRuntime.register

    def timed_send(runtime, src, dst, message):
        in_flight[src, dst].append(time.perf_counter())
        send(runtime, src, dst, message)

    def timed_register(runtime, node_id, handler):
        def timed_handler(src, message):
            sent = in_flight[src, node_id].popleft()
            samples.append(time.perf_counter() - sent)
            handler(src, message)

        register(runtime, node_id, timed_handler)

    AsyncioRuntime.send, AsyncioRuntime.register = timed_send, timed_register
    try:
        yield
    finally:
        AsyncioRuntime.send, AsyncioRuntime.register = send, register


def bench_live_gate(rounds: int = 5, ops_per_proc: int = 1000) -> Dict[str, Any]:
    """What CI's live gate reads: live speed relative to the simulator.

    Alternates the n=4 delta-stamp workload on ``SimRuntime`` and on
    ``AsyncioRuntime`` (UDS, no link delay) in one process, a fresh
    seed per round, and reports the median ops/s of each and their
    ratio — the simulator runs the same engines and codec without a
    transport, so the ratio is the transport's share and (unlike raw
    ops/s) travels between machines.  One more run over 2 ms links
    gives the median send()-to-handler transit, whose excess over the
    delay is what the event loop and the sockets add per message.
    """
    from repro.apps.workload import WorkloadConfig, run_random_execution
    from repro.runtime import run_workload_live

    def config(seed: int) -> WorkloadConfig:
        return WorkloadConfig(
            protocol="causal", n_nodes=4, n_locations=8,
            ops_per_proc=ops_per_proc, seed=seed, delta_stamps=True,
        )

    sim_rates, live_runs = [], []
    for seed in range(1991, 1991 + rounds):
        started = time.perf_counter()
        sim = run_random_execution(config(seed))
        sim_rates.append(len(sim.history) / (time.perf_counter() - started))
        live_runs.append(run_workload_live(config(seed), link_delay=0.0))
    transit: List[float] = []
    with _timed_transit(transit):
        delayed = run_workload_live(config(1991), link_delay=LIVE_GATE_DELAY)
    sim_rate = statistics.median(sim_rates)
    live_rate = statistics.median(
        len(run.history) / (run.elapsed - run.cluster.runtime.settle)
        for run in live_runs
    )
    return {
        "rounds": rounds,
        "ops": 4 * ops_per_proc,
        "sim_ops_per_sec": sim_rate,
        "live_ops_per_sec": live_rate,
        "live_over_sim": live_rate / sim_rate,
        "transit_p50_ms": statistics.median(transit) * 1e3,
        "transit_over_delay_ms":
            (statistics.median(transit) - LIVE_GATE_DELAY) * 1e3,
        "frames_per_write": delayed.total_messages / delayed.socket_writes,
        # Nothing lost, refused or leaked, and every message timed.
        "clean": len(transit) == delayed.total_messages and not any(
            run.resyncs or run.frames_rejected or run.dropped_messages
            or run.cluster.runtime.leaked_tasks
            for run in live_runs + [delayed]
        ),
    }


#: ``check_over_sim`` as recorded in EXPERIMENTS.md ("The check gate's
#: recorded ratio"); CI's ``check-gate`` job fails under 0.85x of it.
CHECK_GATE_RATIO = 3.0


def bench_check_gate(rounds: int = 5, ops_per_proc: int = 150) -> Dict[str, Any]:
    """What CI's check gate reads: verifying a run relative to producing it.

    Alternates, in one process and with a fresh seed per round,
    producing an n=8 history on ``SimRuntime`` (1 200 ops at the
    default size, the ``check-offline`` shape) and verifying it with
    ``check_causal``, and reports the median ops/s of each and their
    ratio — which, unlike raw ops/s, travels between machines.  Above 1
    the verifier is cheaper than the run it verifies.
    """
    from repro.apps.workload import WorkloadConfig, run_random_execution
    from repro.checker import check_causal

    sim_rates, check_rates = [], []
    causal = True
    for seed in range(1991, 1991 + rounds):
        config = WorkloadConfig(
            protocol="causal", n_nodes=8, n_locations=16,
            ops_per_proc=ops_per_proc, seed=seed,
        )
        started = time.perf_counter()
        history = run_random_execution(config).history
        produced = time.perf_counter()
        causal &= check_causal(history).ok
        checked = time.perf_counter()
        sim_rates.append(len(history) / (produced - started))
        check_rates.append(len(history) / (checked - produced))
    sim_rate = statistics.median(sim_rates)
    check_rate = statistics.median(check_rates)
    return {
        "rounds": rounds,
        "ops": 8 * ops_per_proc,
        "sim_ops_per_sec": sim_rate,
        "check_ops_per_sec": check_rate,
        "check_over_sim": check_rate / sim_rate,
        "causal": causal,
    }


def bench_obs_plane(
    n_nodes: int, ops_per_proc: int, repeats: int
) -> Dict[str, Any]:
    """Telemetry-plane aggregation overhead, interleaved A/B (schema v8).

    Runs the same seeded live workload with the plane detached and
    attached, interleaved within each repeat so background load hits
    both arms alike, and reports the throughput ratio (acceptance
    target: attached <= 1.10x slower).  The isolation canaries ride
    along: the protocol must send the same messages either way
    (``messages_equal``), and the sideband's bytes must never leak into
    the protocol sockets' ledger — ``socket_bytes_delta`` is the
    attached-minus-detached protocol-socket difference, which is zero
    up to occasional timing-induced delta-stamp jitter (a few entries),
    orders of magnitude below ``sideband_bytes``
    (``sideband_excluded``).
    """
    from repro.apps.workload import WorkloadConfig
    from repro.obs.plane import TelemetryPlane
    from repro.runtime import run_workload_live

    config = WorkloadConfig(
        protocol="causal",
        n_nodes=n_nodes,
        n_locations=4,
        ops_per_proc=ops_per_proc,
        seed=42,
        delta_stamps=True,
    )

    detached_elapsed: List[float] = []
    attached_elapsed: List[float] = []
    detached = attached = None
    plane = None
    for _ in range(repeats):
        detached = run_workload_live(config)
        plane = TelemetryPlane()
        attached = run_workload_live(config, plane=plane)
        detached_elapsed.append(detached.elapsed)
        attached_elapsed.append(attached.elapsed)

    ops = len(attached.history)
    best_detached = min(detached_elapsed)
    best_attached = min(attached_elapsed)
    agg = plane.aggregator
    sideband_bytes = (
        plane.sideband.sideband_bytes if plane.sideband is not None else 0
    )
    socket_delta = attached.socket_bytes - detached.socket_bytes
    return {
        "nodes": n_nodes,
        "ops": ops,
        "detached_ops_per_sec": ops / best_detached if best_detached else 0.0,
        "attached_ops_per_sec": ops / best_attached if best_attached else 0.0,
        "overhead": (
            best_attached / best_detached if best_detached else 0.0
        ),
        "frames_merged": agg.frames_merged,
        "events_merged": agg.events_merged,
        "frames_lost": agg.frames_lost,
        "events_lost": agg.events_lost,
        "sideband_bytes": sideband_bytes,
        "messages_equal": attached.total_messages == detached.total_messages,
        "socket_bytes_delta": socket_delta,
        "sideband_excluded": sideband_bytes > 0
        and abs(socket_delta)
        < max(64, detached.socket_bytes // 100, sideband_bytes // 10),
    }


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def run_suite(
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    smoke: bool = False,
    progress=None,
    profile: bool = False,
) -> Dict[str, Any]:
    """Run every substrate benchmark; returns the metrics tree.

    ``smoke`` shrinks workload sizes and repeats so the suite finishes in
    seconds (the mode tier-1 tests run).  ``progress`` is an optional
    ``callable(str)`` for per-section status lines.  ``profile`` adds a
    cProfile pass over the largest-n protocol workload and records its
    top-N cumulative table as ``protocol.profile`` (schema v6).
    """
    say = progress or (lambda message: None)
    # Best-of-5 in full mode: the trajectory is compared across PRs, so
    # robustness to background load beats wall-clock frugality here.
    repeats = 1 if smoke else 5
    kernel_events = 20_000 if smoke else 100_000
    protocol_ops = 50 if smoke else 200
    checker_ops = 40 if smoke else 200

    say(f"kernel: {kernel_events} events x{repeats}")
    metrics: Dict[str, Any] = {
        "kernel": bench_kernel(kernel_events, repeats),
        "protocol": {},
        "checker": {},
        "bandwidth": {},
        "obs": {},
    }
    for n in node_counts:
        say(f"protocol: n={n}, {protocol_ops} ops/proc x{repeats}")
        metrics["protocol"][f"n={n}"] = bench_protocol(n, protocol_ops, repeats)
    if profile:
        profile_n = max(node_counts)
        say(f"protocol profile: n={profile_n}, {protocol_ops} ops/proc (cProfile)")
        metrics["protocol"]["profile"] = profile_protocol(profile_n, protocol_ops)
    for n in node_counts:
        say(f"checker: n={n}, {checker_ops} ops/proc x{repeats}")
        metrics["checker"][f"n={n}"] = bench_checker(n, checker_ops, repeats)
    memo_schedules = 200 if smoke else 5000
    say(f"checker memo A/B: {memo_schedules} schedules x{repeats}")
    metrics["checker"]["memo"] = bench_checker_memo(memo_schedules, repeats)
    for n in node_counts:
        say(f"bandwidth A/B: n={n}, {protocol_ops} ops/proc x{repeats}")
        metrics["bandwidth"][f"n={n}"] = bench_bandwidth(n, protocol_ops, repeats)
    say(f"obs overhead A/B: {kernel_events} events x{repeats}")
    metrics["obs"] = bench_obs(kernel_events, repeats)
    monitor_ops = 100 if smoke else 500
    monitor_nodes = max(node_counts)
    say(
        f"monitor A/B: n={monitor_nodes}, "
        f"{monitor_ops} ops/proc x{repeats}"
    )
    metrics["monitor"] = bench_monitor(monitor_nodes, monitor_ops, repeats)
    live_ops = 30 if smoke else 100
    live_nodes = min(3, max(node_counts))
    say(f"live runtime vs sim: n={live_nodes}, {live_ops} ops/proc (uds)")
    metrics["runtime"] = {"live": bench_live(live_nodes, live_ops)}
    plane_repeats = 1 if smoke else 3
    say(
        f"telemetry plane A/B: n={live_nodes}, {live_ops} ops/proc "
        f"x{plane_repeats} (interleaved)"
    )
    metrics["obs"]["plane"] = bench_obs_plane(
        live_nodes, live_ops, plane_repeats
    )
    return metrics


def _format_summary(metrics: Dict[str, Any]) -> List[str]:
    lines = [
        f"kernel            {metrics['kernel']['events_per_sec']:>12,.0f} events/s"
    ]
    for group in ("protocol", "checker"):
        for key, data in metrics[group].items():
            if key in ("memo", "profile"):
                continue
            extra = ""
            if "sweeps_performed" in data:
                extra = (
                    f"  (sweeps {data['sweeps_performed']}"
                    f"+{data['sweeps_skipped']} skipped,"
                    f" {data['invalidations']} invalidations)"
                )
            lines.append(
                f"{group} {key:<8} {data['ops_per_sec']:>12,.0f} ops/s{extra}"
            )
    prof = metrics.get("protocol", {}).get("profile")
    if prof:
        lines.append(
            f"profile {prof['workload']:<9} {prof['total_time']:.3f}s total; "
            + "top by cumtime: "
            + ", ".join(
                f"{row['function']} ({row['cumtime']:.3f}s)"
                for row in prof["top"][:5]
            )
        )
    memo = metrics.get("checker", {}).get("memo")
    if memo:
        equal = "verdicts equal" if memo["verdicts_equal"] else "VERDICT DRIFT"
        lines.append(
            f"checker memo     {memo['uncached_ops_per_sec']:>12,.0f} -> "
            f"{memo['cached_ops_per_sec']:,.0f} ops/s "
            f"(x{memo['speedup']:.1f}, hist hit {memo['history_hit_rate']:.0%}, "
            f"live hit {memo['live_hit_rate']:.0%}, "
            f"{memo['histories']} histories, {equal})"
        )
    for key, data in metrics.get("bandwidth", {}).items():
        base, fast = data["baseline"], data["fastpath"]
        lines.append(
            f"bandwidth {key:<6} "
            f"{base['bytes_per_op']:>8.1f} -> {fast['bytes_per_op']:>8.1f} B/op "
            f"(-{data['bytes_per_op_reduction']:.0%}), "
            f"stamps/op {base['stamp_entries_per_op']:.1f} -> "
            f"{fast['stamp_entries_per_op']:.1f} "
            f"(-{data['stamp_entries_per_op_reduction']:.0%}), "
            f"occupancy {fast.get('batch_occupancy', 0.0):.2f}, "
            # The fast path trades CPU for bytes; say so (DESIGN §4.5).
            f"cpu x{fast['ops_per_sec'] / base['ops_per_sec']:.2f}"
        )
    obs = metrics.get("obs")
    if obs:
        traced = obs["traced_fig4"]
        lines.append(
            f"obs overhead      guard {obs['guard_overhead']:+.1%}, "
            f"emit {obs['emit_overhead']:+.1%} "
            f"({obs['detached_events_per_sec']:,.0f} detached ev/s); "
            f"fig4 trace {traced['trace_events']} events, "
            f"{traced['invalidations_per_write']:.1f} sweeps/write, "
            f"checker hit {traced['checker_history_hit_rate']:.0%}"
        )
    monitor = metrics.get("monitor")
    if monitor:
        verdict = "causal" if monitor["causal"] else "VERDICT NOT CAUSAL"
        lines.append(
            f"monitor           {monitor['events_per_sec']:>12,.0f} events/s "
            f"sustained (hook {monitor['hook_overhead']:+.1%}, "
            f"checking {monitor['monitor_overhead']:+.1%} over attached, "
            f"window<={monitor['max_window']}, "
            f"gc {monitor['gc_retired']}, "
            f"cache hit {monitor['cache_hit_rate']:.0%}, {verdict})"
        )
    live = metrics.get("runtime", {}).get("live")
    if live:
        verdict = "verdicts equal" if live["verdicts_equal"] else "VERDICT DRIFT"
        lines.append(
            f"runtime live      {live['ops_per_sec']:>12,.0f} ops/s over "
            f"{live['transport']} (p50 {live['latency_p50_ms']:.2f}ms, "
            f"p95 {live['latency_p95_ms']:.2f}ms, "
            f"p99 {live['latency_p99_ms']:.2f}ms; "
            f"{live['model_bytes_per_op']:.1f} model -> "
            f"{live['socket_bytes_per_op']:.1f} socket B/op "
            f"x{live['framing_overhead']:.1f}, {verdict})"
        )
    plane = metrics.get("obs", {}).get("plane")
    if plane:
        isolated = (
            "sideband isolated"
            if plane["sideband_excluded"] and plane["messages_equal"]
            else "SIDEBAND LEAK"
        )
        lines.append(
            f"telemetry plane   {plane['attached_ops_per_sec']:>12,.0f} ops/s "
            f"attached (x{plane['overhead']:.2f} vs detached, "
            f"{plane['events_merged']} events/"
            f"{plane['frames_merged']} frames merged, "
            f"{plane['events_lost']} lost, "
            f"sideband {plane['sideband_bytes']:,}B, {isolated})"
        )
    return lines


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"need a positive node count, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Benchmark the reproduction's simulation substrate (kernel, "
            "causal protocol, causal checker) and append the results to a "
            "persistent JSON trajectory."
        ),
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=DEFAULT_OUTPUT,
        help=f"trajectory file to append to (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--label",
        default="",
        help="free-form label recorded with this run (e.g. a PR id)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads; finishes in seconds (used by tier-1 tests)",
    )
    parser.add_argument(
        "--nodes",
        type=_positive_int,
        nargs="+",
        default=list(DEFAULT_NODE_COUNTS),
        metavar="N",
        help="processor counts to benchmark (default: 4 8 16)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "also cProfile the largest-n protocol workload and record its "
            "top-N cumulative table in the run (schema v6 'protocol.profile')"
        ),
    )
    parser.add_argument(
        "--no-save",
        action="store_true",
        help="print the numbers without touching the trajectory file",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    trajectory: Optional[BenchTrajectory] = None
    if not args.no_save:
        # Load (and validate) the trajectory up front: a corrupt file
        # should fail in milliseconds, not after a minutes-long run.
        try:
            trajectory = BenchTrajectory.load(args.output)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    metrics = run_suite(
        node_counts=tuple(args.nodes),
        smoke=args.smoke,
        progress=lambda message: print(f"... {message}", file=sys.stderr),
        profile=args.profile,
    )
    record = BenchRecord(
        label=args.label or ("smoke" if args.smoke else "full"),
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        smoke=args.smoke,
        metrics=metrics,
    )
    for line in _format_summary(metrics):
        print(line)
    if trajectory is None:
        return 0
    trajectory.append(record)
    trajectory.save(args.output)
    print(f"appended run {len(trajectory.runs)} to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
