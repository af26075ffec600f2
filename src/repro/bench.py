"""The three timing gates CI runs.

Timing claims are ``python -m perf``'s (``perf/README.md``,
``BENCHMARK.json``); this module is not a benchmark suite and writes no
file.  It holds the three measurements something still asserts on:

* :func:`bench_live_gate` — live ops/s over simulator ops/s and the
  send()-to-handler transit over a delayed link (CI ``live-smoke``;
  recorded ratio :data:`LIVE_GATE_RATIO`);
* :func:`bench_check_gate` — ``check_causal`` ops/s over simulator
  ops/s on the history it verifies, per round (CI ``check-gate``;
  recorded ratio :data:`CHECK_GATE_RATIO`);
* :func:`bench_obs` — what an attached collector costs the kernel's
  event loop (CI ``trace-smoke`` bounds ``guard_overhead`` at 10%).

Each gate alternates its two sides in one process and reports a ratio
of medians or a median of ratios, which, unlike raw ops/s, travels
between machines.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict, deque
from typing import Any, Dict, List

__all__ = [
    "bench_obs",
    "bench_live_gate",
    "bench_check_gate",
    "LIVE_GATE_RATIO",
    "LIVE_GATE_DELAY",
    "LIVE_GATE_TRANSIT_SLACK",
    "CHECK_GATE_RATIO",
]


def bench_obs(rounds: int = 81, events: int = 8_000) -> Dict[str, Any]:
    """What CI's guard bound reads: tracing cost on the kernel tick chain.

    Three variants of one self-rescheduling tick chain through
    :class:`~repro.sim.kernel.Simulator`:

    * ``detached`` — no collector: the pre-obs fast path;
    * ``attached_untagged`` — collector attached but events untagged:
      the instrumented twin loop runs, never emits — isolates the
      per-event guard (this is the ratio CI bounds at 10%);
    * ``attached_tagged`` — collector attached (no event retention, one
      discarding subscriber so the kind is wanted) and every tick
      tagged: the full emit cost.

    Every round times all three back to back and an overhead is the
    median over rounds of that round's ``variant / detached - 1``: a
    single round swings by tens of percent on a shared machine
    (allocator growth, cyclic-GC cadence, frequency scaling,
    neighbours), and timing each variant in its own block lets that
    drift land on one of them and pass for overhead.  Many short rounds
    beat few long ones for the same reason.  The first two swap places
    every round; the tagged chain, three times as long and the only one
    that builds events, stays last so that it precedes each of them
    equally often.
    """
    from repro.obs import TraceCollector
    from repro.sim.kernel import Simulator

    def chain(attach: bool, tagged: bool) -> float:
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
        started = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - started
        assert count[0] == events
        return elapsed

    variants = {
        "detached": (False, False),
        "attached_untagged": (True, False),
        "attached_tagged": (True, True),
    }
    order = list(variants)
    seconds: Dict[str, List[float]] = {name: [] for name in order}
    for _ in range(rounds):
        for name in order:
            seconds[name].append(chain(*variants[name]))
        order[0], order[1] = order[1], order[0]

    def overhead(name: str) -> float:
        return statistics.median(
            variant / detached
            for variant, detached in zip(seconds[name], seconds["detached"])
        ) - 1.0

    result: Dict[str, Any] = {"rounds": rounds, "events": events}
    for name, timings in seconds.items():
        result[f"{name}_events_per_sec"] = events / statistics.median(timings)
    result["guard_overhead"] = overhead("attached_untagged")
    result["emit_overhead"] = overhead("attached_tagged")
    return result


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
#: recorded ratio, after the clock idioms"); CI's ``check-gate`` job
#: fails under 0.85x of it.
CHECK_GATE_RATIO = 10.2


def bench_check_gate(rounds: int = 7, ops_per_proc: int = 600) -> Dict[str, Any]:
    """What CI's check gate reads: verifying a run relative to producing it.

    Each round, with a fresh seed, produces an n=8 history on
    ``SimRuntime`` (4 800 ops at the default size, the ``check-offline``
    shape four times over) and verifies it with ``check_causal`` straight
    after; ``check_over_sim`` is the median of the per-round ratios, so a
    host slowdown lands on both sides of one round, as in
    :func:`bench_obs`; a check of 1 200 ops lasted ~5 ms, so one
    collector pass moved its round by tens of per cent.  Each round
    checks a new history (``History`` indexes its reads on first use).
    Unlike raw ops/s the ratio travels between machines; above 1 the
    verifier is cheaper than the run it verifies.
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
    return {
        "rounds": rounds,
        "ops": 8 * ops_per_proc,
        "sim_ops_per_sec": statistics.median(sim_rates),
        "check_ops_per_sec": statistics.median(check_rates),
        "check_over_sim": statistics.median(
            check / sim for check, sim in zip(check_rates, sim_rates)
        ),
        "causal": causal,
    }
