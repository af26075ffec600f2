"""What the benchmark measures: workloads, metrics, bounds, sizes.

This module is data.  ``BENCHMARK.json`` is generated from it
(``python -m perf spec --write``) and the selftest fails when the
committed file and this module disagree, so no number is typed twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Reference machine speed every CPU-bound timing is scaled to, in
#: millions of iterations per second of :func:`perf.machine.spin_mops`.
REF_SPIN_MOPS = 20.0

#: Seed used by ``python -m perf run`` unless told otherwise, and the
#: seed to keep out of sight while writing a change: a claimed gain
#: must also hold on ``HELD_OUT_SEED``.
DEFAULT_SEED = 1991
HELD_OUT_SEED = 2024

#: How long one run measures (the ``--seconds`` the driver passes).
RUN_SECONDS = 14

#: ``BENCHMARK.json`` ``command``; the driver appends
#: ``--workload W --seed N --seconds S --trace 0|1``.
COMMAND = ["python3", "-m", "perf", "one"]
PATHS = ["perf"]


@dataclass(frozen=True)
class Metric:
    """Name, unit and direction; what each means is in ``perf/README.md``."""

    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: Optional[float] = None
    #: Counts the simulator reproduces exactly for one seed:
    #: ``perf compare`` flags any difference on ``sim-*``/``check-*``.
    exact_on_sim: bool = False


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("ops_per_s", "ops/s", "higher", bound=0.10),
    Metric("op_latency_p50_ms", "ms", "lower", bound=0.10),
    Metric("op_latency_p99_ms", "ms", "lower", bound=0.15),
    Metric("cpu_us_per_op", "us", "lower", bound=0.10),
    Metric("msgs_per_op", "msgs", "lower", bound=0.05, exact_on_sim=True),
    Metric("model_bytes_per_op", "B", "lower", bound=0.05, exact_on_sim=True),
    Metric("stamp_entries_per_op", "entries", "lower", bound=0.05,
           exact_on_sim=True),
    Metric("socket_bytes_per_op", "B", "lower", bound=0.05, exact_on_sim=True),
    # 1 - failed_op_share: the contract wants metrics that are never 0.
    Metric("completed_op_share", "ratio", "higher", bound=0.001),
    Metric("peak_rss_mb", "MB", "lower", bound=0.10),
]

#: Reported beside the contract's metrics; any increase is a regression.
FAILED_OP_SHARE = Metric("failed_op_share", "ratio", "lower", bound=0.0)

PER_LAYER: List[Metric] = [Metric(*row) for row in (
    ("apps.gen_self_us_per_op", "us", "lower"),
    ("engine.self_us_per_op", "us", "lower"),
    ("engine.handle_calls_per_op", "count", "lower"),
    ("engine.read_hit_ratio", "ratio", "higher"),
    ("engine.rejected_write_share", "ratio", "lower"),
    ("engine.wb_coalesced_share", "ratio", "higher"),
    ("store.self_us_per_op", "us", "lower"),
    ("store.calls_per_op", "count", "lower"),
    ("store.sweeps_per_op", "count", "lower"),
    ("store.sweep_skip_ratio", "ratio", "higher"),
    ("store.invalidations_per_op", "count", "lower"),
    ("clocks.self_us_per_op", "us", "lower"),
    ("clocks.calls_per_op", "count", "lower"),
    ("wire.encode_us_per_msg", "us", "lower"),
    ("wire.decode_us_per_msg", "us", "lower"),
    ("wire.self_us_per_op", "us", "lower"),
    ("wire.delta_hit_ratio", "ratio", "higher"),
    ("wire.batch_occupancy", "count", "higher"),
    ("kernel.self_us_per_event", "us", "lower"),
    ("kernel.events_per_op", "count", "lower"),
    ("network.self_us_per_msg", "us", "lower"),
    ("network.fanout_width", "count", "higher"),
    ("history.record_us_per_op", "us", "lower"),
    ("live.send_self_us_per_msg", "us", "lower"),
    ("live.handler_us_per_msg", "us", "lower"),
    ("live.transit_p50_ms", "ms", "lower"),
    ("live.transit_p99_ms", "ms", "lower"),
    ("live.transit_over_delay_ms", "ms", "lower"),
    ("live.framing_overhead", "ratio", "lower"),
    ("live.loop_idle_share", "ratio", "higher"),
    ("live.resyncs", "count", "lower"),
    ("live.dropped_msgs", "count", "lower"),
    ("live.leaked_tasks", "count", "lower"),
    ("live.teardown_errors", "count", "lower"),
    ("obs.emit_us_per_event", "us", "lower"),
    ("obs.events_per_op", "count", "lower"),
    ("monitor.self_us_per_op", "us", "lower"),
    ("monitor.observe_p50_us", "us", "lower"),
    ("monitor.observe_p99_us", "us", "lower"),
    ("monitor.max_window", "count", "lower"),
    ("monitor.parked_share", "ratio", "lower"),
    ("monitor.gc_retired_per_op", "count", "higher"),
    ("monitor.cache_hit_ratio", "ratio", "higher"),
    ("checker.self_us_per_op", "us", "lower"),
    ("checker.reads_checked_share", "ratio", "higher"),
    ("machine.spin_mops", "Mops", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Which runner in :mod:`perf.workloads` executes it.
    runner: str
    n_nodes: int
    #: Ops per process (solver: iterations) of one timed repeat.
    size: int
    smoke_size: int
    n_locations: int = 0
    #: False when the injected link delay, not the CPU, paces the run:
    #: its wall-clock numbers are then reported unscaled.
    cpu_bound: bool = True
    options: Dict[str, object] = field(default_factory=dict)
    #: Smallest size whose output still verifies.
    min_size: int = 4
    #: Input instances one seed yields; the timed repeats cycle through
    #: them, so a run makes at least this many.
    instances: int = 16

    def traced_size(self, smoke: bool) -> int:
        """The traced (and warm-up) run is a quarter of a timed repeat."""
        return max(self.min_size, (self.smoke_size if smoke else self.size) // 4)


WORKLOADS: List[Workload] = [
    Workload(
        "sim-mixed",
        "core path: engine+store+clocks+kernel/network do all the work, "
        "codec and live runtime none; any wire or live change must leave "
        "it flat",
        runner="random", n_nodes=8, n_locations=16, size=400, smoke_size=60,
    ),
    Workload(
        "sim-wire",
        "wire fast path: delta stamps, write-behind batching, n=16 stamps; "
        "where a codec/coalescing CPU win or a bytes/stamps cut shows",
        runner="random", n_nodes=16, n_locations=32, size=125, smoke_size=25,
        options={"delta_stamps": True, "batching": True},
    ),
    Workload(
        "sim-solver",
        "the paper's Figure 6 solver: ~90% reads, half of them cache hits; "
        "the engine's hit path, and msgs must stay exactly 2n+6 per "
        "processor per iteration",
        runner="solver", n_nodes=12, size=20, smoke_size=20,
        # Jacobi needs ~15 iterations to bring max_error under 1e-9.
        min_size=20,
    ),
    Workload(
        "sim-observed",
        "sim-mixed shape with the collector and streaming monitor attached: "
        "emit and observe dominate; sim-mixed is its bypass",
        runner="random", n_nodes=8, n_locations=16, size=200, smoke_size=40,
        options={"observed": True},
    ),
    Workload(
        "live-cpu",
        "asyncio runtime over Unix sockets, no link delay: CPU-bound event "
        "loop, pickle framing, queue-writer-socket-reader-decode-handler",
        runner="live", n_nodes=4, n_locations=8, size=250, smoke_size=40,
        # A draw is only 1000 ops and moves the per-op counts by 2-5 %;
        # the mean of 32 draws stays within a third of their 5 % bound.
        instances=32,
        options={"delta_stamps": True, "link_delay": 0.0},
    ),
    Workload(
        "live-delay",
        "same with 2 ms one-way delay on every link: delay-paced, so "
        "throughput must not move with CPU work; p99 and cpu_us_per_op do",
        runner="live", n_nodes=4, n_locations=8, size=250, smoke_size=15,
        # 16 instances of 1000 ops: the pooled p99 has 160 samples beyond it.
        cpu_bound=False,
        options={"delta_stamps": True, "link_delay": 0.002},
    ),
    Workload(
        "check-offline",
        "check_causal over a recorded sim history: the verifier as a "
        "workload; nothing else in the repo runs",
        runner="check", n_nodes=8, n_locations=16, size=150, smoke_size=40,
    ),
]

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
