"""The seven workloads: input generation, one timed repeat, verification.

A runner turns a seed into inputs (``prepare``), executes the program on
them once (``run`` — the only timed part) and checks what came out
(``verify``, untimed).  The program only ever sees generated inputs;
the seed stays here.  All load comes from one process and one OS
thread; clients are closed-loop (a processor blocks on its own read or
write, as in the paper), one client per node.
"""

from __future__ import annotations

import hashlib
import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from perf.spec import Workload

#: Wall-clock cap of one live run (the program's own op timeout).
LIVE_TIMEOUT_S = 60.0


@dataclass
class Repeat:
    """What one execution of a workload produced."""

    attempted: int
    #: Which of the run's input instances this repeat executed, in which
    #: of the run's interpreters, between which two calibrations.
    instance: int = 0
    part: int = 0
    spin_before: float = 0.0
    spin_after: float = 0.0
    ops: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    msgs: int = 0
    model_bytes: int = 0
    stamp_entries: int = 0
    #: Bytes written to sockets; None where the workload has no sockets.
    socket_bytes: Optional[int] = None
    #: Identity of the output; equal across simulated repeats of one instance.
    fingerprint: str = ""
    latencies_s: List[float] = field(default_factory=list)
    #: Program counters the per-layer ratios are built from.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Recorded History; dropped once the repeat has been inspected, so
    #: the heap (and with it the collector's work) stays flat.
    history: Any = None
    failed: int = 0
    error: str = ""
    problems: List[str] = field(default_factory=list)
    #: Seconds spent inspecting the output (not part of the measurement).
    inspect_s: float = 0.0


def _digest(value: object) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:16]


def flagged_reads(history) -> int:
    """Reads of ``history`` the streaming monitor finds not live
    (Definition 2), plus ops it could not order at all."""
    from repro.monitor import CausalStreamMonitor, feed_history

    result = feed_history(CausalStreamMonitor(len(history.processes)), history)
    return result.n_violations + len(result.unresolved)


def figure3_rejected() -> bool:
    """Canary: the checker must reject the Figure 3 broadcast history."""
    import repro.checker as checker
    from repro.runtime import run_scenario_sim

    return not checker.check_causal(run_scenario_sim("fig3")).ok


@contextmanager
def _captured(module, class_name: str, on_build=None):
    """Collect the clusters ``module`` builds, from outside.

    ``run_random_execution`` constructs its cluster internally and
    returns a digest of it; the byte, stamp and per-layer counters live
    on the cluster.  Swapping the module's class name for a recording
    subclass hands us the instance (and a hook to attach a monitor
    before the run) without editing ``src/``.
    """
    original = getattr(module, class_name)
    built: List[Any] = []

    class Captured(original):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)
            if on_build is not None:
                on_build(self)

    setattr(module, class_name, Captured)
    try:
        yield built
    finally:
        setattr(module, class_name, original)


def _cluster_counters(cluster) -> Dict[str, float]:
    nodes = cluster.nodes
    stats = cluster.stats
    out = {
        "reads": sum(n.stats.reads for n in nodes),
        "writes": sum(n.stats.writes for n in nodes),
        "read_hits": sum(n.stats.local_read_hits for n in nodes),
        "rejected_writes": sum(n.stats.rejected_writes for n in nodes),
        "wb_coalesced": sum(getattr(n, "wb_coalesced", 0) for n in nodes),
        "wb_batches": sum(getattr(n, "wb_batches", 0) for n in nodes),
        "wb_batched_writes": sum(
            getattr(n, "wb_batched_writes", 0) for n in nodes
        ),
        "sweeps_performed": sum(n.store.sweeps_performed for n in nodes),
        "sweeps_skipped": sum(n.store.sweeps_skipped for n in nodes),
        "invalidations": sum(n.store.invalidation_count for n in nodes),
        "stamp_entries_full": stats.stamp_entries_full,
        "dropped_msgs": stats.dropped,
    }
    events = getattr(cluster.sim, "events_processed", None)
    if events is not None:
        out["kernel_events"] = events
    return out


def _fill_network(repeat: Repeat, stats) -> None:
    repeat.msgs = stats.total
    repeat.model_bytes = stats.bytes_total
    repeat.stamp_entries = stats.stamp_entries


class _AsyncioErrors(logging.Handler):
    """Counts what asyncio logs at ERROR ("Exception in callback ...",
    "Task exception was never retrieved") and still shows it."""

    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1
        sys.stderr.write(self.format(record) + "\n")


class Runner:
    """Base of the four runners; ``spec`` fixes the shape, ``seed`` the inputs.

    One ``--seed`` yields several input *instances* (same shape, another
    draw); the timed repeats cycle through them.  A single draw of a few
    thousand ops moves the per-op counts by 1-5 % from seed to seed,
    which would drown the bounds; the mean over instances does not.
    Repeats of one instance still have to agree exactly on a simulator.
    """

    #: A simulator must repeat an instance exactly; sockets need not.
    deterministic = True

    def __init__(self, spec: Workload, seed: int):
        self.spec = spec
        self.seed = seed
        #: Closed-loop clients issuing ops.
        self.clients = spec.n_nodes

    def instance_seed(self, instance: int) -> int:
        return self.seed * 1000 + instance

    def nominal_ops(self, size: int) -> int:
        """Ops one run of ``size`` attempts (charged when a run raises)."""
        return self.spec.n_nodes * size

    def prepare(self, size: int, instance: int = 0):
        """Generate the inputs of one instance (part of set-up)."""
        raise NotImplementedError

    def execute(self, inputs) -> Repeat:
        raise NotImplementedError

    def run(self, inputs, size: int, index: int = 0, instance: int = 0) -> Repeat:
        """Repeat number ``index``; a run that raises counts every op it
        would have attempted as failed."""
        try:
            repeat = self.execute(inputs)
        except Exception as exc:  # noqa: BLE001 - the benchmark must report it
            attempted = self.nominal_ops(size)
            repeat = Repeat(
                attempted=attempted, failed=attempted,
                error=f"{type(exc).__name__}: {exc}",
                problems=[f"repeat {index} raised {type(exc).__name__}: {exc}"],
            )
        repeat.instance = instance
        return repeat

    def finish(self, repeat: Repeat, index: int, check_history: bool) -> None:
        """Untimed, untraced: check one repeat's output, then let it go.

        ``check_history``: nothing has yet looked at this instance's
        history in this run (a simulator repeats it exactly, so once is
        enough; sockets do not, and their runner looks every time).
        """
        started = time.perf_counter()
        if not repeat.error:
            if repeat.ops < repeat.attempted:
                repeat.failed += repeat.attempted - repeat.ops
                repeat.problems.append(
                    f"repeat {index} completed {repeat.ops} of "
                    f"{repeat.attempted} ops"
                )
            self.inspect(repeat, index, check_history)
        repeat.history = None
        repeat.inspect_s = time.perf_counter() - started

    def inspect(self, repeat: Repeat, index: int, check_history: bool) -> None:
        """Per-repeat output checks, some of which need the history."""

    def verify(self, repeats: List[Repeat]) -> List[str]:
        """Checks across repeats; returns every problem found."""
        problems = [p for repeat in repeats for p in repeat.problems]
        if self.deterministic:
            self._check_deterministic(repeats, problems)
        return problems

    # -- shared verification steps ---------------------------------------
    def _check_deterministic(self, repeats: List[Repeat], problems: List[str]):
        """Simulated repeats of one instance must be identical; a flagged
        read in the one that was inspected is a flagged read in all."""
        by_instance: Dict[int, List[Repeat]] = {}
        for repeat in repeats:
            if not repeat.error:
                by_instance.setdefault(repeat.instance, []).append(repeat)
        for instance, same in by_instance.items():
            identities = {
                (r.fingerprint, r.ops, r.msgs, r.model_bytes, r.stamp_entries)
                for r in same
            }
            if len(identities) > 1:
                for repeat in same:
                    repeat.failed = repeat.attempted
                problems.append(
                    f"simulated repeats of instance {instance} disagree: "
                    f"{sorted(identities)}"
                )
            else:
                flagged = max(r.failed for r in same)
                for repeat in same:
                    repeat.failed = flagged

    def _flag_reads(self, repeat: Repeat, index: int) -> None:
        flagged = flagged_reads(repeat.history)
        if flagged:
            repeat.failed += flagged
            repeat.problems.append(f"repeat {index}: {flagged} reads not live")


class RandomRunner(Runner):
    """``run_random_execution`` on the simulator (sim-mixed/-wire/-observed)."""

    def prepare(self, size: int, instance: int = 0):
        from repro.apps.workload import WorkloadConfig

        options = self.spec.options
        return WorkloadConfig(
            n_nodes=self.spec.n_nodes,
            n_locations=self.spec.n_locations,
            ops_per_proc=size,
            protocol="causal",
            delta_stamps=bool(options.get("delta_stamps", False)),
            batching=bool(options.get("batching", False)),
            seed=self.instance_seed(instance),
        )

    def execute(self, config) -> Repeat:
        import repro.apps.workload as module

        subscriptions: List[Any] = []
        on_build = None
        if self.spec.options.get("observed"):
            from repro.monitor import attach_monitor

            def on_build(cluster):
                subscriptions.append(attach_monitor(cluster))

        with _captured(module, "DSMCluster", on_build) as built:
            cpu = time.process_time()
            started = time.perf_counter()
            outcome = module.run_random_execution(config)
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu
        cluster = built[0]
        repeat = Repeat(
            attempted=config.n_nodes * config.ops_per_proc,
            ops=len(outcome.history), wall_s=wall, cpu_s=cpu,
            history=outcome.history,
            counters=_cluster_counters(cluster),
        )
        _fill_network(repeat, cluster.stats)
        from repro.checker import history_fingerprint

        repeat.fingerprint = _digest(history_fingerprint(outcome.history))
        if subscriptions:
            result = subscriptions[0].result()
            repeat.counters.update(
                monitor_ok=float(result.ok),
                monitor_max_window=result.max_window,
                monitor_gc_retired=result.gc_retired,
                monitor_cache_hits=result.cache_hits,
                monitor_cache_misses=result.cache_misses,
            )
        return repeat

    def inspect(self, repeat: Repeat, index: int, check_history: bool) -> None:
        if repeat.counters.get("monitor_ok", 1.0) != 1.0:
            repeat.failed = repeat.attempted
            repeat.problems.append(f"repeat {index}: online monitor verdict not ok")
        if check_history:
            self._flag_reads(repeat, index)


class SolverRunner(Runner):
    """The Figure 6 synchronous solver, oracle wait, causal memory."""

    def __init__(self, spec: Workload, seed: int):
        super().__init__(spec, seed)
        self.clients = spec.n_nodes + 1  # workers + coordinator

    def nominal_ops(self, size: int) -> int:
        n = self.spec.n_nodes
        # Per iteration: each worker reads n-1 x's, n A's and b, writes
        # three flags/values and re-reads two handshake flags; the
        # coordinator does 4n.  Plus the one-off input distribution.
        return size * (n * (2 * n + 5) + 4 * n) + n * (n + 1) + 1

    def prepare(self, size: int, instance: int = 0):
        from repro.apps.linear_solver import LinearSystem

        seed = self.instance_seed(instance)
        return LinearSystem.random(self.spec.n_nodes, seed=seed), size, seed

    def execute(self, inputs) -> Repeat:
        from repro.apps.linear_solver import SynchronousSolver

        system, iterations, seed = inputs
        cpu = time.process_time()
        started = time.perf_counter()
        solver = SynchronousSolver(
            system, protocol="causal", iterations=iterations,
            seed=seed, wait_mode="oracle",
        )
        result = solver.run()
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu
        cluster = solver.cluster
        counters = _cluster_counters(cluster)
        ops = int(counters["reads"] + counters["writes"])
        counters["steady_msgs_per_proc_iter"] = (
            result.steady_messages_per_processor
        )
        counters["max_error"] = result.max_error
        repeat = Repeat(
            attempted=ops, ops=ops, wall_s=wall, cpu_s=cpu, counters=counters,
            fingerprint=_digest(
                (result.solution.tobytes(), sorted(result.messages_by_kind.items()))
            ),
        )
        _fill_network(repeat, cluster.stats)
        return repeat

    def inspect(self, repeat: Repeat, index: int, check_history: bool) -> None:
        expected = 2 * self.spec.n_nodes + 6
        steady = repeat.counters["steady_msgs_per_proc_iter"]
        error = repeat.counters["max_error"]
        if steady != expected or not error < 1e-9:
            repeat.failed = repeat.attempted
            repeat.problems.append(
                f"repeat {index}: {steady} msgs/proc/iter (want "
                f"{expected}), max_error {error:.3g} (want < 1e-9)"
            )


class LiveRunner(Runner):
    """``run_workload_live`` over Unix-domain sockets on one event loop."""

    deterministic = False

    def prepare(self, size: int, instance: int = 0):
        from repro.apps.workload import WorkloadConfig

        return WorkloadConfig(
            n_nodes=self.spec.n_nodes,
            n_locations=self.spec.n_locations,
            ops_per_proc=size,
            protocol="causal",
            delta_stamps=bool(self.spec.options.get("delta_stamps", False)),
            seed=self.instance_seed(instance),
        )

    def execute(self, config) -> Repeat:
        import repro.runtime.scenarios as module

        errors = _AsyncioErrors()
        logger = logging.getLogger("asyncio")
        logger.addHandler(errors)
        try:
            cpu = time.process_time()
            outcome = module.run_workload_live(
                config,
                transport="uds",
                link_delay=self.spec.options["link_delay"],
                timeout=LIVE_TIMEOUT_S,
                sample_latencies=True,
            )
            cpu = time.process_time() - cpu
        finally:
            logger.removeHandler(errors)
        cluster = outcome.cluster
        runtime = cluster.runtime
        counters = _cluster_counters(cluster)
        counters.update(
            resyncs=outcome.resyncs,
            leaked_tasks=len(runtime.leaked_tasks),
            teardown_errors=errors.count,
        )
        repeat = Repeat(
            attempted=config.n_nodes * config.ops_per_proc,
            ops=len(outcome.history),
            # The runtime ends every run with a fixed drain sleep;
            # that is configuration, not work the ops waited for.
            wall_s=outcome.elapsed - runtime.settle,
            cpu_s=cpu,
            socket_bytes=outcome.socket_bytes,
            latencies_s=outcome.latencies,
            history=outcome.history,
            counters=counters,
        )
        _fill_network(repeat, runtime.stats)
        return repeat

    def inspect(self, repeat: Repeat, index: int, check_history: bool) -> None:
        # Live interleavings differ per repeat: verify each.
        self._flag_reads(repeat, index)
        if index == 0 and not self.spec.cpu_bound:
            # Second opinion from the offline checker on one delay-paced
            # history (small enough for its super-linear cost).
            import repro.checker as checker

            result = checker.check_causal(repeat.history)
            if not result.ok and not repeat.failed:
                repeat.failed = max(1, len(result.violations))
                repeat.problems.append(
                    f"repeat {index}: check_causal rejects the history"
                )


class CheckRunner(Runner):
    """``check_causal`` over the recorded history of a simulated run."""

    def __init__(self, spec: Workload, seed: int):
        super().__init__(spec, seed)
        self.clients = 1  # one caller waits for one verdict

    def prepare(self, size: int, instance: int = 0):
        # Input generation: record the history the checker will be given.
        generator = RandomRunner(self.spec, self.seed)
        return generator.execute(generator.prepare(size, instance))

    def execute(self, recorded: Repeat) -> Repeat:
        import repro.checker as checker

        history = recorded.history
        cpu = time.process_time()
        started = time.perf_counter()
        result = checker.check_causal(history)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu
        ops = len(history)
        repeat = Repeat(
            attempted=ops, ops=ops, wall_s=wall, cpu_s=cpu,
            # Carried from the recorded run: the checker sends nothing,
            # so these identify its input rather than measure it.
            msgs=recorded.msgs, model_bytes=recorded.model_bytes,
            stamp_entries=recorded.stamp_entries,
            fingerprint=recorded.fingerprint,
            counters={"reads_checked": len(result.verdicts)},
            failed=0 if result.ok else max(1, len(result.violations)),
        )
        return repeat

    def inspect(self, repeat: Repeat, index: int, check_history: bool) -> None:
        if repeat.failed:
            repeat.problems.append(
                f"repeat {index}: check_causal flagged {repeat.failed} reads"
            )

    def verify(self, repeats: List[Repeat]) -> List[str]:
        problems = super().verify(repeats)
        if not figure3_rejected():
            for repeat in repeats:
                repeat.failed = repeat.attempted
            problems.append("canary: Figure 3 history was not rejected")
        return problems


_RUNNERS = {
    "random": RandomRunner,
    "solver": SolverRunner,
    "live": LiveRunner,
    "check": CheckRunner,
}


def make_runner(spec: Workload, seed: int) -> Runner:
    return _RUNNERS[spec.runner](spec, seed)
