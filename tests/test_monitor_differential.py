"""Differential property test: streaming monitor vs offline checker.

The monitor's correctness anchor (DESIGN.md §4.8): on every history the
explorer can produce — random schedules over random programs, with and
without message drops, plus broadcast clusters under timed partition
faults — the online verdict must coincide with the offline
:func:`repro.checker.check_causal`, read for read.  A cyclic history has
no per-read offline verdicts (the offline checker reports the cycle);
there the monitor must agree on the overall verdict via its unresolved
(parked-forever) reads.

The checker and the monitor are one feed
(``repro.checker.causality.CausalFeed``), so their agreement is not
independent evidence.  The tests that carry that weight hold the monitor
against ``_causal_graph.py`` instead: ``*->`` by plain graph search and
Definition 1 read off the page, in more than one feed order.
"""

import random

from _causal_graph import CausalGraph, reference_live_set
from repro.checker import check_causal
from repro.checker.generator import random_history
from repro.mc.program import random_program
from repro.mc.scheduler import ControlledRun
from repro.monitor import (
    CausalStreamMonitor,
    attach_monitor,
    feed_history,
    feed_trace,
)
from repro.obs.collector import TraceCollector
from repro.protocols.base import DSMCluster
from repro.sim.faults import FaultSchedule

#: 100 random programs x 10 random schedules each (alternating drop
#: budgets) = 1000 explorer histories, before the fault-schedule corpus.
N_SPECS = 100
SCHEDULES_PER_SPEC = 10
N_FAULT_RUNS = 32


def _compare_one(history, n_procs):
    """Assert online == offline on one history; returns 1 (counted)."""
    offline = check_causal(history)
    online = {}
    monitor = CausalStreamMonitor(
        n_procs,
        gc_interval=8,
        on_verdict=lambda v: online.__setitem__((v.op.proc, v.op.index), v.ok),
    )
    result = feed_history(monitor, history)
    if offline.cycle is not None:
        # Offline sees a causality cycle: no per-read verdicts exist.
        # Online, the cycle's reads park forever and fail the run.
        assert not result.ok, f"monitor missed cycle:\n{history.to_text()}"
        assert result.unresolved
        # With nothing collected, the monitor parks exactly the ops the
        # checker names, in the same order.
        gc_off = feed_history(
            CausalStreamMonitor(n_procs, gc_interval=10**9), history
        )
        assert [(op.proc, op.index) for op in gc_off.unresolved] == [
            op.op_id for op in offline.cycle.cycle_members
        ], history.to_text()
    else:
        assert result.ok == offline.ok, (
            f"verdict drift:\n{history.to_text()}\n"
            f"offline={offline.explain()}\nonline={result.explain()}"
        )
        for verdict in offline.verdicts:
            proc, index = verdict.read.op_id
            assert online[(proc, index)] == verdict.ok, (
                f"per-read drift at P{proc + 1} op {index}:\n"
                f"{history.to_text()}"
            )
    # The window never exceeds what is actually alive: each write is a
    # candidate plus a notice, each read a notice, plus the lazily
    # materialised per-location initial writes.
    writes = sum(1 for p in history.processes for op in p if op.is_write)
    ops = sum(len(p) for p in history.processes)
    locations = len({op.location for p in history.processes for op in p})
    assert result.max_window <= ops + writes + locations
    return 1


def _random_run(spec, seed, max_drops):
    """One random-chooser controlled run of ``spec`` (explorer-style)."""
    rng = random.Random(f"monitor-diff/{seed}")
    run = ControlledRun(
        spec, max_drops=max_drops, collector=TraceCollector(keep_events=True)
    )
    for _ in range(5000):
        if run.crashed is not None:
            break
        actions = run.actions()
        if not actions:
            break
        run.apply(actions[rng.randrange(len(actions))])
    return run


def test_monitor_matches_offline_checker_on_explorer_corpus():
    checked = 0
    crashed = 0
    truncated = 0
    for spec_seed in range(N_SPECS):
        spec = random_program(
            spec_seed,
            protocol="causal" if spec_seed % 2 else "broadcast",
            n_procs=3,
            n_locations=2,
            ops_per_proc=3,
        )
        for index in range(SCHEDULES_PER_SPEC):
            max_drops = 2 if index % 2 else 0
            run = _random_run(
                spec, seed=spec_seed * 1000 + index, max_drops=max_drops
            )
            outcome = run.outcome()
            if outcome.history is None:
                # A dropped W-REPLY left a read observing a write whose
                # writer never committed: the offline History refuses the
                # record outright.  Online this is a truncated stream —
                # the read's source never commits, so it must park
                # forever and fail the run.
                monitor = CausalStreamMonitor(spec.n_procs)
                result = feed_trace(monitor, run.cluster.obs.events)
                assert not result.ok and result.unresolved
                truncated += 1
                checked += 1
                continue
            if outcome.crashed is not None:
                crashed += 1
                continue
            checked += _compare_one(outcome.history, spec.n_procs)
    assert checked >= 1000, f"corpus too small: {checked} ({crashed} crashed)"


def test_monitor_matches_offline_checker_under_partition_faults():
    """Broadcast clusters with timed partitions: drops lose updates, the
    histories get stranger, and the verdicts must still coincide."""
    for seed in range(N_FAULT_RUNS):
        spec = random_program(
            seed + 7000,
            protocol="broadcast",
            n_procs=3,
            n_locations=2,
            ops_per_proc=4,
        )
        cluster = DSMCluster(n_nodes=3, protocol="broadcast", seed=seed)
        rng = random.Random(f"monitor-faults/{seed}")
        faults = FaultSchedule(cluster.sim, cluster.network)
        for _ in range(2):
            src, dst = rng.sample(range(3), 2)
            start = rng.uniform(0.0, 5.0)
            faults.partition_between(
                src, dst, start=start, end=start + rng.uniform(1.0, 10.0)
            )
        faults.install()
        for proc, ops in enumerate(spec.processes):
            def program(api, ops=ops):
                for op in ops:
                    if op[0] == "w":
                        yield api.write(op[1], op[2])
                    else:
                        yield api.read(op[1])
            cluster.spawn(proc, program)
        cluster.run()
        _compare_one(cluster.history(), 3)


def _unread_monitor(n_procs, gc_interval):
    """A monitor as ``perf`` and ``attach_monitor`` build it: no reader,
    so verdict objects exist only for flagged reads."""
    monitor = CausalStreamMonitor(n_procs, gc_interval=gc_interval)
    monitor.VIOLATION_LIMIT = 10**6
    return monitor


def _assert_flags_match(result, history):
    offline = check_causal(history)
    if offline.cycle is not None:
        assert not result.ok and result.unresolved, history.to_text()
        return
    assert not result.unresolved
    assert result.n_violations == len(result.violations)
    flagged = {(v.op.proc, v.op.index) for v in result.violations}
    rejected = {v.read.op_id for v in offline.violations}
    assert flagged == rejected, history.to_text()


def _recorded_owner_runs(monkeypatch, gc_intervals):
    """Owner-protocol runs with unread monitors attached while they run,
    one per GC interval: ``(history, [monitor result, ...])``."""
    import repro.apps.workload as workload

    attached = []

    class Monitored(DSMCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            attached[:] = [
                attach_monitor(self, monitor=_unread_monitor(self.n_nodes, gc))
                for gc in gc_intervals
            ]

    monkeypatch.setattr(workload, "DSMCluster", Monitored)
    for seed in (1991, 2024, 7):
        outcome = workload.run_random_execution(workload.WorkloadConfig(
            n_nodes=4, n_locations=4, ops_per_proc=100,
            protocol="causal", seed=seed,
        ))
        yield outcome.history, [s.result() for s in attached]


def _unread_corpus():
    """The random histories both unread-monitor tests draw."""
    for seed in range(800):
        rng = random.Random(f"unread/{seed}")
        yield random_history(
            seed,
            n_procs=rng.randint(2, 5),
            n_locations=rng.randint(1, 3),
            ops_per_proc=rng.randint(3, 12),
        )


def test_unread_monitor_matches_offline_checker(monkeypatch):
    gc_intervals = (1, 2, 8, 64)
    outcomes = {"clean": 0, "violating": 0, "cyclic": 0}
    # About four draws in five are cyclic (reads may name later writes).
    for history in _unread_corpus():
        offline = check_causal(history)
        outcomes[
            "cyclic" if offline.cycle is not None
            else "clean" if offline.ok else "violating"
        ] += 1
        for gc in gc_intervals:
            monitor = _unread_monitor(len(history.processes), gc)
            _assert_flags_match(feed_history(monitor, history), history)
        _compare_one(history, len(history.processes))
    assert min(outcomes.values()) >= 20, outcomes
    for history, results in _recorded_owner_runs(monkeypatch, gc_intervals):
        assert len(history) == 400
        for result in results:
            assert result.ok and result.reads_checked == len(history.reads())
            _assert_flags_match(result, history)


def test_unread_monitor_matches_the_literal_definition():
    """The same corpus, read for read against the graph-search oracle:
    a read is flagged iff its source is outside its literal live set,
    and a cyclic history leaves reads parked."""
    flagged_reads = 0
    for history in _unread_corpus():
        graph = CausalGraph(history)
        cyclic = bool(graph.cycle_members())
        rejected = set() if cyclic else {
            read.op_id for read in history.reads()
            if read.read_from not in {
                write.write_id for write in reference_live_set(graph, read)
            }
        }
        flagged_reads += len(rejected)
        for gc in (1, 64):
            result = feed_history(
                _unread_monitor(len(history.processes), gc), history
            )
            if cyclic:
                assert not result.ok and result.unresolved, history.to_text()
                continue
            assert not result.unresolved
            flagged = {(v.op.proc, v.op.index) for v in result.violations}
            assert flagged == rejected, history.to_text()
    assert flagged_reads >= 20, flagged_reads


def _feed_processes(monitor, history, procs):
    """Feed every op of each process in ``procs`` before the next's."""
    for proc in procs:
        for op in history.processes[proc]:
            monitor.feed_op(
                op.proc, op.kind, op.location, op.value,
                op.write_id if op.is_write else op.read_from,
            )


FEED_ORDERS = {
    "round-robin": feed_history,
    "process-ascending": lambda monitor, history: _feed_processes(
        monitor, history, range(history.n_procs)
    ),
    "process-descending": lambda monitor, history: _feed_processes(
        monitor, history, reversed(range(history.n_procs))
    ),
}


def test_own_component_test_is_causal_order():
    """The lemma the monitor's integer tests rest on: for its clocks,
    ``a *-> b`` iff ``vt(b)[p(a)] >= vt(a)[p(a)]`` iff ``vt(a) <= vt(b)``
    componentwise — on every pair of processed ops, ``*->`` by graph
    search, whatever order the processes' streams are interleaved in."""
    histories = 0
    seed = 0
    wakes = dict.fromkeys(FEED_ORDERS, 0)
    while histories < 200:
        seed += 1
        history = random_history(seed, n_procs=3, n_locations=2, ops_per_proc=6)
        graph = CausalGraph(history)
        if graph.cycle_members():
            continue
        histories += 1
        for name, feed in FEED_ORDERS.items():
            wakes[name] += _assert_clocks_are_causal_order(feed, history, graph)
    # Descending order parks early processes on later ones' writes, so
    # one write wakes several processes at once.
    assert wakes["process-descending"] > 0, wakes


def _assert_clocks_are_causal_order(feed, history, graph):
    """Feed ``history`` with ``feed`` and hold every pair of notice
    clocks against ``graph``; returns how often one filed write woke
    more than one parked process."""
    monitor = CausalStreamMonitor(len(history.processes), gc_interval=10**9)
    drain, multiple = monitor._drain, [0]

    def counted_drain():
        multiple[0] += len(monitor._woken) > 1
        drain()

    monitor._drain = counted_drain
    feed(monitor, history)
    assert monitor.result().ok == check_causal(history).ok
    # Nothing is retired, so every processed op left exactly one
    # notice, in program order within its (location, process) group.
    processed = []
    for proc, ops in enumerate(history.processes):
        for location in {op.location for op in ops}:
            mine = [op for op in ops if op.location == location]
            group_vts = monitor._notices[location][proc].vts
            assert len(mine) == len(group_vts)
            processed += zip(mine, group_vts)
    for a, vt_a in processed:
        for b, vt_b in processed:
            causal = a.op_id == b.op_id or graph.precedes(a, b)
            own = vt_b[a.proc] >= vt_a[a.proc]
            componentwise = all(x <= y for x, y in zip(vt_a, vt_b))
            assert causal == own == componentwise, (a, b, history.to_text())
    return multiple[0]
