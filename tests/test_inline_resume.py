"""A task whose awaited future is already resolved continues inline.

When the kernel is free-running (bare ``Simulator.run()``) and nothing
else is due at ``now``, the resume event such a task would schedule is
the very next event the loop would pop, so the task keeps running in
the same event instead (DESIGN.md §4.1).  Only ``events_processed``
and later sequence numbers may differ.

The lockstep tests run each case twice — as is, and with the kernel's
one predicate (``Simulator.may_continue``) patched to False, which is
the old always-an-event behaviour — and demand identical histories,
network ledgers and final clocks.  The unit tests pin the cases where
the resume must stay an event.
"""

import pytest

from repro.apps.linear_solver import LinearSystem, SynchronousSolver
from repro.apps.workload import WorkloadConfig, spawn_workload
from repro.memory import Namespace
from repro.mc.program import ProgramSpec
from repro.mc.scheduler import run_controlled
from repro.obs import TraceCollector
from repro.protocols.base import DSMCluster
from repro.sim import Future, Simulator, TaskScheduler
from repro.sim.latency import JitteredLatency


def workload_run(config, namespace=None):
    """run_random_execution's cluster, kept so its ledgers can be read."""
    cluster = DSMCluster(
        n_nodes=config.n_nodes, protocol=config.protocol, seed=config.seed,
        latency=JitteredLatency(base=1.0, jitter_mean=0.5),
        namespace=namespace, record_history=True,
        delta_stamps=config.delta_stamps,
    )
    spawn_workload(cluster, config)
    cluster.run()
    stats = cluster.stats
    return {
        "history": cluster.history().to_text(),
        "edges": {key: list(edge) for key, edge in stats._edges.items()},
        "totals": (stats.total, stats.dropped, stats.total_latency),
        "now": cluster.sim.now,
    }, cluster.sim.events_processed


def lockstep(monkeypatch, run):
    on, events_on = run()
    # Every resume an event again: the behaviour before the continuation.
    monkeypatch.setattr(Simulator, "may_continue", lambda self: False)
    off, events_off = run()
    assert on == off
    assert events_on <= events_off
    return events_on, events_off


@pytest.mark.parametrize("protocol", ["causal", "broadcast", "atomic", "central"])
@pytest.mark.parametrize("seed", range(4))
def test_random_workloads_lockstep(monkeypatch, protocol, seed):
    config = WorkloadConfig(
        n_nodes=4, n_locations=6, ops_per_proc=40, protocol=protocol,
        seed=seed,
    )
    events_on, events_off = lockstep(monkeypatch, lambda: workload_run(config))
    if protocol == "causal":
        assert events_on < events_off  # its hits did continue inline


@pytest.mark.parametrize("delta_stamps", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_delta_stamps_lockstep(monkeypatch, delta_stamps, seed):
    config = WorkloadConfig(
        n_nodes=6, n_locations=8, ops_per_proc=40, delta_stamps=delta_stamps,
        seed=seed,
    )
    lockstep(monkeypatch, lambda: workload_run(config))


@pytest.mark.parametrize("seed", range(3))
def test_paged_namespace_lockstep(monkeypatch, seed):
    paged = Namespace(3, unit_fn=lambda loc: f"page{int(loc[3:]) // 2}")
    config = WorkloadConfig(n_nodes=3, n_locations=6, ops_per_proc=40, seed=seed)
    lockstep(monkeypatch, lambda: workload_run(config, namespace=paged))


@pytest.mark.parametrize("seed", range(3))
def test_think_time_lockstep(monkeypatch, seed):
    config = WorkloadConfig(
        n_nodes=4, n_locations=6, ops_per_proc=30, think_time=2.0, seed=seed,
    )
    lockstep(monkeypatch, lambda: workload_run(config))


@pytest.mark.parametrize("wait_mode", ["oracle", "polling"])
def test_solver_lockstep(monkeypatch, wait_mode):
    def run():
        solver = SynchronousSolver(
            LinearSystem.random(5, seed=1991), protocol="causal",
            iterations=5, seed=1991, wait_mode=wait_mode,
        )
        result = solver.run()
        cluster = solver.cluster
        return {
            "solution": result.solution.tobytes(),
            "by_kind": result.messages_by_kind,
            "steady": result.steady_messages_per_processor,
            "edges": {k: list(e) for k, e in cluster.stats._edges.items()},
            "now": cluster.sim.now,
        }, cluster.sim.events_processed

    events_on, events_off = lockstep(monkeypatch, run)
    assert events_on < events_off


# ----------------------------------------------------------------------
# Where the resume must stay an event
# ----------------------------------------------------------------------
def resolved(value):
    future = Future()
    future.resolve(value)
    return future


def one_task(body):
    sim = Simulator()
    scheduler = TaskScheduler(sim)
    log = []
    scheduler.spawn(body(sim, log), name="t")
    return sim, scheduler, log


def hit_twice(sim, log):
    log.append(("got", (yield resolved(1))))
    log.append(("got", (yield Future.completed(2))))


def test_free_running_hits_cost_no_event():
    sim, _, log = one_task(hit_twice)
    sim.run()
    assert log == [("got", 1), ("got", 2)]
    assert sim.events_processed == 1  # the spawn step only


def test_same_instant_event_runs_before_the_resume():
    def body(sim, log):
        sim.call_soon(lambda: log.append("queued"))
        log.append(("got", (yield resolved(1))))
        sim.schedule(0.0, lambda: log.append("zero-delay"))
        log.append(("got", (yield resolved(2))))

    sim, _, log = one_task(body)
    sim.run()
    assert log == ["queued", ("got", 1), "zero-delay", ("got", 2)]
    assert sim.events_processed == 5


def test_failed_future_still_resumes_as_an_event_and_raises():
    def body(sim, log):
        failed = Future()
        failed.fail(ValueError("boom"))
        try:
            yield failed
        except ValueError as exc:
            log.append(str(exc))

    sim, scheduler, log = one_task(body)
    sim.run()
    assert log == ["boom"]
    assert sim.events_processed == 2
    scheduler.raise_failures()


def test_budgeted_runs_keep_the_resume_event():
    sim, _, log = one_task(hit_twice)
    sim.run(until=10.0)
    assert log == [("got", 1), ("got", 2)] and sim.events_processed == 3
    sim, _, log = one_task(hit_twice)
    sim.run(max_events=10)
    assert log == [("got", 1), ("got", 2)] and sim.events_processed == 3


def test_step_keeps_the_resume_event():
    sim, _, log = one_task(hit_twice)
    while sim.step():
        pass
    assert log == [("got", 1), ("got", 2)] and sim.events_processed == 3


def test_attached_collector_sees_every_resume():
    sim, _, log = one_task(hit_twice)
    collector = TraceCollector()
    sim.obs = collector
    sim.run()
    assert log == [("got", 1), ("got", 2)]
    executed = [
        e for e in collector.events
        if e.category == "kernel" and e.name == "execute"
    ]
    assert len(executed) == sim.events_processed == 3


def test_controlled_run_offers_every_resume_as_an_action():
    spec = ProgramSpec(
        processes=((("w", "x", 1), ("r", "x"), ("r", "x")),),
        owners=(("x", 0),),
    )
    outcome = run_controlled(spec, lambda actions, run: actions[0])
    assert outcome.completed
    # The spawn step plus one resume per (local, already resolved) op.
    assert [key for _, key in outcome.trace] == [
        ("t", "P0", 0), ("t", "P0", 1), ("t", "P0", 2), ("t", "P0", 3),
    ]


def test_the_predicate_is_false_outside_the_bare_loop():
    sim = Simulator()
    seen = []
    sim.call_soon(lambda: seen.append(sim.may_continue()))
    sim.step()
    sim.call_soon(lambda: seen.append(sim.may_continue()))
    sim.run()
    sim.call_soon(lambda: seen.append(sim.may_continue()))
    sim.call_soon(lambda: None)
    sim.run()
    assert seen == [False, True, False]
    assert not sim.may_continue()


def test_the_live_runtime_never_continues_inline():
    from repro.runtime.live import AsyncioRuntime

    runtime = AsyncioRuntime(2)
    # Task asks its scheduler's ``sim``; on the live driver that is the
    # runtime itself, whose every resume goes through the asyncio loop.
    assert runtime._scheduler.sim is runtime
    assert runtime.may_continue() is False
