"""The checker's index: a literal Definition 1 to compare against, and
guards that one check walks the history a constant number of times and
asks the between-ness test at most once per read.

:class:`CausalOrder` gives every operation a vector clock and decides
liveness on them with the test the streaming monitor uses
(``_excluded``).  The reference here shares none of that: ``*->`` is a
plain graph search (``_causal_graph.py``) and Definition 1 is read off
the page, per pair of operations.  Every ``alpha`` set the checker
produces must equal it, write for write and in the same order; every
``precedes`` answer must equal the search's; a cyclic history must name
the same operations, in the same order.
"""

import random

import pytest

from _causal_graph import CausalGraph, reference_live_set
from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.checker import (
    CachedCausalChecker,
    CausalityCycleError,
    CausalOrder,
    History,
    check_causal,
    live_set,
    random_history,
)
from repro.checker import causality
from repro.checker.history import INIT_PROC, Operation, initial_write_id
from repro.errors import CheckError
from repro.harness.scenarios import run_figure3_on_broadcast

SHAPES = [
    dict(n_procs=2, n_locations=1, ops_per_proc=4, read_fraction=0.5),
    dict(n_procs=3, n_locations=2, ops_per_proc=5, read_fraction=0.5),
    dict(n_procs=3, n_locations=3, ops_per_proc=6, read_fraction=0.7),
    dict(n_procs=4, n_locations=2, ops_per_proc=5, read_fraction=0.3),
]

# Contended shapes: many processes on one or two locations, so a late
# read follows dozens of writes to its location.  ``random_history`` is
# cyclic in every draw at these sizes; ``interleaved_history`` is not.
CONTENDED = [
    dict(n_procs=6, n_locations=1, ops_per_proc=25, read_fraction=0.3),
    dict(n_procs=6, n_locations=1, ops_per_proc=25, read_fraction=0.7),
    dict(n_procs=8, n_locations=2, ops_per_proc=20, read_fraction=0.3),
    dict(n_procs=8, n_locations=2, ops_per_proc=20, read_fraction=0.7),
]


def interleaved_history(
    seed, n_procs, n_locations, ops_per_proc, read_fraction, stale=0.5
) -> History:
    """Acyclic by construction, causal or not: the operations are laid
    along one random interleaving and a read returns the latest earlier
    write to its location or, with probability ``stale``, any earlier
    one (``stale=0`` is a sequentially consistent run)."""
    rng = random.Random(seed)
    locations = [f"l{i}" for i in range(n_locations)]
    schedule = [p for p in range(n_procs) for _ in range(ops_per_proc)]
    rng.shuffle(schedule)
    processes = [[] for _ in range(n_procs)]
    written = {loc: [(initial_write_id(loc), 0)] for loc in locations}
    for step, proc in enumerate(schedule, start=1):
        location, index = rng.choice(locations), len(processes[proc])
        earlier = written[location]
        if rng.random() < read_fraction:
            source, value = (
                rng.choice(earlier) if rng.random() < stale else earlier[-1]
            )
            op = Operation(proc, index, "r", location, value, read_from=source)
        else:
            op = Operation(proc, index, "w", location, step, write_id=(proc, index))
            earlier.append((op.write_id, step))
        processes[proc].append(op)
    return History(processes, locations=locations)


def assert_matches_definition(history: History):
    """``check_causal``'s result, every live set in it compared with the
    reference (a cyclic history has none: it must get the cycle verdict,
    naming the operations on or after a cycle)."""
    result = check_causal(history)
    graph = CausalGraph(history)
    members = graph.cycle_members()
    if members:
        assert result.cycle is not None and not result.ok
        assert result.verdicts == []
        assert result.cycle.cycle_members == members
        with pytest.raises(CausalityCycleError):
            CausalOrder(history)
        return result
    assert result.cycle is None
    order = CausalOrder(history)
    reads = history.reads()
    for a in order.ops:
        assert [order.precedes(a, b) for b in order.ops] == [
            graph.precedes(a, b) for b in order.ops
        ], (a, history.to_text())
        assert [order.precedes_excluding_rf(a, r) for r in reads] == [
            graph.precedes_excluding_rf(a, r) for r in reads
        ], (a, history.to_text())
    assert [v.read for v in result.verdicts] == reads
    for read, verdict in zip(reads, result.verdicts):
        expected = reference_live_set(graph, read)
        assert list(verdict.live_writes) == expected, (
            f"{read} in\n{history.to_text()}"
        )
        assert live_set(order, read) == expected
        assert verdict.ok == (read.read_from in {w.write_id for w in expected})
    return result


def rewire_one_read(history: History, rng: random.Random) -> History:
    """The same history with one read made to return another write's value."""
    reads = history.reads()
    if not reads:
        return history
    victim = rng.choice(reads)
    source = rng.choice([
        w for w in history.writes(location=victim.location)
        if w.write_id != victim.read_from
    ] or history.writes(location=victim.location))
    processes = [list(ops) for ops in history.processes]
    processes[victim.proc][victim.index] = Operation(
        proc=victim.proc, index=victim.index, kind=victim.kind,
        location=victim.location, value=source.value,
        read_from=source.write_id,
    )
    return History(processes, locations=history.locations)


def test_live_sets_equal_definition_on_generated_and_mutated_histories():
    rng = random.Random(15)
    causal = violating = cyclic = checked = 0
    for seed in range(1200):
        generated = random_history(seed=seed, **SHAPES[seed % len(SHAPES)])
        for history in (generated, rewire_one_read(generated, rng)):
            checked += 1
            result = assert_matches_definition(history)
            if result.cycle is not None:
                cyclic += 1
            elif result.ok:
                causal += 1
            else:
                violating += 1
    assert checked >= 2000
    # Every class is genuinely exercised, not a handful of lucky seeds.
    assert min(causal, violating, cyclic) > 100, (causal, violating, cyclic)


def _excluded_calls(monkeypatch, history: History) -> int:
    """How often one ``check_causal`` asks the between-ness test."""
    calls = [0]
    original = causality._excluded

    def counted(*args):
        calls[0] += 1
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(causality, "_excluded", counted)
        check_causal(history)
    return calls[0]


def _past_writes(history: History) -> int:
    """The most writes of its location any read has in its past (the
    graph's count): how many a per-write test would have to look at."""
    graph = CausalGraph(history)
    return max(
        sum(
            graph.precedes_excluding_rf(write, read)
            for write in history.writes(location=read.location)
        )
        for read in history.reads()
    )


def test_live_sets_equal_definition_on_contended_histories(monkeypatch):
    rng = random.Random(22)
    causal = violating = deepest = 0
    for seed in range(48):
        shape = CONTENDED[seed % len(CONTENDED)]
        stale = (0.0, 0.1, 0.5)[seed // len(CONTENDED) % 3]
        generated = interleaved_history(seed, stale=stale, **shape)
        for history in (generated, rewire_one_read(generated, rng)):
            result = assert_matches_definition(history)
            if result.cycle is not None:
                continue  # only a rewired read can close a cycle
            causal += result.ok
            violating += not result.ok
            assert _excluded_calls(monkeypatch, history) <= len(history.reads())
            deepest = max(deepest, _past_writes(history))
    assert min(causal, violating) >= 10, (causal, violating)
    # The regime SHAPES never reach: far more past writes than processes.
    assert deepest > 40, deepest


# Many processes, a few operations each: fed round-robin, a read whose
# source sits further along its writer's program parks until it is filed.
WIDE = [
    dict(n_procs=16, n_locations=3, ops_per_proc=5, read_fraction=0.5),
    dict(n_procs=32, n_locations=4, ops_per_proc=4, read_fraction=0.6),
    dict(n_procs=64, n_locations=6, ops_per_proc=3, read_fraction=0.6),
]


def test_live_sets_equal_definition_at_many_processes(monkeypatch):
    """Clocks as wide as 64 components, bumped, joined and parked: every
    verdict, ``precedes`` answer and live set is the graph search's."""
    parks = []
    original = causality.CausalFeed._file

    def counted(self, *op):
        filed = original(self, *op)
        parks[-1] += not filed
        return filed

    monkeypatch.setattr(causality.CausalFeed, "_file", counted)
    rng = random.Random(42)
    causal = violating = 0
    for seed in range(6):
        shape = WIDE[seed % len(WIDE)]
        generated = interleaved_history(seed, stale=0.3, **shape)
        for history in (generated, rewire_one_read(generated, rng)):
            parks.append(0)
            result = assert_matches_definition(history)
            if result.cycle is None:
                causal += result.ok
                violating += not result.ok
    assert causal and violating, (causal, violating)
    assert min(parks[::2]) > 0, parks  # every generated history parks


@pytest.mark.parametrize("seed", [1, 2])
def test_live_sets_equal_definition_on_contended_owner_runs(seed):
    recorded = run_random_execution(WorkloadConfig(
        n_nodes=8, n_locations=2, ops_per_proc=60, seed=seed,
    )).history
    assert assert_matches_definition(recorded).ok
    assert_matches_definition(rewire_one_read(recorded, random.Random(seed)))
    assert _past_writes(recorded) > 8 + 1


# The corners a read's causal frontier has (the bitset index once leaned
# on them; the clock test must get them right as well); ``alpha`` is
# asked of the last read of the last process.
FRONTIER_CORNERS = {
    "a process's first operation: its past is the initial writes":
        ("P1: w(x)1 w(x)2\nP2: r(x)0", {0, 1, 2}),
    "a location whose only write is the initial one":
        ("P1: r(x)0 w(y)1\nP2: r(y)1 r(x)0\nP3: r(x)0 r(y)1 r(x)0", {0}),
    "every chain tip is a read of the same write":
        ("P1: w(x)1 w(a)1\nP2: r(x)1 w(b)1\nP3: r(x)1 w(c)1\n"
         "P4: r(a)1 r(b)1 r(c)1 r(x)1", {1}),
    "a chain tip that is itself the candidate write":
        ("P1: w(x)1 w(x)2 w(a)1\nP2: w(x)3\nP3: r(a)1 r(x)2", {2, 3}),
    "two tips with two sources, both live":
        ("P1: w(x)1 w(a)1\nP2: w(x)2 w(b)1\nP3: r(a)1 r(b)1 r(x)2", {1, 2}),
    "a tip's source overwritten on another chain":
        ("P1: w(x)1 w(a)1\nP2: r(a)1 w(x)2 w(b)1\nP3: r(x)1 w(c)1\n"
         "P4: r(b)1 r(c)1 r(x)2", {2}),
}


@pytest.mark.parametrize("corner", FRONTIER_CORNERS)
def test_live_sets_equal_definition_at_the_frontier_corners(corner):
    text, alpha = FRONTIER_CORNERS[corner]
    history = History.parse(text)
    result = assert_matches_definition(history)
    assert result.cycle is None
    assert {w.value for w in result.verdicts[-1].live_writes} == alpha


def test_causal_histories_mutated_into_violations():
    """Recorded causal-owner runs are causal; one rewired read mostly is not."""
    rng = random.Random(1991)
    violating = 0
    for seed in range(20):
        recorded = run_random_execution(
            WorkloadConfig(n_nodes=3, n_locations=2, ops_per_proc=12, seed=seed)
        ).history
        assert check_causal(recorded).ok
        result = assert_matches_definition(rewire_one_read(recorded, rng))
        if result.cycle is None and not result.ok:
            violating += 1
    assert violating >= 5


@pytest.mark.parametrize("name", ["figure2", "figure3"])
def test_live_sets_equal_definition_on_paper_figures(name, request):
    result = assert_matches_definition(request.getfixturevalue(name))
    assert result.cycle is None and result.ok == (name == "figure2")


def test_live_sets_equal_definition_on_recorded_owner_runs():
    outcome = run_random_execution(WorkloadConfig(
        n_nodes=4, n_locations=3, ops_per_proc=40, seed=7,
    ))
    assert assert_matches_definition(outcome.history).ok


def test_live_sets_equal_definition_on_broadcast_anomaly():
    result = assert_matches_definition(run_figure3_on_broadcast())
    assert result.cycle is None and not result.ok


# ----------------------------------------------------------------------
# Complexity guard: no wall clock, only how often the history is walked
# ----------------------------------------------------------------------
SCANS = ("operations", "_app_operations", "writes", "reads")


def _scans_per_check(monkeypatch, history: History) -> dict:
    calls = dict.fromkeys(SCANS, 0)

    def counted(name):
        original = getattr(History, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        for name in SCANS:
            patch.setattr(History, name, counted(name))
        assert check_causal(history).ok
    return calls


def test_one_check_walks_the_history_a_constant_number_of_times(monkeypatch):
    scans = []
    for ops_per_proc in (75, 300):  # 300 and 1 200 operations
        history = run_random_execution(WorkloadConfig(
            n_nodes=4, n_locations=8, ops_per_proc=ops_per_proc, seed=3,
        )).history
        assert len(history) == 4 * ops_per_proc
        assert len(history.reads()) > 100
        scans.append(_scans_per_check(monkeypatch, history))
    small, large = scans
    assert small == large
    assert all(count <= 2 for count in small.values()), small


def test_check_causal_asks_excluded_at_most_once_per_read(monkeypatch):
    """A read is decided on its own source: however long the history,
    ``check_causal`` calls the between-ness test at most once per read,
    where a read's past holds many writes of its location."""
    for ops_per_proc in (75, 300, 2400):  # 300, 1 200 and 9 600 operations
        history = run_random_execution(WorkloadConfig(
            n_nodes=4, n_locations=8, ops_per_proc=ops_per_proc, seed=3,
        )).history
        assert len(history) == 4 * ops_per_proc
        calls = _excluded_calls(monkeypatch, history)
        assert 0 < calls <= len(history.reads()), calls
        if ops_per_proc == 300:
            assert _past_writes(history) > 2 * (history.n_procs + 1)


# ----------------------------------------------------------------------
# The small fixes that rode along
# ----------------------------------------------------------------------
def test_history_serves_per_location_writes_and_reads_as_fresh_lists(figure2):
    by_scan = [
        op for op in figure2.operations(include_init=True)
        if op.is_write and op.location == "x"
    ]
    assert figure2.writes(location="x") == by_scan
    assert figure2.writes(location="x", include_init=False) == by_scan[1:]
    assert figure2.writes(location="nowhere") == []
    assert figure2.writes() == [
        op for op in figure2.operations(include_init=True) if op.is_write
    ]
    n_reads = len(figure2.reads())
    figure2.reads().clear()
    figure2.writes(location="x").clear()
    assert len(figure2.reads()) == n_reads > 0
    assert figure2.writes(location="x") == by_scan


def test_verdict_lookup_by_op_id(figure2):
    result = check_causal(figure2)
    for verdict in result.verdicts:
        assert result.verdict_for(*verdict.read.op_id) is verdict
    with pytest.raises(KeyError):
        result.verdict_for(0, 0)


def test_cycle_and_normal_verdict_events_carry_the_same_keys(figure1):
    from repro.obs import TraceCollector

    collector = TraceCollector()
    check_causal(figure1, obs=collector)
    check_causal(History.parse("P1: r(x)1 w(x)1"), obs=collector)
    normal, cyclic = (event.args for event in collector.events)
    assert set(normal) <= set(cyclic)
    assert cyclic["ok"] is False and cyclic["reads"] == 0
    assert cyclic["cached"] is False and "cyclic" in cyclic["cycle"]

    # A history-table hit reports the memoised verdict with the same keys.
    checker = CachedCausalChecker()
    checker.obs = collector = TraceCollector()
    for history in (figure1, figure1, History.parse("P1: r(x)1 w(x)1")) * 2:
        checker.check(history)
    miss, hit, cyclic_miss, _, _, cyclic_hit = (e.args for e in collector.events)
    assert (miss["cached"], hit["cached"]) == (False, True)
    assert {**hit, "cached": False} == miss
    assert {**cyclic_hit, "cached": False} == cyclic_miss


# ----------------------------------------------------------------------
# What check_causal builds lazily or by hand stays what it was
# ----------------------------------------------------------------------
def test_a_checked_verdict_is_a_constructed_one(figure3):
    from dataclasses import FrozenInstanceError
    from repro.checker.causal_checker import ReadVerdict

    result = check_causal(figure3)
    assert not result.ok and result.violations
    order = CausalOrder(figure3)
    for verdict in result.verdicts:
        built = ReadVerdict(verdict.read, verdict.ok, order)
        assert verdict == built and hash(verdict) == hash(built)
        assert repr(verdict) == repr(built)
        assert verdict.live_writes == built.live_writes
        with pytest.raises(FrozenInstanceError):
            verdict.ok = not verdict.ok
        assert not hasattr(verdict, "__dict__")


@pytest.mark.parametrize("query", ["index_of", "precedes"])
def test_the_first_query_still_refuses_a_foreign_operation(figure2, query):
    order = CausalOrder(figure2)
    stranger = Operation(0, 99, "w", "x", 7, write_id=(0, 99))
    with pytest.raises(CheckError):  # the order's first query
        if query == "index_of":
            order.index_of(stranger)
        else:
            order.precedes(order.ops[0], stranger)
    assert order.index_of(order.ops[-1]) == len(order.ops) - 1


def test_order_ops_list_the_initial_writes_first(figure2):
    ops = CausalOrder(figure2).ops
    n_init = len(figure2.init_writes)
    assert ops[:n_init] == figure2.init_writes
    assert ops == figure2.operations(include_init=True)
    assert {op.proc for op in ops[:n_init]} == {INIT_PROC}
    assert all(op.proc != INIT_PROC for op in ops[n_init:])
