"""The checker's index: a literal Definition 1 to compare against, and
a guard that one check walks the history a constant number of times.

``live_set`` is mask arithmetic over what :class:`CausalOrder` indexes
once per history.  The reference below is the definition read off the
page — per-pair ``precedes`` / ``precedes_excluding_rf`` loops over the
plain operation list, no masks, no tables — and every ``alpha`` set the
checker produces must equal it, write for write and in the same order.
"""

import random

import pytest

from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.checker import (
    CausalityCycleError,
    CausalOrder,
    History,
    LiveSetCache,
    check_causal,
    live_set,
    random_history,
)
from repro.checker.causality import bit_indices
from repro.checker.history import Operation
from repro.harness.scenarios import run_figure3_on_broadcast

SHAPES = [
    dict(n_procs=2, n_locations=1, ops_per_proc=4, read_fraction=0.5),
    dict(n_procs=3, n_locations=2, ops_per_proc=5, read_fraction=0.5),
    dict(n_procs=3, n_locations=3, ops_per_proc=6, read_fraction=0.7),
    dict(n_procs=4, n_locations=2, ops_per_proc=5, read_fraction=0.3),
]


def _source(op: Operation):
    return op.write_id if op.is_write else op.read_from


def reference_live_set(history: History, order: CausalOrder, read: Operation):
    """Definition 1, one ``precedes`` query per pair of operations."""
    on_location = [
        op for op in history.operations(include_init=True)
        if op.location == read.location and op.op_id != read.op_id
    ]
    live = []
    for write in on_location:
        if not write.is_write or order.precedes(read, write):
            continue
        if order.precedes_excluding_rf(write, read) and any(
            _source(between) != write.write_id
            and order.precedes(write, between)
            and order.precedes_excluding_rf(between, read)
            for between in on_location
        ):
            continue  # another value served notice in between
        live.append(write)
    return live


def assert_matches_definition(history: History):
    """``check_causal``'s result, every live set in it compared with the
    reference (a cyclic history has none: it must get the cycle verdict)."""
    result = check_causal(history)
    try:
        order = CausalOrder(history)
    except CausalityCycleError:
        assert result.cycle is not None and not result.ok
        assert result.verdicts == []
        return result
    assert result.cycle is None
    for i, op in enumerate(order.ops):  # ancestors are descendants, transposed
        assert [order.ops[k] for k in bit_indices(order.ancestor_mask(i))] == [
            other for other in order.ops if order.precedes(other, op)
        ]
    reads = history.reads()
    assert [v.read for v in result.verdicts] == reads
    for read, verdict in zip(reads, result.verdicts):
        expected = reference_live_set(history, order, read)
        assert list(verdict.live_writes) == expected, (
            f"{read} in\n{history.to_text()}"
        )
        assert live_set(history, order, read) == expected
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


# One value, unused: it keeps this test's id (``[False]``) now that the
# write-behind arm is gone; dropping it is a rename for a later PR.
@pytest.mark.parametrize("batching", [False])
def test_live_sets_equal_definition_on_recorded_owner_runs(batching):
    outcome = run_random_execution(WorkloadConfig(
        n_nodes=4, n_locations=3, ops_per_proc=40, seed=7,
    ))
    assert assert_matches_definition(outcome.history).ok


def test_live_sets_equal_definition_on_broadcast_anomaly():
    result = assert_matches_definition(run_figure3_on_broadcast())
    assert result.cycle is None and not result.ok


def test_cached_live_sets_equal_definition():
    cache = LiveSetCache()
    for seed in range(200):
        history = random_history(seed=seed, **SHAPES[seed % len(SHAPES)])
        try:
            order = CausalOrder(history)
        except CausalityCycleError:
            continue
        for read in history.reads():
            expected = reference_live_set(history, order, read)
            assert live_set(history, order, read, cache) == expected
    assert cache.hits > 0


# ----------------------------------------------------------------------
# Complexity guard: no wall clock, only how often the history is walked
# ----------------------------------------------------------------------
SCANS = ("operations", "_app_operations", "writes", "reads")


def _scans_per_check(monkeypatch, history: History, cache) -> dict:
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
        assert check_causal(history, cache=cache).ok
    return calls


@pytest.mark.parametrize("cached", [False, True])
def test_one_check_walks_the_history_a_constant_number_of_times(
    monkeypatch, cached
):
    scans = []
    for ops_per_proc in (75, 300):  # 300 and 1 200 operations
        history = run_random_execution(WorkloadConfig(
            n_nodes=4, n_locations=8, ops_per_proc=ops_per_proc, seed=3,
        )).history
        assert len(history) == 4 * ops_per_proc
        assert len(history.reads()) > 100
        cache = LiveSetCache() if cached else None
        scans.append(_scans_per_check(monkeypatch, history, cache))
    small, large = scans
    assert small == large
    assert all(count <= 2 for count in small.values()), small


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


def test_unknown_location_is_an_empty_view_and_leaves_no_entry(figure1):
    order = CausalOrder(figure1)
    empty = order.location_ops("nowhere")
    assert (empty.indices, empty.mask, empty.writes) == ((), 0, ())
    assert "nowhere" not in order._loc_ops


def test_bit_indices_yields_set_bits_lowest_first():
    assert list(bit_indices(0)) == []
    assert list(bit_indices(0b1011)) == [0, 1, 3]
    wide = (1 << 5000) | (1 << 64) | 1
    assert list(bit_indices(wide)) == [0, 64, 5000]


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
