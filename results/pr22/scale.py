"""One `check_causal` over one recorded causal-owner run, by history length.

usage: PYTHONPATH=<tree>/src python results/pr22/scale.py

n=8, 16 locations, seed 1991 (`check-offline`'s shape); best of five.
Also prints, per read, how many writes condition 2's big-int test ran on:
the frontier's candidates when the tree has `CausalOrder.frontier_writes`,
and `popcount(W(x) & past)` — what the per-write loop tested — always.
"""
import time

from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.checker import CausalOrder, check_causal

for ops_per_proc in (150, 300, 600, 1000):
    history = run_random_execution(WorkloadConfig(
        n_nodes=8, n_locations=16, ops_per_proc=ops_per_proc, seed=1991,
    )).history
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        result = check_causal(history)
        best = min(best, time.perf_counter() - started)
    assert result.ok
    order = CausalOrder(history)
    past_writes, candidates = [], []
    for read in history.reads():
        loc = order.location_ops(read.location)
        past = order.past_mask(order.index_of(read))
        past_writes.append((loc.writes_mask & past).bit_count())
        if hasattr(order, "frontier_writes"):
            candidates.append(len(order.frontier_writes(past, loc)))
    tested = candidates or past_writes
    print(f"{len(history)} ops {len(result.verdicts)} reads {best * 1e3:.1f} ms "
          f"{len(history) / best:,.0f} ops/s {best / len(history) * 1e6:.1f} us/op; "
          f"condition-2 tests per read mean {sum(tested) / len(tested):.1f} "
          f"max {max(tested)} (past writes to the location: mean "
          f"{sum(past_writes) / len(past_writes):.1f} max {max(past_writes)})")
