"""Does the per-read `LiveSetCache` layer still pay?  (PR 15's comparison, redone.)

usage: PYTHONPATH=<tree>/src python results/pr22/livecache.py

`check_causal(h, cache=shared)` against `check_causal(h)`, no history
table, best of five alternating passes:
  * over 5 000 random schedules of the explorer's 12-op `exhaustive`
    program (the corpus of PR 15's `bench_checker_memo`, removed in PR 20);
  * over one 1 200-op recorded history (n=8, 16 locations, seed 1991)
    checked repeatedly — every read after the first pass is a hit, and
    `read_fingerprint` still walks `past & reads` to build its key.
"""
import random
import time

from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.checker import LiveSetCache, check_causal
from repro.mc import ControlledRun, preset


def corpus(schedules):
    spec = preset("exhaustive")
    histories = []
    for index in range(schedules):
        rng = random.Random(f"bench-memo/{index}")
        run = ControlledRun(spec)
        while run.crashed is None:
            actions = run.actions()
            if not actions:
                break
            run.apply(actions[rng.randrange(len(actions))])
        histories.append(run.outcome().history)
    return histories


def compare(label, histories, passes=5):
    ops = sum(len(h) for h in histories)
    plain = cached = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        for h in histories:
            check_causal(h)
        plain = min(plain, time.perf_counter() - started)
        cache = LiveSetCache()
        started = time.perf_counter()
        for h in histories:
            check_causal(h, cache=cache)
        cached = min(cached, time.perf_counter() - started)
    print(f"{label}: {len(histories)} histories, {ops} ops: no cache "
          f"{ops / plain:,.0f} ops/s; LiveSetCache only {ops / cached:,.0f} "
          f"ops/s (x{plain / cached:.2f}), live hit rate {cache.hit_rate:.4f}")


compare("explorer corpus", corpus(5000))
recorded = run_random_execution(WorkloadConfig(
    n_nodes=8, n_locations=16, ops_per_proc=150, seed=1991,
)).history
compare("one recorded 1 200-op history, checked 20 times", [recorded] * 20)
