"""Plain `check_causal` and the explorer, timed and counted on one tree.

usage: PYTHONPATH=<tree>/src python results/pr28/checker_time.py

Runs unchanged on a tree with or without the per-read live-set memo:
it only calls `check_causal(h)`, `explore` and `make_spec`.

  * `check_causal` over 5 000 random schedules of the explorer's 12-op
    `exhaustive` program (the corpus of `results/pr22/livecache.py`),
    best of five passes;
  * `explore(preset("exhaustive"))` at its defaults, best of three;
  * per preset, bounded DFS (5 000 schedules): schedules, exhausted,
    violations and distinct histories, which must not move;
  * the cached-overtaken-ack mutant: found, at which schedule count.
"""
import random
import time

from repro.checker import check_causal
from repro.mc import ControlledRun, ExploreConfig, explore, make_spec, preset
from repro.protocols.causal_owner import CausalOwnerNode

#: The `inflight-ack` preset, spelled out for trees that predate it.
INFLIGHT_ACK = make_spec(
    [
        (),
        (("w", "x", 1), ("r", "z"), ("r", "x"), ("w", "q", 4)),
        (("w", "x", 2), ("w", "z", 3), ("r", "q"), ("r", "x")),
    ],
    owners={"x": 0, "z": 1, "q": 1},
)


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


def best(fn, passes):
    fastest = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        fn()
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


histories = corpus(5000)
ops = sum(len(h) for h in histories)
plain = best(lambda: [check_causal(h) for h in histories], 5)
print(f"check_causal, explorer corpus: {len(histories)} histories, {ops} ops: "
      f"{ops / plain:,.0f} ops/s (best of 5)")
spent = best(lambda: explore(preset("exhaustive")), 3)
result = explore(preset("exhaustive"))
print(f"explore(preset('exhaustive')): {spent * 1e3:.0f} ms (best of 3), "
      f"{result.schedules} schedules")

dfs = ExploreConfig(strategy="dfs", max_schedules=5000)
programs = {name: preset(name) for name in
            ("exhaustive", "fig3", "fig5", "inflight", "inflight-tasks")}
programs["inflight-ack"] = INFLIGHT_ACK
for name, spec in programs.items():
    result = explore(spec, dfs)
    print(f"{name:15s} schedules {result.schedules:5d} exhausted "
          f"{result.exhausted!s:5s} violations {len(result.violations)} "
          f"distinct histories {result.distinct_histories}")

CausalOwnerNode._ack_cacheable = lambda self, location, entry, flight: True
result = explore(INFLIGHT_ACK, ExploreConfig(strategy="dfs", stop_on_violation=True))
print(f"_ack_cacheable mutant: {len(result.violations)} violation after "
      f"{result.schedules} schedules")
