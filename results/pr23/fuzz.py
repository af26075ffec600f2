"""2 400 random executions of the owner protocol — six small shapes x 400
seeds — each checked by `check_causal`, every fifth also by the streaming
monitor.  Three arms: the tree as it is (run it from the parent's tree and
from this one), and `--removed`: the in-flight replay patched away, so every
R_REPLY payload and every acked write is installed (pure Figure 4).

usage: PYTHONPATH=<tree>/src python results/pr23/fuzz.py [--removed]
"""
import sys

from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.checker import check_causal
from repro.monitor import CausalStreamMonitor, feed_history
from repro.protocols.causal_owner import CausalOwnerNode

#: (nodes, locations, ops per process, read fraction)
SHAPES = [
    (3, 2, 12, 0.5), (3, 3, 20, 0.7), (4, 2, 15, 0.5),
    (4, 4, 25, 0.6), (5, 3, 12, 0.4), (6, 2, 10, 0.5),
]
SEEDS = 400

if "--removed" in sys.argv:
    CausalOwnerNode._overtaken = staticmethod(lambda stamp, flight: None)

rejected, flagged, runs, monitored = [], [], 0, 0
for shape in SHAPES:
    n_nodes, n_locations, ops_per_proc, read_fraction = shape
    for seed in range(SEEDS):
        outcome = run_random_execution(WorkloadConfig(
            protocol="causal", n_nodes=n_nodes, n_locations=n_locations,
            ops_per_proc=ops_per_proc, read_fraction=read_fraction, seed=seed,
        ))
        runs += 1
        if not check_causal(outcome.history).ok:
            rejected.append((shape, seed))
        if seed % 5 == 0:
            monitored += 1
            monitor = CausalStreamMonitor(n_nodes)
            if not feed_history(monitor, outcome.history).ok:
                flagged.append((shape, seed))
print(f"{runs} runs: {len(rejected)} rejected by check_causal {rejected}; "
      f"{monitored} monitored: {len(flagged)} flagged {flagged}")
