"""One `check_causal` over one recorded causal-owner run, by history length.

usage: PYTHONPATH=<tree>/src python results/pr35/scale.py [REPEATS]

n=8, 16 locations, seed 1991 (`check-offline`'s shape) at 1 200, 9 600
and 38 400 operations; the median and the best of REPEATS (default 5)
timings of `check_causal` alone, and of building every read's live set
on top of it (`ReadVerdict.live_writes`, which the bitset tree had
already built inside `check_causal`).
"""
import statistics
import sys
import time

from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.checker import check_causal

repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
for ops_per_proc in (150, 1200, 4800):
    history = run_random_execution(WorkloadConfig(
        n_nodes=8, n_locations=16, ops_per_proc=ops_per_proc, seed=1991,
    )).history
    check, every = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        result = check_causal(history)
        checked = time.perf_counter()
        for verdict in result.verdicts:
            verdict.live_writes
        every.append(time.perf_counter() - started)
        check.append(checked - started)
    assert result.ok
    n = len(history)
    print(f"{n} ops {len(result.verdicts)} reads: check_causal "
          f"median {statistics.median(check) / n * 1e6:.2f} "
          f"best {min(check) / n * 1e6:.2f} us/op; with every live set "
          f"median {statistics.median(every) / n * 1e6:.2f} "
          f"best {min(every) / n * 1e6:.2f} us/op", flush=True)

import resource  # noqa: E402

print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024} MB")
