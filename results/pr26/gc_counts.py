"""The monitor's GC counts on every `sim-observed` instance, one tree.

`perf`'s traced child runs instances round-robin until its time is up,
so a faster tree runs more of them and its pooled
`monitor.gc_retired_per_op` is a different mix.  This prints, per
instance of the benchmark's own inputs, the monitor's `max_window`,
`gc_retired` and verdict, through `perf`'s runner; run it from two trees
and diff the output.

usage: (cd TREE && python <this file> SEED [SEED ...])
"""
import sys

sys.path.insert(0, "src")
sys.path.insert(0, ".")

from perf.spec import WORKLOADS_BY_NAME  # noqa: E402
from perf.workloads import make_runner  # noqa: E402

spec = WORKLOADS_BY_NAME["sim-observed"]
for seed in map(int, sys.argv[1:]):
    runner = make_runner(spec, seed)
    for instance in range(spec.instances):
        repeat = runner.execute(runner.prepare(spec.size, instance))
        counters = repeat.counters
        print(seed, instance, repeat.ops, int(counters["monitor_ok"]),
              counters["monitor_max_window"], counters["monitor_gc_retired"])
