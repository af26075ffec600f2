"""What the monitor attached to each `sim-observed` instance ends with.

usage: python results/pr38/observed_ends.py TREE SEED

Builds the 16 instances `python -m perf one --workload sim-observed
--seed SEED` cycles through (perf's own `RandomRunner.prepare`, full
size), runs each with `attach_monitor` as the benchmark does, plus a
verdict reader, and prints per instance: the history fingerprint, every
`MonitorResult` field but the violation list, and SHA-1s of the
verdicts `(proc, index, ok, reason, vt, live)` sorted by `(proc,
index)` and in arrival order.  Run it on two trees and diff the output.
"""
import hashlib
import sys

tree, seed = sys.argv[1], int(sys.argv[2])
sys.path[:0] = [f"{tree}/src", tree]

import repro.apps.workload as workload  # noqa: E402
from perf.spec import WORKLOADS_BY_NAME  # noqa: E402
from perf.workloads import RandomRunner  # noqa: E402
from repro.checker import history_fingerprint  # noqa: E402
from repro.monitor import attach_monitor  # noqa: E402


def sha(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:12]


spec = WORKLOADS_BY_NAME["sim-observed"]
runner = RandomRunner(spec, seed)
built = workload.DSMCluster


class Observed(built):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []
        self.subscription = attach_monitor(
            self, on_verdict=lambda v: self.seen.append(
                (v.op.proc, v.op.index, v.ok, v.reason, v.vt, v.live)
            ),
        )
        clusters.append(self)


workload.DSMCluster = Observed
for instance in range(spec.instances):
    clusters = []
    outcome = workload.run_random_execution(
        runner.prepare(spec.size, instance)
    )
    (cluster,) = clusters
    result = cluster.subscription.result()
    print(
        seed, instance, sha(history_fingerprint(outcome.history)),
        result.ok, result.reads_checked, result.ops_processed,
        result.n_violations, len(result.unresolved), result.max_window,
        result.gc_retired, "frontier", sha(result.frontier),
        "sorted", sha(sorted(cluster.seen)), "arrival", sha(cluster.seen),
    )
