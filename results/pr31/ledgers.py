"""Every `tests/test_workload.py::LEDGERS` row as a tree computes it:
(history digest, messages, model bytes, stamp entries), the helper the
test uses, run outside pytest.

usage (from the repository root): PYTHONPATH=<tree>/src python <this directory>/ledgers.py
"""
import hashlib
import sys

sys.path.insert(0, "tests")
from repro.apps import workload as workload_module  # noqa: E402
from repro.apps.workload import WorkloadConfig, run_random_execution  # noqa: E402
from test_workload import LEDGERS  # noqa: E402

built = []


class Captured(workload_module.DSMCluster):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        built.append(self)


workload_module.DSMCluster = Captured
for protocol, n_nodes, delta_stamps, seed in LEDGERS:
    built.clear()
    outcome = run_random_execution(WorkloadConfig(
        protocol=protocol, n_nodes=n_nodes, delta_stamps=delta_stamps, seed=seed))
    stats = built[0].stats
    digest = hashlib.sha256(outcome.history.to_text().encode()).hexdigest()[:16]
    print(f"{protocol}-{n_nodes}-{delta_stamps}-{seed}",
          (digest, stats.total, stats.bytes_total, stats.stamp_entries))
