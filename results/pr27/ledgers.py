"""Print every LEDGERS row of tests/test_workload.py for the tree on sys.path,
computed as that file's ``_ledger`` does.

usage: PYTHONPATH=<tree>/src python <this directory>/ledgers.py
"""
import hashlib

import repro.apps.workload as workload_module
from repro.apps.workload import WorkloadConfig, run_random_execution

built = []


class Captured(workload_module.DSMCluster):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        built.append(self)


workload_module.DSMCluster = Captured
for protocol in ("causal", "broadcast"):
    for n in (4, 8):
        for delta in (False, True):
            for seed in (1991, 2024):
                built.clear()
                out = run_random_execution(WorkloadConfig(
                    protocol=protocol, n_nodes=n, delta_stamps=delta, seed=seed))
                s = built[0].stats
                digest = hashlib.sha256(out.history.to_text().encode()).hexdigest()[:16]
                print((protocol, n, delta, seed), (digest, s.total, s.bytes_total, s.stamp_entries))
