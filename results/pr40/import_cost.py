"""What importing ``repro.apps.workload`` costs a fresh interpreter.

Since the solver names of ``repro.apps`` are imported eagerly, every
interpreter that imports a workload also loads both solver modules.
This runs ``python -c "import repro.apps.workload"`` ROUNDS times on
each tree, alternating, and prints the median wall time and peak RSS.

usage: python <this directory>/import_cost.py PARENT_TREE CHANGE_TREE [ROUNDS]
"""
import os
import statistics
import subprocess
import sys
import time

CODE = (
    "import resource, sys, time; t = time.perf_counter(); "
    "import repro.apps.workload; "
    "print(time.perf_counter() - t, "
    "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "
    "'numpy' in sys.modules, 'repro.apps.linear_solver' in sys.modules)"
)
trees = {"parent": sys.argv[1], "change": sys.argv[2]}
rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 15
samples = {side: [] for side in trees}
for _ in range(rounds):
    for side, tree in trees.items():
        out = subprocess.run(
            [sys.executable, "-c", CODE], cwd=tree,
            env={**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True, check=True,
        ).stdout.split()
        samples[side].append(out)
for side, rows in samples.items():
    import_ms = statistics.median(float(r[0]) for r in rows) * 1e3
    rss = statistics.median(float(r[1]) for r in rows)
    print(f"{side}: import {import_ms:.1f} ms, peak RSS {rss:.2f} MB "
          f"(median of {rounds}); numpy loaded {rows[0][2]}, "
          f"linear_solver loaded {rows[0][3]}")
