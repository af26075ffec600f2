"""Explore every `repro.mc` preset by bounded DFS (5 000 schedules) and
print schedules, distinct histories and violations by kind.

usage: PYTHONPATH=<tree>/src python results/pr29/presets.py
"""
from collections import Counter
from repro.mc import PRESETS, preset, explore, ExploreConfig
for name in sorted(PRESETS):
    r = explore(preset(name), ExploreConfig(strategy="dfs", max_schedules=5000))
    kinds = Counter(v.kind for v in r.violations)
    print(f"{name:16s} exhausted={r.exhausted} schedules={r.schedules} "
          f"distinct={r.distinct_histories} crashes={r.crashes} violations={dict(kinds)}")
