"""The invalidation sweep's line tests on the Figure 6 solver (n = 12,
20 iterations, seed 1991, oracle wait): how many there are, how many a
line's writer component decides ("not older") at once, and how far the
left-to-right `strictly_less` loop reaches (1-based; a line it finds
older counts all n components).  Tree-independent: it replays the test
beside the store's own sweep.

usage: cd <tree> && PYTHONPATH=src python results/pr34/sweep_count.py
"""
from repro.apps.linear_solver import LinearSystem, SynchronousSolver
from repro.clocks import EQUAL
from repro.memory.local_store import LocalStore

counts = {"tests": 0, "writer": 0, "reach": 0}
original = LocalStore.invalidate_older_than

def counting(self, stamp, keep=None):
    if not (self._watermark_clean and self._watermark is not None
            and stamp.compare(self._watermark) <= EQUAL):
        s = stamp._components
        for location in self._sweep_candidates:
            entry = self._entries[location]
            t, w = entry.stamp._components, entry.writer
            counts["tests"] += 1
            if w >= 0 and t[w] > s[w]:
                counts["writer"] += 1
            # where strictly_less's left-to-right loop exits (1-based)
            for k, (x, y) in enumerate(zip(t, s), 1):
                if x > y:
                    break
            counts["reach"] += k
    return original(self, stamp, keep)

LocalStore.invalidate_older_than = counting
SynchronousSolver(LinearSystem.random(12, seed=1991), protocol="causal",
                  iterations=20, seed=1991, wait_mode="oracle").run()
print(f"{counts['tests']} line tests, {counts['writer']} decided by the "
      f"writer's component, left-to-right loop reaches component "
      f"{counts['reach'] / counts['tests']:.1f} on average")
