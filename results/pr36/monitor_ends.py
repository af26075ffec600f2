"""What the streaming monitor ends with, per recorded commit stream.

usage: python results/pr36/monitor_ends.py TREE STREAMS.pkl

STREAMS.pkl is written by `results/pr26/monitor_alone.py TREE STREAMS.pkl
record` (four owner-protocol `sim-observed`-shaped runs, 12 800 commits
each).  Each stream is fed at `gc_interval` 1, 8 and 64 to a monitor
whose reader records every verdict's `(proc, index, ok, live, vt)`.
Printed per run: the verdict flag, `ops_processed`, `reads_checked`,
`max_window`, `gc_retired`, a SHA-1 of the final frontier, a SHA-1 of
the verdicts sorted by `(proc, index)` and one of the verdicts in the
order the reader received them.
"""
import hashlib
import pickle
import sys

tree, streams_path = sys.argv[1:3]
sys.path.insert(0, f"{tree}/src")

from repro.monitor import CausalStreamMonitor  # noqa: E402


def sha(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:12]


with open(streams_path, "rb") as source:
    streams = pickle.load(source)
for gc_interval in (1, 8, 64):
    for stream in streams:
        seen = []
        monitor = CausalStreamMonitor(
            8, gc_interval=gc_interval,
            on_verdict=lambda v: seen.append(
                (v.op.proc, v.op.index, v.ok, v.live, v.vt)
            ),
        )
        for op in stream:
            monitor.feed_op(*op)
        result = monitor.result()
        print(gc_interval, result.ok, result.ops_processed,
              result.reads_checked, result.max_window, result.gc_retired,
              "frontier", sha(result.frontier), "sorted", sha(sorted(seen)),
              "arrival", sha(seen))
