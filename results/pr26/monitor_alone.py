"""The streaming monitor alone, on recorded commit streams.

`record` runs four owner-protocol workloads of the `sim-observed` shape
(8 processes, 16 locations, 1 600 ops per process; seeds 1991, 2024, 7,
11) and saves each one's `proto.op.commit` stream, in commit order.
`digest` feeds every stream at `gc_interval` 1, 8 and 64 to a monitor
with a reader recording each verdict's `(proc, index, ok, live, vt)` and
prints the verdict flag, `max_window`, `gc_retired`, `reads_checked` and
a SHA-1 of that list (and asserts an unread monitor ends the same).
`time` feeds all four streams five times at `gc_interval` 64 with no
reader and prints the best µs per op; `--profile` adds a cProfile table.

usage: python monitor_alone.py TREE STREAMS.pkl record|digest|time [--profile]

TREE is a checkout whose `src/` is imported; record with one tree and
digest or time any number of them on the same file.
"""
import hashlib
import pickle
import sys
import time

tree, streams_path, command = sys.argv[1:4]
sys.path.insert(0, f"{tree}/src")

from repro.monitor import CausalStreamMonitor  # noqa: E402


def record():
    import repro.apps.workload as workload
    from repro.obs.collector import TraceCollector

    streams = []
    for seed in (1991, 2024, 7, 11):
        stream = []

        def keep(event):
            args = event.args
            source = args["source"]
            stream.append((
                event.node, args["kind"], args["location"], args["value"],
                tuple(source) if isinstance(source, list) else source,
            ))

        class Recorded(workload.DSMCluster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                collector = TraceCollector(keep_events=False)
                self.attach_obs(collector)
                collector.subscribe(keep, category="proto", name="op.commit")

        original, workload.DSMCluster = workload.DSMCluster, Recorded
        try:
            workload.run_random_execution(workload.WorkloadConfig(
                n_nodes=8, n_locations=16, ops_per_proc=1600,
                protocol="causal", seed=seed,
            ))
        finally:
            workload.DSMCluster = original
        streams.append(stream)
    with open(streams_path, "wb") as out:
        pickle.dump(streams, out)
    print("recorded", [len(s) for s in streams], "ops")


def feed(stream, gc_interval, read=False):
    seen = []
    monitor = CausalStreamMonitor(
        8, gc_interval=gc_interval,
        on_verdict=(
            lambda v: seen.append((v.op.proc, v.op.index, v.ok, v.live, v.vt))
        ) if read else None,
    )
    feed_op = monitor.feed_op
    for op in stream:
        feed_op(*op)
    return monitor.result(), seen


if command == "record":
    record()
    sys.exit()
with open(streams_path, "rb") as source:
    streams = pickle.load(source)
if command == "digest":
    for gc_interval in (1, 8, 64):
        for stream in streams:
            result, seen = feed(stream, gc_interval, read=True)
            unread, _ = feed(stream, gc_interval)
            ends = (result.ok, result.max_window, result.gc_retired)
            assert ends == (unread.ok, unread.max_window, unread.gc_retired)
            print(gc_interval, *ends, result.reads_checked,
                  hashlib.sha1(repr(seen).encode()).hexdigest()[:12])
elif command == "time":
    if "--profile" in sys.argv:
        import cProfile
        import pstats

        profile = cProfile.Profile()
        profile.runcall(feed, streams[0], 64)
        pstats.Stats(profile).sort_stats("tottime").print_stats(10)
    per_op = []
    for _ in range(5):
        started = time.perf_counter()
        for stream in streams:
            feed(stream, 64)
        per_op.append(
            (time.perf_counter() - started) / sum(map(len, streams)) * 1e6
        )
    print(f"best {min(per_op):.2f} us/op of", [round(t, 2) for t in per_op])
