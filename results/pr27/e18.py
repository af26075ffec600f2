"""E18's burst workload (tests/test_bench_runner.py), delta stamps off / on,
at n = 8 and n = 16: messages, bytes/op, stamp entries/op, and the cut.

usage: PYTHONPATH=<tree>/src python <this directory>/e18.py
"""
from repro.protocols.base import DSMCluster


def run(n_nodes, ops_per_proc, delta_stamps):
    cluster = DSMCluster(n_nodes, protocol="causal", seed=5, delta_stamps=delta_stamps)

    def process(api, me):
        for i in range(ops_per_proc):
            step = i % 6
            if step < 2:
                yield api.write(f"loc{me}", i)
            elif step == 2:
                yield api.write(f"loc{me}.{i % 4}", i)
            else:
                yield api.read(f"loc{(me + i) % n_nodes}")

    for node in range(n_nodes):
        cluster.spawn(node, process, node)
    cluster.run()
    return cluster


print("| n | arm | messages | bytes/op | stamp entries/op | bytes vs baseline | entries vs baseline |")
print("|---|---|---|---|---|---|---|")
for n in (8, 16):
    ops = n * 120
    full, delta = run(n, 120, False), run(n, 120, True)
    assert full.history().to_text() == delta.history().to_text()
    for arm, c in (("baseline", full), ("delta", delta)):
        s = c.stats
        print(f"| {n} | {arm} | {s.total} | {s.bytes_total / ops:.1f} | "
              f"{s.stamp_entries / ops:.2f} | "
              f"{100 * (s.bytes_total / full.stats.bytes_total - 1):+.1f}% | "
              f"{100 * (s.stamp_entries / full.stats.stamp_entries - 1):+.1f}% |")
