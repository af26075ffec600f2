"""Alternating pairs of `python -m perf one`, parent tree against change tree.

usage: python results/pr22/pairs.py PARENT_DIR CHANGE_DIR WORKLOAD SEED [PAIRS]

Each side runs the benchmark's own command from its own checkout (`perf/`
is identical on both); the parent goes first on odd pairs.  Prints every
pair, then every end-to-end metric with quartiles, wins, the parent's
interquartile distance and the difference of the medians.
"""
import json
import statistics
import subprocess
import sys

parent_dir, change_dir, workload, seed = sys.argv[1:5]
pairs = int(sys.argv[5]) if len(sys.argv) > 5 else 10
command = [sys.executable, "-m", "perf", "one", "--workload", workload,
           "--seed", seed, "--seconds", "14", "--trace", "0"]
LOWER = {"setup_s", "op_latency_p50_ms", "op_latency_p99_ms", "cpu_us_per_op",
         "msgs_per_op", "model_bytes_per_op", "stamp_entries_per_op",
         "socket_bytes_per_op", "peak_rss_mb"}


def one(tree):
    out = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out)


print(f"## {workload} seed {seed}: {pairs} alternating pairs, "
      f"`python -m perf one --workload {workload} --seed {seed} "
      f"--seconds 14 --trace 0`")
print("pair  first    parent ops/s  change ops/s  ratio")
runs = {"parent": [], "change": []}
for pair in range(1, pairs + 1):
    order = ("parent", "change") if pair % 2 else ("change", "parent")
    got = {side: one(parent_dir if side == "parent" else change_dir)
           for side in order}
    for side in runs:
        runs[side].append(got[side])
    p, c = (got[s]["metrics"]["ops_per_s"]["value"] for s in ("parent", "change"))
    print(f"{pair:4d}  {order[0]:7s} {p:13.0f} {c:13.0f}  x{c / p:.3f}   "
          f"failed {got['parent']['failed']}/{got['change']['failed']} "
          f"correct {got['parent']['correct']}/{got['change']['correct']}",
          flush=True)

print()
print("metric                  parent q1/median/q3              "
      "change q1/median/q3              ratio   change wins")
for name in runs["parent"][0]["metrics"]:
    a = [r["metrics"][name]["value"] for r in runs["parent"]]
    b = [r["metrics"][name]["value"] for r in runs["change"]]
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    better = (lambda x, y: y < x) if name in LOWER else (lambda x, y: y > x)
    wins = sum(better(x, y) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    print(f"{name:22s} {qa[0]:10.4f} {qa[1]:10.4f} {qa[2]:10.4f}   "
          f"{qb[0]:10.4f} {qb[1]:10.4f} {qb[2]:10.4f}   x{qb[1] / qa[1]:.3f}  "
          f"{wins}/{pairs} (ties {ties})   parent IQR {qa[2] - qa[0]:.4f}, "
          f"median diff {abs(qb[1] - qa[1]):.4f}")
print()
