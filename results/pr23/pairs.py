"""Summarise alternating `perf one` pairs: lines `<pair> <side> <json>` as
written by the loop in README.md.  Per metric: each side's median and
quartiles, the ratio of medians, and in how many pairs the change read
better.

usage: python results/pr23/pairs.py FILE METRIC[:lower|higher] ...
"""
import json
import statistics
import sys


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


runs = {"parent": [], "change": []}
for line in open(sys.argv[1]):
    pair, side, payload = line.split(" ", 2)
    runs[side].append(json.loads(payload))
for side, outputs in runs.items():
    bad = [o for o in outputs if not o["correct"] or o["failed"]]
    print(f"{side}: {len(outputs)} runs, {len(bad)} incorrect or with failed ops")
for spec in sys.argv[2:]:
    metric, _, better = spec.partition(":")
    sides = {
        side: [o["metrics"][metric]["value"] for o in outputs]
        for side, outputs in runs.items()
    }
    wins = sum(
        (c < p) if better != "higher" else (c > p)
        for p, c in zip(sides["parent"], sides["change"])
    )
    ties = sum(p == c for p, c in zip(sides["parent"], sides["change"]))
    (pq1, pm, pq3), (cq1, cm, cq3) = (quartiles(sides[s]) for s in ("parent", "change"))
    print(f"{metric}: parent {pm:.5g} [{pq1:.5g}, {pq3:.5g}]  "
          f"change {cm:.5g} [{cq1:.5g}, {cq3:.5g}]  x{cm / pm:.4f}  "
          f"change better in {wins}/{len(sides['parent'])} pairs ({ties} ties); "
          f"parent IQR {pq3 - pq1:.4g} vs median diff {abs(cm - pm):.4g}")
