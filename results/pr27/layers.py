"""Per-layer medians of the traced `perf run` children that read the
codec, parent -> change, for both seeds.

usage: python <this directory>/layers.py PARENT_RESULTS CHANGE_RESULTS
(each a perf/results directory holding <label>-1991/ and <label>-2024/)
"""
import json
import sys

METRICS = [
    "wire.delta_hit_ratio", "wire.encode_us_per_msg", "wire.decode_us_per_msg",
    "wire.self_us_per_op", "engine.self_us_per_op", "clocks.self_us_per_op",
]


def median(entry):
    return entry["median"] if isinstance(entry, dict) else entry


parent_dir, change_dir = sys.argv[1:3]
for seed in (1991, 2024):
    parent = json.load(open(f"{parent_dir}/parent-{seed}/summary.json"))
    change = json.load(open(f"{change_dir}/change-{seed}/summary.json"))
    for workload in ("sim-wire", "live-cpu", "live-delay"):
        before = parent["workloads"][workload]["per_layer"]
        after = change["workloads"][workload]["per_layer"]
        for metric in METRICS:
            if metric in before:
                b, a = median(before[metric]), median(after[metric])
                print(f"{seed}  {workload:<11} {metric:<24} {b:9.4g} -> {a:9.4g}")
