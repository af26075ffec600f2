"""Per-layer medians of `sim-observed`'s traced child, parent -> change,
and `sim-observed` against its bypass `sim-mixed`, from `perf run`
summaries.

usage: python layers.py PARENT_SUMMARY CHANGE_SUMMARY
"""
import json
import sys

ROWS = (
    "monitor.self_us_per_op",
    "monitor.observe_p50_us",
    "monitor.observe_p99_us",
    "monitor.max_window",
    "monitor.gc_retired_per_op",
    "monitor.parked_share",
    "monitor.cache_hit_ratio",
    "obs.emit_us_per_event",
    "obs.events_per_op",
    "engine.self_us_per_op",
    "trace.overhead_ratio",
)

sides = [json.load(open(path))["workloads"] for path in sys.argv[1:3]]
print(f"{'sim-observed per-layer':28} {'parent':>12} {'change':>12} {'ratio':>8}")
for name in ROWS:
    parent, change = (s["sim-observed"]["per_layer"][name]["median"] for s in sides)
    ratio = f"x{change / parent:.3f}" if parent else "n/a"
    print(f"{name:28} {parent:12.4f} {change:12.4f} {ratio:>8}")
print()
for label, workloads in zip(("parent", "change"), sides):
    observed = workloads["sim-observed"]["end_to_end"]["ops_per_s"]["median"]
    mixed = workloads["sim-mixed"]["end_to_end"]["ops_per_s"]["median"]
    print(f"{label}: sim-observed / sim-mixed ops_per_s = "
          f"{observed:.0f} / {mixed:.0f} = {observed / mixed:.3f}")
