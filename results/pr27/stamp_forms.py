"""How `sim-wire`'s stamps travel: empty delta (the channel-identical
short-circuit, or a W_REPLY equal to its WRITE), delta, full — over all
stamps and for a W_REPLY's own stamp — on the benchmark's own instances
of a seed, built by perf's runner.

usage: PYTHONPATH=<tree>/src:. python <this directory>/stamp_forms.py SEED
"""
import sys
from collections import Counter

from perf.spec import WORKLOADS
from perf.workloads import make_runner
from repro.apps.workload import run_random_execution
from repro.protocols import wire

forms, replies, seen = Counter(), Counter(), []
stamp, encode = wire._SendState.stamp, wire.WireCodec.encode


def counted_stamp(self, clock):
    out = stamp(self, clock)
    seen.append("empty" if out == wire._EMPTY_DELTA
                else "full" if out[0] & 0x80 else "delta")
    forms[seen[-1]] += 1
    return out


def counted_encode(self, src, dst, message):
    seen.clear()
    frame = encode(self, src, dst, message)
    if message.kind == "W_REPLY":
        replies[seen[0]] += 1  # the reply's own stamp comes first
    return frame


wire._SendState.stamp = counted_stamp
wire.WireCodec.encode = counted_encode
seed = int(sys.argv[1])
spec = next(w for w in WORKLOADS if w.name == "sim-wire")
runner = make_runner(spec, seed)
for instance in range(spec.instances):
    run_random_execution(runner.prepare(spec.size, instance))
for label, counts in (("all stamps", forms), ("W_REPLY own stamp", replies)):
    total = sum(counts.values())
    print(f"seed {seed}, {label}, {total}: " + ", ".join(
        f"{k} {counts[k]} ({counts[k] / total:.1%})"
        for k in ("empty", "delta", "full")))
