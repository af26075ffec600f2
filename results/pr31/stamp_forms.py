"""How `sim-wire`'s stamps travel: full, sparse delta, dense delta or
empty delta, and the step width of each delta, over all stamps and for
a W_REPLY's own stamp, on the benchmark's own instances of a seed, built
by perf's runner.  The form is read off each stamp's u16 prefix, so the
script runs on a tree before step deltas too (there, every delta reads
as "sparse" and its width as "counters").

usage: PYTHONPATH=<tree>/src:. python <this directory>/stamp_forms.py SEED
"""
import sys
from collections import Counter

from perf.spec import WORKLOADS
from perf.workloads import make_runner
from repro.apps.workload import run_random_execution
from repro.protocols import wire

FORMS = ("full", "sparse", "dense", "empty")
forms, replies, widths, seen = Counter(), Counter(), Counter(), []
stamp, encode = wire._SendState.stamp, wire.WireCodec.encode
steps = getattr(wire, "_DENSE_FLAG", None) is not None


def form_of(out):
    word = int.from_bytes(out[:2], "big")
    if word & 0x8000:
        return "full"
    if not word:
        return "empty"
    if steps:
        widths["i8 i16 i32".split()[(word >> 12) & 3]] += 1
    else:
        widths["counters"] += 1
    return "dense" if steps and word & 0x4000 else "sparse"


def counted_stamp(self, clock):
    out = stamp(self, clock)
    seen.append(form_of(out))
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
        f"{k} {counts[k]} ({counts[k] / total:.1%})" for k in FORMS))
total = sum(widths.values())
print(f"seed {seed}, delta step widths, {total}: " + ", ".join(
    f"{k} {v} ({v / total:.1%})" for k, v in sorted(widths.items())))
