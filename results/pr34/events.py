"""Kernel events per op, a count that repeats exactly: every input
instance perf's `sim-solver` and `sim-mixed` workloads draw for a seed,
run once at full size, with the messages and a digest of the outputs
(perf's own per-repeat fingerprints) beside the events.

usage: cd <tree> && PYTHONPATH=src:. python results/pr34/events.py SEED...
"""
import hashlib
import sys

from perf.spec import WORKLOADS
from perf.workloads import make_runner

for seed in map(int, sys.argv[1:]):
    for name in ("sim-solver", "sim-mixed"):
        spec = next(w for w in WORKLOADS if w.name == name)
        runner = make_runner(spec, seed)
        ops = msgs = events = 0
        digest = hashlib.sha1()
        for instance in range(spec.instances):
            repeat = runner.execute(runner.prepare(spec.size, instance))
            ops += repeat.ops
            msgs += repeat.msgs
            events += repeat.counters["kernel_events"]
            digest.update(repeat.fingerprint.encode())
        print(f"{name} seed {seed}: {spec.instances} instances, {ops} ops, "
              f"{msgs} msgs, {events} kernel events, "
              f"{events / ops:.4f} events/op, outputs {digest.hexdigest()[:12]}")
