"""The history fingerprint and message count of every `sim-wire` instance
of a seed, built by perf's own runner (one line per instance).  Equal
output on two trees means the change moved no operation and no message.

usage: PYTHONPATH=<tree>/src:. python <this directory>/fingerprints.py SEED
"""
import sys

from perf.spec import WORKLOADS
from perf.workloads import make_runner

seed = int(sys.argv[1])
spec = next(w for w in WORKLOADS if w.name == "sim-wire")
runner = make_runner(spec, seed)
for instance in range(spec.instances):
    repeat = runner.execute(runner.prepare(spec.size, instance))
    print(f"{seed} instance {instance:2}: {repeat.fingerprint} "
          f"{repeat.msgs} msgs {repeat.ops} ops")
