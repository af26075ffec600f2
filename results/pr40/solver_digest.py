"""The 32 ``sim-solver`` instances of seeds 1991 and 2024, on one tree.

For each instance perf's solver runner draws for a seed: run it once at
full size, let perf's own ``inspect`` decide ``failed``, and hash
(fingerprint, msgs, model bytes, stamp entries, failed) into one digest
per seed.  Beside it: a digest of every generated system's bytes
(``A`` in C order, then ``b``), one of the reference solutions'
(``exact_solution()``) bytes, and the largest ``max_error``.  Two trees
whose ``runs`` and ``systems`` digests agree solved the same systems to
the same bytes with the same messages; ``exact`` tells whether their
reference solves agree to the bit.

usage: cd <tree> && PYTHONPATH=src:. python <this directory>/solver_digest.py [SEED...]
"""
import hashlib
import sys
from array import array

from perf.spec import WORKLOADS_BY_NAME
from perf.workloads import make_runner

spec = WORKLOADS_BY_NAME["sim-solver"]
for seed in map(int, sys.argv[1:] or (1991, 2024)):
    runner = make_runner(spec, seed)
    runs = hashlib.sha1()
    systems = hashlib.sha1()
    exacts = hashlib.sha1()
    worst = 0.0
    for instance in range(spec.instances):
        inputs = runner.prepare(spec.size, instance)
        system = inputs[0]
        systems.update(array("d", [v for row in system.a for v in row]).tobytes())
        systems.update(array("d", list(system.b)).tobytes())
        exacts.update(array("d", list(system.exact_solution())).tobytes())
        repeat = runner.execute(inputs)
        runner.inspect(repeat, instance, check_history=False)
        runs.update(repr((repeat.fingerprint, repeat.msgs, repeat.model_bytes,
                          repeat.stamp_entries, repeat.failed)).encode())
        worst = max(worst, repeat.counters["max_error"])
    print(f"seed {seed}: {spec.instances} instances, runs {runs.hexdigest()[:16]}, "
          f"systems {systems.hexdigest()[:16]}, exact {exacts.hexdigest()[:16]}, "
          f"largest max_error {worst:.4g}")
