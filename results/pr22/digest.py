"""Digests of every `ReadVerdict`, to compare between two checkouts.

usage (from a checkout's root, so `src/` and `perf/` are that checkout's):
  python results/pr22/digest.py SEED
      the 16 `check-offline` instances of SEED, built the way `perf` does
      (`perf.workloads.make_runner`)
  python results/pr22/digest.py reference TESTS_DIR
      the reference set of TESTS_DIR/test_checker_index.py: its 1 200
      generated histories and their rewired twins, then its 48 contended
      ones and theirs (a cyclic history hashes as "cycle")

Each verdict is hashed as `(read, live_writes in order, ok)`.
"""
import hashlib
import random
import sys

sys.path.insert(0, ".")
sys.path.insert(0, "src")
from perf.spec import WORKLOADS  # noqa: E402
from perf.workloads import make_runner  # noqa: E402
from repro.checker import check_causal  # noqa: E402



def verdict_text(result) -> bytes:
    if result.cycle is not None:
        return b"cycle"
    return repr([
        (v.read, tuple(w.write_id for w in v.live_writes), v.ok)
        for v in result.verdicts
    ]).encode()


if sys.argv[1] == "reference":
    sys.path.insert(0, sys.argv[2])
    import test_checker_index as t
    from repro.checker import random_history

    for name, count, rng, make in (
        ("generated", 1200, random.Random(15), lambda seed: random_history(
            seed=seed, **t.SHAPES[seed % len(t.SHAPES)])),
        ("contended", 48, random.Random(22), lambda seed: t.interleaved_history(
            seed, stale=(0.0, 0.1, 0.5)[seed // len(t.CONTENDED) % 3],
            **t.CONTENDED[seed % len(t.CONTENDED)])),
    ):
        total, verdicts, cyclic = hashlib.sha256(), 0, 0
        for seed in range(count):
            history = make(seed)
            for h in (history, t.rewire_one_read(history, rng)):
                result = check_causal(h)
                total.update(verdict_text(result))
                verdicts += len(result.verdicts)
                cyclic += result.cycle is not None
        print(f"{name}: {2 * count} histories ({cyclic} cyclic), "
              f"{verdicts} verdicts: sha256 {total.hexdigest()}")
    sys.exit(0)

seed = int(sys.argv[1])
spec = next(w for w in WORKLOADS if w.name == "check-offline")
runner = make_runner(spec, seed)
total = hashlib.sha256()
for instance in range(spec.instances):
    recorded = runner.prepare(spec.size, instance)
    result = check_causal(recorded.history)
    text = verdict_text(result)
    total.update(text)
    print(f"seed {seed} instance {instance:2d}: {len(recorded.history)} ops "
          f"{len(result.verdicts)} verdicts ok={result.ok} "
          f"sha256 {hashlib.sha256(text).hexdigest()[:16]}")
print(f"seed {seed} all 16 instances: sha256 {total.hexdigest()}")
