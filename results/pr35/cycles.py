"""Cycle members and verdicts of 3 000 random histories, as one digest.

usage: PYTHONPATH=<tree>/src python results/pr35/cycles.py

`random_history` draws (n = 2..5 processes, 1..3 locations, 3..12 ops
each, seeds 10 000..12 999), many of them cyclic.  Per history the
digest takes the cycle members in the order `CausalityCycleError`
lists them, or every read's verdict with its ordered live set.
"""
import hashlib
import random

from repro.checker import check_causal, random_history

total, cyclic = hashlib.sha256(), 0
for seed in range(10_000, 13_000):
    rng = random.Random(seed)
    history = random_history(
        seed, n_procs=rng.randint(2, 5), n_locations=rng.randint(1, 3),
        ops_per_proc=rng.randint(3, 12),
    )
    result = check_causal(history)
    if result.cycle is not None:
        cyclic += 1
        text = repr([op.op_id for op in result.cycle.cycle_members])
    else:
        text = repr([
            (v.read.op_id, tuple(w.write_id for w in v.live_writes), v.ok)
            for v in result.verdicts
        ])
    total.update(text.encode())
print(f"3000 histories, {cyclic} cyclic: sha256 {total.hexdigest()}")
