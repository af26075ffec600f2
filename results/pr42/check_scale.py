"""`check_causal` by process count: µs per op, and what it decided.

usage: PYTHONPATH=<tree>/src:. python results/pr42/check_scale.py [REPEATS]
(from inside <tree>, so that `perf.machine` is importable)

One recorded causal-owner run per n in (8, 64, 256), `n_locations =
2n`, seed 1991, 8 960 operations each (1 120, 140 and 35 per process).
Per n it prints the median and the best of REPEATS (default 5) timings
of `check_causal` alone, in µs per op as measured and as scaled to the
benchmark's reference machine by `perf.machine.spin_mops` (the mean of
one calibration before and one after the timings).

The digests cover the run and two copies of it, each with one read in
fifty rewired: "stale" reads an earlier write of its source's writer to
the same location (or the initial write), which adds no causal path, so
the copy stays acyclic and some reads are rejected; "rewired" reads any
other write of the location, which closes a cycle.  Per history a digest
takes the cycle members in the order `CausalityCycleError` lists them,
else every read's op id, verdict and ordered live set.  Two trees that
decide alike print the same digest lines.
"""
import hashlib
import random
import statistics
import sys
import time

from perf.machine import scaled_time, spin_mops
from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.checker import History, check_causal
from repro.checker.history import Operation

TOTAL_OPS = 8960


def rewired(history: History, seed: int, stale: bool) -> History:
    """``history`` with one read in fifty reading another write."""
    rng = random.Random(seed)
    processes = [list(ops) for ops in history.processes]
    for read in history.reads()[::50]:
        writes = history.writes(location=read.location)
        if stale:
            source = history.write_by_id(read.read_from)
            others = [
                write for write in writes
                if write.proc == source.proc and write.index < source.index
            ] or writes[:1]
        else:
            others = [w for w in writes if w.write_id != read.read_from]
        if others:
            source = rng.choice(others)
            processes[read.proc][read.index] = Operation(
                read.proc, read.index, "r", read.location, source.value,
                read_from=source.write_id,
            )
    return History(processes, locations=history.locations)


def digest(history: History) -> str:
    result = check_causal(history)
    if result.cycle is not None:
        text = repr(("cycle", [op.op_id for op in result.cycle.cycle_members]))
        counts = f"cycle of {len(result.cycle.cycle_members)}"
    else:
        text = repr([
            (v.read.op_id, v.ok, tuple(w.write_id for w in v.live_writes))
            for v in result.verdicts
        ])
        counts = f"{len(result.verdicts)} reads, {len(result.violations)} rejected"
    return f"{counts}, sha256 {hashlib.sha256(text.encode()).hexdigest()[:16]}"


repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
for n in (8, 64, 256):
    history = run_random_execution(WorkloadConfig(
        n_nodes=n, n_locations=2 * n, ops_per_proc=TOTAL_OPS // n, seed=1991,
    )).history
    ops = len(history)
    before = spin_mops()
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = check_causal(history)
        timings.append((time.perf_counter() - started) / ops * 1e6)
    spin = (before + spin_mops()) / 2
    assert result.ok
    median, best = statistics.median(timings), min(timings)
    print(
        f"n={n} {ops} ops: check_causal median {median:.2f} best {best:.2f} "
        f"us/op; scaled median {scaled_time(median, spin):.2f} "
        f"best {scaled_time(best, spin):.2f} us/op (spin {spin:.1f} Mops)",
        flush=True,
    )
    print(f"  run:     {digest(history)}", flush=True)
    print(f"  stale:   {digest(rewired(history, n, True))}", flush=True)
    print(f"  rewired: {digest(rewired(history, n, False))}", flush=True)
