"""A clock-free cost: bytecode instructions executed per operation
(`sys.settrace` with `f_trace_opcodes`), which repeats exactly where this
host's wall clock swings by 10 %.  Three programs: a 2-node loop of read
misses and one of read hits (the engine's two read paths), the Figure 6
solver (n = 6, 6 iterations — sim-solver's shape, smaller), and
`check_causal` on check-offline's first four inputs per seed (the checker is
untouched; its input is the engine's output).

usage: cd <tree> && PYTHONPATH=src:. python results/pr23/opcodes.py
"""
import sys

from repro.memory import Namespace
from repro.protocols.base import DSMCluster


def counted(call):
    count = [0]

    def tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            count[0] += 1
        return tracer

    sys.settrace(tracer)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return count[0], result


def loop(kind, n):
    cluster = DSMCluster(
        2, protocol="causal", namespace=Namespace.explicit(2, {"x": 0, "y": 1})
    )

    def process(api):
        if kind == "hit":
            yield api.read("x")
        for _ in range(n):
            if kind == "miss":
                api.discard("x")
            yield api.read("x")

    cluster.spawn(1, process)
    return counted(cluster.run)[0]


for kind in ("miss", "hit"):
    print(f"read {kind}: {(loop(kind, 300) - loop(kind, 100)) / 200:.1f} opcodes per read")

from repro.apps.linear_solver import LinearSystem, SynchronousSolver

solver = SynchronousSolver(
    LinearSystem.random(6, seed=1991), protocol="causal", iterations=6,
    seed=1991, wait_mode="oracle",
)
opcodes, _ = counted(solver.run)
ops = sum(n.stats.reads + n.stats.writes for n in solver.cluster.nodes)
print(f"solver n=6: {ops} ops, {solver.cluster.stats.total} msgs, "
      f"{opcodes / ops:.1f} opcodes per op")

import repro.checker as checker
from perf.spec import WORKLOADS
from perf.workloads import make_runner

spec = next(w for w in WORKLOADS if w.name == "check-offline")
total_ops = total_opcodes = 0
for seed in (1991, 2024):
    runner = make_runner(spec, seed)
    for instance in range(4):
        history = runner.prepare(spec.size, instance).history
        opcodes, result = counted(lambda: checker.check_causal(history))
        assert result.ok
        total_ops += len(history)
        total_opcodes += opcodes
print(f"check_causal on check-offline's inputs: {total_ops} ops, "
      f"{total_opcodes / total_ops:.1f} opcodes per op")
