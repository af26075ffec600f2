"""Eight calls of `repro.bench.bench_check_gate()` (PR 15's method), then
three of the long-history arm CI asserts (`rounds=3, ops_per_proc=1000`).

usage: PYTHONPATH=<tree>/src python results/pr22/gate.py
"""
import statistics

from repro.bench import bench_check_gate

ratios = []
for _ in range(8):
    gate = bench_check_gate()
    ratios.append(gate["check_over_sim"])
    print((round(gate["sim_ops_per_sec"]), round(gate["check_ops_per_sec"]),
           round(gate["check_over_sim"], 3)), flush=True)
print("median of eight", round(statistics.median(ratios), 3))
for _ in range(3):
    gate = bench_check_gate(rounds=3, ops_per_proc=1000)
    print("8000 ops:", (round(gate["sim_ops_per_sec"]),
                        round(gate["check_ops_per_sec"]),
                        round(gate["check_over_sim"], 3)), flush=True)
