"""One call of `repro.bench.bench_check_gate()` and one of its long arm.

usage: PYTHONPATH=<tree>/src python results/pr35/gates.py LABEL

Prints the call's (sim ops/s, check_causal ops/s, check_over_sim) and
the same for `bench_check_gate(rounds=3, ops_per_proc=1000)` (8 000-op
histories), the two things CI's check-gate job asserts on.
"""
import sys

from repro.bench import CHECK_GATE_RATIO, bench_check_gate

label = sys.argv[1]
for kwargs in ({}, {"rounds": 3, "ops_per_proc": 1000}):
    gate = bench_check_gate(**kwargs)
    assert gate["causal"]
    print(f"{label} rounds={gate['rounds']} ops={gate['ops']}: "
          f"sim {gate['sim_ops_per_sec']:,.0f} ops/s, "
          f"check {gate['check_ops_per_sec']:,.0f} ops/s, "
          f"check_over_sim {gate['check_over_sim']:.3f} "
          f"(CHECK_GATE_RATIO {CHECK_GATE_RATIO})", flush=True)
