"""E18's claim and the CI check gate.

E18's delta-stamp claim is measured here on its own burst workload, and
:func:`repro.bench.bench_check_gate` runs at toy size: the ratio itself
is CI's to assert, tier-1 reads no clock.
"""

import pytest


def test_e18_fast_path_claim_at_n8():
    """E18 (DESIGN.md experiment index): at n = 8 on the mixed workload
    with write bursts, delta stamps cut stamp entries per op by at least
    30 % (measured 54.3 %) and bytes per op by at least 15 % (measured
    39.8 % since a delta carries steps) while changing no message: equal
    counts, equal histories."""
    from repro.protocols.base import DSMCluster

    n_nodes, ops_per_proc = 8, 120

    def process(api, me):
        for i in range(ops_per_proc):
            step = i % 6
            if step < 2:
                # Back-to-back writes to the processor's hot location
                # (a solver updating its component).
                yield api.write(f"loc{me}", i)
            elif step == 2:
                yield api.write(f"loc{me}.{i % 4}", i)
            else:
                yield api.read(f"loc{(me + i) % n_nodes}")

    def run(delta_stamps):
        cluster = DSMCluster(
            n_nodes, protocol="causal", seed=5, delta_stamps=delta_stamps
        )
        for node in range(n_nodes):
            cluster.spawn(node, process, node)
        cluster.run()
        return cluster

    full, delta = run(False), run(True)
    assert delta.stats.total == full.stats.total == 1708
    assert delta.history().to_text() == full.history().to_text()
    # Same op count on both sides, so totals compare as per-op figures.
    assert 1 - delta.stats.stamp_entries / full.stats.stamp_entries >= 0.30
    assert 1 - delta.stats.bytes_total / full.stats.bytes_total >= 0.15


def test_the_ci_check_gate_runs_at_toy_size(monkeypatch):
    """`bench_check_gate` as CI's `check-gate` job calls it, smaller, on
    a scripted clock: ``check_over_sim`` is the median of the per-round
    ratios, not the ratio of the two sides' medians."""
    import repro.bench as bench

    # Per round: start, simulated, checked.  Round one simulates for 1 s
    # and checks for 0.5 s (ratio 2), round two 2 s and 0.25 s (ratio 8).
    ticks = iter([0.0, 1.0, 1.5, 10.0, 12.0, 12.25])
    monkeypatch.setattr(
        bench, "time", type("Clock", (), {"perf_counter": lambda: next(ticks)})
    )
    gate = bench.bench_check_gate(rounds=2, ops_per_proc=20)
    assert gate["causal"] and gate["ops"] == 160 and gate["rounds"] == 2
    assert gate["sim_ops_per_sec"] == pytest.approx((160 + 80) / 2)
    assert gate["check_ops_per_sec"] == pytest.approx((320 + 640) / 2)
    assert gate["check_over_sim"] == pytest.approx((2 + 8) / 2)  # not 4
    assert bench.CHECK_GATE_RATIO > 1  # verifying is cheaper than producing


def test_the_ci_long_history_gate_runs_at_toy_size():
    """The `check-gate` job's second call (`rounds=3, ops_per_proc=1000`:
    verifying an 8 000-op run stays cheaper than producing it), smaller;
    the ratio itself is CI's to assert, tier-1 reads no clock."""
    from repro.bench import bench_check_gate

    gate = bench_check_gate(rounds=3, ops_per_proc=40)
    assert gate["causal"] and gate["ops"] == 320 and gate["rounds"] == 3
    assert gate["check_over_sim"] > 0
