"""The fuzz of tests/test_write_behind.py::test_fuzzing_finds_violations_somewhere
over 300 seeds: how many unsafe write-behind runs record a history `History`
refuses, how many the checker rejects, and how many rejected reads are
credited to a write whose value they did not return.

usage: PYTHONPATH=<tree>/src python results/pr22/write_behind_fuzz.py
"""
from repro.checker import check_causal
from repro.errors import HistoryError
from repro.protocols.base import DSMCluster
from repro.sim.latency import UniformLatency


def run(seed):
    cluster = DSMCluster(4, protocol="causal", seed=seed,
                         latency=UniformLatency(0.5, 12.0),
                         unsafe_write_behind=True)

    def process(api, proc):
        rng = cluster.sim.derived_rng(f"wb-{proc}")
        counter = 0
        for _ in range(20):
            location = f"loc{rng.randrange(4)}"
            roll = rng.random()
            if roll < 0.2:
                api.discard(location)
                yield api.read(location)
            elif roll < 0.6:
                yield api.read(location)
            else:
                counter += 1
                yield api.write(location, f"n{proc}v{counter}")

    for proc in range(4):
        cluster.spawn(proc, process, proc)
    cluster.run()
    return cluster.history()


refused, rejected, causal = [], [], 0
for seed in range(300):
    try:
        history = run(seed)
    except HistoryError as error:
        refused.append(seed)
        if seed < 25:
            print(f"seed {seed}: refused: {error}")
        continue
    result = check_causal(history)
    if result.ok:
        causal += 1
        continue
    miscredited = sum(
        history.write_by_id(v.read.read_from).value != v.read.value
        for v in result.violations
    )
    rejected.append(seed)
    if seed < 25 or miscredited:
        print(f"seed {seed}: {len(result.violations)} reads rejected, "
              f"{miscredited} of them credited to a write of another value")
print(f"300 seeds: {len(refused)} histories refused {refused}, "
      f"{len(rejected)} rejected by check_causal {rejected}, {causal} causal")
print(f"first 25 seeds: {sum(s < 25 for s in refused)} refused, "
      f"{sum(s < 25 for s in rejected)} rejected")
