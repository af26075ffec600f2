"""The write-behind fuzz of tests/test_write_behind.py as a census: each
of its 60 seeds is refused (``History`` will not build the run's
history), violated (``check_causal`` rejects it) or clean, with each refusal's
reason and, for violated runs, the reads credited to a write of another
value.

Runs on either side of the change: it uses ``write_behind`` from
``repro.harness.scenarios`` when the tree has it, and otherwise the
constructor option that mutant replaced.

With the argument ``blocking`` the same seeds run on the shipped,
blocking engine instead.

usage: PYTHONPATH=<tree>/src python results/pr29/write_behind_fuzz.py [blocking]
"""
import sys
from collections import Counter

from repro.checker import check_causal
from repro.errors import HistoryError
from repro.protocols.base import DSMCluster
from repro.sim.latency import UniformLatency

try:
    from repro.harness.scenarios import write_behind
except ImportError:
    write_behind = None


def run(seed):
    kwargs = dict(seed=seed, latency=UniformLatency(0.5, 12.0))
    if BLOCKING:
        cluster = DSMCluster(4, protocol="causal", **kwargs)
    elif write_behind is None:
        cluster = DSMCluster(4, protocol="causal",
                             unsafe_write_behind=True, **kwargs)
    else:
        cluster = write_behind(DSMCluster(4, protocol="causal", **kwargs))

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


BLOCKING = sys.argv[1:] == ["blocking"]
print("engine:", "blocking (Figure 4)" if BLOCKING else
      "write_behind(cluster)" if write_behind else
      "DSMCluster(unsafe_write_behind=True)")
census = Counter()
for seed in range(60):
    try:
        history = run(seed)
    except HistoryError as error:
        census["refused"] += 1
        print(f"seed {seed:2d}: refused: {error}")
        continue
    result = check_causal(history)
    if result.ok:
        census["clean"] += 1
        continue
    census["violated"] += 1
    miscredited = sum(
        history.write_by_id(v.read.read_from).value != v.read.value
        for v in result.violations
    )
    print(f"seed {seed:2d}: violated: {len(result.violations)} reads "
          f"rejected, {miscredited} credited to a write of another value")
print(f"(refused, violated, clean) = "
      f"({census['refused']}, {census['violated']}, {census['clean']})")
