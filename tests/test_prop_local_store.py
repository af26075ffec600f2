"""Equivalence property: the optimised LocalStore == a naive reference.

The optimised store maintains incremental indexes and a sweep watermark
(`invalidate_older_than` may skip provably-no-op sweeps).  These tests
drive the optimised store and a naive reference implementation — the
seed's original double-pass algorithm over a plain dict — through
identical random operation sequences and demand byte-identical contents,
counters, and invalidation sets after every step, across many seeds and
both word- and page-granularity namespaces.

A second layer runs full random workloads (apps/workload.py) under a
page-granularity namespace and checks the executions remain causal —
the protocol-level guarantee the fast sweep must preserve.
"""

import random

import pytest

from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.checker import check_causal
from repro.clocks import VectorClock
from repro.memory.local_store import LocalStore, MemoryEntry
from repro.memory.namespace import Namespace

N_NODES = 3


class NaiveStore:
    """The seed's LocalStore semantics, verbatim, over a plain dict."""

    def __init__(self, node_id, namespace, n_nodes):
        self.node_id = node_id
        self.namespace = namespace
        self.n_nodes = n_nodes
        self.entries = {}
        self.invalidation_count = 0
        self.discard_count = 0

    def owns(self, location):
        return self.namespace.owns(self.node_id, location)

    def cached_locations(self):
        return {loc for loc in self.entries if not self.owns(loc)}

    def put(self, location, entry):
        self.entries[location] = entry

    def get(self, location):
        entry = self.entries.get(location)
        if entry is None and self.owns(location):
            entry = MemoryEntry(
                value=0, stamp=VectorClock.zero(self.n_nodes), writer=-1
            )
            self.entries[location] = entry
        return entry

    def invalidate(self, location):
        if location in self.entries:
            del self.entries[location]
            self.invalidation_count += 1

    def discard(self, location):
        if location in self.entries:
            del self.entries[location]
            self.discard_count += 1
            return True
        return False

    def discard_all(self):
        cached = list(self.cached_locations())
        for location in cached:
            del self.entries[location]
        self.discard_count += len(cached)
        return len(cached)

    def invalidate_older_than(self, stamp, keep=None):
        keep_set = set(keep or ())
        doomed_units = set()
        for location in self.cached_locations():
            if location in keep_set or self.namespace.is_read_only(location):
                continue
            if self.entries[location].stamp < stamp:
                doomed_units.add(self.namespace.unit(location))
        invalidated = []
        if not doomed_units:
            return invalidated
        for location in list(self.cached_locations()):
            if location in keep_set or self.namespace.is_read_only(location):
                continue
            if self.namespace.unit(location) in doomed_units:
                del self.entries[location]
                self.invalidation_count += 1
                invalidated.append(location)
        return invalidated


def word_namespace():
    """Identity units; node 0 owns 'own*' locations, node 1 the rest."""
    owners = {f"own{i}": 0 for i in range(3)}
    return Namespace.explicit(N_NODES, owners, default=1), (
        [f"own{i}" for i in range(3)]
        + [f"loc{i}" for i in range(8)]
    )


def paged_namespace():
    """Pages of two array slots; the 'x' pages owned by node 0."""
    paged = Namespace.array_paged(N_NODES, page_size=2)
    ns = Namespace(
        N_NODES,
        owner_fn=lambda unit: 0 if unit.startswith("x@") else 1,
        unit_fn=paged._unit_fn,
        read_only=("ro@",),
    )
    locations = (
        [f"x[{i}]" for i in range(4)]
        + [f"y[{i}]" for i in range(6)]
        + [f"ro[{i}]" for i in range(2)]
    )
    return ns, locations


def random_stamp(rng):
    return VectorClock([rng.randrange(0, 5) for _ in range(N_NODES)])


def drive(seed, namespace_factory, writers=range(N_NODES)):
    """One random op sequence applied to both stores, compared stepwise.

    ``writers`` is what a line's writer id is drawn from; the sweep
    tests that component first, and skips the test for the initial
    writer (-1)."""
    namespace, locations = namespace_factory()
    rng = random.Random(seed)
    fast = LocalStore(0, namespace, n_nodes=N_NODES)
    naive = NaiveStore(0, namespace, n_nodes=N_NODES)
    unowned = [loc for loc in locations if not naive.owns(loc)]
    for step in range(80):
        roll = rng.random()
        if roll < 0.45:
            location = rng.choice(locations)
            entry = MemoryEntry(
                value=rng.randrange(100),
                stamp=random_stamp(rng),
                writer=rng.choice(writers),
            )
            fast.put(location, entry)
            naive.put(location, entry)
        elif roll < 0.75:
            stamp = random_stamp(rng)
            keep = (
                rng.sample(unowned, k=rng.randrange(0, 3))
                if rng.random() < 0.4
                else None
            )
            got = fast.invalidate_older_than(stamp, keep=keep)
            want = naive.invalidate_older_than(stamp, keep=keep)
            assert sorted(got) == sorted(want), (seed, step, got, want)
        elif roll < 0.85:
            location = rng.choice(unowned)
            assert fast.discard(location) == naive.discard(location)
        elif roll < 0.92:
            location = rng.choice(unowned)
            fast.invalidate(location)
            naive.invalidate(location)
        elif roll < 0.97:
            location = rng.choice(locations)
            got, want = fast.get(location), naive.get(location)
            assert got == want, (seed, step, location, got, want)
        else:
            assert fast.discard_all() == naive.discard_all()
        # Byte-identical contents and accounting after every operation.
        assert fast._entries == naive.entries, (seed, step)
        assert fast.cached_locations() == naive.cached_locations(), (seed, step)
        assert fast.invalidation_count == naive.invalidation_count, (seed, step)
        assert fast.discard_count == naive.discard_count, (seed, step)


#: The second axis of the two lockstep properties used to pick the
#: writestamp-arena backend.  The arena is gone (DESIGN.md §4.9); the
#: labels stay only because the tier-1 floor pins these 100 ids, and
#: each now offsets the seed, so a property's 50 runs are 50 different
#: op sequences ("python" keeps the scripts both labels ran before).
SCRIPT_OFFSETS = {"python": 0, "numpy": 1000}


@pytest.mark.parametrize("script", list(SCRIPT_OFFSETS))
@pytest.mark.parametrize("seed", range(25))
def test_optimised_sweep_matches_naive_word_granularity(seed, script):
    drive(seed + SCRIPT_OFFSETS[script], word_namespace)


@pytest.mark.parametrize("script", list(SCRIPT_OFFSETS))
@pytest.mark.parametrize("seed", range(25))
def test_optimised_sweep_matches_naive_page_granularity(seed, script):
    drive(seed + SCRIPT_OFFSETS[script], paged_namespace)


@pytest.mark.parametrize(
    "namespace_factory", [word_namespace, paged_namespace], ids=["word", "page"]
)
@pytest.mark.parametrize("seed", range(25))
def test_writer_first_sweep_matches_naive_with_initial_writers(
    seed, namespace_factory
):
    """Lines written by anyone, the initial writer -1 included, under
    the sweep's writer-first test — word lines and page units alike."""
    drive(2000 + seed, namespace_factory, writers=range(-1, N_NODES))


def test_writer_first_test_is_only_a_reordering():
    namespace, _ = word_namespace()
    store = LocalStore(0, namespace, n_nodes=N_NODES)
    # Its writer's component decides: not older, whatever the others say.
    store.put("loc0", MemoryEntry(1, VectorClock((0, 3, 0)), writer=1))
    # Writer 2's component is equal; component 1 is the one that exceeds.
    store.put("loc1", MemoryEntry(2, VectorClock((0, 3, 1)), writer=2))
    # The initial writer has no component: the full test decides.
    store.put("loc2", MemoryEntry(3, VectorClock((0, 0, 0)), writer=-1))
    assert store.invalidate_older_than(VectorClock((1, 2, 1))) == ["loc2"]
    assert store.invalidate_older_than(VectorClock((1, 4, 1))) == ["loc0", "loc1"]


def test_watermark_actually_skips_redundant_sweeps():
    namespace, _ = word_namespace()
    store = LocalStore(0, namespace, n_nodes=N_NODES)
    store.put("loc0", MemoryEntry(1, VectorClock((0, 1, 0)), writer=1))
    stamp = VectorClock((1, 2, 1))
    assert store.invalidate_older_than(stamp) == ["loc0"]
    performed = store.sweeps_performed
    # Same (and dominated) stamps cannot invalidate anything further.
    assert store.invalidate_older_than(stamp) == []
    assert store.invalidate_older_than(VectorClock((1, 1, 1))) == []
    assert store.sweeps_performed == performed
    assert store.sweeps_skipped == 2
    # A cache install clears the guarantee: the next sweep must look.
    store.put("loc1", MemoryEntry(2, VectorClock((0, 0, 1)), writer=2))
    assert store.invalidate_older_than(stamp) == ["loc1"]
    assert store.sweeps_performed == performed + 1


def test_kept_survivor_disables_the_watermark_skip():
    namespace, _ = word_namespace()
    store = LocalStore(0, namespace, n_nodes=N_NODES)
    old = MemoryEntry(1, VectorClock((0, 1, 0)), writer=1)
    store.put("loc0", old)
    stamp = VectorClock((1, 2, 1))
    # First sweep keeps loc0 alive although it is older than the stamp.
    assert store.invalidate_older_than(stamp, keep=["loc0"]) == []
    # The repeat sweep without the keep must still remove it.
    assert store.invalidate_older_than(stamp) == ["loc0"]


@pytest.mark.parametrize("seed", range(8))
def test_page_granularity_workloads_stay_causal(seed):
    """Protocol-level guarantee: optimised sweeps preserve Definition 2."""
    n_nodes = 3
    paged = Namespace(
        n_nodes,
        unit_fn=lambda loc: f"page{int(loc[3:]) // 2}",
    )
    outcome = run_random_execution(
        WorkloadConfig(
            n_nodes=n_nodes, n_locations=6, ops_per_proc=15, seed=seed
        ),
        namespace=paged,
    )
    result = check_causal(outcome.history)
    assert result.ok, result.explain()
