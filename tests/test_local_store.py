"""Unit tests for the local memory M_i (owned entries, cache, sweeps)."""

import pytest

from repro.clocks import VectorClock
from repro.errors import ClockError, MemoryError_
from repro.memory.local_store import INITIAL_WRITER, LocalStore, MemoryEntry
from repro.memory.namespace import Namespace


def make_store(node=0, n=2, namespace=None, initial=0):
    ns = namespace or Namespace.explicit(n, {"mine": node, "theirs": 1 - node})
    return LocalStore(node, ns, n_nodes=n, initial_value=initial)


def entry(value, components, writer=1):
    return MemoryEntry(value=value, stamp=VectorClock(components), writer=writer)


class TestOwnedLocations:
    def test_owned_location_synthesizes_initial_entry(self):
        store = make_store()
        initial = store.get("mine")
        assert initial.value == 0
        assert initial.writer == INITIAL_WRITER
        assert initial.stamp == VectorClock.zero(2)

    def test_custom_initial_value(self):
        store = make_store(initial="λ")
        assert store.get("mine").value == "λ"

    def test_unowned_absent_location_is_bottom(self):
        store = make_store()
        assert store.get("theirs") is None
        assert not store.is_valid("theirs")

    def test_owned_always_valid(self):
        store = make_store()
        assert store.is_valid("mine")
        assert "mine" in store

    def test_cannot_invalidate_owned(self):
        store = make_store()
        with pytest.raises(MemoryError_):
            store.invalidate("mine")

    def test_cannot_discard_owned(self):
        store = make_store()
        with pytest.raises(MemoryError_):
            store.discard("mine")


class TestCacheManagement:
    def test_put_and_get(self):
        store = make_store()
        store.put("theirs", entry(5, (0, 1)))
        assert store.get("theirs").value == 5
        assert store.is_valid("theirs")

    def test_cached_locations_excludes_owned(self):
        store = make_store()
        store.put("mine", entry(1, (1, 0), writer=0))
        store.put("theirs", entry(2, (0, 1)))
        assert store.cached_locations() == {"theirs"}
        assert store.owned_locations() == {"mine"}

    def test_invalidate_removes_entry(self):
        store = make_store()
        store.put("theirs", entry(5, (0, 1)))
        store.invalidate("theirs")
        assert store.get("theirs") is None
        assert store.invalidation_count == 1

    def test_invalidate_absent_is_noop(self):
        store = make_store()
        store.invalidate("theirs")
        assert store.invalidation_count == 0

    def test_discard_returns_presence(self):
        store = make_store()
        store.put("theirs", entry(5, (0, 1)))
        assert store.discard("theirs") is True
        assert store.discard("theirs") is False
        assert store.discard_count == 1

    def test_discard_all(self):
        ns = Namespace.explicit(2, {"a": 1, "b": 1, "mine": 0})
        store = LocalStore(0, ns, n_nodes=2)
        store.put("a", entry(1, (0, 1)))
        store.put("b", entry(2, (0, 2)))
        assert store.discard_all() == 2
        assert store.cached_locations() == set()


class TestInvalidationSweep:
    """Figure 4's `forall y in C_i : M_i[y].VT < VT' => invalidate`."""

    def make(self):
        ns = Namespace.explicit(
            2, {"old": 1, "new": 1, "conc": 1, "mine": 0},
        )
        store = LocalStore(0, ns, n_nodes=2)
        store.put("old", entry(1, (0, 1)))
        store.put("conc", entry(2, (3, 0), writer=0))
        return store

    def test_strictly_older_swept(self):
        store = self.make()
        swept = store.invalidate_older_than(VectorClock((1, 2)))
        assert swept == ["old"]
        assert store.get("old") is None

    def test_concurrent_survives(self):
        store = self.make()
        store.invalidate_older_than(VectorClock((1, 2)))
        assert store.get("conc") is not None

    def test_equal_stamp_survives(self):
        store = self.make()
        store.invalidate_older_than(VectorClock((0, 1)))
        assert store.get("old") is not None  # equal, not strictly less

    def test_owned_never_swept(self):
        store = self.make()
        store.put("mine", entry(9, (1, 0), writer=0))
        store.invalidate_older_than(VectorClock((9, 9)))
        assert store.get("mine").value == 9

    def test_keep_set_respected(self):
        store = self.make()
        store.invalidate_older_than(VectorClock((9, 9)), keep=["old"])
        assert store.get("old") is not None
        assert store.get("conc") is None

    def test_read_only_survives_sweep(self):
        ns = Namespace.explicit(2, {"A[0]": 1, "x": 1}, read_only=("A[",))
        store = LocalStore(0, ns, n_nodes=2)
        store.put("A[0]", entry(1.5, (0, 1)))
        store.put("x", entry(2, (0, 1)))
        swept = store.invalidate_older_than(VectorClock((5, 5)))
        assert swept == ["x"]
        assert store.get("A[0]") is not None

    @pytest.mark.parametrize("wrong", ["stamp", "line"])
    def test_wrong_dimension_raises_and_changes_nothing(self, wrong):
        """A stamp, or one cached line, of another dimension is refused
        before anything is removed — with more lines cached than the
        eight from which the sweep used to run as a batched mask."""
        ns = Namespace.explicit(2, {f"loc{i}": 1 for i in range(10)})
        store = LocalStore(0, ns, n_nodes=2)
        for i in range(10):
            store.put(f"loc{i}", entry(i, (0, i)))
        assert store.invalidate_older_than(VectorClock((0, 3))) == [
            "loc0", "loc1", "loc2",
        ]
        # A fresh install: the next sweep may not skip on the watermark.
        store.put("loc0", entry(0, (0, 0)))
        stamp = VectorClock((1, 9))  # strictly newer than every line
        if wrong == "stamp":
            stamp = VectorClock((1, 9, 9))
        else:
            store.put("loc1", entry(1, (0, 1, 0)))  # scanned last

        def state():
            return (
                dict(store._entries), store.cached_locations(),
                store._watermark, store._watermark_clean,
                store.sweeps_performed, store.sweeps_skipped,
                store.invalidation_count,
            )

        before = state()
        with pytest.raises(ClockError):
            store.invalidate_older_than(stamp)
        assert state() == before
        assert before[2:] == (VectorClock((0, 3)), False, 1, 0, 3)


class TestPageGranularitySweep:
    def test_whole_unit_invalidated_together(self):
        ns = Namespace.array_paged(2, page_size=2)
        # force ownership away from node 0 for the page
        ns_explicit = Namespace(
            2,
            owner_fn=lambda unit: 1,
            unit_fn=ns._unit_fn,
        )
        store = LocalStore(0, ns_explicit, n_nodes=2)
        store.put("x[0]", entry(1, (0, 1)))   # old
        store.put("x[1]", entry(2, (5, 5)))   # fresh, same page
        store.put("y[0]", entry(3, (5, 5)))   # fresh, other page
        swept = store.invalidate_older_than(VectorClock((2, 2)))
        # the whole x page goes because x[0] was older
        assert set(swept) == {"x[0]", "x[1]"}
        assert store.get("y[0]") is not None

    def test_locations_in_unit(self):
        ns = Namespace(2, owner_fn=lambda u: 1,
                       unit_fn=lambda loc: loc.split("[")[0])
        store = LocalStore(0, ns, n_nodes=2)
        store.put("x[0]", entry(1, (0, 1)))
        store.put("x[1]", entry(2, (0, 2)))
        store.put("y[0]", entry(3, (0, 3)))
        assert sorted(store.locations_in_unit("x")) == ["x[0]", "x[1]"]


class TestEntry:
    def test_older_than_is_strict_vector_order(self):
        e = entry(1, (1, 1))
        assert e.older_than(VectorClock((2, 2)))
        assert not e.older_than(VectorClock((1, 1)))
        assert not e.older_than(VectorClock((0, 5)))
