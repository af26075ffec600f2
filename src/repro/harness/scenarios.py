"""Deterministic scenario runs reproducing the paper's figures live.

The checker validates the figures as *written histories*; the functions
here go one step further and make the *protocols* produce (or refuse to
produce) those histories in the simulator:

* :func:`run_figure3_on_broadcast` — drives the causal-broadcast memory
  into exactly the Figure 3 execution, demonstrating that ISIS-style
  causal broadcasting is not causal memory;
* :func:`run_figure5_on_causal` — the owner protocol (P1 owning ``x``,
  P2 owning ``y``) naturally yields Figure 5's weakly consistent
  execution, which no strongly consistent memory admits;
* :func:`run_dictionary_delete_race` — the Section 4.2 race: a stale
  concurrent delete against an owner's newer insert, with either
  resolution policy;
* :func:`run_discard_liveness` — the Section 3.1 remark that without
  ``discard`` two self-owning writers never communicate;
* :func:`run_write_behind_race` — E13, on :func:`write_behind`'s
  deliberately wrong nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, List, Optional, Tuple

from repro.apps.dictionary import FREE, DictionaryCluster
from repro.apps.figures import program_process
from repro.checker.history import History
from repro.errors import ProtocolError
from repro.memory import Namespace
from repro.memory.local_store import MemoryEntry
from repro.protocols.base import DSMCluster, WriteOutcome
from repro.protocols.causal_owner import CausalOwnerNode
from repro.protocols.messages import WriteReply
from repro.protocols.policies import ConflictPolicy
from repro.runtime.scenarios import run_scenario_sim
from repro.sim.tasks import Future, sleep

__all__ = [
    "run_figure3_on_broadcast",
    "run_figure5_on_causal",
    "run_dictionary_delete_race",
    "run_discard_liveness",
    "run_write_behind_race",
    "write_behind",
    "WriteBehindNode",
    "DeleteRaceOutcome",
    "LivenessOutcome",
]


def run_figure3_on_broadcast(seed: int = 0) -> History:
    """Drive causal-broadcast memory into the Figure 3 execution.

    The returned history is exactly Figure 3 (the ``fig3`` program of
    :mod:`repro.apps.figures`), and ``check_causal`` rejects it.
    """
    return run_scenario_sim("fig3", seed=seed)


def run_figure5_on_causal(seed: int = 0) -> History:
    """The owner protocol produces Figure 5's weakly consistent execution.

    ``r(y)0 w(x)1 r(y)0`` against ``r(x)0 w(y)1 r(x)0`` (the ``fig5``
    program of :mod:`repro.apps.figures`): causal but not sequentially
    consistent.
    """
    return run_scenario_sim("fig5", seed=seed)


class WriteBehindNode(CausalOwnerNode):
    """E13's mutant: Figure 4 with remote writes that do not block.

    A write to a location another node owns completes at once with a
    tentative line under the writer's own stamp; the ``W_REPLY`` only
    merges the clock and restamps that line.  This breaks causal memory,
    which is why Figure 4's writes block.
    """

    def write(self, location: str, value: Any) -> Future:
        future = super().write(location, value)
        if not future.resolved:  # sent to the owner: complete it now
            del self._flight[next(reversed(self._pending_writes))]
            entry = MemoryEntry(value, self.vt, self.node_id)
            if not self.no_cache:
                self.store.put(location, entry)
            self._record_write(location, value, entry)
            future.resolve(WriteOutcome(location=location, value=value))
        return future

    def _complete_write(self, msg: WriteReply) -> None:
        self._pending_writes.pop(msg.request_id)
        self.vt = self.vt.update(msg.stamp)  # VT_i := update(VT_i, VT')
        self._note_stamp(msg.stamp, own=True)
        if msg.applied and not self.no_cache:
            me = self.node_id
            cached = self.store.get(msg.location)
            # The same write (writer and own component match): restamp it.
            mine = cached is not None and cached.writer == me
            if mine and cached.stamp[me] == msg.stamp[me]:
                self.store.restamp(msg.location, msg.stamp)


def write_behind(cluster: DSMCluster) -> DSMCluster:
    """Turn one built causal cluster's nodes into E13's mutant."""
    for node in cluster.nodes:
        if type(node) is not CausalOwnerNode:
            raise ProtocolError("write-behind mutates the causal protocol only")
        node.__class__ = WriteBehindNode
    return cluster


def run_write_behind_race(unsafe: bool, seed: int = 0) -> History:
    """Why Figure 4's writes block ("reducing the blocking of processors").

    P1 writes ``x`` (owned by P0, over a slow link) and then ``y``
    (owned by P2, fast link).  P2 sees ``y``'s new value and reads
    ``x``.  With blocking writes the write of ``x`` completed before
    ``y`` was even issued, so P2's read fetches the new ``x``.  With
    write-behind (``unsafe=True``) the write of ``y`` overtakes the
    in-flight write of ``x`` and P2 observes::

        P2: r(y)2 r(x)0

    even though ``w(x)1 *-> w(y)2`` — the initial value of ``x`` is no
    longer live, a causal-memory violation the checker catches.
    """
    from repro.sim.latency import PerLinkLatency

    latency = PerLinkLatency(default=1.0, links={(1, 0): 25.0})
    namespace = Namespace.explicit(3, {"x": 0, "y": 2})
    cluster = DSMCluster(
        3, protocol="causal", seed=seed, latency=latency, namespace=namespace
    )
    if unsafe:
        write_behind(cluster)

    # x certifies slowly at P0, y fast at P2 — where the observer waits.
    writer = (("w", "x", 1), ("w", "y", 2))
    observer = (("await", "y", 2), ("r", "y"), ("r", "x"))
    cluster.spawn(1, program_process, writer, name="writer")
    cluster.spawn(2, program_process, observer, name="observer")
    cluster.run()
    return cluster.history()


@dataclass(frozen=True)
class DeleteRaceOutcome:
    """Result of the Section 4.2 concurrent-delete scenario."""

    policy: str
    survivor_items: FrozenSet[Any]
    new_item_survived: bool
    delete_was_rejected: bool
    history_is_causal: bool


def run_dictionary_delete_race(
    policy: Optional[ConflictPolicy] = None, seed: int = 0
) -> DeleteRaceOutcome:
    """The stale-delete race of Section 4.2, under a chosen policy.

    Timeline (simulated time):

    * t=0  — P0 inserts ``"x"`` into slot (0,0) of its own row;
    * t=5  — P1 refreshes and looks up ``"x"`` (caches slot (0,0));
    * t=10 — P0 deletes ``"x"`` and inserts ``"y"``, reusing slot (0,0);
    * t=15 — P1, still holding the stale cached slot, deletes ``"x"`` —
      its write of the free marker reaches the owner *concurrent* with
      the owner's insert of ``"y"``.

    With the paper's owner-favoured policy the delete is rejected and
    ``"y"`` survives; with last-writer-wins the stale delete destroys
    ``"y"`` — the anomaly the policy exists to prevent.
    """
    dictionary = DictionaryCluster(n=2, m=3, seed=seed, policy=policy)
    sim = dictionary.cluster.sim

    def p0(api):
        yield from dictionary.insert(api, "x")
        yield sleep(sim, 10.0)
        yield from dictionary.delete(api, "x")
        yield from dictionary.insert(api, "y")

    def p1(api):
        yield sleep(sim, 5.0)
        dictionary.refresh(api)
        found = yield from dictionary.lookup(api, "x")
        assert found, "P1 must observe the insert before the race"
        yield sleep(sim, 10.0)
        # Stale view: the cached slot still holds "x"; delete it.
        yield from dictionary.delete(api, "x")

    dictionary.spawn(0, p0, name="P0")
    dictionary.spawn(1, p1, name="P1")
    dictionary.run()

    survivors = dictionary.authoritative_items()
    rejected = sum(
        node.stats.rejected_writes for node in dictionary.cluster.nodes
    )
    from repro.checker import check_causal

    return DeleteRaceOutcome(
        policy=dictionary.policy.describe(),
        survivor_items=survivors,
        new_item_survived="y" in survivors,
        delete_was_rejected=rejected > 0,
        history_is_causal=check_causal(dictionary.history()).ok,
    )


@dataclass(frozen=True)
class LivenessOutcome:
    """Result of the discard-liveness demonstration (Section 3.1)."""

    with_discard: bool
    rounds: int
    messages_after_warmup: int
    final_observed: Tuple[Any, Any]
    final_authoritative: Tuple[Any, Any]

    @property
    def observed_fresh_values(self) -> bool:
        """Did each node ever see the other's final value?"""
        return self.final_observed == self.final_authoritative


def run_discard_liveness(
    with_discard: bool, rounds: int = 10, seed: int = 0
) -> LivenessOutcome:
    """Two nodes, each owning one location, caching the other's.

    Each node repeatedly writes its own location (a counter) and reads
    the other's.  After the initial fetch, *all* its reads hit the
    cache: "without discard two processors that initially cache all
    locations and only write locations owned by them need never
    communicate" (Section 3.1) — so each observes the other frozen at
    the first value.  With a discard before each read, every round
    fetches fresh values at two messages a round.
    """
    namespace = Namespace.explicit(2, {"a": 0, "b": 1})
    cluster = DSMCluster(
        n_nodes=2, protocol="causal", seed=seed, namespace=namespace
    )
    observed: dict = {}

    def node(api, me: int, mine: str, theirs: str):
        yield api.read(theirs)  # warm the cache
        last = None
        for round_no in range(rounds):
            yield api.write(mine, round_no + 1)
            if with_discard:
                api.discard(theirs)
            last = yield api.read(theirs)
            yield sleep(cluster.sim, 1.0)
        observed[me] = last

    cluster.spawn(0, node, 0, "a", "b", name="N0")
    cluster.spawn(1, node, 1, "b", "a", name="N1")
    warmup_snapshot_total = 4  # two initial fetches, 2 messages each
    cluster.run()
    authoritative = (
        cluster.nodes[1].store.get("b").value,  # what N0 should see
        cluster.nodes[0].store.get("a").value,  # what N1 should see
    )
    return LivenessOutcome(
        with_discard=with_discard,
        rounds=rounds,
        messages_after_warmup=cluster.stats.total - warmup_snapshot_total,
        final_observed=(observed[0], observed[1]),
        final_authoritative=authoritative,
    )
