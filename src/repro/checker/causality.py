"""The causality relation over a history.

Section 2 of the paper: causality (``->``) is the union of two rules —
program order (successive operations of one process) and reads-from (a
read is caused by the write it reads) — and ``*->`` is the transitive
closure.  Operations unrelated by ``*->`` are *concurrent*.  Initial
writes causally precede every operation of every process.

A :class:`CausalOrder` is the one place a history is indexed, once per
check.  Construction materializes ``*->`` as two bitsets per operation
(one Python int each, bit ``i`` standing for ``ops[i]``): its strict
descendants, from a backward pass over a topological order, and its
strict ancestors, from a forward pass over the same order.  ``precedes``
is then one bit test.  On first use it also groups the operations by
location (:class:`LocationOps`: every op, the candidate writes, the ops
carrying each write's value), in one pass.  Definition 1
(:mod:`repro.checker.live_values`) is mask arithmetic over that index;
nothing there walks the history again.

Definition 1 considers a read's causal past *excluding the reads-from
edge established by that read itself*.  A read's only other incoming
edges are its program-order predecessor (and the initial writes, for a
process's first operation), so that past is the union of those
predecessors' reflexive ancestor sets — :meth:`CausalOrder.past_mask`,
one OR per predecessor — and :meth:`CausalOrder.precedes_excluding_rf`
is the per-pair form of the same statement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.checker.history import History, INIT_PROC, Operation
from repro.errors import CheckError

__all__ = ["CausalOrder", "CausalityCycleError", "LocationOps"]

OpId = Tuple[int, int]


@dataclass(frozen=True)
class LocationOps:
    """Bitset view of all operations touching one location.

    ``indices`` are positions in :attr:`CausalOrder.ops`; ``mask`` is
    their union as a bitset; ``source_masks`` groups the same positions
    by the write whose value each op carries (the write itself plus every
    read of it) — the paper's "serves notice" exclusion, precomputed so
    the live-set check is pure bit arithmetic.

    ``writes`` are the location's candidate writes, initial write first,
    in the order ``History.writes(location)`` yields them (which is
    ascending position, so walking a sub-mask of ``writes_mask`` from
    its lowest bit visits candidates in candidate order);
    ``write_position`` maps a write's position in ``ops`` to its place
    among the candidates.
    """

    indices: Tuple[int, ...] = ()
    mask: int = 0
    source_masks: Dict[Any, int] = field(default_factory=dict)
    writes: Tuple[Operation, ...] = ()
    writes_mask: int = 0
    write_position: Dict[int, int] = field(default_factory=dict)


class CausalityCycleError(CheckError):
    """The history's causality relation is cyclic.

    A cyclic ``*->`` means some read reads from a write that causally
    follows it (e.g. a process reading its *own later* write) — such an
    execution is trivially incorrect on causal memory, since "writes that
    causally follow o are never live for o".
    """

    def __init__(self, cycle_members: List[Operation]):
        self.cycle_members = cycle_members
        ops = ", ".join(str(op) for op in cycle_members[:8])
        suffix = "..." if len(cycle_members) > 8 else ""
        super().__init__(f"causality relation is cyclic: {ops}{suffix}")


class CausalOrder:
    """Precomputed ``->`` edges and ``*->`` reachability for a history.

    Raises
    ------
    CausalityCycleError
        If program order plus reads-from contains a cycle.
    """

    def __init__(self, history: History):
        self.history = history
        self.ops: List[Operation] = history.operations(include_init=True)
        self._pos: Dict[OpId, int] = {
            op.op_id: i for i, op in enumerate(self.ops)
        }
        self._succ: List[List[int]] = [[] for _ in self.ops]
        self._pred_non_rf: List[List[int]] = [[] for _ in self.ops]
        self._rf_pred: List[Optional[int]] = [None] * len(self.ops)
        self._build_edges()
        self._desc, self._anc = self._transitive_closure()
        # Non-rf predecessor bitset per op (Definition 1's "excluding the
        # reads-from ordering established by o itself" reduces to
        # reachability into these — see precedes_excluding_rf).
        self._pred_non_rf_mask: List[int] = [
            _mask_of(preds) for preds in self._pred_non_rf
        ]
        # Per op, the bitset of everything below its program-order chain:
        # ``ops`` lists the initial writes (a chain each), then each
        # process's operations as one contiguous run.
        self._below: List[int] = [
            (1 << i) - 1 for i in range(len(history.init_writes))
        ]
        for ops in history.processes:
            self._below += [(1 << len(self._below)) - 1] * len(ops)
        self._loc_ops: Optional[Dict[str, LocationOps]] = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _build_edges(self) -> None:
        history = self.history
        # Rule 1: program order.
        for ops in history.processes:
            for earlier, later in zip(ops, ops[1:]):
                self._add_edge(earlier.op_id, later.op_id, is_rf=False)
        # Initial writes precede the first operation of every process.
        for init_write in history.init_writes:
            for ops in history.processes:
                if ops:
                    self._add_edge(init_write.op_id, ops[0].op_id, is_rf=False)
        # Rule 2: reads-from.
        for op in self.ops:
            if op.is_read:
                source = history.write_by_id(op.read_from)
                self._add_edge(source.op_id, op.op_id, is_rf=True)

    def _add_edge(self, src: OpId, dst: OpId, is_rf: bool) -> None:
        i, j = self._pos[src], self._pos[dst]
        if i == j:
            raise CausalityCycleError([self.ops[i]])
        self._succ[i].append(j)
        if is_rf:
            # If the reads-from source is also the program-order
            # predecessor, the program-order edge remains in the
            # "excluding rf" view — record rf separately.
            self._rf_pred[j] = i
        else:
            self._pred_non_rf[j].append(i)

    # ------------------------------------------------------------------
    # Transitive closure (bitsets over a topological order)
    # ------------------------------------------------------------------
    def _transitive_closure(self) -> Tuple[List[int], List[int]]:
        """Strict descendant and strict ancestor bitsets of every op."""
        n = len(self.ops)
        indegree = [0] * n
        for succs in self._succ:
            for j in succs:
                indegree[j] += 1
        queue = deque(i for i in range(n) if indegree[i] == 0)
        topo: List[int] = []
        while queue:
            i = queue.popleft()
            topo.append(i)
            for j in self._succ[i]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    queue.append(j)
        if len(topo) != n:
            members = [self.ops[i] for i in range(n) if indegree[i] > 0]
            raise CausalityCycleError(members)
        desc = [0] * n
        for i in reversed(topo):
            bits = 0
            for j in self._succ[i]:
                bits |= desc[j] | (1 << j)
            desc[i] = bits
        anc = [0] * n
        for i in topo:
            bits = anc[i] | (1 << i)
            for j in self._succ[i]:
                anc[j] |= bits
        return desc, anc

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def index_of(self, op: Operation) -> int:
        """Internal index of an operation (stable across queries)."""
        try:
            return self._pos[op.op_id]
        except KeyError:
            raise CheckError(f"{op} is not part of this history") from None

    def precedes(self, a: Operation, b: Operation) -> bool:
        """``a *-> b`` (strict: an operation does not precede itself)."""
        i, j = self.index_of(a), self.index_of(b)
        return bool(self._desc[i] >> j & 1)

    def concurrent(self, a: Operation, b: Operation) -> bool:
        """Neither ``a *-> b`` nor ``b *-> a`` (and ``a != b``)."""
        if a.op_id == b.op_id:
            return False
        return not self.precedes(a, b) and not self.precedes(b, a)

    def precedes_excluding_rf(self, a: Operation, read: Operation) -> bool:
        """``a *-> read`` in the graph without ``read``'s reads-from edge.

        Definition 1 considers "all the causal relationships in the
        execution except the reads-from ordering established by o itself".
        A read's other in-edges are its program-order predecessor and (for
        first operations) the initial writes, so reachability reduces to
        reaching one of those.
        """
        if not read.is_read:
            raise CheckError(f"{read} is not a read operation")
        j = self.index_of(read)
        i = self.index_of(a)
        return bool((self._desc[i] | (1 << i)) & self._pred_non_rf_mask[j])

    # ------------------------------------------------------------------
    # Bitset accessors (the live-set computation runs on these)
    # ------------------------------------------------------------------
    def ancestor_mask(self, index: int) -> int:
        """Bitset of strict ``*->`` ancestors of the op at ``index``."""
        return self._anc[index]

    def past_mask(self, index: int) -> int:
        """Bitset of the ops that ``*->`` the op at ``index`` once its
        own reads-from edge is left out: its non-reads-from predecessors
        and everything before them."""
        anc = self._anc
        bits = self._pred_non_rf_mask[index]
        for p in self._pred_non_rf[index]:
            bits |= anc[p]
        return bits

    def frontier_writes(self, past: int, loc: LocationOps) -> Set[int]:
        """The only writes of ``loc`` in ``past`` that can pass condition 2.

        A past write survives only if every same-location past op after
        it carries its value; the ``*->``-maximal such op is the last
        past op of its program-order chain, so the survivors are among
        the sources of those chain tips — at most one per process plus
        the initial write, however long the history.  Tips are peeled
        from the top: the highest remaining bit, then everything below
        its chain.
        """
        rf_pred, position, below = self._rf_pred, loc.write_position, self._below
        found: Set[int] = set()
        rest = past & loc.mask
        while rest:
            tip = rest.bit_length() - 1
            rest &= below[tip]  # drop the rest of the tip's chain
            source = rf_pred[tip]
            if source is None:
                found.add(tip)
            elif source in position:  # a write of this location only
                found.add(source)
        return found

    def live_mask(self, index: int, loc: LocationOps) -> int:
        """Definition 1 for the read at ``index``: ``loc``'s live writes."""
        past, desc = self.past_mask(index), self._desc
        # Same-location ops that reach the read with its rf edge excluded
        # (candidates for condition 2's intervening operation o'').
        reaching = past & loc.mask
        # Condition 1: neither following the read nor in its past.
        live = loc.writes_mask & ~past & ~desc[index]
        # Condition 2: an intervening same-location op between a past write
        # and the read serves notice unless it carries that write's value.
        ops, source_masks = self.ops, loc.source_masks
        for i in self.frontier_writes(past, loc):
            if not desc[i] & reaching & ~source_masks[ops[i].write_id]:
                live |= 1 << i
        return live

    def location_ops(self, location: str) -> LocationOps:
        """The precomputed :class:`LocationOps` for ``location``.

        Built lazily for *all* locations in one pass over the history on
        first use, then served from cache; an unknown location gets an
        empty view.
        """
        table = self._loc_ops
        if table is None:
            table = self._index_locations()
        return table.get(location, _NO_OPS)

    def _index_locations(self) -> Dict[str, LocationOps]:
        grouped: Dict[str, Tuple[List[int], Dict[Any, int], List[int]]] = {}
        for i, op in enumerate(self.ops):
            entry = grouped.get(op.location)
            if entry is None:
                entry = grouped[op.location] = ([], {}, [])
            entry[0].append(i)
            if op.is_write:
                source = op.write_id
                entry[2].append(i)
            else:
                source = op.read_from
            entry[1][source] = entry[1].get(source, 0) | (1 << i)
        ops = self.ops
        table = {
            location: LocationOps(
                indices=tuple(indices),
                mask=_mask_of(indices),
                source_masks=sources,
                writes=tuple(ops[i] for i in writes),
                writes_mask=_mask_of(writes),
                write_position={i: p for p, i in enumerate(writes)},
            )
            for location, (indices, sources, writes) in grouped.items()
        }
        self._loc_ops = table
        return table

    def followers(self, op: Operation) -> List[Operation]:
        """All operations ``b`` with ``op *-> b`` (diagnostics)."""
        i = self.index_of(op)
        bits = self._desc[i]
        return [self.ops[j] for j in bit_indices(bits)]


_NO_OPS = LocationOps()


def _mask_of(indices: Iterable[int]) -> int:
    bits = 0
    for index in indices:
        bits |= 1 << index
    return bits


def bit_indices(bits: int) -> Iterator[int]:
    """Positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low
