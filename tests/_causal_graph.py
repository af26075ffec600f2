"""Section 2's causality by plain graph search, for the tests to trust.

:class:`repro.checker.CausalOrder` and the streaming monitor both answer
``*->`` on vector clocks and share one between-ness test, so agreeing
with each other says nothing about either.  This module is what they
are held against: the edges the paper names — program order, reads-from,
and each initial write to each process's first operation — and a
depth-first search over them, nothing else from ``repro.checker`` but
the history it reads.
"""

from repro.checker.history import History, Operation


class CausalGraph:
    """``*->`` of one history, by searching its edges backwards."""

    def __init__(self, history: History):
        self.history = history
        self.ops = history.operations(include_init=True)
        # op_id -> in-edges other than its own reads-from one.
        self._preds = {op.op_id: [] for op in self.ops}
        self._rf = {}  # a read's op_id -> its source's op_id
        for ops in history.processes:
            if ops:
                self._preds[ops[0].op_id] += [w.op_id for w in history.init_writes]
            for earlier, later in zip(ops, ops[1:]):
                self._preds[later.op_id].append(earlier.op_id)
            for op in ops:
                if op.is_read:
                    self._rf[op.op_id] = history.write_by_id(op.read_from).op_id
        self._memo = {}

    def ancestors(self, op: Operation, exclude_rf: bool = False) -> frozenset:
        """The op_ids with a path to ``op``; with ``exclude_rf``, a path
        that does not end in ``op``'s own reads-from edge."""
        key = (op.op_id, exclude_rf)
        if key not in self._memo:
            stack = list(self._preds[op.op_id])
            if not exclude_rf and op.op_id in self._rf:
                stack.append(self._rf[op.op_id])
            seen = set()
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack += self._preds[node]
                if node in self._rf:
                    stack.append(self._rf[node])
            self._memo[key] = frozenset(seen)
        return self._memo[key]

    def precedes(self, a: Operation, b: Operation) -> bool:
        """``a *-> b``: a path of one or more edges from ``a`` to ``b``."""
        return a.op_id in self.ancestors(b)

    def precedes_excluding_rf(self, a: Operation, read: Operation) -> bool:
        """``a *-> read`` with ``read``'s own reads-from edge left out."""
        return a.op_id in self.ancestors(read, exclude_rf=True)

    def cycle_members(self) -> list:
        """Operations on a cycle or after one, in history order."""
        cyclic = {op.op_id for op in self.ops if op.op_id in self.ancestors(op)}
        return [
            op for op in self.ops
            if op.op_id in cyclic or cyclic & self.ancestors(op)
        ]


def _source(op: Operation):
    return op.write_id if op.is_write else op.read_from


def reference_live_set(graph: CausalGraph, read: Operation) -> list:
    """Definition 1 read off the page, one graph query per pair: the
    writes of ``read``'s location, in history order, that the read does
    not precede and that no operation carrying another value separates
    from it."""
    on_location = [
        op for op in graph.ops
        if op.location == read.location and op.op_id != read.op_id
    ]
    live = []
    for write in on_location:
        if not write.is_write or graph.precedes(read, write):
            continue
        if graph.precedes_excluding_rf(write, read) and any(
            _source(between) != write.write_id
            and graph.precedes(write, between)
            and graph.precedes_excluding_rf(between, read)
            for between in on_location
        ):
            continue  # another value served notice in between
        live.append(write)
    return live
