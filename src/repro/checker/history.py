"""Operation histories.

A history is what the paper calls an *execution*: one sequence of read and
write operations per process.  This module provides:

* :class:`Operation` — ``r(x)v`` / ``w(x)v`` with process and position;
* :class:`History` — validated histories with explicit or inferred
  reads-from, plus the distinguished initial writes the paper assumes
  ("all locations are initialized by writes of a distinguished value that
  precede all operations in any process sequence");
* a parser for the paper's own notation, so the figures can be written
  down verbatim::

      History.parse('''
          P1: w(x)1 w(y)2 r(y)2 r(x)1
          P2: w(z)1 r(y)2 r(x)1
      ''')

* :class:`HistoryRecorder` — the sink protocol engines write into, with
  *explicit* reads-from identities (the simulator knows exactly which
  write produced every value it returns, so recorded histories need no
  unique-values assumption).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import HistoryError

__all__ = [
    "Operation",
    "History",
    "HistoryRecorder",
    "INIT_PROC",
    "initial_write_id",
]

#: Process id of the virtual process performing the initial writes.
INIT_PROC = -1

READ = "r"
WRITE = "w"

_OP_RE = re.compile(r"^(?P<kind>[rw])\((?P<loc>[^()]+)\)(?P<value>\S+)$")
_PROC_RE = re.compile(r"^\s*(?P<name>\w+)\s*:\s*(?P<ops>.*)$")


def initial_write_id(location: str) -> Tuple:
    """The write identity of the distinguished initial write to a location."""
    return ("init", location)


@dataclass(frozen=True)
class Operation:
    """One read or write operation in a history.

    ``write_id`` (writes) is a globally unique, hashable identity; reads
    carry ``read_from``, the identity of the write they read.  The pair
    ``(proc, index)`` identifies the operation itself.
    """

    proc: int
    index: int
    kind: str
    location: str
    value: Any
    write_id: Optional[Tuple] = None
    read_from: Optional[Tuple] = None

    @property
    def op_id(self) -> Tuple[int, int]:
        """Unique (process, position) identity of this operation."""
        return (self.proc, self.index)

    @property
    def is_read(self) -> bool:
        return self.kind == READ

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE

    def __str__(self) -> str:
        proc = "Pinit" if self.proc == INIT_PROC else f"P{self.proc + 1}"
        return f"{proc}.{self.kind}({self.location}){self.value}"


class History:
    """A validated multi-process execution.

    Use :meth:`parse` for paper-notation text, :meth:`from_operations`
    for programmatic construction, or :class:`HistoryRecorder` to capture
    protocol runs.
    """

    #: ``(reads, writes by location)`` over the application operations,
    #: built by the first :meth:`reads` / :meth:`writes` call — never by
    #: the constructor, which sits on every recorded run's path.
    _kind_index: Optional[
        Tuple[List[Operation], Dict[str, List[Operation]]]
    ] = None

    def __init__(
        self,
        processes: List[List[Operation]],
        initial_value: Any = 0,
        locations: Optional[Iterable[str]] = None,
    ):
        self.processes = processes
        self.initial_value = initial_value
        locs = set(locations or ())
        for op in self._app_operations():
            locs.add(op.location)
        self.locations = sorted(locs)
        self.init_writes = [
            Operation(
                proc=INIT_PROC,
                index=k,
                kind=WRITE,
                location=loc,
                value=initial_value,
                write_id=initial_write_id(loc),
            )
            for k, loc in enumerate(self.locations)
        ]
        self._writes_by_id: Dict[Tuple, Operation] = {}
        self._index_writes()
        self._resolve_reads()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, initial_value: Any = 0) -> "History":
        """Parse the paper's figure notation.

        Each non-empty line is ``Pk: op op op`` with ops like ``w(x)1``
        and ``r(y)2``.  Values are parsed as ints when possible, else
        kept as strings (so ``T``, ``F`` and the dictionary's free marker
        work).  Writes must be unique per (location, value) — the paper's
        standing assumption — so reads-from can be inferred.
        """
        processes: List[List[Operation]] = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            match = _PROC_RE.match(line)
            if not match:
                raise HistoryError(f"cannot parse process line: {line!r}")
            proc = len(processes)
            ops: List[Operation] = []
            for token in match.group("ops").split():
                op_match = _OP_RE.match(token)
                if not op_match:
                    raise HistoryError(f"cannot parse operation: {token!r}")
                value: Any = op_match.group("value")
                try:
                    value = int(value)
                except ValueError:
                    pass
                ops.append(
                    Operation(
                        proc=proc,
                        index=len(ops),
                        kind=op_match.group("kind"),
                        location=op_match.group("loc"),
                        value=value,
                    )
                )
            processes.append(ops)
        return cls(processes, initial_value=initial_value)

    @classmethod
    def from_operations(
        cls,
        ops_per_process: List[List[Tuple]],
        initial_value: Any = 0,
    ) -> "History":
        """Build from ``[(kind, location, value), ...]`` per process."""
        processes = [
            [
                Operation(proc=p, index=i, kind=kind, location=loc, value=value)
                for i, (kind, loc, value) in enumerate(ops)
            ]
            for p, ops in enumerate(ops_per_process)
        ]
        return cls(processes, initial_value=initial_value)

    # ------------------------------------------------------------------
    # Validation / linking
    # ------------------------------------------------------------------
    def _index_writes(self) -> None:
        for op in self.init_writes:
            self._writes_by_id[op.write_id] = op
        needs_id: List[Tuple[int, int]] = []
        for op in self._app_operations():
            if not op.is_write:
                continue
            if op.write_id is None:
                needs_id.append(op.op_id)
            elif op.write_id in self._writes_by_id:
                raise HistoryError(f"duplicate write identity {op.write_id!r}")
            else:
                self._writes_by_id[op.write_id] = op
        # Synthesize identities for parsed writes: unique (loc, value).
        by_value: Dict[Tuple[str, Any], Operation] = {}
        for proc, index in needs_id:
            op = self.processes[proc][index]
            key = (op.location, op.value)
            if key in by_value:
                raise HistoryError(
                    f"writes are not unique: two writes of {op.value!r} to "
                    f"{op.location!r} ({by_value[key]} and {op})"
                )
            identified = Operation(
                proc=op.proc,
                index=op.index,
                kind=op.kind,
                location=op.location,
                value=op.value,
                write_id=("val", op.location, op.value),
            )
            self.processes[proc][index] = identified
            by_value[key] = identified
            self._writes_by_id[identified.write_id] = identified

    def _resolve_reads(self) -> None:
        """Fill in ``read_from`` for reads that lack it (parsed histories)."""
        value_index: Dict[Tuple[str, Any], Tuple] = {
            (w.location, w.value): wid
            for wid, w in self._writes_by_id.items()
            if w.proc != INIT_PROC
        }
        for proc, ops in enumerate(self.processes):
            for i, op in enumerate(ops):
                if not op.is_read or op.read_from is not None:
                    continue
                key = (op.location, op.value)
                if key in value_index:
                    source = value_index[key]
                elif op.value == self.initial_value:
                    source = initial_write_id(op.location)
                else:
                    raise HistoryError(
                        f"{op} reads a value never written to {op.location!r}"
                    )
                ops[i] = Operation(
                    proc=op.proc,
                    index=op.index,
                    kind=op.kind,
                    location=op.location,
                    value=op.value,
                    read_from=source,
                )
        for op in self._app_operations():
            if not op.is_read:
                continue
            source = self._writes_by_id.get(op.read_from)
            if source is None:
                raise HistoryError(
                    f"{op} reads from unknown write {op.read_from!r}"
                )
            if source.location != op.location:
                raise HistoryError(
                    f"{op} reads from {source}, a write to another location"
                )
            # Identity first: NaN and opaque app values never compare.
            if source.value is not op.value and source.value != op.value:
                raise HistoryError(
                    f"{op} reads from {source}, a write of another value"
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_procs(self) -> int:
        """Number of application processes."""
        return len(self.processes)

    def _app_operations(self) -> Iterator[Operation]:
        for ops in self.processes:
            yield from ops

    def operations(self, include_init: bool = True) -> List[Operation]:
        """All operations; initial writes first if included."""
        out: List[Operation] = []
        if include_init:
            out.extend(self.init_writes)
        out.extend(self._app_operations())
        return out

    def _by_kind(self) -> Tuple[List[Operation], Dict[str, List[Operation]]]:
        index = self._kind_index
        if index is None:
            reads: List[Operation] = []
            writes: Dict[str, List[Operation]] = {}
            for op in self._app_operations():
                if op.is_read:
                    reads.append(op)
                else:
                    writes.setdefault(op.location, []).append(op)
            index = self._kind_index = (reads, writes)
        return index

    def reads(self) -> List[Operation]:
        """All application read operations."""
        reads, _ = self._by_kind()
        return list(reads)

    def writes(self, location: Optional[str] = None, include_init: bool = True) -> List[Operation]:
        """All writes (optionally restricted to one location)."""
        if location is None:
            return [
                op for op in self.operations(include_init=include_init)
                if op.is_write
            ]
        out: List[Operation] = []
        init = self._writes_by_id.get(initial_write_id(location))
        if include_init and init is not None:
            out.append(init)
        _, writes = self._by_kind()
        out.extend(writes.get(location, ()))
        return out

    def write_by_id(self, write_id: Tuple) -> Operation:
        """Look up a write operation by its identity."""
        try:
            return self._writes_by_id[write_id]
        except KeyError:
            raise HistoryError(f"no write with identity {write_id!r}") from None

    def op(self, proc: int, index: int) -> Operation:
        """The ``index``-th operation of process ``proc``."""
        if proc == INIT_PROC:
            return self.init_writes[index]
        return self.processes[proc][index]

    def __len__(self) -> int:
        return sum(len(ops) for ops in self.processes)

    def to_text(self) -> str:
        """Render back into (approximate) paper notation."""
        lines = []
        for proc, ops in enumerate(self.processes):
            tokens = " ".join(f"{o.kind}({o.location}){o.value}" for o in ops)
            lines.append(f"P{proc + 1}: {tokens}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<History procs={self.n_procs} ops={len(self)}>"


class HistoryRecorder:
    """Collects operations as protocol engines complete them.

    One application process per node is assumed (as in the paper); each
    node's operations are recorded in completion order, which equals
    program order because the paper's operations block.
    """

    def __init__(self, initial_value: Any = 0) -> None:
        self.initial_value = initial_value
        self._ops: Dict[int, List[Tuple]] = {}

    def record_read(
        self, proc: int, location: str, value: Any, read_from: Tuple
    ) -> None:
        """Record a completed read and the identity of the write it saw."""
        self._ops.setdefault(proc, []).append((READ, location, value, read_from))

    def record_write(
        self, proc: int, location: str, value: Any, write_id: Tuple
    ) -> None:
        """Record an issued write under its globally unique identity."""
        self._ops.setdefault(proc, []).append((WRITE, location, value, write_id))

    def build(self, n_procs: Optional[int] = None) -> History:
        """Materialize a :class:`History` from everything recorded."""
        if n_procs is None:
            n_procs = max(self._ops, default=-1) + 1
        processes: List[List[Operation]] = []
        for proc in range(n_procs):
            ops: List[Operation] = []
            for kind, location, value, identity in self._ops.get(proc, []):
                if kind == READ:
                    ops.append(
                        Operation(
                            proc=proc, index=len(ops), kind=READ,
                            location=location, value=value, read_from=identity,
                        )
                    )
                else:
                    ops.append(
                        Operation(
                            proc=proc, index=len(ops), kind=WRITE,
                            location=location, value=value, write_id=identity,
                        )
                    )
            processes.append(ops)
        return History(processes, initial_value=self.initial_value)
