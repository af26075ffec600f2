"""Straight-line DSM programs — the inputs of schedule exploration.

The explorer runs *programs*, not histories: a :class:`ProgramSpec` is a
small fixed set of per-process operation lists (reads, writes, discards)
that gets executed under every message-delivery interleaving the
explorer selects.  Each execution records a history, and the checker zoo
decides whether that history matches the protocol's promised model.

Programs are deliberately tiny — schedule spaces grow factorially — and
deliberately *value-transparent*: every write carries a distinct value,
so the recorded reads-from relation identifies writes unambiguously
(the same trick :mod:`repro.checker.generator` uses).

Specs are frozen and JSON-serialisable so a shrunk counterexample can
embed the exact program it falsifies (see :mod:`repro.mc.counterexample`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps.figures import SCENARIOS, Op
from repro.errors import ReproError

__all__ = [
    "McError",
    "Op",
    "ProgramSpec",
    "make_spec",
    "random_program",
    "preset",
    "PRESETS",
]


class McError(ReproError):
    """The schedule explorer was misused or reached an impossible state."""


_PROTOCOLS = ("causal", "atomic", "li", "central", "broadcast")


@dataclass(frozen=True)
class ProgramSpec:
    """One explorable program: a protocol plus per-process op lists.

    ``owners`` optionally pins location ownership (as a sorted tuple of
    ``(location, node)`` pairs, keeping the spec hashable); unlisted
    locations fall back to the default hashed namespace.  ``nodes``
    optionally places process ``k`` on node ``nodes[k]`` (default: its
    own index); two processes on one node are two tasks sharing that
    node's program order.
    """

    processes: Tuple[Tuple[Op, ...], ...]
    protocol: str = "causal"
    owners: Optional[Tuple[Tuple[str, int], ...]] = None
    initial_value: Any = 0
    nodes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.protocol not in _PROTOCOLS:
            raise McError(f"unknown protocol {self.protocol!r}")
        if not self.processes:
            raise McError("a program needs at least one process")
        if self.nodes and len(self.nodes) != len(self.processes):
            raise McError("nodes must place every process")
        for ops in self.processes:
            for op in ops:
                if op[0] == "w" and len(op) == 3:
                    continue
                if op[0] in ("r", "d") and len(op) == 2:
                    continue
                raise McError(f"malformed op {op!r}")

    @property
    def n_procs(self) -> int:
        return len(self.processes)

    @property
    def placement(self) -> Sequence[int]:
        """The node of each process."""
        return self.nodes or range(self.n_procs)

    @property
    def n_nodes(self) -> int:
        return max(self.placement) + 1

    @property
    def n_ops(self) -> int:
        """Total application operations (the shrinker minimises this)."""
        return sum(len(ops) for ops in self.processes)

    @property
    def locations(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for ops in self.processes:
            for op in ops:
                if op[1] not in seen:
                    seen.append(op[1])
        return tuple(seen)

    def describe(self) -> str:
        """Paper-style notation, one line per process."""
        lines = []
        for proc, ops in enumerate(self.processes):
            tokens = []
            for op in ops:
                if op[0] == "w":
                    tokens.append(f"w({op[1]}){op[2]}")
                elif op[0] == "r":
                    tokens.append(f"r({op[1]})")
                else:
                    tokens.append(f"d({op[1]})")
            lines.append(f"P{self.placement[proc]}: " + " ".join(tokens))
        return "\n".join(lines)

    def without_op(self, proc: int, index: int) -> "ProgramSpec":
        """A copy with one operation removed (the shrinker's step)."""
        processes = list(self.processes)
        ops = list(processes[proc])
        del ops[index]
        processes[proc] = tuple(ops)
        return replace(self, processes=tuple(processes))

    def op_positions(self) -> List[Tuple[int, int]]:
        """All ``(proc, index)`` positions, in deterministic order."""
        return [
            (proc, index)
            for proc, ops in enumerate(self.processes)
            for index in range(len(ops))
        ]

    # ------------------------------------------------------------------
    # Serialisation (counterexample files)
    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        data = {
            "protocol": self.protocol,
            "processes": [[list(op) for op in ops] for ops in self.processes],
            "owners": [list(pair) for pair in self.owners] if self.owners else None,
            "initial_value": self.initial_value,
        }
        if self.nodes:  # absent by default: older files stay as written
            data["nodes"] = list(self.nodes)
        return data

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "ProgramSpec":
        owners = data.get("owners")
        return cls(
            processes=tuple(
                tuple(tuple(op) for op in ops) for ops in data["processes"]
            ),
            protocol=data["protocol"],
            owners=tuple((loc, node) for loc, node in owners) if owners else None,
            initial_value=data.get("initial_value", 0),
            nodes=tuple(data["nodes"]) if data.get("nodes") else None,
        )


def make_spec(
    processes: Sequence[Sequence[Op]],
    protocol: str = "causal",
    owners: Optional[Dict[str, int]] = None,
    initial_value: Any = 0,
    nodes: Optional[Sequence[int]] = None,
) -> ProgramSpec:
    """Build a :class:`ProgramSpec` from plain lists/dicts."""
    return ProgramSpec(
        processes=tuple(tuple(tuple(op) for op in ops) for ops in processes),
        protocol=protocol,
        owners=tuple(sorted(owners.items())) if owners else None,
        initial_value=initial_value,
        nodes=tuple(nodes) if nodes else None,
    )


def random_program(
    seed: int,
    protocol: str = "causal",
    n_procs: int = 3,
    n_locations: int = 2,
    ops_per_proc: int = 3,
    read_fraction: float = 0.5,
) -> ProgramSpec:
    """A random small program with globally unique write values.

    The same generator parameters as :func:`repro.checker.random_history`,
    but producing a *program* (reads have no predetermined value — the
    schedule decides what they return).
    """
    rng = random.Random(f"mc-program/{seed}")
    locations = [f"l{i}" for i in range(n_locations)]
    value = 0
    processes: List[List[Op]] = []
    for _ in range(n_procs):
        ops: List[Op] = []
        for _ in range(ops_per_proc):
            location = rng.choice(locations)
            if rng.random() < read_fraction:
                ops.append(("r", location))
            else:
                value += 1
                ops.append(("w", location, value))
        processes.append(ops)
    # Pin ownership round-robin so every program exercises remote paths
    # deterministically (the hashed default could put everything on one
    # node for small location sets).
    owners = {loc: i % n_procs for i, loc in enumerate(locations)}
    return make_spec(processes, protocol=protocol, owners=owners)


def _figure_spec(name: str) -> ProgramSpec:
    """A registry figure as an explorable program.

    The program is :data:`repro.apps.figures.SCENARIOS`'s with the wait
    steps stripped: under the explorer the schedule, not a watcher or a
    clock, decides what each read sees.  So some interleaving of
    ``fig3`` on broadcast memory records Figure 3's non-causal history,
    and the causal protocol admits ``fig5``'s schedule where both
    re-reads return 0 — legal causal memory, impossible sequentially.
    """
    figure = SCENARIOS[name]
    return make_spec(
        figure.wait_free, protocol=figure.protocol, owners=figure.owners
    )


def _exhaustive_spec() -> ProgramSpec:
    """The acceptance-criteria config: 3 procs, 2 locations, 4 ops each."""
    return random_program(
        seed=0, protocol="causal", n_procs=3, n_locations=2, ops_per_proc=4
    )


def _inflight_spec(second_task: bool = False) -> ProgramSpec:
    """The in-flight window (DESIGN.md §4.2): ``P1``'s ``r(x)`` reply
    travels while ``P1`` serves ``w(y)3``, which follows ``w(x)2``.  Pure
    Figure 4 caches the overtaken ``x = 0`` and re-reads it after
    ``r(y)3``; with ``second_task`` the ``r(y)`` is a second task on
    ``P1``, completing while the reply is still out."""
    reader = (("r", "x"), ("r", "y"), ("r", "x"))
    writer = (("w", "x", 2), ("w", "y", 3))
    processes, nodes = [(), reader, writer], None
    if second_task:
        processes, nodes = [reader[:1], writer, reader[1:2]], (1, 2, 1)
    return make_spec(processes, owners={"x": 0, "y": 1}, nodes=nodes)


def _inflight_ack_spec() -> ProgramSpec:
    """The write side of the in-flight window: ``P1``'s ``W_REPLY`` for
    ``w(x)1`` is out while ``P1`` serves ``w(z)3``, which follows the
    ``w(x)2`` the owner applied over it.  Cached on arrival, ``x = 1`` is
    re-read after ``r(z)3``; ``P2``, told of that read through ``q``,
    then gets the owner's ``x = 2`` — dead, by Definition 1, once
    ``r(x)1`` stands between."""
    return make_spec(
        [
            (),
            (("w", "x", 1), ("r", "z"), ("r", "x"), ("w", "q", 4)),
            (("w", "x", 2), ("w", "z", 3), ("r", "q"), ("r", "x")),
        ],
        owners={"x": 0, "z": 1, "q": 1},
    )


PRESETS: Dict[str, Any] = {
    "fig3": partial(_figure_spec, "fig3"),
    "fig5": partial(_figure_spec, "fig5"),
    "exhaustive": _exhaustive_spec,
    "inflight": _inflight_spec,
    "inflight-tasks": partial(_inflight_spec, second_task=True),
    "inflight-ack": _inflight_ack_spec,
}


def preset(name: str) -> ProgramSpec:
    """A named example program (see :data:`PRESETS`)."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise McError(
            f"unknown preset {name!r}; have {sorted(PRESETS)}"
        ) from None
    return factory()
