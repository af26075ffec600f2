"""The paper's Figure 3/4/5 programs, defined once, as data.

The paper writes an execution as per-process operation lists
(``P2: w(x)2 r(y)3 r(x)5 w(z)4``); so does this module.  A program is
a tuple of op tuples per process, in the notation explorer specs,
flight-recorder windows and counterexample files already use:

* ``("w", x, v)`` / ``("r", x)`` / ``("d", x)`` — write, read, discard;
* ``("await", x, v)`` — block until this node's copy of ``x`` equals
  ``v`` (a watcher: zero messages);
* ``("sleep", ticks)`` — think for ``ticks`` driver ticks.

The two wait steps exist for the timed drivers only: the explorer runs
the same programs with them stripped (:attr:`Scenario.wait_free`),
because there the schedule, not a clock, decides the interleaving.

:func:`program_process` is the only interpreter of the notation, and
every driver — simulator, live, traced, explorer — is a front-end over
this registry (DESIGN.md §4.6).  The module imports no driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.memory import Namespace
from repro.sim.tasks import sleep

__all__ = ["Op", "Scenario", "SCENARIOS", "SCENARIO_OWNERS", "program_process"]

Op = Tuple


def program_process(api, ops, tick: float = 1.0):
    """Run one process's op tuples against a node's API object."""
    for op in ops:
        kind = op[0]
        if kind == "w":
            yield api.write(op[1], op[2])
        elif kind == "r":
            yield api.read(op[1])
        elif kind == "d":
            api.discard(op[1])
        elif kind == "await":
            yield api.watch(op[1], lambda value, want=op[2]: value == want)
        elif kind == "sleep":
            yield sleep(api.sim, op[1] * tick)
        else:
            raise ValueError(f"unknown op {op!r}")


@dataclass(frozen=True)
class Scenario:
    """One paper figure: a program plus what every driver needs to run it."""

    protocol: str
    #: Op tuples per process; process ``i`` runs on node ``i``.
    processes: Tuple[Tuple[Op, ...], ...]
    #: Task names, as they appear in trace tags.
    tasks: Tuple[str, ...]
    #: Location -> owning node: the namespace, the flight recorder's
    #: pins and the explorer spec's owners all derive from this one map.
    owners: Dict[str, int]
    #: Offline checker verdict every driver must produce.
    expect_causal: bool
    #: Live per-link delay map enforcing the orderings the scenario
    #: needs (missing pairs get the runtime default).
    live_link_delay: Optional[Dict] = None

    @property
    def n_nodes(self) -> int:
        return len(self.processes)

    @property
    def wait_free(self) -> Tuple[Tuple[Op, ...], ...]:
        """The program with its wait steps stripped (explorer input)."""
        return tuple(
            tuple(op for op in ops if op[0] not in ("await", "sleep"))
            for ops in self.processes
        )

    def namespace(self) -> Namespace:
        return Namespace.explicit(self.n_nodes, self.owners)

    def spawn(self, cluster, tick: float) -> None:
        """Start every process on ``cluster`` (simulated or live).

        ``tick`` scales the sleeps: seconds of virtual time in the
        simulator, hundredths of a wall-clock second live.
        """
        for proc, (task, ops) in enumerate(zip(self.tasks, self.processes)):
            cluster.spawn(proc, program_process, ops, tick, name=task)


SCENARIOS: Dict[str, Scenario] = {
    # Figure 3 — causal broadcasting is not causal memory.  P1 writes
    # x=5 then y=3; P2 writes the concurrent x=2, sees y=3 and reads x
    # (P1's 5 overwrote its own 2 on delivery), then writes z=4; P3
    # waits for z=4 and reads x — seeing 2 when P2's x=2 is delivered
    # there *after* P1's x=5.  check_causal rejects the history.  The
    # simulator gets that delivery order from its latency model, the
    # live driver from the slow (P2 -> P3) link: milliseconds of margin
    # against scheduler jitter.
    "fig3": Scenario(
        protocol="broadcast",
        processes=(
            (("w", "x", 5), ("w", "y", 3)),
            (
                ("w", "x", 2), ("await", "y", 3), ("r", "y"), ("r", "x"),
                ("w", "z", 4),
            ),
            (("await", "z", 4), ("r", "z"), ("r", "x")),
        ),
        tasks=("P1", "P2", "P3"),
        owners={"x": 0, "y": 1, "z": 2},
        expect_causal=False,
        live_link_delay={(1, 2): 0.04},
    ),
    # Figure 4's owner protocol exercising both invalidation sweeps.
    # P1 and P2 read x early, caching P0's initial value.  P0 then
    # writes x=1 (local) and y=1: certifying the remote write at P1
    # sweeps P1's stale cached x.  P2 later reads y (a miss; the
    # reply's writestamp sweeps its cached x) and re-reads x, fetching
    # the fresh value from the owner.  Every ``inv.sweep`` in the trace
    # is therefore causally after P0's write of x.
    "fig4": Scenario(
        protocol="causal",
        processes=(
            (("sleep", 2.0), ("w", "x", 1), ("w", "y", 1)),
            (("r", "x"),),
            (("r", "x"), ("sleep", 6.0), ("r", "y"), ("r", "x")),
        ),
        tasks=("P0", "P1", "P2"),
        owners={"x": 0, "y": 1, "z": 2},
        expect_causal=True,
    ),
    # Figure 5 — causal but not sequentially consistent.  With P1
    # owning x and P2 owning y, each reads the other's flag (a miss
    # returning the initial 0), raises its own locally, and re-reads
    # the other's from its now-stale cache: r(y)0 w(x)1 r(y)0 against
    # r(x)0 w(y)1 r(x)0.
    "fig5": Scenario(
        protocol="causal",
        processes=(
            (("r", "y"), ("w", "x", 1), ("r", "y")),
            (("r", "x"), ("w", "y", 1), ("r", "x")),
        ),
        tasks=("P1", "P2"),
        owners={"x": 0, "y": 1},
        expect_causal=True,
    ),
}

#: Explicit location owners per scenario (the flight recorder's pins).
SCENARIO_OWNERS: Dict[str, Dict[str, int]] = {
    name: scenario.owners for name, scenario in SCENARIOS.items()
}
