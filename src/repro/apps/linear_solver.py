"""The synchronous iterative linear solver of Figure 6 / Section 4.1.

``n`` worker processes plus one coordinator solve ``Ax = b`` by Jacobi
iteration over shared memory.  Worker ``P_i`` owns ``x[i]`` and its two
handshake flags ``complete[i]`` / ``changed[i]``; the constant inputs
``A`` and ``b`` live at the coordinator and are declared read-only (the
paper's footnote-2 enhancement), so they are fetched once and never
invalidated.

The per-phase protocol is the paper's verbatim:

    worker ``P_i``:                      coordinator:
      t_i := compute from cached x         for all i: wait complete_i = T
      complete_i := T                      for all i: complete_i := F
      wait complete_i = F                  for all i: wait changed_i = T
      x_i := t_i                           for all i: changed_i := F
      changed_i := T
      wait changed_i = F

The same program text runs unchanged on the causal, atomic and
central-server memories — the paper's Section 4.1 claim — and the
harness records messages per phase so the ``2n + 6`` versus
``>= 3n + 5`` comparison can be measured rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.apps.waiting import oracle_wait, polling_wait
from repro.errors import ReproError
from repro.memory import Namespace, location_array
from repro.protocols.base import DSMCluster
from repro.sim.latency import LatencyModel
from repro.sim.trace import CounterSnapshot

__all__ = ["LinearSystem", "SolverResult", "SynchronousSolver", "solver_namespace"]


@dataclass(frozen=True)
class LinearSystem:
    """A dense linear system ``Ax = b`` with a known exact solution."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        n = self.a.shape[0]
        if self.a.shape != (n, n) or self.b.shape != (n,):
            raise ReproError(
                f"shape mismatch: A{self.a.shape} b{self.b.shape}"
            )

    @property
    def n(self) -> int:
        """Dimension of the system."""
        return self.a.shape[0]

    @classmethod
    def random(cls, n: int, seed: int = 0, dominance: float = 1.5) -> "LinearSystem":
        """A random strictly diagonally dominant system.

        Diagonal dominance guarantees Jacobi convergence — and, for the
        asynchronous solver, Chazan–Miranker chaotic-relaxation
        convergence.
        """
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        row_sums = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        np.fill_diagonal(a, dominance * row_sums + 1.0)
        b = rng.uniform(-1.0, 1.0, size=n)
        return cls(a=a, b=b)

    def exact_solution(self) -> np.ndarray:
        """The reference solution via ``numpy.linalg.solve``."""
        return np.linalg.solve(self.a, self.b)

    def residual(self, x: np.ndarray) -> float:
        """Infinity-norm residual ``||Ax - b||``."""
        return float(np.max(np.abs(self.a @ x - self.b)))


@dataclass
class SolverResult:
    """Everything a solver run measured."""

    protocol: str
    n: int
    iterations: int
    solution: np.ndarray
    exact: np.ndarray
    max_error: float
    residual: float
    total_messages: int
    per_phase_messages: List[int]
    steady_messages_per_processor: float
    messages_by_kind: Dict[str, int]
    wait_mode: str
    elapsed_sim_time: float
    #: Labelled cumulative counter snapshots, one per Jacobi iteration
    #: (``label="iteration=k"``) — feed :func:`repro.analysis.snapshot_table`.
    phase_snapshots: List = field(default_factory=list)

    def summary(self) -> str:
        """One-line result for reports."""
        return (
            f"{self.protocol:9s} n={self.n:3d} iters={self.iterations:3d} "
            f"err={self.max_error:.2e} msgs/proc/iter="
            f"{self.steady_messages_per_processor:.1f}"
        )


def solver_namespace(n: int, read_only_inputs: bool = True) -> Namespace:
    """The solver's ownership map.

    Worker ``i`` owns ``x[i]``, ``complete[i]`` and ``changed[i]``; the
    coordinator (node ``n``) owns the inputs ``A``/``b`` and the startup
    flag.  ``read_only_inputs=False`` is the E8 ablation: without the
    exemption, the causal protocol's invalidation sweeps evict the
    cached inputs every phase.
    """

    def owner_fn(unit: str) -> int:
        base = unit.split("[", 1)[0].split("@", 1)[0]
        if base in ("x", "complete", "changed"):
            index = int(unit.split("[", 1)[1].split("]", 1)[0])
            return index
        return n  # A, b, ready live at the coordinator

    read_only = ("A[", "b[") if read_only_inputs else ()
    return Namespace(n + 1, owner_fn=owner_fn, read_only=read_only)


class SynchronousSolver:
    """Runs Figure 6 on a chosen memory model and measures it.

    Parameters
    ----------
    system:
        The linear system to solve.
    protocol:
        ``"causal"``, ``"atomic"`` or ``"central"``.
    iterations:
        Number of Jacobi phases (the paper's loop bound).
    wait_mode:
        ``"oracle"`` reproduces the paper's idealised message accounting
        (one remote read per handshake step); ``"polling"`` uses the
        literal discard-and-retry loop with ``poll_period``.
    read_only_inputs:
        The footnote-2 enhancement (see :func:`solver_namespace`).
    delta_stamps:
        Delta-encode writestamps on the wire, passed through to
        :class:`~repro.protocols.base.DSMCluster`.
    """

    def __init__(
        self,
        system: LinearSystem,
        protocol: str = "causal",
        iterations: int = 10,
        seed: int = 0,
        wait_mode: str = "oracle",
        poll_period: float = 1.0,
        read_only_inputs: bool = True,
        record_history: bool = False,
        latency: Optional[LatencyModel] = None,
        delta_stamps: bool = False,
    ):
        if protocol not in ("causal", "atomic", "central"):
            raise ReproError(
                f"synchronous solver supports causal/atomic/central, "
                f"not {protocol!r}"
            )
        if wait_mode not in ("oracle", "polling"):
            raise ReproError(f"unknown wait mode {wait_mode!r}")
        self.system = system
        self.protocol = protocol
        self.iterations = iterations
        self.wait_mode = wait_mode
        self.poll_period = poll_period
        self.n = system.n
        self.cluster = DSMCluster(
            n_nodes=self.n + 1,
            protocol=protocol,
            seed=seed,
            latency=latency,
            namespace=solver_namespace(self.n, read_only_inputs),
            record_history=record_history,
            delta_stamps=delta_stamps,
        )
        self._phase_snapshots: List[CounterSnapshot] = []

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def _wait(self, api, location, predicate):
        if self.wait_mode == "oracle":
            return oracle_wait(self.cluster, api, location, predicate)
        return polling_wait(api, location, predicate, period=self.poll_period)

    def _worker(self, api, i: int):
        n = self.n
        yield from self._wait(api, "ready", lambda v: bool(v))
        for _ in range(self.iterations):
            xs: Dict[int, float] = {}
            for j in range(n):
                if j != i:
                    xs[j] = yield api.read(location_array("x", j))
            row: List[float] = []
            for j in range(n):
                row.append((yield api.read(location_array("A", i, j))))
            b_i = yield api.read(location_array("b", i))
            acc = b_i
            for j in range(n):
                if j != i:
                    acc -= row[j] * xs[j]
            t_i = acc / row[i]
            yield api.write(location_array("complete", i), True)
            yield from self._wait(
                api, location_array("complete", i), lambda v: not v
            )
            yield api.write(location_array("x", i), t_i)
            yield api.write(location_array("changed", i), True)
            yield from self._wait(
                api, location_array("changed", i), lambda v: not v
            )

    def _coordinator(self, api):
        n = self.n
        for i in range(n):
            for j in range(n):
                yield api.write(location_array("A", i, j), float(self.system.a[i, j]))
            yield api.write(location_array("b", i), float(self.system.b[i]))
        yield api.write("ready", True)
        for k in range(self.iterations):
            for i in range(n):
                yield from self._wait(
                    api, location_array("complete", i), lambda v: bool(v)
                )
            for i in range(n):
                yield api.write(location_array("complete", i), False)
            for i in range(n):
                yield from self._wait(
                    api, location_array("changed", i), lambda v: bool(v)
                )
            for i in range(n):
                yield api.write(location_array("changed", i), False)
            self._phase_snapshots.append(
                self.cluster.stats.snapshot(
                    self.cluster.sim.now, label=f"iteration={k}"
                )
            )

    # ------------------------------------------------------------------
    # Running / measuring
    # ------------------------------------------------------------------
    def run(self) -> SolverResult:
        """Execute the solver and gather all measurements."""
        for i in range(self.n):
            self.cluster.spawn(i, self._worker, i, name=f"worker-{i}")
        self.cluster.spawn(self.n, self._coordinator, name="coordinator")
        self.cluster.run()
        solution = self._read_back_solution()
        exact = self.system.exact_solution()
        per_phase = self._per_phase_totals()
        steady = self._steady_messages_per_processor(per_phase)
        return SolverResult(
            protocol=self.protocol,
            n=self.n,
            iterations=self.iterations,
            solution=solution,
            exact=exact,
            max_error=float(np.max(np.abs(solution - exact))),
            residual=self.system.residual(solution),
            total_messages=self.cluster.stats.total,
            per_phase_messages=per_phase,
            steady_messages_per_processor=steady,
            messages_by_kind=dict(self.cluster.stats.by_kind),
            wait_mode=self.wait_mode,
            elapsed_sim_time=self.cluster.sim.now,
            phase_snapshots=list(self._phase_snapshots),
        )

    def _read_back_solution(self) -> np.ndarray:
        values = np.zeros(self.n)
        for j in range(self.n):
            location = location_array("x", j)
            if self.protocol == "central":
                node = self.cluster.server
            else:
                node = self.cluster.nodes[j]
            assert node is not None
            entry = node.store.get(location)
            assert entry is not None
            values[j] = entry.value
        return values

    def _per_phase_totals(self) -> List[int]:
        totals: List[int] = []
        previous_total = 0
        for snapshot in self._phase_snapshots:
            totals.append(snapshot.total - previous_total)
            previous_total = snapshot.total
        return totals

    def _steady_messages_per_processor(self, per_phase: List[int]) -> float:
        # Skip the first two phases (cold caches, input distribution) and
        # the final phase (no successor phase to absorb its prefetches).
        steady = per_phase[2:-1] if len(per_phase) > 3 else per_phase
        if not steady:
            return 0.0
        return sum(steady) / len(steady) / self.n
