"""The asynchronous (chaotic relaxation) solver.

Section 4.1 closes: "It is possible to eliminate the synchronization
entirely by using an *asynchronous* algorithm [4]" — the companion TR.
This module implements that variant: every worker iterates at its own
pace, reading whatever values of ``x`` it can see and publishing its own
component with no handshakes at all.

On causal memory a worker's cached copies of ``x[j]`` stay valid until
an invalidation sweep happens to evict them, so a literal port would
iterate on frozen inputs forever.  The paper's ``discard`` is again the
liveness mechanism: each worker discards its cached ``x`` copies every
``refresh`` iterations and re-reads them from the owners.  ``refresh=1``
is Jacobi-with-no-barrier; larger values trade staleness for messages.

Convergence is guaranteed for strictly diagonally dominant systems by
the Chazan–Miranker theorem on chaotic relaxation (the asynchronous
iteration contracts in the infinity norm regardless of interleaving or
staleness bounds met here).

Message cost: ``2 (n - 1) / refresh`` messages per worker per iteration
— strictly below the synchronous solver's ``2n + 6``, the E9 claim.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.errors import ReproError
from repro.memory import Namespace, location_array
from repro.protocols.base import DSMCluster
from repro.sim.latency import LatencyModel

from repro.apps.linear_solver import (
    LinearSystem,
    SolverResult,
    max_abs_difference,
)

__all__ = ["AsynchronousSolver", "async_namespace"]


def async_namespace(n: int) -> Namespace:
    """Ownership for the asynchronous solver.

    Worker ``i`` owns ``x[i]`` *and* its own rows ``A[i][*]``/``b[i]``
    (it writes them at startup and reads them locally ever after).
    """

    def owner_fn(unit: str) -> int:
        index = int(unit.split("[", 1)[1].split("]", 1)[0])
        return index

    return Namespace(n, owner_fn=owner_fn)


class AsynchronousSolver:
    """Chaotic relaxation over causal DSM, no synchronization at all."""

    def __init__(
        self,
        system: LinearSystem,
        iterations: int = 30,
        refresh: int = 1,
        protocol: str = "causal",
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        record_history: bool = False,
    ):
        if refresh < 1:
            raise ReproError(f"refresh must be >= 1, got {refresh}")
        if protocol not in ("causal", "atomic", "central"):
            raise ReproError(f"unsupported protocol {protocol!r}")
        self.system = system
        self.iterations = iterations
        self.refresh = refresh
        self.protocol = protocol
        self.n = system.n
        self.cluster = DSMCluster(
            n_nodes=self.n,
            protocol=protocol,
            seed=seed,
            latency=latency,
            namespace=async_namespace(self.n),
            record_history=record_history,
        )

    def _worker(self, api, i: int):
        n = self.n
        # Publish my rows of the inputs (all local writes).
        row = self.system.a[i]
        b_i = self.system.b[i]
        for j, a_ij in enumerate(row):
            yield api.write(location_array("A", i, j), a_ij)
        yield api.write(location_array("b", i), b_i)
        for iteration in range(self.iterations):
            if iteration % self.refresh == 0:
                for j in range(n):
                    if j != i:
                        api.discard(location_array("x", j))
            acc = b_i
            for j in range(n):
                if j != i:
                    x_j = yield api.read(location_array("x", j))
                    acc -= row[j] * x_j
            t_i = acc / row[i]
            yield api.write(location_array("x", i), t_i)

    def run(self) -> SolverResult:
        """Execute all workers to completion and measure."""
        for i in range(self.n):
            self.cluster.spawn(i, self._worker, i, name=f"async-worker-{i}")
        self.cluster.run()
        solution = array("d")
        for j in range(self.n):
            node = (
                self.cluster.server
                if self.protocol == "central"
                else self.cluster.nodes[j]
            )
            assert node is not None
            entry = node.store.get(location_array("x", j))
            assert entry is not None
            solution.append(entry.value)
        exact = self.system.exact_solution()
        per_processor = (
            self.cluster.stats.total / (self.n * self.iterations)
            if self.iterations
            else 0.0
        )
        return SolverResult(
            protocol=f"async-{self.protocol}",
            n=self.n,
            iterations=self.iterations,
            solution=solution,
            exact=exact,
            max_error=max_abs_difference(solution, exact),
            residual=self.system.residual(solution),
            total_messages=self.cluster.stats.total,
            per_phase_messages=[],
            steady_messages_per_processor=per_processor,
            messages_by_kind=dict(self.cluster.stats.by_kind),
            wait_mode="none",
            elapsed_sim_time=self.cluster.sim.now,
        )
