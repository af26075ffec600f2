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

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.waiting import oracle_wait, polling_wait
from repro.errors import ReproError
from repro.memory import Namespace, location_array
from repro.protocols.base import DSMCluster
from repro.sim.latency import LatencyModel
from repro.sim.trace import CounterSnapshot

__all__ = ["LinearSystem", "SolverResult", "SynchronousSolver", "solver_namespace"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> List[int]:
    """``numpy.random.SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ReproError(f"seed must be >= 0, got {seed}")
    entropy = [
        (seed >> shift) & _MASK32
        for shift in range(0, max(seed.bit_length(), 1), 32)
    ]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words: List[int] = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


def _uniform(seed: int, count: int, low: float, high: float) -> List[float]:
    """The first ``count`` draws of ``numpy.random.default_rng(seed)
    .uniform(low, high)``: PCG64 (XSL-RR output) seeded by SeedSequence."""
    s0, s1, s2, s3 = _seed_words(seed)
    increment = (((s2 << 64 | s3) << 1) | 1) & _MASK128
    state = (increment + (s0 << 64 | s1)) & _MASK128
    state = (state * _PCG64_MULTIPLIER + increment) & _MASK128
    width = high - low
    values: List[float] = []
    for _ in range(count):
        state = (state * _PCG64_MULTIPLIER + increment) & _MASK128
        folded = ((state >> 64) ^ state) & _MASK64
        rotation = state >> 122
        word = ((folded >> rotation) | (folded << (-rotation & 63))) & _MASK64
        values.append(low + width * ((word >> 11) * 2.0**-53))
    return values


def _pairwise_sum(values: List[float]) -> float:
    """numpy's float64 ``sum``, term for term: a plain loop below 8
    terms, eight accumulators up to 128, halves (cut at a multiple of 8)
    above.  Loops, not ``sum()``, which compensates on Python >= 3.12."""
    count = len(values)
    if count > 128:
        half = count // 2 - count // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    total = 0.0
    whole = 0
    if count >= 8:
        acc = values[:8]
        whole = count - count % 8
        for base in range(8, whole, 8):
            acc = [x + y for x, y in zip(acc, values[base:base + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
    for value in values[whole:]:
        total += value
    return total


def _correctly_rounded_solve(
    a: Tuple[Tuple[float, ...], ...], b: Tuple[float, ...]
) -> Tuple[float, ...]:
    """The exact solution of the float system, each component rounded once.

    Every float is a dyadic rational, so scaling a row of ``[A | b]`` by
    its largest denominator makes it integral without moving ``x``.
    Fraction-free (Bareiss) elimination keeps every entry an integer
    minor; back-substitution solves for ``det * x``, an integer by
    Cramer's rule, and ``int / int`` rounds correctly.
    """
    n = len(b)
    rows: List[List[int]] = []
    for a_row, b_i in zip(a, b):
        ratios = [value.as_integer_ratio() for value in (*a_row, b_i)]
        scale = max(den for _, den in ratios)
        rows.append([num * (scale // den) for num, den in ratios])
    previous = 1
    for k in range(n):
        pivot_at = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot_at is None:
            raise ReproError(f"singular {n}x{n} system: no unique solution")
        rows[k], rows[pivot_at] = rows[pivot_at], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1:]:
            factor = row[k]
            row[k] = 0
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // previous
        previous = pivot
    det = previous
    scaled = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        numerator = row[n] * det
        for j in range(i + 1, n):
            numerator -= row[j] * scaled[j]
        scaled[i] = numerator // row[i]
    return tuple(value / det for value in scaled)


@dataclass(frozen=True)
class LinearSystem:
    """A dense linear system ``Ax = b`` of Python floats: ``a`` is a
    tuple of row tuples, ``b`` a tuple.  Any sequences of reals are
    accepted and normalised."""

    a: Tuple[Tuple[float, ...], ...]
    b: Tuple[float, ...]

    def __post_init__(self) -> None:
        a = tuple(tuple(float(value) for value in row) for row in self.a)
        b = tuple(float(value) for value in self.b)
        n = len(a)
        if len(b) != n or any(len(row) != n for row in a):
            raise ReproError(
                f"shape mismatch: A has rows of lengths "
                f"{[len(row) for row in a]}, b has {len(b)} entries"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        """Dimension of the system."""
        return len(self.b)

    @classmethod
    def random(cls, n: int, seed: int = 0, dominance: float = 1.5) -> "LinearSystem":
        """A random strictly diagonally dominant system.

        Diagonal dominance guarantees Jacobi convergence — and, for the
        asynchronous solver, Chazan–Miranker chaotic-relaxation
        convergence.  The draws and the row sums are
        ``numpy.random.default_rng(seed).uniform(-1, 1)``'s and
        ``numpy.sum``'s bit for bit, without numpy (DESIGN.md §4.9).
        """
        draws = _uniform(seed, n * n + n, -1.0, 1.0)
        rows = [draws[i * n:(i + 1) * n] for i in range(n)]
        for i, row in enumerate(rows):
            off_diagonal = _pairwise_sum([abs(v) for v in row]) - abs(row[i])
            row[i] = dominance * off_diagonal + 1.0
        return cls(a=rows, b=draws[n * n:])

    @cached_property
    def _exact(self) -> Tuple[float, ...]:
        return _correctly_rounded_solve(self.a, self.b)

    def exact_solution(self) -> array:
        """The correctly rounded solution of the float system, solved once
        per system (:func:`_correctly_rounded_solve`)."""
        return array("d", self._exact)

    def residual(self, x: Sequence[float]) -> float:
        """Infinity-norm residual ``||Ax - b||``, each row's products
        summed left to right."""
        worst = 0.0
        for row, b_i in zip(self.a, self.b):
            acc = 0.0
            for a_ij, x_j in zip(row, x):
                acc += a_ij * x_j
            worst = max(worst, abs(acc - b_i))
        return worst


def max_abs_difference(x: Sequence[float], y: Sequence[float]) -> float:
    """``max_i |x_i - y_i|``, the solvers' ``max_error``."""
    return max(abs(u - v) for u, v in zip(x, y))


@dataclass
class SolverResult:
    """Everything a solver run measured."""

    protocol: str
    n: int
    iterations: int
    solution: array
    exact: array
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
        for i, row in enumerate(self.system.a):
            for j, a_ij in enumerate(row):
                yield api.write(location_array("A", i, j), a_ij)
            yield api.write(location_array("b", i), self.system.b[i])
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
            max_error=max_abs_difference(solution, exact),
            residual=self.system.residual(solution),
            total_messages=self.cluster.stats.total,
            per_phase_messages=per_phase,
            steady_messages_per_processor=steady,
            messages_by_kind=dict(self.cluster.stats.by_kind),
            wait_mode=self.wait_mode,
            elapsed_sim_time=self.cluster.sim.now,
            phase_snapshots=list(self._phase_snapshots),
        )

    def _read_back_solution(self) -> array:
        values = array("d")
        for j in range(self.n):
            location = location_array("x", j)
            if self.protocol == "central":
                node = self.cluster.server
            else:
                node = self.cluster.nodes[j]
            assert node is not None
            entry = node.store.get(location)
            assert entry is not None
            values.append(entry.value)
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
