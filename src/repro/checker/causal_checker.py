"""The causal-memory correctness condition — Definition 2 of the paper.

"An execution on causal memory is correct if the value returned by each
read operation in the execution is live for that read."

:func:`check_causal` evaluates that condition over a :class:`History`,
returning a :class:`CausalCheckResult` with a verdict per read and a list
of violations (reads whose write source is not live for them).  Each
read's verdict is the one :class:`CausalOrder` reached on its own
source while filing it; its whole live set is built only when someone
asks.  A
cyclic causality relation — a read reading from a causally later write
— is reported as a violation rather than an exception, so
random-workload property tests can treat "not causal" uniformly.

One memoisation layer serves callers that check *many* histories (the
:mod:`repro.mc` schedule explorer): :class:`CachedCausalChecker`
memoises whole verdicts keyed on the history's operation content, so a
dominated schedule — a different interleaving that recorded the *same*
history — is checked in O(1) without even rebuilding the causality
relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.checker.causality import CausalityCycleError, CausalOrder
from repro.checker.history import History, Operation
from repro.checker.live_values import live_set

__all__ = [
    "CausalCheckResult",
    "ReadVerdict",
    "check_causal",
    "CachedCausalChecker",
    "history_fingerprint",
]


@dataclass(frozen=True, slots=True)
class ReadVerdict:
    """One read's verdict; its live set is built from ``order`` when asked.

    :func:`check_causal` builds its verdicts by ``object.__new__`` and
    the slot descriptors' ``__set__``, as ``wire._compile`` builds
    decoded messages: frozen against assignment, not against that.
    """

    read: Operation
    ok: bool
    order: CausalOrder = field(repr=False, compare=False)

    @property
    def live_writes(self) -> Tuple[Operation, ...]:
        """The writes live for the read, in :func:`live_set` order."""
        return tuple(live_set(self.order, self.read))

    @property
    def live_values(self) -> Set[Any]:
        """``alpha(o)`` as a value set, as the paper's examples report it."""
        return {write.value for write in self.live_writes}

    def explain(self) -> str:
        """One-line human-readable verdict."""
        values = sorted(map(repr, self.live_values))
        status = "ok" if self.ok else "VIOLATION"
        return (
            f"{self.read}: alpha = {{{', '.join(values)}}} "
            f"returned {self.read.value!r} -> {status}"
        )


_new_verdict = object.__new__
_set_read, _set_ok, _set_order = (
    ReadVerdict.__dict__[name].__set__ for name in ("read", "ok", "order")
)


@dataclass
class CausalCheckResult:
    """Outcome of checking Definition 2 over a whole history."""

    ok: bool
    verdicts: List[ReadVerdict] = field(default_factory=list)
    cycle: Optional[CausalityCycleError] = None
    _by_op: Optional[Dict[Tuple[int, int], ReadVerdict]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def violations(self) -> List[ReadVerdict]:
        """Reads that returned a value outside their live set."""
        return [verdict for verdict in self.verdicts if not verdict.ok]

    def verdict_for(self, proc: int, index: int) -> ReadVerdict:
        """The verdict of the ``index``-th op of process ``proc``."""
        by_op = self._by_op
        if by_op is None:
            by_op = self._by_op = {v.read.op_id: v for v in self.verdicts}
        try:
            return by_op[proc, index]
        except KeyError:
            raise KeyError(f"no read verdict for op ({proc}, {index})") from None

    def alpha(self, proc: int, index: int) -> Set[Any]:
        """Shorthand for the live-value set of one read."""
        return self.verdict_for(proc, index).live_values

    def explain(self) -> str:
        """Multi-line report: every read's live set and verdict."""
        if self.cycle is not None:
            return f"not causal: {self.cycle}"
        lines = [verdict.explain() for verdict in self.verdicts]
        summary = "execution is causal" if self.ok else (
            f"execution is NOT causal ({len(self.violations)} violating reads)"
        )
        return "\n".join(lines + [summary])


def check_causal(history: History, obs=None) -> CausalCheckResult:
    """Check Definition 2: every read returns a live value.

    ``obs`` (optional TraceCollector) receives a ``check.verdict`` event.

    Examples
    --------
    >>> h = History.parse('''
    ...     P1: w(x)5 w(y)3
    ...     P2: w(x)2 r(y)3 r(x)5 w(z)4
    ...     P3: r(z)4 r(x)2
    ... ''')
    >>> check_causal(h).ok   # the paper's Figure 3: not causal
    False
    """
    try:
        order = CausalOrder(history)
    except CausalityCycleError as cycle:
        if obs is not None and obs.wants("check", "verdict"):
            obs.emit(
                "check", "verdict", ok=False, reads=0, violations=0,
                cached=False, cycle=str(cycle),
            )
        return CausalCheckResult(ok=False, cycle=cycle)

    rejected = order.rejected
    verdicts = []
    append = verdicts.append
    for read in history.reads():
        verdict = _new_verdict(ReadVerdict)
        _set_read(verdict, read)
        _set_ok(verdict, read.op_id not in rejected)
        _set_order(verdict, order)
        append(verdict)
    result = CausalCheckResult(ok=not rejected, verdicts=verdicts)
    if obs is not None and obs.wants("check", "verdict"):
        obs.emit(
            "check", "verdict", ok=result.ok,
            reads=len(verdicts), violations=len(result.violations),
            cached=False,
        )
    return result


def history_fingerprint(history: History) -> Tuple:
    """A hashable identity of a history's operation content.

    Two histories with equal fingerprints contain (dataclass-)equal
    operations — same processes, kinds, locations, values and
    reads-from/write identities — so every checker verdict coincides.
    Schedules the explorer calls *dominated* (different interleavings
    recording the same execution) collide here by construction.
    """
    return tuple(
        tuple(
            (op.kind, op.location, op.value, op.write_id, op.read_from)
            for op in ops
        )
        for ops in history.processes
    )


class CachedCausalChecker:
    """Definition 2 checking with whole-history memoisation.

    Wraps :func:`check_causal` with an exact-history table: dominated
    schedules are O(1), and not even the causality relation is rebuilt.
    """

    def __init__(self) -> None:
        self.history_hits = 0
        self.history_misses = 0
        self._results: Dict[Tuple, CausalCheckResult] = {}
        #: Attached TraceCollector, or None (all emits are guarded).
        self.obs = None

    def check(self, history: History) -> CausalCheckResult:
        """Check ``history``, reusing any memoised verdict."""
        key = history_fingerprint(history)
        result = self._results.get(key)
        if result is not None:
            self.history_hits += 1
            if self.obs is not None and self.obs.wants("check", "verdict"):
                # The same keys as check_causal's own event.
                extra = {}
                if result.cycle is not None:
                    extra["cycle"] = str(result.cycle)
                self.obs.emit(
                    "check", "verdict", ok=result.ok,
                    reads=len(result.verdicts),
                    violations=len(result.violations), cached=True, **extra,
                )
            return result
        self.history_misses += 1
        result = check_causal(history, obs=self.obs)
        self._results[key] = result
        return result

    @property
    def history_hit_rate(self) -> float:
        """Fraction of checks answered from the history table."""
        total = self.history_hits + self.history_misses
        return self.history_hits / total if total else 0.0
