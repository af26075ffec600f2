"""Schedule exploration: systematic DFS and randomized (PCT) search.

Strategies
----------
``dfs``
    Bounded depth-first enumeration of every selectable-action sequence,
    with *dominance pruning*: a prefix whose per-unit action projections
    (Mazurkiewicz trace) match an already-visited prefix is abandoned —
    both prefixes reach the same protocol state, so continuations from
    one cover the other.  With pruning off the walk is a plain
    exhaustive enumeration (useful for validating the pruning itself).

``random`` / ``pct``
    Seeded stochastic schedules: ``random`` picks uniformly among
    selectable actions; ``pct`` assigns each chain (a channel, a task) a
    random priority and always runs the highest, lowering the running
    chain's priority at a few random change points — the classic
    probabilistic-concurrency-testing shape that surfaces ordering bugs
    bounded DFS depth would miss.

Every leaf execution records a history that is checked against the
model its protocol promises (``EXPECTED_MODEL``); crashes and reliable-
network deadlocks are violations too.  Checking goes through one shared
:class:`~repro.checker.CachedCausalChecker` plus a per-model history
memo, so dominated schedules that still reach distinct interleavings of
the *same* recorded history cost O(1) to re-verify (DESIGN.md §4.6,
"Checker memoisation").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.checker import (
    CachedCausalChecker,
    check_pram,
    check_sequential,
    check_slow,
    history_fingerprint,
)
from repro.checker.history import History
from repro.mc.counterexample import Counterexample
from repro.mc.program import McError, ProgramSpec
from repro.mc.scheduler import Action, ControlledRun, RunOutcome

__all__ = [
    "EXPECTED_MODEL",
    "CheckerZoo",
    "ExploreConfig",
    "ExplorationResult",
    "evaluate_outcome",
    "explore",
]

#: The consistency model each protocol engine promises.  Broadcast
#: memory is the paper's negative result: it looks causal but admits
#: Figure 3, so only slow memory can be promised for it.
EXPECTED_MODEL: Dict[str, str] = {
    "causal": "causal",
    "atomic": "sequential",
    "li": "sequential",
    "central": "sequential",
    "broadcast": "slow",
}

ALL_MODELS: Tuple[str, ...] = ("sequential", "causal", "pram", "slow")

_MODEL_FNS = {
    "sequential": lambda history: check_sequential(history).ok,
    "pram": lambda history: check_pram(history).ok,
    "slow": lambda history: check_slow(history).ok,
}


class CheckerZoo:
    """Memoised verdicts for every consistency model.

    Causal checking runs through a :class:`CachedCausalChecker` (a
    history table); the other models get a plain
    per-history-fingerprint memo.  One zoo is shared across all leaves
    of an exploration, so dominated schedules re-verify in O(1).
    """

    def __init__(self) -> None:
        self.causal = CachedCausalChecker()
        self._memo: Dict[Tuple[str, Tuple], bool] = {}

    def verdict(self, history: History, model: str) -> bool:
        if model == "causal":
            return self.causal.check(history).ok
        try:
            check = _MODEL_FNS[model]
        except KeyError:
            raise McError(f"unknown consistency model {model!r}") from None
        key = (model, history_fingerprint(history))
        cached = self._memo.get(key)
        if cached is None:
            cached = check(history)
            self._memo[key] = cached
        return cached

    def stats(self) -> Dict[str, float]:
        return {
            "history_hits": self.causal.history_hits,
            "history_misses": self.causal.history_misses,
            "history_hit_rate": round(self.causal.history_hit_rate, 4),
        }


def evaluate_outcome(
    outcome: RunOutcome,
    protocol: str,
    models: Optional[Tuple[str, ...]] = None,
    zoo: Optional[CheckerZoo] = None,
    expected_model: Optional[str] = None,
) -> Tuple[Dict[str, bool], bool, Tuple[str, Optional[str], str]]:
    """Judge one leaf execution.

    Returns ``(verdicts, violated, (kind, model, description))``.  A
    crash is always a violation (a refused history is one, and no
    checker runs on it); blocked tasks are a violation only on a
    reliable network (no drops — the paper's protocols may legitimately
    block forever once messages are lost); otherwise the recorded
    history must satisfy the protocol's expected model.
    """
    expected = expected_model or EXPECTED_MODEL[protocol]
    zoo = zoo or CheckerZoo()
    wanted = models or (expected,)
    verdicts = {} if outcome.history is None else {
        model: zoo.verdict(outcome.history, model) for model in wanted
    }
    if outcome.crashed is not None:
        return verdicts, True, (
            "crash", None, f"execution crashed: {outcome.crashed}"
        )
    if not outcome.completed:
        blocked = ", ".join(outcome.blocked)
        if outcome.drops == 0:
            return verdicts, True, (
                "deadlock", None,
                f"tasks blocked on a reliable network: {blocked}",
            )
        return verdicts, False, (
            "deadlock", None,
            f"tasks blocked after {outcome.drops} dropped messages: {blocked}",
        )
    if not verdicts.get(expected, True):
        return verdicts, True, (
            "consistency", expected,
            f"{protocol!r} execution violates {expected} consistency",
        )
    return verdicts, False, ("ok", None, "no violation")


@dataclass(frozen=True)
class ExploreConfig:
    """Exploration parameters (all deterministic given ``seed``)."""

    strategy: str = "dfs"  # "dfs" | "random" | "pct"
    max_schedules: int = 2000
    max_steps: int = 5000
    max_drops: int = 0
    prune: bool = True
    seed: int = 0
    full_zoo: bool = False
    expected_model: Optional[str] = None
    stop_on_violation: bool = False
    pct_changes: int = 3

    def __post_init__(self) -> None:
        if self.strategy not in ("dfs", "random", "pct"):
            raise McError(f"unknown strategy {self.strategy!r}")


@dataclass
class ExplorationResult:
    """What an exploration covered and what it found."""

    spec: ProgramSpec
    config: ExploreConfig
    schedules: int = 0
    pruned: int = 0
    completed: int = 0
    blocked: int = 0
    crashes: int = 0
    distinct_histories: int = 0
    exhausted: bool = False
    violations: List[Counterexample] = field(default_factory=list)
    checker_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        shape = "exhausted" if self.exhausted else "budget-bounded"
        lines = [
            f"explored {self.schedules} schedules "
            f"({self.pruned} pruned, {shape}) "
            f"over protocol {self.spec.protocol!r} [{self.config.strategy}]",
            f"leaves: {self.completed} completed, {self.blocked} blocked, "
            f"{self.crashes} crashed; "
            f"{self.distinct_histories} distinct histories",
            f"violations: {len(self.violations)}",
        ]
        stats = self.checker_stats
        if stats:
            lines.append(
                f"checker memo: history hit rate {stats['history_hit_rate']:.0%}"
            )
        return "\n".join(lines)

    def to_jsonable(self) -> Dict:
        return {
            "schedules": self.schedules,
            "pruned": self.pruned,
            "completed": self.completed,
            "blocked": self.blocked,
            "crashes": self.crashes,
            "distinct_histories": self.distinct_histories,
            "exhausted": self.exhausted,
            "violations": len(self.violations),
            "checker": dict(self.checker_stats),
        }


class _TraceDigest:
    """Incremental Mazurkiewicz-trace identity of an action sequence.

    Actions are projected onto the units they touch; two sequences with
    equal projections are reorderings of each other by swaps of adjacent
    independent actions only, hence reach the same state.  Globally-
    dependent actions (unit ``("g",)``) additionally stamp an *epoch*
    into every later entry, so no action commutes across them.
    """

    __slots__ = ("_proj", "_epoch")

    def __init__(self) -> None:
        self._proj: Dict[Tuple, List] = {}
        self._epoch = 0

    def push(self, action: Action, units: Tuple[Tuple, ...]) -> None:
        entry = (self._epoch, action)
        for unit in units:
            self._proj.setdefault(unit, []).append(entry)
            if unit == ("g",):
                self._epoch += 1

    def key(self) -> Tuple:
        return tuple(
            sorted((unit, tuple(entries)) for unit, entries in self._proj.items())
        )


class _LeafTally:
    """Shared leaf bookkeeping for both exploration strategies."""

    def __init__(self, spec: ProgramSpec, config: ExploreConfig) -> None:
        self.spec = spec
        self.config = config
        self.zoo = CheckerZoo()
        self.result = ExplorationResult(spec=spec, config=config)
        self._fingerprints: Set[Tuple] = set()
        self.models = ALL_MODELS if config.full_zoo else None

    def record(self, outcome: RunOutcome) -> bool:
        """Count one leaf; returns True when exploration should stop."""
        result = self.result
        verdicts, violated, (kind, model, description) = evaluate_outcome(
            outcome,
            self.spec.protocol,
            models=self.models,
            zoo=self.zoo,
            expected_model=self.config.expected_model,
        )
        if outcome.history is not None:
            self._fingerprints.add(history_fingerprint(outcome.history))
        result.distinct_histories = len(self._fingerprints)
        if outcome.crashed is not None:
            result.crashes += 1
        elif outcome.completed:
            result.completed += 1
        else:
            result.blocked += 1
        if violated:
            result.violations.append(
                Counterexample(
                    spec=self.spec,
                    trace=outcome.trace,
                    kind=kind,
                    model=model,
                    description=description,
                    history_text=outcome.history_text,
                    verdicts=verdicts,
                )
            )
            if self.config.stop_on_violation:
                return True
        return False

    def finish(self, schedules: int, pruned: int, exhausted: bool) -> ExplorationResult:
        self.result.schedules = schedules
        self.result.pruned = pruned
        self.result.exhausted = exhausted
        self.result.checker_stats = self.zoo.stats()
        return self.result


# ----------------------------------------------------------------------
# Systematic search
# ----------------------------------------------------------------------
def _explore_dfs(spec: ProgramSpec, config: ExploreConfig) -> ExplorationResult:
    tally = _LeafTally(spec, config)
    visited: Set[Tuple] = set()
    chosen: List[Action] = []
    remaining: List[List[Action]] = []
    schedules = 0
    pruned = 0
    exhausted = False
    stop = False

    while not stop:
        if schedules >= config.max_schedules:
            break
        # One execution: replay `chosen`, then extend first-choice-first,
        # recording untried siblings.  `fresh_from` marks the first depth
        # whose action was never executed before (everything shallower is
        # a replay and its digests are already in `visited`).
        fresh_from = max(len(chosen) - 1, 0)
        run = ControlledRun(spec, max_drops=config.max_drops)
        digest = _TraceDigest()
        was_pruned = False
        depth = 0
        while depth < config.max_steps:
            if run.crashed is not None:
                break
            actions = run.actions()
            if not actions:
                break
            if depth < len(chosen):
                action = chosen[depth]
            else:
                action = actions[0]
                chosen.append(action)
                remaining.append(actions[1:])
            run.apply(action)
            digest.push(action, run.units_of(action))
            if config.prune and depth >= fresh_from:
                key = digest.key()
                if key in visited:
                    was_pruned = True
                    depth += 1
                    break
                visited.add(key)
            depth += 1
        else:
            raise McError(
                f"schedule exceeded {config.max_steps} steps; "
                "raise max_steps or shrink the program"
            )
        schedules += 1
        if was_pruned:
            pruned += 1
        else:
            stop = tally.record(run.outcome())
        # Backtrack to the deepest depth with untried siblings.
        while remaining and not remaining[-1]:
            remaining.pop()
            chosen.pop()
        if not remaining:
            exhausted = True
            break
        chosen[-1] = remaining[-1].pop(0)

    return tally.finish(schedules, pruned, exhausted)


# ----------------------------------------------------------------------
# Randomized search
# ----------------------------------------------------------------------
def _chain_of(action: Action) -> Tuple:
    kind, key = action
    if key[0] == "m":
        return ("c", key[1], key[2], kind)
    if key[0] == "t":
        return ("t", key[1])
    return ("e",)


class _PctChooser:
    """Priority-based scheduling with a few random change points."""

    def __init__(self, rng: random.Random, changes: int, horizon: int):
        self._rng = rng
        self._priority: Dict[Tuple, float] = {}
        self._step = 0
        # Change points sampled once per schedule, PCT-style.
        points = min(changes, max(horizon - 1, 0))
        self._change_at = set(
            rng.sample(range(1, horizon), points) if points else []
        )

    def __call__(self, actions: List[Action], run: ControlledRun) -> Action:
        best = None
        best_priority = -1.0
        for action in actions:
            chain = _chain_of(action)
            priority = self._priority.get(chain)
            if priority is None:
                priority = self._rng.random()
                self._priority[chain] = priority
            if priority > best_priority:
                best_priority = priority
                best = action
        assert best is not None
        self._step += 1
        if self._step in self._change_at:
            # Demote the chain that just ran below every current priority.
            floor = min(self._priority.values(), default=1.0)
            self._priority[_chain_of(best)] = self._rng.random() * floor
        return best


def _explore_random(spec: ProgramSpec, config: ExploreConfig) -> ExplorationResult:
    tally = _LeafTally(spec, config)
    schedules = 0
    horizon = 4 * spec.n_ops + 8
    for index in range(config.max_schedules):
        rng = random.Random(f"mc/{config.strategy}/{config.seed}/{index}")
        if config.strategy == "pct":
            chooser = _PctChooser(rng, config.pct_changes, horizon)
        else:
            def chooser(actions, run, _rng=rng):
                return actions[_rng.randrange(len(actions))]
        run = ControlledRun(spec, max_drops=config.max_drops)
        for _ in range(config.max_steps):
            if run.crashed is not None:
                break
            actions = run.actions()
            if not actions:
                break
            run.apply(chooser(actions, run))
        else:
            raise McError(
                f"schedule exceeded {config.max_steps} steps; "
                "raise max_steps or shrink the program"
            )
        schedules += 1
        if tally.record(run.outcome()):
            break
    return tally.finish(schedules, pruned=0, exhausted=False)


def explore(
    spec: ProgramSpec, config: Optional[ExploreConfig] = None, **overrides
) -> ExplorationResult:
    """Explore ``spec``'s schedule space per ``config`` (or overrides)."""
    if config is None:
        config = ExploreConfig(**overrides)
    elif overrides:
        raise McError("pass either a config or keyword overrides, not both")
    if config.strategy == "dfs":
        return _explore_dfs(spec, config)
    return _explore_random(spec, config)
