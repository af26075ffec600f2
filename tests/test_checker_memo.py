"""The memoised causal checker must be invisible except for speed.

Whole verdicts memoised under history fingerprints
(:class:`CachedCausalChecker`).  These tests pin the only property that
matters — verdict-for-verdict equality with the unmemoised checker —
over thousands of generated histories and over the explorer-style
corpus the history table was built for.
"""

import random

from repro.checker import (
    CachedCausalChecker,
    check_causal,
    history_fingerprint,
    random_history,
)

#: Spread of generator shapes; seeds vary inside each test.
SHAPES = [
    dict(n_procs=2, n_locations=1, ops_per_proc=3, read_fraction=0.5),
    dict(n_procs=3, n_locations=2, ops_per_proc=4, read_fraction=0.5),
    dict(n_procs=3, n_locations=3, ops_per_proc=5, read_fraction=0.7),
    dict(n_procs=4, n_locations=2, ops_per_proc=4, read_fraction=0.3),
]


def _equal_results(plain, memoised) -> bool:
    if plain.ok != memoised.ok:
        return False
    if (plain.cycle is None) != (memoised.cycle is None):
        return False
    if len(plain.verdicts) != len(memoised.verdicts):
        return False
    for left, right in zip(plain.verdicts, memoised.verdicts):
        if left.read.op_id != right.read.op_id or left.ok != right.ok:
            return False
        if left.live_writes != right.live_writes:
            return False
    return True


def test_memoised_checker_equals_unmemoised_on_5000_histories():
    """The acceptance bar: >= 5000 histories, zero verdict drift."""
    cached_checker = CachedCausalChecker()
    checked = 0
    for index in range(5000):
        shape = SHAPES[index % len(SHAPES)]
        history = random_history(seed=index, **shape)
        plain = check_causal(history)
        with_full_cache = cached_checker.check(history)
        assert _equal_results(plain, with_full_cache), history.to_text()
        checked += 1
    assert checked == 5000


def test_memoised_checker_equals_unmemoised_on_explorer_corpus():
    """The corpus the caches were designed for: dominated schedules."""
    from repro.mc import ControlledRun, preset

    spec = preset("exhaustive")
    cached = CachedCausalChecker()
    for index in range(120):
        rng = random.Random(f"memo-corpus/{index}")
        run = ControlledRun(spec)
        while run.crashed is None:
            actions = run.actions()
            if not actions:
                break
            run.apply(actions[rng.randrange(len(actions))])
        history = run.outcome().history
        assert _equal_results(check_causal(history), cached.check(history))
    # Random schedules of one small program mostly repeat histories.
    assert cached.history_hits > 0
    assert cached.history_hit_rate > 0.5


def test_history_cache_returns_identical_result_object():
    first = random_history(seed=1, n_procs=3, n_locations=2, ops_per_proc=4)
    second = random_history(seed=1, n_procs=3, n_locations=2, ops_per_proc=4)
    checker = CachedCausalChecker()
    assert checker.check(first) is checker.check(second)
    assert checker.history_hits == 1


def test_history_fingerprint_distinguishes_different_histories():
    seen = set()
    distinct = 0
    for seed in range(50):
        history = random_history(seed=seed, n_procs=3, n_locations=2,
                                 ops_per_proc=4)
        key = history_fingerprint(history)
        if key not in seen:
            seen.add(key)
            distinct += 1
    assert distinct > 40  # collisions would be fingerprint bugs
