"""The paper's applications, programmed against the DSM API.

:mod:`repro.apps.waiting`
    The ``wait(B)`` primitive of Figure 6 under a cache: oracle waiting
    (reproduces the paper's idealised message counts) and periodic
    polling with ``discard`` (the liveness mechanism of Section 3.1).
:mod:`repro.apps.linear_solver`
    The synchronous iterative solver of Figure 6 / Section 4.1, runnable
    unchanged on causal, atomic and central-server memories.
:mod:`repro.apps.async_solver`
    The asynchronous (chaotic relaxation) variant the paper delegates to
    its companion TR — no handshakes at all.
:mod:`repro.apps.dictionary`
    The distributed dictionary of Section 4.2 with owner-favoured
    resolution of concurrent writes.
:mod:`repro.apps.bulletin`
    A causal bulletin board (body-then-announce reply threads) — a third
    application beyond the paper, the classic causal-consistency
    workload.
:mod:`repro.apps.workload`
    Random read/write workload generation for property-based protocol
    safety tests.

The two solver modules compute with numpy; their names below resolve on
first use (PEP 562), so importing this package, a workload or the
protocol stack leaves numpy unloaded.
"""

from importlib import import_module

from repro.apps.bulletin import BoardView, BulletinBoard, Post
from repro.apps.dictionary import (
    FREE,
    DictionaryCluster,
    DictionaryView,
)
from repro.apps.waiting import oracle_wait, polling_wait
from repro.apps.workload import WorkloadConfig, run_random_execution

_SOLVER_EXPORTS = {
    "LinearSystem": "repro.apps.linear_solver",
    "SolverResult": "repro.apps.linear_solver",
    "SynchronousSolver": "repro.apps.linear_solver",
    "AsynchronousSolver": "repro.apps.async_solver",
}


def __getattr__(name: str):
    module = _SOLVER_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "LinearSystem",
    "SynchronousSolver",
    "SolverResult",
    "AsynchronousSolver",
    "FREE",
    "DictionaryCluster",
    "DictionaryView",
    "BulletinBoard",
    "BoardView",
    "Post",
    "oracle_wait",
    "polling_wait",
    "WorkloadConfig",
    "run_random_execution",
]
