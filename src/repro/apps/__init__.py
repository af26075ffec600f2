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

Every module here is plain Python: the solvers' systems, reference
solutions and norms included (DESIGN.md §4.9).
"""

from repro.apps.async_solver import AsynchronousSolver
from repro.apps.bulletin import BoardView, BulletinBoard, Post
from repro.apps.dictionary import (
    FREE,
    DictionaryCluster,
    DictionaryView,
)
from repro.apps.linear_solver import LinearSystem, SolverResult, SynchronousSolver
from repro.apps.waiting import oracle_wait, polling_wait
from repro.apps.workload import WorkloadConfig, run_random_execution

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
