"""``LinearSystem.random`` against numpy's construction, and
``exact_solution()`` against a ``Fraction`` solve.

Part one needs numpy (it is the reference, not a dependency): for every
size and seed below, draw the system the way the solver did with numpy
(``default_rng(seed).uniform(-1, 1)``, row sums by ``numpy.sum``) and
compare bytes.  Sizes 1-7 take numpy's plain summation loop, 8-128 its
eight accumulators, 129 and 200 its halving.  Part two solves each
random system of n = 1-16 (36 seeds each) over ``Fraction`` and rounds
once, and times ``exact_solution()`` at n = 6, 12 and 16.  Part one
also counts the components where ``numpy.linalg.solve`` (the reference
the solvers used before) differs from ``exact_solution()`` on perf's 32
``sim-solver`` systems.

usage: PYTHONPATH=src python <this directory>/bit_identity.py
"""
import time
from fractions import Fraction

from repro.apps.linear_solver import LinearSystem, _correctly_rounded_solve

SEEDS = (list(range(40)) + list(range(1991000, 1991016))
         + list(range(2024000, 2024016)) + [2**40 + 3, 2**70 + 11])
SIZES = list(range(1, 21)) + [24, 32, 129, 200]


def numpy_system(np, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    row_sums = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    np.fill_diagonal(a, 1.5 * row_sums + 1.0)
    return a, rng.uniform(-1.0, 1.0, size=n)


def fraction_solution(system):
    n = system.n
    rows = [[Fraction(v) for v in row] + [Fraction(b_i)]
            for row, b_i in zip(system.a, system.b)]
    for k in range(n):
        pivot_at = next(r for r in range(k, n) if rows[r][k])
        rows[k], rows[pivot_at] = rows[pivot_at], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for r in range(n):
            if r != k and rows[r][k]:
                factor = rows[r][k]
                rows[r] = [u - factor * v for u, v in zip(rows[r], rows[k])]
    return tuple(float(row[n]) for row in rows)


try:
    import numpy as np
except ImportError:
    print("numpy is not installed: part one skipped")
else:
    differ = 0
    for n in SIZES:
        for seed in SEEDS:
            a, b = numpy_system(np, n, seed)
            system = LinearSystem.random(n, seed=seed)
            differ += (np.array(system.a).tobytes() != a.tobytes()
                       or np.array(system.b).tobytes() != b.tobytes())
    print(f"numpy {np.__version__}: {len(SIZES) * len(SEEDS)} systems "
          f"(n = {SIZES[0]}-{SIZES[19]}, {', '.join(map(str, SIZES[20:]))}; "
          f"{len(SEEDS)} seeds), {differ} differ in any bit")
    # The reference solve the parent made: LAPACK, on perf's instances.
    moved = 0
    for seed in SEEDS[40:72]:
        system = LinearSystem.random(12, seed=seed)
        lapack = np.linalg.solve(np.array(system.a), np.array(system.b))
        moved += sum(x != y for x, y in zip(lapack, system.exact_solution()))
    print(f"numpy.linalg.solve vs exact_solution on the 32 sim-solver "
          f"systems (n = 12): {moved} of {32 * 12} components differ")

differ = total = 0
for n in range(1, 17):
    for seed in range(36):
        system = LinearSystem.random(n, seed=seed)
        total += 1
        differ += _correctly_rounded_solve(system.a, system.b) != fraction_solution(system)
print(f"exact_solution vs rounded Fraction solve: {total} systems, {differ} differ")
for n in (6, 12, 16):
    system = LinearSystem.random(n, seed=1991000)
    started = time.perf_counter()
    for _ in range(20):
        _correctly_rounded_solve(system.a, system.b)
    print(f"n = {n}: {(time.perf_counter() - started) / 20 * 1e3:.2f} ms per solve")
