"""The repo's benchmark: end-to-end and per-layer numbers for causal DSM.

One command (``python -m perf run``) drives seven workloads, each in a
fresh child interpreter, and writes speed-normalised medians with their
quartiles; ``python -m perf one`` is the single-run entry point that
``BENCHMARK.json`` names.  Nothing here edits or is imported by
``src/``: layers are timed from outside (see :mod:`perf.tracer`).
``perf/README.md`` holds the definitions and the predictions.
"""
