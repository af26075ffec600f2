"""The two one-line mutants of the W_REPLY basis rule, each applied by
monkeypatch, against the tier-1 files that exercise the codec.  Prints
the ids that fail under each mutant (the ids that kill it).

usage: PYTHONPATH=src:tests python <this directory>/mutants.py
"""
import sys

import pytest
from hypothesis import settings

from repro.protocols import wire

# No example database: a kill must not rest on an example remembered
# from an earlier run.
settings.register_profile("mutants", database=None)
settings.load_profile("mutants")

FILES = [
    "tests/test_wire.py",
    "tests/test_wire_frames.py",
    "tests/test_prop_wire.py",
    "tests/test_workload.py",
    "tests/test_bench_runner.py",
]

MUTANTS = {
    # The writer decodes a W_REPLY's stamp over the channel basis.
    "writer decodes over the channel basis": (
        wire._RecvState, "reply_stamp",
        lambda self, data, off, request_id: self.stamp(data, off),
    ),
    # The owner encodes a W_REPLY's stamp over the channel basis.
    "owner encodes over the channel basis": (
        wire._SendState, "reply_stamp",
        lambda self, request_id, clock: self.stamp(clock),
    ),
}


class Failures:
    def __init__(self):
        self.ids = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids.append(report.nodeid)


for name, (cls, attr, patch) in MUTANTS.items():
    original = getattr(cls, attr)
    setattr(cls, attr, patch)
    try:
        failures = Failures()
        pytest.main(
            ["-q", "-p", "no:cacheprovider", "-o", "addopts=", "-m", "not live",
             "--no-header", "-rN", "--tb=no", *FILES],
            plugins=[failures],
        )
    finally:
        setattr(cls, attr, original)
    print(f"\n## {name}: killed by {len(failures.ids)} ids", file=sys.stderr)
    for nodeid in failures.ids:
        print(f"  {nodeid}", file=sys.stderr)
