"""The in-flight window under the explorer: bounded DFS (5 000 schedules) of
the `inflight` and `inflight-tasks` presets and of the 8-op ack program, on
the tree as it is or with one mutation:

  pure      every reply installed: `_overtaken` returns None (pure Figure 4)
  hits      a second task's cache hit is not an own operation
  acks      an overtaken W_REPLY is cached (the parent's behaviour)

usage: PYTHONPATH=<tree>/src python results/pr23/explore.py [pure|hits|acks]
(the parent's tree has no presets: it runs the ack program only)
"""
import sys

from repro.mc import ExploreConfig, explore, make_spec, shrink
from repro.mc.program import PRESETS
from repro.protocols.causal_owner import CausalOwnerNode

mutation = sys.argv[1] if len(sys.argv) > 1 else "none"
if mutation == "pure":
    CausalOwnerNode._overtaken = staticmethod(lambda stamp, flight: None)
elif mutation == "hits":
    note = CausalOwnerNode._note_stamp
    CausalOwnerNode._note_stamp = (
        lambda self, stamp=None, own=False:
            None if stamp is None else note(self, stamp, own)
    )
elif mutation == "acks":
    CausalOwnerNode._ack_cacheable = lambda self, location, entry, flight: True

programs = {
    name: PRESETS[name]() for name in ("inflight", "inflight-tasks")
    if name in PRESETS
}
programs["ack"] = make_spec(
    [
        (),
        (("w", "x", 1), ("r", "z"), ("r", "x"), ("w", "q", 4)),
        (("w", "x", 2), ("w", "z", 3), ("r", "q"), ("r", "x")),
    ],
    owners={"x": 0, "z": 1, "q": 1},
)
config = ExploreConfig(strategy="dfs", max_schedules=5000, stop_on_violation=True)
for name, spec in programs.items():
    result = explore(spec, config)
    print(f"[{mutation}] {name}: {result.schedules} schedules, "
          f"{'exhausted' if result.exhausted else 'stopped'}, "
          f"{len(result.violations)} violation(s)")
    if result.violations:
        small = shrink(result.violations[0], config)
        print(f"  shrunk to {small.n_ops} ops, {len(small.trace)} actions:")
        for line in small.history_text.splitlines():
            print("    " + line)
