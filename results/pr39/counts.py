"""Per-op counts that repeat exactly, on every simulated perf workload.

For each input instance perf's simulated workloads draw for a seed, run
once at full size: ops, messages, model bytes and stamp entries, with a
digest of perf's own per-repeat fingerprints (history digests) beside
them.  On a tree whose ``ReadReply`` still carries ``location`` and
``stamp`` it also checks, on every R_REPLY a reader completes, the two
facts the reply's derived fields rest on: the first entry is the
requested location, and the stamp is the join of the entries' stamps.

usage: cd <tree> && PYTHONPATH=src:. python <this directory>/counts.py SEED...
"""
import dataclasses
import hashlib
import sys

import repro.protocols.causal_owner as owner
from perf.spec import WORKLOADS
from perf.workloads import make_runner

replies = {"checked": 0, "first_not_requested": 0, "stamp_not_join": 0,
           "entries": 0}
fields = {f.name for f in dataclasses.fields(owner.ReadReply)}
if "stamp" in fields:  # the reply carries VT' itself: check it on arrival
    complete = owner.CausalOwnerNode._complete_read

    def checked(self, msg):
        entries = msg.entries
        join = entries[0].stamp
        for entry in entries[1:]:
            join = join.update(entry.stamp)
        requested = self._pending_reads[msg.request_id][1]
        replies["checked"] += 1
        replies["entries"] += len(entries)
        replies["first_not_requested"] += entries[0].location != requested
        replies["stamp_not_join"] += msg.stamp != join
        return complete(self, msg)

    owner.CausalOwnerNode._complete_read = checked

for seed in map(int, sys.argv[1:]):
    for name in ("sim-mixed", "sim-wire", "sim-solver", "sim-observed",
                 "check-offline"):
        spec = next(w for w in WORKLOADS if w.name == name)
        runner = make_runner(spec, seed)
        ops = msgs = nbytes = entries = 0
        digest = hashlib.sha1()
        for instance in range(spec.instances):
            repeat = runner.execute(runner.prepare(spec.size, instance))
            ops += repeat.ops
            msgs += repeat.msgs
            nbytes += repeat.model_bytes
            entries += repeat.stamp_entries
            digest.update(repeat.fingerprint.encode())
        print(f"{name:13} seed {seed}: {ops} ops, {msgs / ops:.4f} msgs/op, "
              f"{nbytes / ops:.3f} B/op, {entries / ops:.4f} entries/op, "
              f"fingerprints {digest.hexdigest()[:12]}")
if replies["checked"]:
    print(f"R_REPLYs completed: {replies['checked']} with {replies['entries']} "
          f"entries; first entry not the requested location: "
          f"{replies['first_not_requested']}; stamp not the join of the "
          f"entries' stamps: {replies['stamp_not_join']}")
