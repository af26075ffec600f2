"""Bytecode instructions per operation (a count that repeats exactly), in
total and inside WireCodec.encode / .decode, on a 640-op run of the
`sim-wire` shape (n = 16, 32 locations, delta stamps, seed 1991).

usage: PYTHONPATH=<tree>/src python <this directory>/opcodes.py
"""
import sys
from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.protocols.wire import WireCodec
count = {"all": 0}
def tracer(frame, event, arg):
    frame.f_trace_opcodes = True
    if event == "opcode":
        count["all"] += 1
    return tracer
cfg = WorkloadConfig(n_nodes=16, n_locations=32, ops_per_proc=40, protocol="causal", delta_stamps=True, seed=1991)
enc, dec = WireCodec.encode, WireCodec.decode
def e(self, *a):
    before = count["all"]; r = enc(self, *a); count["enc"] = count.get("enc", 0) + count["all"] - before; return r
def d(self, *a):
    before = count["all"]; r = dec(self, *a); count["dec"] = count.get("dec", 0) + count["all"] - before; return r
WireCodec.encode, WireCodec.decode = e, d
sys.settrace(tracer)
run_random_execution(cfg)
sys.settrace(None)
ops = 16 * 40
print({k: round(v / ops, 1) for k, v in count.items()})
