"""The codec alone, A/B in one process: record every encode and decode of
two `sim-wire`-shaped runs (n = 16, 32 locations, 125 ops per process,
seeds 1991 and 1992), then replay that sequence through two `wire.py`
files loaded side by side, alternating which goes first, and print the
best time per message of each.  Both files share every other module, so
the only difference timed is the codec.

usage: PYTHONPATH=<parent>/src python <this directory>/codec_ab.py \
           <parent>/src/repro/protocols/wire.py <change>/src/repro/protocols/wire.py
"""
import importlib.util
import sys
import time

from repro.apps.workload import WorkloadConfig, run_random_execution
from repro.protocols.wire import WireCodec

log, frames = [], {}
encode, decode = WireCodec.encode, WireCodec.decode


def recorded_encode(self, src, dst, message):
    frame = encode(self, src, dst, message)
    frames[frame.data] = len(log)
    log.append(("e", src, dst, message))
    return frame


def recorded_decode(self, src, dst, data):
    log.append(("d", src, dst, frames[data]))
    return decode(self, src, dst, data)


WireCodec.encode, WireCodec.decode = recorded_encode, recorded_decode
for seed in (1991, 1992):
    log.append(("new",))
    run_random_execution(WorkloadConfig(
        n_nodes=16, n_locations=32, ops_per_proc=125, protocol="causal",
        delta_stamps=True, seed=seed))
WireCodec.encode, WireCodec.decode = encode, decode

codecs = {}
for name, path in zip(("parent", "change"), sys.argv[1:3]):
    spec = importlib.util.spec_from_file_location(f"wire_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    codecs[name] = module.WireCodec

best = {name: [float("inf"), float("inf")] for name in codecs}
clock = time.perf_counter
for rnd in range(20):
    for name in ("parent", "change")[:: 1 if rnd % 2 == 0 else -1]:
        encoded = decoded = 0.0
        sent = {}
        for index, item in enumerate(log):
            if item[0] == "new":
                codec = codecs[name]()
            elif item[0] == "e":
                start = clock()
                sent[index] = codec.encode(item[1], item[2], item[3]).data
                encoded += clock() - start
            else:
                data = sent.pop(item[3])
                start = clock()
                codec.decode(item[1], item[2], data)
                decoded += clock() - start
        best[name][0] = min(best[name][0], encoded)
        best[name][1] = min(best[name][1], decoded)
messages = sum(1 for item in log if item[0] == "e")
print(f"{messages} messages, best of 20 alternating rounds, ns per message:")
for name, (encoded, decoded) in best.items():
    print(f"  {name}: encode {encoded / messages * 1e9:.0f}  decode "
          f"{decoded / messages * 1e9:.0f}  both {(encoded + decoded) / messages * 1e9:.0f}")
