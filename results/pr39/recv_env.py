"""What one live read costs, with and without perf's allocator settings.

asyncio's ``Protocol`` transport reads with ``sock.recv(262144)``: every
read allocates a 256 KiB bytes object and shrinks it to what arrived.
Under glibc's default trim threshold that can hand the heap top back to
the kernel and fault it in again on the next read.  ``python -m perf``
runs every workload with ``MALLOC_TRIM_THRESHOLD_`` / ``MALLOC_MMAP_THRESHOLD_``
pinned (``perf/child.py``'s ``PINNED_ENV``), so the benchmark cannot see
this; this script measures it in both environments.

Usage (from the repository root)::

    python results/pr39/recv_env.py <tree> [<tree> ...]

For each tree and each environment it starts a fresh interpreter that
runs (1) a 60-byte request/echo round trip over a Unix socket pair,
read with ``recv(262144)`` and with ``recv_into`` a reused buffer, and
(2) ``run_workload_live`` in ``live-cpu``'s shape (n = 4, 8 locations,
250 ops per processor, delta stamps, no link delay, UDS), reporting the
median wall and CPU time per op over the repeats.
"""

import os
import subprocess
import sys

PERF_ENV = {
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
}

CHILD = r'''
import socket, statistics, sys, time
from repro.apps.workload import WorkloadConfig
from repro.runtime import run_workload_live

a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
payload = b"x" * 60
buffer = bytearray(65536)
view = memoryview(buffer)

def round_trips(into, count=20000):
    start = time.perf_counter()
    for _ in range(count):
        a.sendall(payload)
        if into:
            n = b.recv_into(view)
            b.sendall(view[:n])
            a.recv_into(view)
        else:
            data = b.recv(262144)
            b.sendall(data)
            a.recv(262144)
    return (time.perf_counter() - start) / count * 1e6

recv = statistics.median(round_trips(False) for _ in range(5))
recv_into = statistics.median(round_trips(True) for _ in range(5))
walls, cpus = [], []
for seed in range(int(sys.argv[1])):
    config = WorkloadConfig(n_nodes=4, n_locations=8, ops_per_proc=250,
                            protocol="causal", delta_stamps=True, seed=seed)
    cpu = time.process_time()
    outcome = run_workload_live(config, transport="uds", link_delay=0.0)
    cpu = time.process_time() - cpu
    ops = len(outcome.history)
    walls.append((outcome.elapsed - outcome.cluster.runtime.settle) / ops * 1e6)
    cpus.append(cpu / ops * 1e6)
print(f"round trip {recv:6.1f} us recv(262144), {recv_into:5.1f} us recv_into; "
      f"live-cpu shape: wall {statistics.median(walls):6.1f} us/op, "
      f"cpu {statistics.median(cpus):6.1f} us/op")
'''


def main(trees):
    repeats = os.environ.get("REPEATS", "8")
    for tree in trees:
        for label, extra in (("default glibc", {}), ("perf's MALLOC_*", PERF_ENV)):
            env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
            env.update(extra, PYTHONPATH=os.path.join(tree, "src"),
                       PYTHONHASHSEED="0")
            out = subprocess.run(
                [sys.executable, "-c", CHILD, repeats], env=env, check=True,
                capture_output=True, text=True,
            ).stdout.strip()
            print(f"{os.path.basename(os.path.normpath(tree)):>8} | {label:15} | {out}")


if __name__ == "__main__":
    main(sys.argv[1:] or ["."])
