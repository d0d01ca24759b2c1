"""How fast the machine's CPUs run right now, from a fixed pure-Python loop.

On a shared host the same code runs up to half again as slow for minutes
at a time, on every CPU of the guest at once, while other tenants are
busy. A run lands in one or two such stretches, so its wall times move
together. `probe()` times a fixed loop of the kind of work the program
does (dict updates, string building, sorting) on each CPU this process
may use. A session's timings are scaled by `REFERENCE_S / probe`, so they
read as seconds on the reference machine at its quiet speed.

The loop is the benchmark's own code: a change to the program cannot
change the probe, so a faster program still reads faster.
"""
from __future__ import annotations

import os
import statistics
import time

# The probe's time on a quiet core of the reference machine (2 vCPUs,
# Python 3.11). Scaled figures read as seconds at that speed.
REFERENCE_S = 0.009

_ITERATIONS = 20000


def _loop() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    words = []
    for i in range(_ITERATIONS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        words.append(str(i))
    " ".join(sorted(words)).split()
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the loop takes: the fastest of three on each CPU this
    process may use, averaged over those CPUs. The process's CPU set is
    restored before returning, so the processes it starts later may run
    on any of them."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(min(_loop() for _ in range(3)))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def scale(probes: list[float]) -> float:
    """Factor that turns a session's wall times into reference seconds."""
    return REFERENCE_S / statistics.median(probes)
