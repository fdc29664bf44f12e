"""Times at reference speed.

A shared virtual machine can run the same work in fast and slow phases
up to about 1.6 times apart, and a phase can outlast a
one-minute run, so raw times say as much about the machine's phase as
about the program.  The benchmark therefore runs a fixed reference
kernel, which never calls the program, every ``CHUNK_S`` seconds of item
time, and scales each item's time by ``KERNEL_REF_S`` over the kernel's
time measured around it.  A scaled time is the time the item would take
on a machine on which the kernel takes ``KERNEL_REF_S``: work added to or
removed from the program moves it in full, the machine's phase does not.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

KERNEL_REF_S = 0.0025  # about the kernel's time on the reference machine
KERNEL_REPEATS = 5
CHUNK_S = 0.5


def kernel() -> int:
    """Fixed pure-Python work in the program's idiom: small fractions,
    tuples, dicts and frozensets."""
    seen = {}
    for i in range(1, 200):
        f = Fraction(i, 7) + Fraction(3, i % 11 + 1)
        g = f * f - Fraction(1, 3)
        seen[(g.numerator % 97, i % 13)] = f <= g
        seen[tuple(sorted((i * j) % 31 for j in range(8)))] = frozenset(range(i % 5))
    return len(seen)


def kernel_time() -> float:
    """Median kernel time, with the collector off so that the size of the
    benchmark's heap does not change the kernel's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Scaler:
    """Collects raw times and hands them back scaled by the kernel time
    measured before and after them."""

    def __init__(self):
        self.before = kernel_time()
        self.pending: list = []  # (key, raw seconds)
        self.pending_s = 0.0
        self.factors: list = []  # KERNEL_REF_S / kernel time, per chunk

    def add(self, key, seconds, out: dict) -> None:
        """Record a raw time; once ``CHUNK_S`` has gathered, append each
        scaled time to ``out[key]``."""
        self.pending.append((key, seconds))
        self.pending_s += seconds
        if self.pending_s >= CHUNK_S:
            self.flush(out)

    def flush(self, out: dict) -> None:
        if not self.pending:
            return
        after = kernel_time()
        factor = KERNEL_REF_S / ((self.before + after) / 2.0)
        for key, seconds in self.pending:
            out.setdefault(key, []).append(seconds * factor)
        self.factors.append(factor)
        self.before, self.pending, self.pending_s = after, [], 0.0
