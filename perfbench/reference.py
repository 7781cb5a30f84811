"""Fixed reference work, timed beside every job to normalise machine speed.

The reference uses only the standard library and never imports fpverify, so
no change to the program can change it.  Its unit has two halves: a
compute half over a small working set (list rows, an int-keyed dict,
union-find chains: the interpreter load of the engines) and a memory half
of pseudo-random reads from an 8 MiB buffer.  A shared host slows jobs
both through the core and through the memory system it shares with its
neighbours; in trials the two halves together tracked the engines' speed
more closely over many minutes than either half alone.  All keys are
integers, so no hash depends on ``PYTHONHASHSEED``.  A reference loop is
``LOOP_UNITS`` units.  The buffer is part of every measured child's peak
RSS.

Machine speed drifts by tens of percent within seconds, so a job is
normalised by every unit timed around it: one reference loop just before,
one just after, and one unit every ``SAMPLE_EVERY_S`` seconds during the
job, run from a ``SIGALRM`` handler in the same process.  The handler's
time is taken out of the job's time.
"""

from __future__ import annotations

import signal
from time import perf_counter

ROWS = 2048
BUFFER_BYTES = 1 << 23
READS = 20_000
CHECKSUM = 5362958
LOOP_UNITS = 4
SAMPLE_EVERY_S = 0.2


class Reference:
    """Owns the reference buffer; every unit does the same work."""

    def __init__(self):
        self.buffer = bytearray(range(256)) * (BUFFER_BYTES // 256)

    def unit(self) -> int:
        """Run one unit; returns a checksum of what it computed."""
        table = [-1] * (4 * ROWS)
        parent = list(range(ROWS))
        counts: dict[int, int] = {}
        x = 1
        total = 0
        for _ in range(2):
            for i in range(ROWS):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                j = x % ROWS
                col = x & 3
                table[4 * i + col] = j
                key = 4 * j + col
                counts[key] = counts.get(key, 0) + 1
                a, b = i, j
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a != b and x & 8:
                    lo, hi = (a, b) if a < b else (b, a)
                    parent[hi] = lo
                total += a + table[key]
        buf = self.buffer
        for _ in range(READS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += buf[x >> 8]  # 31-bit state: 2**23 bytes of addresses
        return (total + len(counts)) & 0x7FFFFFFF

    def timed_unit(self) -> float:
        """Wall seconds of one unit, checked against CHECKSUM."""
        t0 = perf_counter()
        value = self.unit()
        elapsed = perf_counter() - t0
        if value != CHECKSUM:
            raise RuntimeError(f"reference checksum {value} != {CHECKSUM}")
        return elapsed

    def timed_loop(self) -> list[float]:
        """Unit times of one reference loop."""
        return [self.timed_unit() for _ in range(LOOP_UNITS)]


class Sampler:
    """Times one reference unit every SAMPLE_EVERY_S seconds while active."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.units: list[float] = []
        self.handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.units.append(self.reference.timed_unit())
        self.handler_s += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
