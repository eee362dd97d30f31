"""The host's current speed, read from a fixed pure-Python kernel.

The host this benchmark was written on changes speed by up to 2x, in
stretches of a fraction of a second to hours, as other tenants load the
cores it shares.  The benchmark therefore times a fixed kernel before and
after every item, and every SAMPLE_S while a long item runs, and reports
each item's time in reference seconds: the seconds the item would take on a
host where the kernel takes REF_S.  The kernel is a small copy of the shape
of the library's hot loop (row elimination through bound field methods that
look up log, exp and addition tables), so that a slowdown of the host slows
both alike.  It is the benchmark's own code: no change to the library
changes its time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

# seconds the kernel takes at reference speed: a round figure of the order
# of its time on the 2-vCPU x86-64 VM with Python 3.11.7 this was written
# on (1.3-2 ms there), so that reference seconds are of the order of seconds
REF_S = 0.001
# a long item is interrupted this often, in seconds, to read the kernel
SAMPLE_S = 0.1

_ROWS, _COLS = 16, 24


class _PrimeField:
    """GF(p) with log, exp and addition tables."""

    def __init__(self, p: int, generator: int):
        self.p = p
        self._exp = [pow(generator, i, p) for i in range(p - 1)]
        self._log = [0] * p
        for i, x in enumerate(self._exp):
            self._log[x] = i
        self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
        self._neg = [-a % p for a in range(p)]

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.p - 1)]

    def inv(self, a: int) -> int:
        return self._exp[-self._log[a] % (self.p - 1)]


_FIELD = _PrimeField(31, 3)
# entries from the Park-Miller sequence, which makes the matrix full rank
_SEQ = [1]
for _ in range(_ROWS * _COLS):
    _SEQ.append(_SEQ[-1] * 48271 % (2**31 - 1))
_MATRIX = tuple(
    tuple(_SEQ[1 + i * _COLS + j] % _FIELD.p for j in range(_COLS)) for i in range(_ROWS)
)


def _kernel() -> int:
    """Rank of _MATRIX by Gauss-Jordan elimination."""
    f = _FIELD
    add, mul, neg, inv = f.add, f.mul, f.neg, f.inv
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for c in range(_COLS):
        pivot = next((i for i in range(rank, _ROWS) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        s = inv(rows[rank][c])
        prow = rows[rank] = [mul(s, x) for x in rows[rank]]
        for i in range(_ROWS):
            if i != rank and rows[i][c]:
                fac = neg(rows[i][c])
                rows[i] = [add(x, mul(fac, y)) for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def kernel_s(repeats: int = 3) -> float:
    """The fastest of `repeats` runs of the kernel, in seconds.

    Taking the fastest run keeps out the first run's refill of caches that
    the library's work evicted.  The collector is off while it runs, so that
    its time does not depend on how many objects the library holds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = perf_counter()
            _kernel()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


class ItemClock:
    """Times items in seconds and, when reading the kernel, in reference seconds.

    The kernel is read once before the first item, after each item, and from
    a timer signal every SAMPLE_S while an item runs; an item's time in
    reference seconds uses the mean of the readings from the one before it
    to the one after it.  The time spent in the signal handler is not
    counted in the item's time.  A traced pass does not read the kernel, so
    that its spans hold only the library's time.
    """

    def __init__(self, read_kernel: bool):
        self._readings = [kernel_s()] if read_kernel else None
        self._in_handler = 0.0
        self._first = 0
        self._t0 = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        self._readings.append(kernel_s())
        self._in_handler += perf_counter() - start

    def start(self) -> None:
        self._in_handler = 0.0
        if self._readings is not None:
            self._first = len(self._readings) - 1
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self._t0 = perf_counter()

    def stop(self) -> tuple[float, float | None]:
        """(seconds, reference seconds or None) since start()."""
        if self._readings is None:
            return perf_counter() - self._t0, None
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - self._t0 - self._in_handler
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._readings.append(kernel_s())
        kernel = statistics.fmean(self._readings[self._first:])
        return elapsed, elapsed * REF_S / kernel


def reference_setup(elapsed: float) -> float:
    """A set-up time in reference seconds, from a reading right after it."""
    return elapsed * REF_S / kernel_s()
