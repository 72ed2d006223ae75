"""Reference-speed clock: times scaled by how fast this machine runs right now.

On a shared host the same Python code runs at several distinct speeds,
up to about 2x apart, and each speed lasts seconds to minutes, so a raw
time measures the neighbours as much as the program.  ``ScaledClock``
measures the interpreter's current speed while the program runs: a
SIGALRM timer interrupts the main thread every ``INTERVAL_S`` seconds and
times a fixed pure-Python kernel (a *burst*).  A span of program time is
then reported in *reference seconds*: the seconds it would have taken at
the speed at which one burst takes ``REFERENCE_S``.  Burst time is taken
out of every span, so the program's own time is what gets scaled.

The kernel is small GF(2^4) arithmetic and a GF(2) row reduction, written
in the style of ``lsc`` (frozen dataclasses, tuples built from generator
expressions, list rows) but not taken from it, so that it slows down
with the host as the program does and stays the same when the program
changes.  A plain integer loop tracked the program's speed about half as
well.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.03  # wall time between bursts
REFERENCE_S = 0.0025  # seconds one burst takes at the reference speed
WARMUP_BURSTS = 20
SMOOTH = 4  # a burst's speed is the median of the bursts within this many of it
_ROUNDS = 40


@dataclass(frozen=True)
class _Poly:
    """An element of GF(2)[x] / (modulus), written the way ``lsc`` writes its own."""

    modulus: tuple[int, ...]
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.modulus) - 1:
            raise ValueError("wrong coordinate count")
        if any(not 0 <= c < 2 for c in self.coords):
            raise ValueError("coordinates must be bits")

    def add(self, other: "_Poly") -> "_Poly":
        if self.modulus != other.modulus:
            raise ValueError("different fields")
        return _Poly(self.modulus, tuple((a + b) % 2 for a, b in zip(self.coords, other.coords)))

    def mul(self, other: "_Poly") -> "_Poly":
        if self.modulus != other.modulus:
            raise ValueError("different fields")
        m = len(self.coords)
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(self.coords):
            if ai:
                for j, bj in enumerate(other.coords):
                    conv[i + j] = (conv[i + j] + ai * bj) % 2
        for e in range(2 * m - 2, m - 1, -1):
            if conv[e]:
                for i, c in enumerate(self.modulus[:-1]):
                    conv[e - m + i] = (conv[e - m + i] + c) % 2
        return _Poly(self.modulus, tuple(conv[:m]))


def _rref(rows: list[tuple[int, ...]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over GF(2), on lists of bits."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(work[0])):
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = [(a + b) % 2 for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(x) for x in work[:r]), tuple(pivots)


_MODULUS = (1, 1, 0, 0, 1)  # x^4 + x + 1


def kernel() -> int:
    """A fixed amount of interpreter work; the result keeps it from being skipped."""
    elems = [_Poly(_MODULUS, tuple((i >> b) & 1 for b in range(4))) for i in range(16)]
    seen: dict[tuple[int, ...], int] = {}
    acc = elems[1]
    for k in range(_ROUNDS):
        for j in range(1, 16, 3):
            acc = acc.mul(elems[j]).add(elems[(k + j) % 16])
            seen[acc.coords] = seen.get(acc.coords, 0) + 1
        _rref([elems[(k * 7 + i) % 16].coords + elems[(k + i) % 16].coords for i in range(5)])
    return len(seen)


def burst() -> float:
    """Seconds one run of ``kernel`` takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factor(bursts: list[float]) -> float:
    """Reference seconds per second of program time over these bursts."""
    return sum(REFERENCE_S / b for b in bursts) / len(bursts)


@dataclass(frozen=True)
class Mark:
    at: float  # perf_counter
    paused: float  # burst time taken so far
    bursts: int  # bursts taken so far


class ScaledClock:
    """Marks taken while running; spans read in reference seconds after ``stop``.

    A single burst can be slowed by an interruption of its own, so each
    burst's speed is read as the median over its ``SMOOTH`` neighbours on
    either side; a speed level lasts far longer than that window.  Bursts
    come at equal wall intervals, so over a span the reference time is
    the program time times the mean of ``REFERENCE_S / burst`` over the
    bursts inside it.  A span too short to hold a burst uses the bursts
    just before and just after it.
    """

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self.paused = 0.0
        self._previous = None
        self._busy = False
        self._smoothed: list[float] = []

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a burst is dropped
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        taken = time.perf_counter() - start
        self.paused += taken
        self.bursts.append(taken)
        self._busy = False

    def start(self) -> None:
        for _ in range(WARMUP_BURSTS):
            burst()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # One last burst, so a span at the very end has one after it.
        self.bursts.append(burst())
        n = len(self.bursts)
        self._smoothed = [
            statistics.median(self.bursts[max(i - SMOOTH, 0):min(i + SMOOTH + 1, n)])
            for i in range(n)
        ]

    def now(self) -> Mark:
        # Retry if a burst lands while the mark is read, so that every
        # burst counted in the mark ended before its timestamp.
        while True:
            count = len(self.bursts)
            paused = self.paused
            at = time.perf_counter()
            if len(self.bursts) == count:
                return Mark(at, paused, count)

    def program_s(self, a: Mark, b: Mark) -> float:
        """Program time between two marks, bursts taken out, unscaled."""
        return (b.at - a.at) - (b.paused - a.paused)

    def seconds(self, a: Mark, b: Mark) -> float:
        """Program time between two marks, in reference seconds."""
        inside = self._smoothed[a.bursts:b.bursts]
        if not inside:
            inside = self._smoothed[max(a.bursts - 1, 0):a.bursts + 1]
        return self.program_s(a, b) * speed_factor(inside)


class PlainClock:
    """The same interface as ``ScaledClock``, in plain wall seconds."""

    def now(self) -> float:
        return time.perf_counter()

    def program_s(self, a: float, b: float) -> float:
        return b - a

    seconds = program_s
