"""The machine's current speed, from a basket of small reference kernels.

On a shared host the same code can run 1.5 to 2 times slower for seconds to
minutes at a time.  The benchmark runs this basket between operations, and
every 0.25 s during them, and divides each stretch of wall time by the
slowdown the basket shows at its ends, so a timing reads as seconds at the
basket's nominal speed.

The kernels are the benchmark's own code and never call the program, so a
change to the program cannot move them.  They cover the kinds of work the
program does: an integer loop, small containers, big-integer arithmetic,
object attribute access, and reads scattered over more memory than a core's
own caches hold.  Each takes about 2 ms; the cycle collector is off while
they run, so the program's heap size does not reach them.
"""

from __future__ import annotations

import array
import gc
import math
import signal
import time


def _int_loop() -> int:
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return s


def _containers() -> int:
    d: dict[int, list] = {}
    for i in range(8_000):
        row = [i, i + 1, (i, i)]
        d[i & 127] = row
        row.append(len(d))
    return len(d)


def _big_ints() -> int:
    a, b = 3**2000, 7**1500
    for i in range(1_000):
        a = (a * 3 + b) % (b * 11 + i)
        b += a >> 7
    return a.bit_length()


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def _objects() -> int:
    t = 0
    for i in range(8_000):
        p = _Point(i, t)
        t = p.x - p.y + 1
    return t


# A 4 MB table holding one cycle through all its slots (a full-period linear
# congruential step), so that following it reads memory in an order no cache
# or prefetcher predicts.
_SLOTS = 1 << 20
_NEXT = array.array("i", ((5 * i + 1) % _SLOTS for i in range(_SLOTS)))


def _memory() -> int:
    i = 0
    for _ in range(30_000):
        i = _NEXT[i]
    return i


# Each kernel with its nominal time in seconds (its typical time on a shared
# 2-core Linux VM under Python 3.11).  Only the ratios to these matter: they
# fix the scale of every calibrated timing, so they must not change.
KERNELS = (
    (_int_loop, 2.4e-3),
    (_containers, 1.7e-3),
    (_big_ints, 1.8e-3),
    (_objects, 2.4e-3),
    (_memory, 2.8e-3),
)


def slowdown() -> float:
    """How many times slower than nominal the machine runs now: the geometric
    mean over the kernels of measured ÷ nominal time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = 0.0
        for kernel, nominal in KERNELS:
            t0 = time.perf_counter()
            kernel()
            logs += math.log((time.perf_counter() - t0) / nominal)
    finally:
        if enabled:
            gc.enable()
    return math.exp(logs / len(KERNELS))


class Clock:
    """Wall time and calibrated time of the code run between two laps.

    A stretch of wall time is divided by the slowdowns measured at its two
    ends.  Each lap ends a stretch.  With ``period_s`` set, a timer signal
    also ends one every ``period_s`` seconds, so that a long operation is
    calibrated piece by piece as the machine's speed changes under it.  The
    kernels' own run time counts in neither total.  Use it as a context
    manager, in the main thread.
    """

    def __init__(self, period_s: float | None = None) -> None:
        self.period_s = period_s
        self._busy = False

    def __enter__(self) -> Clock:
        self._wall = self._cal = 0.0
        self._slowdown = slowdown()
        self._start = time.perf_counter()
        if self.period_s:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _end_stretch(self) -> None:
        wall = time.perf_counter() - self._start
        now = slowdown()
        self._wall += wall
        self._cal += wall / math.sqrt(self._slowdown * now)
        self._slowdown = now
        self._start = time.perf_counter()

    def _on_timer(self, signum, frame) -> None:
        if self._busy:  # a lap is measuring already
            return
        self._busy = True
        try:
            self._end_stretch()
        finally:
            self._busy = False

    def lap(self) -> tuple[float, float]:
        """Wall and calibrated seconds since the previous lap, or since the start."""
        self._busy = True
        try:
            self._end_stretch()
            lap = self._wall, self._cal
            self._wall = self._cal = 0.0
        finally:
            self._busy = False
        return lap
