"""A clock that runs at the speed of a fixed reference loop.

The benchmark machine is a few cores of a shared host. Its speed changes in
phases of seconds to tens of seconds, by up to 2x, and CPU time moves with
wall time, so neither clock separates the program from the machine. This
clock does: a timer signal interrupts the work every `PERIOD` seconds and
runs `reference()`, a fixed loop of the benchmark's own (integer arithmetic,
tuple-keyed dicts, `Fraction` arithmetic, much as twograph's layers do), and
times it. Between ticks the clock advances by the elapsed time, less the time
spent in the loop, times `R0 / r`, where `r` is the median of the last three
loop times. A duration read from this clock is the time the work would take
at the speed at which the loop takes `R0` seconds: seconds at reference speed.

The loop is part of the benchmark, not of the program, so a change to the
program moves the work and not the reference.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

# About the least time the reference loop took on the 2-core
# Xeon (Sapphire Rapids) KVM guest the benchmark was written on. It only
# sets the unit, so that a scaled time reads close to a quiet machine's.
R0 = 0.0017
PERIOD = 0.1  # seconds between reference samples
SMOOTH = 3  # reference samples in the running median

_rng = random.Random(20091)
_KEYS = [(_rng.randrange(600), _rng.randrange(600), _rng.randrange(7)) for _ in range(1500)]
_FRACS = [Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(120)]


def reference() -> int:
    """The fixed unit of work. Its result is checked so nothing is skipped."""
    s = 0
    for i in range(12000):
        s += i * i % 7
    d: dict = {}
    for k in _KEYS:
        d[k] = d.get(k, 0) + 1
    for a, b, c in _KEYS:
        t = (b, a, c)
        if t in d:
            d[t] += 1
    acc = Fraction(0)
    for x, y in zip(_FRACS, _FRACS[1:]):
        acc += x * y
    return s + len(d) + acc.denominator


def sample() -> float:
    """Seconds of one reference loop."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scaled(raw_s: float, samples: int = 5) -> float:
    """`raw_s` seconds just measured, at reference speed: the loop runs
    `samples` times right after, while the machine is in the same phase."""
    return raw_s * R0 / statistics.median(sample() for _ in range(samples))


class RefClock:
    """`now()` reads seconds at reference speed; `start()` arms the timer
    signal, `stop()` disarms it. Use as a context manager."""

    def __init__(self):
        self.refs: list[float] = []
        self._rate = R0 / statistics.median(sample() for _ in range(SMOOTH))
        self._base = 0.0  # scaled seconds up to `_mark`
        self._mark = time.perf_counter()
        self._previous = None

    def now(self) -> float:
        return self._base + (time.perf_counter() - self._mark) * self._rate

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._base += (start - self._mark) * self._rate
        self.refs.append(sample())
        self._rate = R0 / statistics.median(self.refs[-SMOOTH:])
        self._mark = time.perf_counter()

    def start(self) -> "RefClock":
        self._base, self._mark = self.now(), time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "RefClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
