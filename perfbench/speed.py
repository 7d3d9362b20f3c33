"""Host-speed probes, so that timings taken at different moments compare.

On the 2-core machine used to build this benchmark, the same code ran up to
about 1.7x faster or slower from one second to the next (cores shared with
other machines).  Every timed figure is therefore divided by the speed of
fixed work measured next to it:

* in process, :class:`SpeedMeter` times a loop of Python calls and a loop of
  small complex numpy products (the mix that tracked frsim's rates best);
* for fresh processes, :class:`ProcessClock` times this file run as a fresh
  process (numpy import plus the same loops) before and after each timed one.
  A fresh process may run on the other core, so the in-process loops do not
  track it.

Scaled figures read as on a machine where the loops take
CALIBRATION_REFERENCE_S and the fresh probe takes PROCESS_REFERENCE_S.
Nothing here depends on frsim, so a change to frsim leaves the probes as
they are.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

CALIBRATION_REFERENCE_S = 0.008
# Readings taken during timed work use QUICK_SHARE percent of the loops.
QUICK_SHARE = 12
QUICK_REFERENCE_S = CALIBRATION_REFERENCE_S * QUICK_SHARE / 100
READING_INTERVAL_S = 0.05
PROCESS_REFERENCE_S = 0.30
PROBE_REPEATS = 8


def _call_loop(n: int = 30_000) -> None:
    def add(x: int, y: int = 2) -> int:
        return x + y

    total = 0
    for i in range(n):
        total += add(i)


def _numpy_loop(n: int = 700) -> None:
    import numpy as np

    a = np.ones((6, 12), dtype=np.complex128)
    for _ in range(n):
        (a.T @ a[:, :6]).reshape(-1).sum()


def _call_loop_quick() -> None:
    _call_loop(QUICK_SHARE * 30_000 // 100)


def _numpy_loop_quick() -> None:
    _numpy_loop(QUICK_SHARE * 700 // 100)


def _timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


class SpeedMeter:
    """In-process host speed relative to the reference, above 1 when faster.

    :meth:`scaled` times a block of work and integrates the host speed over
    it: a short reading before and after the block, and one every
    READING_INTERVAL_S during it from a timer signal.  The readings' own
    time is left out of the block's time.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []

    def measure(self) -> float:
        seconds = sum(min(_timed(loop) for _ in range(2)) for loop in (_call_loop, _numpy_loop))
        speed = CALIBRATION_REFERENCE_S / seconds
        self.readings.append(speed)
        return speed

    def _quick(self) -> float:
        seconds = _timed(_call_loop_quick) + _timed(_numpy_loop_quick)
        speed = QUICK_REFERENCE_S / seconds
        self.readings.append(speed)
        return speed

    @contextmanager
    def scaled(self):
        """``with meter.scaled() as span:`` sets ``span.seconds`` to the block's
        wall time at the reference speed."""
        span = Span()
        points: list[tuple[float, float, float]] = []  # (paused at, speed, resumed at)

        def on_timer(signum, frame) -> None:
            paused = perf_counter()
            speed = self._quick()
            points.append((paused, speed, perf_counter()))

        speed = self._quick()
        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, READING_INTERVAL_S, READING_INTERVAL_S)
        resumed = perf_counter()
        try:
            yield span
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        points.append((end, self._quick(), end))
        for paused, next_speed, next_resumed in points:
            span.seconds += (paused - resumed) * (speed + next_speed) / 2
            speed, resumed = next_speed, next_resumed


@dataclass
class Span:
    seconds: float = 0.0


class ProcessClock:
    """Scales the wall time of fresh processes by fresh probes around them.

    Consecutive timed processes share the probe between them; call
    :meth:`reset` when other work has run since the last timed process.
    """

    def __init__(self, cwd: Path) -> None:
        self.cwd = cwd
        self.readings: list[float] = []
        self._last: float | None = None

    def _probe(self) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, __file__], cwd=self.cwd, check=True)
        seconds = perf_counter() - start
        self.readings.append(PROCESS_REFERENCE_S / seconds)
        return seconds

    def reset(self) -> None:
        self._last = None

    def measure(self, fn):
        """Run ``fn() -> (wall_s, result)``; return (scaled wall seconds, result)."""
        before = self._last if self._last is not None else self._probe()
        wall_s, result = fn()
        after = self._last = self._probe()
        return wall_s * 2 * PROCESS_REFERENCE_S / (before + after), result


if __name__ == "__main__":
    for _ in range(PROBE_REPEATS):
        _call_loop()
        _numpy_loop()
