"""Wall-clock timing corrected for the speed of a shared machine.

On a shared machine the speed of the same single-threaded work drifts by
20-40 % within seconds to minutes with the neighbours' load, so no
statistic over one run's operations removes a slow minute. The clock
therefore times a fixed calibration kernel that never touches the package
at most every CAL_EVERY_S: between operations, and inside long operations
at "checkpoint" calls, such as each example a dataset generator writes.
An operation's wall time is cut into segments at the calibration samples,
and each segment is scaled by CAL_REF_S over the mean of the samples at
its two ends. The result is seconds at the reference speed; calibration
time is excluded.

The kernel is a plain interpreter loop. Over four minutes of interleaved
training, evaluate, generation and localize calls on a loaded 2-vCPU
host, its time followed theirs more closely (log-log slope 0.66-0.98)
than a small numpy matmul/sin kernel (0.52-0.70), an FFT kernel or a
memory stream did. Dividing each call by the samples around it cut the
spread of 30-second medians from 6-16 % to 2-6 %; dividing by the median
sample within 5 s instead left 4-12 %, so the speed changes faster than
that.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
import statistics
import time
from dataclasses import dataclass

from rebind import rebound

# Seconds the calibration sample takes at the reference speed: its time on
# an unloaded 2-vCPU Xeon at 2.1 GHz.
CAL_REF_S = 0.00017
CAL_EVERY_S = 0.2
CAL_LOOP = 3000


@dataclass(frozen=True)
class Timing:
    """One operation: (wall seconds, index of the sample before) per segment."""

    segments: tuple[tuple[float, int], ...]
    clock: "Clock"

    @property
    def raw(self) -> float:
        """Uncorrected wall seconds."""
        return sum(raw for raw, _ in self.segments)

    @property
    def seconds(self) -> float:
        """Seconds at the reference speed; valid once a sample follows the op."""
        return sum(raw * CAL_REF_S / self.clock.sample_s(index) for raw, index in self.segments)


def seconds(timings, raw: bool = False) -> list[float]:
    """Corrected seconds of each timing, or its wall seconds with ``raw``."""
    return [t.raw if raw else t.seconds for t in timings]


class Clock:
    """Times operations. ``checkpoints`` are (module, function name) pairs
    called often inside long operations, where a sample may be taken; one
    the package no longer binds is skipped and named in ``skipped``.
    ``span`` makes the context that such a sample runs in."""

    def __init__(self, checkpoints=(), span=None):
        self._checkpoints = tuple(checkpoints)
        self.skipped: set[str] = set()
        self._span = span or contextlib.nullcontext
        self.samples: list[float] = []
        self.sample_times: list[float] = []  # perf_counter() at the end of each sample
        self._last = -math.inf
        self._segments: list[tuple[float, int]] = []
        self._segment_start = 0.0

    @staticmethod
    def _kernel() -> int:
        total = 0
        for i in range(CAL_LOOP):
            total += i * i
        return total

    def calibrate(self) -> None:
        """Take one sample: the fastest of three kernel runs."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        self._last = time.perf_counter()
        self.sample_times.append(self._last)

    def sample_s(self, index: int) -> float:
        """The kernel's time between sample ``index`` and the next: the mean
        of the two samples."""
        return statistics.fmean(self.samples[index : index + 2])

    def factor_at(self, t: float) -> float:
        """Wall seconds to reference seconds, for work done at perf_counter() t."""
        return CAL_REF_S / self.sample_s(max(0, bisect.bisect_right(self.sample_times, t) - 1))

    def _checkpoint(self) -> None:
        now = time.perf_counter()
        if now - self._last > CAL_EVERY_S:
            self._segments.append((now - self._segment_start, len(self.samples) - 1))
            with self._span():
                self.calibrate()
            self._segment_start = time.perf_counter()

    def _hooked(self, fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            self._checkpoint()
            return fn(*args, **kwargs)

        return hooked

    def time(self, fn, *args, **kwargs):
        """(fn's result, Timing). Read Timing.seconds after a later calibrate()."""
        if time.perf_counter() - self._last > CAL_EVERY_S:
            self.calibrate()
        self._segments = []
        hooks = [(mod, name, self._hooked) for mod, name in self._checkpoints]
        with rebound(hooks, self.skipped):
            self._segment_start = time.perf_counter()
            out = fn(*args, **kwargs)
            end = time.perf_counter()
        self._segments.append((end - self._segment_start, len(self.samples) - 1))
        return out, Timing(tuple(self._segments), self)
