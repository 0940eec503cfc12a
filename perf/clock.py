"""A host clock that reports seconds at a fixed reference host speed.

The machines this benchmark runs on are shared: over a few minutes the same
single-threaded Python loop runs anywhere from 0.75x to 1.5x its usual speed.
Raw host seconds therefore move by more than any regression bound between
two runs of identical code.  :class:`HostClock` samples the host's current
speed on a fixed calibration kernel (pure Python, independent of the code
under test) every :data:`SAMPLE_PERIOD_S` seconds from a ``SIGALRM`` timer,
and scales a measured interval by the mean of ``REFERENCE_KERNEL_S / kernel
time`` over the samples taken during it.  The result reads as seconds on a
host where the kernel takes exactly :data:`REFERENCE_KERNEL_S`; a change to
the code under test moves it, a slow period on the host mostly does not.
Averaging the speed rather than the kernel time matters when the speed
changes inside an interval: samples are spread evenly over time, so a mean
kernel time over-weights the slow stretches and over-corrects.

The time spent inside the sampler is excluded from :meth:`HostClock.now`, so
intervals measured with it carry no sampling overhead.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from typing import List, Optional

#: Seconds between speed samples.
SAMPLE_PERIOD_S = 0.1
#: Records the kernel allocates per sample (about 0.75 ms of interpreter work).
KERNEL_RECORDS = 2_000
#: Kernel time that defines the reference host speed.
REFERENCE_KERNEL_S = 0.00075
#: Samples this far outside an interval still describe its host speed.
WINDOW_PAD_S = 0.5


class _Record:
    __slots__ = ("pc", "operands", "value")

    def __init__(self, pc: int, operands: tuple, value: object) -> None:
        self.pc = pc
        self.operands = operands
        self.value = value


def calibration_kernel() -> int:
    """Build and drop small slotted records, as the trace and pipeline loops do.

    Of the kernels tried (dictionary updates, pointer chasing over a large
    list, record allocation), this one's mean time tracked the simulator's
    own slowdowns most closely on a shared 2-vCPU host.
    """
    built = []
    for i in range(KERNEL_RECORDS):
        built.append(_Record(i, (i, i + 1), None))
    return len(built)


class HostClock:
    """Monotonic work clock plus the host-speed samples taken alongside it."""

    def __init__(self) -> None:
        self._spent = 0.0
        self._times: List[float] = []
        self._kernel_s: List[float] = []
        self._previous_handler = None
        self._sampling = False

    def now(self) -> float:
        """Seconds, excluding the time spent sampling."""
        return time.perf_counter() - self._spent

    def sample(self) -> None:
        """Time one run of the calibration kernel."""
        if self._sampling:  # a timer tick that lands inside a sample
            return
        self._sampling = True
        # A collection of the program's heap is not host speed: keep it out.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self._times.append(start - self._spent)
        self._kernel_s.append(end - start)
        self._spent += time.perf_counter() - start
        self._sampling = False

    def start(self) -> "HostClock":
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None
        self.sample()

    def __enter__(self) -> "HostClock":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def samples(self) -> int:
        return len(self._kernel_s)

    def scale(self, start: float, end: float) -> float:
        """Factor from host seconds in ``[start, end]`` to reference seconds."""
        lo = bisect.bisect_left(self._times, start - WINDOW_PAD_S)
        hi = bisect.bisect_right(self._times, end + WINDOW_PAD_S)
        window = self._kernel_s[lo:hi] or self._kernel_s
        return statistics.fmean(REFERENCE_KERNEL_S / seconds for seconds in window)

    def normalized(self, start: float, end: float, seconds: Optional[float] = None) -> float:
        """Reference seconds of the interval (or of ``seconds`` spent in it)."""
        raw = end - start if seconds is None else seconds
        return raw * self.scale(start, end)
