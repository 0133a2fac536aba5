"""Host-speed calibration for the hadwiger2 benchmark.

The machines this benchmark runs on are shared: the same pass can take
twice as long in one ten-minute window as in another, in CPU time as well
as wall time, because the CPU itself runs slower (a busy sibling thread,
a lower clock), not because the process waits.  A raw time then measures
the host as much as the code.

``Sampler`` times a fixed kernel, which never changes and does not touch
hadwiger2, every ``interval`` seconds of the process's CPU time, from a
SIGPROF handler.  The kernel's time over ``KERNEL_REF_S`` is the host's
slowness at that moment.  Sampling is uniform in CPU time, so the mean
speed of the samples (the mean of ``KERNEL_REF_S / t``) times the CPU
time spent is the CPU time the same work takes on a host on which the
kernel takes ``KERNEL_REF_S``: the "reference seconds" of the benchmark.
The handler's own CPU and wall time are kept apart, so the caller can
take them out of what it measures.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter, thread_time

# The kernel's CPU time on the reference host, by definition of the unit.
# It is about what the kernel takes on a 2 GHz server core with CPython 3.11.
KERNEL_REF_S = 0.0025

_MASK = (1 << 192) - 1


def kernel(rounds: int = 60) -> int:
    """A few milliseconds of the work hadwiger2 does most: and, xor and
    popcount on bitset rows a few words long, plus list and dict stores."""
    rows = [((i * 0x9E3779B97F4A7C15) ^ (i << 97)) & _MASK for i in range(64)]
    seen = {}
    acc = 0
    for r in range(rounds):
        for i, row in enumerate(rows):
            m = row & rows[(i + r) & 63]
            acc += m.bit_count()
            seen[m & 0xFFFF] = i
            rows[i] = (row ^ (m >> 3) ^ (acc << 5)) & _MASK
    return acc + len(seen)


class Sampler:
    """Kernel samples taken from a SIGPROF timer while something runs.

    Use as a context manager around the code to measure; nested or
    concurrent samplers are not supported (there is one SIGPROF timer).
    """

    def __init__(self, interval: float = 0.1, warmup: int = 20):
        self.interval = interval
        self.samples: list[float] = []  # kernel CPU seconds, one per tick
        self.cpu_s = 0.0  # CPU seconds spent in the handler
        self.wall_s = 0.0  # wall seconds spent in the handler
        for _ in range(warmup):
            kernel()

    def _tick(self, signum, frame) -> None:
        # While a process CPU timer is armed, the process CPU clock only
        # moves on scheduler ticks; the thread clock stays exact.
        w0, c0 = perf_counter(), thread_time()
        kernel()
        c1, w1 = thread_time(), perf_counter()
        self.samples.append(c1 - c0)
        self.cpu_s += c1 - c0
        self.wall_s += w1 - w0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def speed(self) -> float:
        """Mean host speed relative to the reference host (1.0 = as fast,
        0.5 = half as fast).  One extra sample is taken on the spot when
        the measured code ran for less than one interval."""
        if not self.samples:
            self._tick(None, None)
        return fmean(KERNEL_REF_S / t for t in self.samples)
