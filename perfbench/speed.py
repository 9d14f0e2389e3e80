"""Host speed, sampled inside the pass process while the pass runs.

The benchmark's host is shared, and the speed of each of its vCPUs drifts
on its own, by a factor of up to two within seconds, through the work of
other guests on the same physical cores and time the hypervisor takes away.
Object-heavy interpreter work and the fixed kernel below slow down by nearly
the same factor.  A timer signal runs the kernel every `interval` seconds in
the pass process, so it runs on the same vCPU at the same moments as the
work, and pass times are scaled by REFERENCE_KERNEL_S / kernel time.

Timing the kernel from another process, or in bursts between passes, does
not follow the vCPU the pass runs on: it left pass-to-pass spreads at the
level of raw wall times (see README.md).  What the program itself does is
kept out of the samples as far as it can be from inside the process:

- time the process waited on the run queue while the kernel ran (read from
  /proc/self/task/<tid>/schedstat) is taken out, so other runnable
  processes, the program's own workers among them, do not slow a sample; a
  timer signal is handled when the process is next on a CPU, so such waits
  are rare in any case;
- the garbage collector is off while the kernel runs, so the program's heap
  does not set off collections inside a sample;
- every timed call, per-call sample and span has the time of the signal
  handlers that ran inside it taken out (inside()).

The program's other processes still share caches and memory bandwidth with
the kernel: with one vCPU kept busy, the kernel ran about 4% slower on the
other.  A multi-process change can therefore read up to that much better at
the reference speed than it is; compare its wall times as well.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import os
import signal
import statistics
import threading
import time


class _Elem:
    __slots__ = ("f", "c")

    def __init__(self, f, c):
        self.f = f
        self.c = c

    def mul(self, other):
        if other.f != self.f:
            raise ValueError("field mismatch")
        p = self.f[0]
        return _Elem(self.f, tuple((a * b) % p for a, b in zip(self.c, other.c)))


_FIELD = (3, 5)
_OPERANDS = [_Elem(_FIELD, (i % 3, (i * 7) % 3, 1, 2, (i * 5) % 3)) for i in range(64)]

# Nominal time of one speed_kernel() call, about its time on an idle vCPU of
# the 2-vCPU Xeon VM the benchmark was written on; times are scaled to it.
REFERENCE_KERNEL_S = 1.6e-4


def speed_kernel() -> None:
    """A fixed slice of element-style work: small objects, tuples, modular products."""
    acc = _OPERANDS[0]
    for x in _OPERANDS:
        acc = acc.mul(x)
    for x in _OPERANDS:
        acc = acc.mul(x)


class _RunQueueWait:
    """Nanoseconds the calling thread has waited on a run queue; 0 where Linux does not say."""

    def __init__(self):
        try:
            self.fd = os.open(f"/proc/self/task/{threading.get_native_id()}/schedstat", os.O_RDONLY)
        except OSError:
            self.fd = None

    def __call__(self) -> int:
        return int(os.pread(self.fd, 128, 0).split()[1]) if self.fd is not None else 0

    def close(self) -> None:
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None


class SpeedSampler:
    """Times speed_kernel() from a timer signal every `interval` seconds, between start() and stop()."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.kernel: list[float] = []  # kernel seconds, run-queue waits taken out
        self.entries: list[float] = []  # perf_counter() at each handler's start
        self.spent: list[float] = []  # seconds each handler took
        self._cum: list[float] = [0.0]
        self._wait = None

    def _tick(self, signum, frame):
        entry = time.perf_counter()
        w0 = self._wait()
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        speed_kernel()
        t1 = time.perf_counter()
        if gc_was_on:
            gc.enable()
        d = (t1 - t0) - (self._wait() - w0) * 1e-9
        if d > 0:
            self.kernel.append(d)
        self.entries.append(entry)
        self.spent.append(time.perf_counter() - entry)

    def start(self) -> None:
        self._wait = _RunQueueWait()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._wait.close()
        self._cum = [0.0, *itertools.accumulate(self.spent)]

    def factor(self) -> float:
        """mean(REFERENCE_KERNEL_S / kernel time): 1.0 at the reference speed, below 1 when slowed.

        Multiplying a wall time by it gives the time at the reference speed.
        """
        return statistics.mean(REFERENCE_KERNEL_S / d for d in self.kernel) if self.kernel else 1.0

    def total(self) -> float:
        """Seconds spent in the handlers; valid after stop()."""
        return self._cum[-1]

    def inside(self, start: float, end: float) -> float:
        """Seconds of the handlers that began in [start, end); valid after stop()."""
        i = bisect.bisect_left(self.entries, start)
        j = bisect.bisect_left(self.entries, end)
        return self._cum[j] - self._cum[i]
