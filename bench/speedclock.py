"""A clock that ticks at the machine's reference speed.

The benchmark shares a small VM with other tenants, and the speed of its
virtual CPU swings by up to 2x within seconds and drifts by tens of percent
over minutes, with no stolen time reported.  Raw wall time therefore says
more about the neighbours than about acalg.  This clock corrects for it:
every ``INTERVAL_S`` of wall time a SIGALRM handler times a fixed
calibration loop (exact Fraction arithmetic, like the engine's scalars),
and the wall time elapsed since the previous sample is scaled by
``REFERENCE_S / calibration time``.  One reading of ``now()`` is thus in
reference seconds: seconds on a machine on which the calibration loop
takes exactly ``REFERENCE_S``.  The time spent calibrating is excluded.

The correction is only as good as the loop's likeness to the workload:
both are CPython running Fraction arithmetic, so a slower or faster machine
state scales both alike.  It also assumes that the loop competes with
nothing of the measured program.  A program that starts a thread or a
child process would slow the loop itself (on the GIL, or for one of the
few CPUs), and that slowdown would be scaled away as if the machine were
slow, so extra CPU use would read as a gain.  The clock therefore checks
at every tick and at ``stop`` that its process is alone: one OS thread and
no child process, neither running nor finished after using CPU.  ``alone``
turns false otherwise, and a measurement taken with it false must be
thrown away, not reported.
Use one clock per process, in the main thread.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import time
from collections import deque
from fractions import Fraction

INTERVAL_S = 0.02
#: calibration time that defines a reference second
REFERENCE_S = 0.001
#: samples in the running median that sets the current speed
WINDOW = 3


def calibrate() -> float:
    """Wall time of one fixed run of the calibration loop."""
    start = time.perf_counter()
    acc = Fraction(0)
    for n in range(1, 300):
        acc += Fraction(n % 13, n % 97 + 1)
    return time.perf_counter() - start


def children_cpu_s() -> float:
    """CPU time of the finished child processes this process has waited for
    (inherited across exec, so only a change in it means anything)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def process_alone(children_cpu_before: float) -> bool:
    """True while this process runs one OS thread and has no child process,
    neither running nor finished with CPU time since ``children_cpu_before``
    was read."""
    if children_cpu_s() != children_cpu_before:
        return False
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        # no procfs: Python-level threads are all that can be seen
        import threading

        return threading.active_count() == 1
    if len(tasks) != 1:
        return False
    with open(f"/proc/self/task/{tasks[0]}/children", encoding="ascii") as handle:
        return not handle.read().strip()


def speed_factor(samples) -> float:
    """Reference seconds per wall second, from calibration times."""
    return REFERENCE_S / statistics.median(samples)


class SpeedClock:
    """Reference-speed clock driven by SIGALRM; ``start`` before reading,
    ``stop`` to restore the previous handler and timer."""

    def __init__(self):
        self._recent: deque = deque(maxlen=WINDOW)
        self._acc = 0.0
        self._mark = 0.0
        self._factor = 1.0
        self._ticks = 0
        self._in_tick = False
        self._previous_handler = None
        self.samples: list[float] = []
        self.alone = True
        self._children_cpu = 0.0

    def start(self) -> "SpeedClock":
        self._children_cpu = children_cpu_s()
        self._recent.extend(calibrate() for _ in range(WINDOW))
        self._factor = speed_factor(self._recent)
        self._mark = time.perf_counter()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.alone = self.alone and process_alone(self._children_cpu)

    def _tick(self, signum, frame) -> None:
        # a Python-level handler can be re-entered at any bytecode boundary
        if self._in_tick:
            return
        self._in_tick = True
        self._acc += (time.perf_counter() - self._mark) * self._factor
        self.alone = self.alone and process_alone(self._children_cpu)
        sample = calibrate()
        self.samples.append(sample)
        self._recent.append(sample)
        self._factor = speed_factor(self._recent)
        self._mark = time.perf_counter()
        self._ticks += 1
        self._in_tick = False

    def now(self) -> float:
        """Reference seconds since ``start``, calibration time excluded."""
        while True:
            ticks = self._ticks
            value = self._acc + (time.perf_counter() - self._mark) * self._factor
            if ticks == self._ticks:
                return value

    def median_speed(self) -> float:
        """Median reference seconds per wall second over the samples taken."""
        return speed_factor(self.samples) if self.samples else self._factor
