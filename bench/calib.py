"""Machine-speed calibration for the end-to-end op timings.

On a shared virtual machine a core flips between a fast and a slow state
every few hundred milliseconds, and the share of time spent in each drifts
from minute to minute.  An op of about a second then takes anywhere between
its fast and its slow time, and a 20-second run's median latency moves by
up to ±20% from run to run, depending on where the median falls between the
two.

So while a timed op (or a set-up) runs, a timer signal interrupts it every
:data:`INTERVAL_S` and times a fixed interpreter kernel of about a
millisecond.  The kernel runs no trajsim code and keeps no memory, so it
leaves peak memory alone.  Its mean time over the op says how fast the core
was during that op.  The op's wall time, less the time the kernel took, is
scaled to what it would be on a core that runs the kernel in
:data:`REFERENCE_S`.  A change to trajsim moves the scaled time exactly as
it moves the wall time; only the machine's own drift is divided out.  Run
records keep every op's wall time and speed factor.
"""

from __future__ import annotations

import math
import signal
import time

# kernel time, in seconds, on the reference core (a 2-vCPU Xeon VM)
REFERENCE_S = 0.0010
# time between two speed samples
INTERVAL_S = 0.03


def _kernel() -> float:
    total = 0.0
    for i in range(5000):
        a = i * 0.5
        b = i * 0.25
        total += math.hypot(a + 1.0 - b, b - 2.0 + a)
    return total


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the core's speed from a timer signal while a block runs.

    Only the main thread may use it, and nothing else in the process may
    use ``SIGALRM`` or the real-time interval timer meanwhile.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(_timed_kernel())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent_s(self) -> float:
        """Time the samples took away from the block."""
        return sum(self.samples)

    def factor(self) -> float:
        """Reference kernel time over the kernel's mean time during the block.

        A block too short to be sampled is measured right after it ends.
        """
        if not self.samples:
            return REFERENCE_S / _timed_kernel()
        return REFERENCE_S * len(self.samples) / self.spent_s
