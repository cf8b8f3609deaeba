"""Host-speed-normalised timing.

On a shared virtual machine the speed of a core drifts by tens of percent
over seconds to minutes, and the two cores drift independently, so a
plain wall time of the same work varies far more between runs than any
change worth measuring.  A :class:`ProbeClock` measures that speed where
and while the work runs: a ``SIGALRM`` timer interrupts the timed thread
every ``interval_s`` and runs a fixed probe in that thread, recording how
long the probe took.  An interval is then reported as

    (wall time - probe time) * ref_s * mean(1 / probe time)

that is, the work's own time in seconds of a host on which one probe
takes ``ref_s``.  The mean of the probe speeds is the mean speed over the
interval, so a slow spell counts for as long as it lasted.  The probes are
benchmark code, so a faster program still reports a proportionally
smaller time.

Only the standard library is imported here: the fresh interpreter that
times ``import excisionlab.scenarios`` uses this module before numpy is
loaded.
"""

from __future__ import annotations

import signal
import time
from array import array
from typing import Callable

# reference probe times: the median probe time on the 2-vCPU host the
# benchmark was tuned on, so that normalised times read close to its
# typical wall times
PYTHON_PROBE_REF_S = 1.2e-4
NUMPY_PROBE_REF_S = 7.0e-4


def python_probe() -> int:
    """Fixed interpreter work (about 0.1 ms)."""
    s = 0
    for i in range(1500):
        s += i * i
    return s


def numpy_probe() -> Callable[[], float]:
    """Fixed work of small numpy operations driven from Python, the mix the
    certification passes consist of (about 0.7 ms)."""
    import numpy as np

    a = np.arange(16.0)

    def probe() -> float:
        s = 0.0
        for _ in range(150):
            b = a * 1.0001 + 0.5
            s += float(b.sum())
        return s

    return probe


class ProbeClock:
    """Context manager that probes the host speed while it is open.

    Use at most one at a time in a process: it owns ``SIGALRM``.
    """

    def __init__(self, probe: Callable[[], object], ref_s: float, interval_s: float):
        self.probe = probe
        self.ref_s = ref_s
        self.interval_s = interval_s
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probe()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "ProbeClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0: float, t1: float) -> float:
        """Normalised length of the ``time.perf_counter`` interval
        ``[t0, t1]``; an interval too short to hold a probe is scaled by
        the speed over every probe taken."""
        inside = [d for s, d in zip(self.starts, self.durations) if t0 <= s < t1]
        probes = inside or list(self.durations)
        if not probes:
            raise RuntimeError("no host-speed probe ran")
        speed = sum(1.0 / d for d in probes) / len(probes)
        return (t1 - t0 - sum(inside)) * self.ref_s * speed
