"""Wall time scaled to a reference CPU speed, for timing on a shared machine.

On a virtual machine that shares its host's cores, the same work can take
1.6 times as long for seconds or minutes at a time, while other tenants
run on the same physical core.  Neither the minimum nor the median of a
few runs removes that.  `SpeedClock` measures how fast the CPU is while
the timed code runs: every INTERVAL_S a SIGALRM handler runs a fixed
pure-Python probe twice, the first time to warm the caches, and records
how long the second took.  Each stretch of the timed code between two
probes is scaled by REFERENCE_PROBE_S over the median probe time around
it.  The result is the wall time the code would have taken at the speed at
which the probe takes REFERENCE_PROBE_S.  The probe's own time is left
out, so it costs the timed code about 1% of extra wall time and nothing in
the result.

Use it around code that runs on the main thread and does not use SIGALRM
or interval timers itself.  This module imports nothing outside the
standard library, so that it can start before the program is imported.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
# probes on each side of a stretch whose median sets its speed
WINDOW = 5
# The probe's time with the core to itself on the machine this was written
# on (Intel Xeon VM at 2.1 GHz, Python 3.11).  Only the ratio of two
# reference times is meaningful across machines.
REFERENCE_PROBE_S = 9.4e-6


def _probe():
    table = {}
    x = 0
    for i in range(120):
        x += i * i
        table[i & 15] = x
    return x


class SpeedClock:
    """Context manager: raw and reference-speed seconds of its body."""

    def __init__(self):
        self.start = self.stop = None
        self.probes = []  # (probe start, probe end, timed probe seconds)
        self._saved = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        _probe()
        t2 = time.perf_counter()
        self.probes.append((t0, t2, t2 - t1))

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.stop = time.perf_counter()
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def wall_s(self):
        """Seconds of the body, probes included."""
        return self.stop - self.start

    def reference_s(self):
        """Seconds of the body at the reference speed, probes left out."""
        times = [p for _, _, p in self.probes]
        total, prev = 0.0, self.start
        level = REFERENCE_PROBE_S  # a body too short for a probe stays raw
        for i, (t0, t1, _) in enumerate(self.probes):
            near = sorted(times[max(0, i - WINDOW):i + WINDOW + 1])
            level = near[len(near) // 2]
            total += (t0 - prev) * REFERENCE_PROBE_S / level
            prev = t1
        return total + (self.stop - prev) * REFERENCE_PROBE_S / level
