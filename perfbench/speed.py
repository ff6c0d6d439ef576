"""Host speed sampled through a pass, and times at a fixed reference speed.

The benchmark runs on a shared virtual machine whose processor speed
switches by up to about 2x within a second or two, so a raw time measures
the host as much as the program.  ``SpeedClock`` samples the speed every
``PROBE_INTERVAL_S`` seconds from a ``SIGALRM`` handler, and at each
``mark()``, by timing ``reference_work``: a fixed piece of pure-Python work
on the standard library's ``Fraction`` and dicts with tuple keys, the kind of
work germcalc does, in code that no change to germcalc can alter.  Between two
probes the clock runs at ``REFERENCE_PROBE_S / (mean of the two probe
times)``: one raw second while the host runs at the reference speed is one
reference second, and a raw second on a host half as fast is half a
reference second.  Each probe time is taken as the median of it and its two
neighbours, so that a probe hit by an interrupt counts for little.  Time
spent in the probes themselves is left out.

``at(t)`` maps a ``time.perf_counter()`` reading inside the clock's run to
reference seconds, so any interval, a job or a traced span, converts as
``at(end) - at(start)``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.05
# Time of one reference_work() call at the reference speed: about its time
# in the fast phase of a 2-vCPU Xeon virtual machine with CPython 3.11.  It
# sets the scale of every reported time; any fixed value would do.
REFERENCE_PROBE_S = 0.001

_A = 7**120
_B = 3**150 + 1


def reference_work() -> None:
    """A fixed amount of germcalc-like work: rational terms keyed by exponent tuples.

    Half of the time goes to small fractions, half to coefficients of about
    a hundred digits, as in a standard basis computation.  Across the host's
    speed changes, the time of one germcalc job goes as this probe's time to
    a power of 0.8-1.2; a probe of either half alone does worse.
    """
    terms: dict[tuple[int, int, int], Fraction] = {}
    for i in range(1, 201):
        key = (i % 5, i % 7, i % 3)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i % 11 + 1, i % 13 + 2)
    x = 1
    for i in range(1, 121):
        x = (x * _A + i) % _B
        key = (i % 5, i % 7, i % 3)
        terms[key] = terms.get(key, 0) + Fraction(x, _A + i)


def probe_seconds() -> float:
    """Raw seconds of one reference_work() call."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class SpeedClock:
    """Probes of the host speed over one run of code, and the time map they give."""

    def __init__(self):
        # one probe each: wall start, wall end, process CPU at start, at end
        self.probes: list[tuple[float, float, float, float]] = []
        self._handler = None
        self._edges: list[float] = []  # start and end of each probe
        self._wall_ref: list[float] = []  # reference seconds at each edge
        self._cpu_ref = 0.0  # process CPU seconds between the probes, in reference seconds

    def start(self) -> None:
        for _ in range(3):  # the first calls run cold and take several times longer
            reference_work()
        self._handler = signal.signal(signal.SIGALRM, lambda *_: self.mark())
        self.mark()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def mark(self) -> None:
        """Probe the speed now."""
        wall, cpu = time.perf_counter(), time.process_time()
        reference_work()
        self.probes.append((wall, time.perf_counter(), cpu, time.process_time()))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.mark()
        self._edges = [edge for probe in self.probes for edge in probe[:2]]
        times = [end - start for start, end, _, _ in self.probes]
        times = [statistics.median(times[max(k - 1, 0):k + 2]) for k in range(len(times))]
        wall = 0.0
        self._wall_ref = [wall, wall]
        for k, (left, right) in enumerate(zip(self.probes, self.probes[1:])):
            rate = REFERENCE_PROBE_S / ((times[k] + times[k + 1]) / 2)
            wall += (right[0] - left[1]) * rate
            self._cpu_ref += (right[2] - left[3]) * rate
            self._wall_ref += [wall, wall]

    def at(self, t: float) -> float:
        """Reference seconds from the first probe to raw time ``t``."""
        edges = self._edges
        i = bisect.bisect_right(edges, t)
        if i == 0 or i == len(edges):
            raise ValueError(f"time {t} is outside the clock's run")
        if i % 2 == 1:  # inside a probe, which counts for nothing
            return self._wall_ref[i - 1]
        lo, hi = edges[i - 1], edges[i]
        return self._wall_ref[i - 1] + (t - lo) / (hi - lo) * (self._wall_ref[i] - self._wall_ref[i - 1])

    def cpu_seconds(self) -> float:
        """Process CPU seconds of the whole run, in reference seconds."""
        return self._cpu_ref
