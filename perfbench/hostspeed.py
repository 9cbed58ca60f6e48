"""Host speed sampled during a pass, to scale its times to a fixed speed.

The benchmark shares its host with other work, and there the speed of
pure-Python code drifts by about a fifth over tens of seconds, the same
for every commit.  So that a run's figures show the program and not the
neighbours, a fixed probe runs every INTERVAL_S of wall time from a
SIGALRM handler, inside requests as well as between them: the partials
batch is one call of about ten seconds, during which the speed drifts.
The probe's CPU time measures the host's speed at that moment.  A
request's scaled time is its own time (probe time removed) multiplied by
REFERENCE_S over the mean probe CPU time within WINDOW_S of the request
(the mean, because a request's time adds up the host's slowness over
its span): the time it would have taken on a host where the probe takes
REFERENCE_S.  A set-up is scaled the same way, by probes run right after
it.

CPU time, not wall time, because a library that serves a request with
several threads or processes makes the probe wait for a core; its wall
time would then read as a slower host and shrink the scaled time.
"""

import signal
import statistics
from time import perf_counter, thread_time

INTERVAL_S = 0.05
WINDOW_S = 0.5
SETUP_PROBES = 5
# near the probe's CPU time on the two-vCPU Xeon host this was tuned on
# (Python 3.11), so scaled and unscaled figures are of a size
REFERENCE_S = 0.0008


def probe():
    """Fixed work: a loop of small-tuple arithmetic.

    It never changes, so its duration tracks only the host.  Among the
    probes tried (this one, a norm-vector backtracking, Fraction sums,
    permutation sorts and mixes of them), it followed the speed of all
    four workloads most closely.
    """
    total = 0
    for i in range(3000):
        t = (i, i + 1, i * 3)
        total += sum(t) % 7
    return total


def timed_probe():
    """Wall and CPU seconds of one run of the probe."""
    wall, cpu = perf_counter(), thread_time()
    probe()
    return perf_counter() - wall, thread_time() - cpu


def setup_probe():
    """Median probe CPU time right after a set-up, to scale it by."""
    return statistics.median(timed_probe()[1] for _ in range(SETUP_PROBES))


class HostSpeed:
    """Samples the probe on a wall-clock timer while started."""

    def __init__(self):
        self.samples = []      # (start, CPU seconds) of each probe run
        self.stolen = 0.0      # wall seconds spent in probes so far
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        wall, cpu = timed_probe()
        self.samples.append((start, cpu))
        self.stolen += wall

    def start(self):
        """Probe once now, so that even a pass shorter than INTERVAL_S has
        a sample, then on the timer."""
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start, end, busy):
        """busy seconds spent in [start, end], at the reference speed."""
        near = [cpu for at, cpu in self.samples
                if start - WINDOW_S <= at <= end + WINDOW_S]
        if not near:
            near = [cpu for _, cpu in self.samples]
        return busy * REFERENCE_S / statistics.mean(near)
