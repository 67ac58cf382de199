"""Host-speed scaling of the benchmark's times.

On a shared host the speed of a core changes by up to 1.6x within seconds,
as other load on the same physical core comes and goes.  CPU time grows
with wall time there, so it does not help: a 16 s census varied by 25 %
between runs of the same code.  So each job measures the speed of its own
core while it runs.  A SIGALRM handler runs a fixed pure-Python loop every
PERIOD_S seconds, in the job's own process, and records

    speed = REF_LOOP_S / seconds the loop took

which is 1 when the loop takes its reference time.  A measured interval
is reported in reference seconds: its length times the mean speed of the
samples taken inside it, or, for an interval too short to hold
MIN_SAMPLES of them, of the MIN_SAMPLES samples nearest to it.  Samples
come at even wall-time steps, so the mean speed is the share of reference
work done per second, and a job that needs a fixed amount of work reads
the same however much of it ran on a slowed core.

The loop does what the library's hot paths do (generator expressions
over small integer tuples, differences of points, a row times a matrix,
tuples hashed into a dict, a sort) so that it slows down as the library
does; a loop of Fraction arithmetic tracked the census several times
worse.  It runs with the garbage collector paused, so its time does not
grow with the job's heap.  It takes about REF_LOOP_S (0.3 ms) on a 2-vCPU
Intel Xeon VM, so a sample every 20 ms costs about 1.5 % of a job, the
same share on every run.  Changing the loop, REF_LOOP_S or PERIOD_S
changes the scale of every time metric.
"""

import atexit
import bisect
import gc
import signal
from contextlib import contextmanager
from statistics import fmean
from time import monotonic

REF_LOOP_S = 3e-4
PERIOD_S = 0.02
MIN_SAMPLES = 5

_times = []   # monotonic start of each sample, ascending
_speeds = []  # speed measured by the sample at the same index


_POINTS = tuple((i % 5 - 2, i * 3 % 7 - 3) for i in range(9))
_MATRIX = ((1, 2), (0, 1))


def _dot(row, col):
    return sum(a * b for a, b in zip(row, col))


def _loop():
    seen = {}
    for p in _POINTS:
        for q in _POINTS:
            diff = tuple(a - b for a, b in zip(p, q))
            image = tuple(_dot(diff, col) for col in zip(*_MATRIX))
            seen[image] = seen.get(image, 0) + 1
    return sorted(seen)


def _sample(signum, frame):
    collecting = gc.isenabled()
    gc.disable()
    start = monotonic()
    _loop()
    took = monotonic() - start
    if collecting:
        gc.enable()
    _times.append(start)
    _speeds.append(REF_LOOP_S / took)


def start():
    """Sample the speed every PERIOD_S seconds from now on, until stop()
    or the interpreter exits (SIGALRM without its handler kills it)."""
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    atexit.register(stop)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


@contextmanager
def deferred():
    """Hold samples back while timing a short call: a sample due inside it
    runs right after it instead of adding its loop to the call's time."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def speed(t0, t1):
    """Mean speed over the monotonic interval [t0, t1]."""
    lo = bisect.bisect_left(_times, t0)
    hi = bisect.bisect_right(_times, t1)
    if hi - lo < MIN_SAMPLES:
        # Too short: the samples nearest to the interval's middle.
        mid = bisect.bisect_left(_times, (t0 + t1) / 2)
        lo = max(0, min(mid - MIN_SAMPLES // 2, len(_times) - MIN_SAMPLES))
        hi = lo + MIN_SAMPLES
    window = _speeds[lo:hi]
    if not window:
        raise RuntimeError("no speed samples: start() was not called")
    return fmean(window)


def reference_seconds(t0, t1):
    """Length of [t0, t1] in reference seconds."""
    return (t1 - t0) * speed(t0, t1)


def samples():
    return len(_speeds)
