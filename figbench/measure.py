"""Host-time statistics, peak memory and the set-up probe."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys

#: tail percentiles considered, highest first
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)

#: fresh-interpreter set-up passes per run; setup_s is their median
SETUP_REPEATS = 3


def _rank(n, p):
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(samples, p):
    """Nearest-rank ``p``-th percentile of ``samples``."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    return xs[_rank(len(xs), p) - 1]


def beyond(n, p):
    """How many of ``n`` samples lie past the nearest-rank ``p``-th
    percentile."""
    return n - _rank(n, p)


def tail_percentile(n):
    """The highest of :data:`TAIL_CANDIDATES` with at least ten of ``n``
    samples beyond it, or ``None`` when ``n`` is too small for any."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= 10:
            return p
    return None


def summarize(samples):
    """Median, the supported tail percentile and the sample count."""
    n = len(samples)
    p = tail_percentile(n)
    return {"n": n, "p50": statistics.median(samples),
            "tail_p": p, "tail": percentile(samples, p) if p else None}


def peak_rss_mb(pool_workers):
    """Peak resident memory of this process plus ``pool_workers`` times the
    largest peak of any finished child process.  Each pool worker peaks
    near the heaviest point it ran, so this is the memory to provision for
    the run; sampling the live sum instead depends on which two points a
    schedule happens to run together."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def setup_seconds(root, scratch):
    """Median of :data:`SETUP_REPEATS` set-up passes, each in a fresh
    interpreter (``setup_probe.py``): what a user pays before the first
    request."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "setup_probe.py")
    times = []
    for i in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, probe, root, os.path.join(scratch, str(i))],
            check=True, capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)
