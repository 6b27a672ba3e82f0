"""The simulated points behind each figbench workload.

A point is one :class:`~repro.experiments.parallel.RunRequest` plus a
stable, human-readable name.  Names, not cache keys, index the dense-loop
reference (``reference.json``): a cache key also hashes the simulator
version, which a later change may bump without changing any stat.

The lists are fixed.  ``--seed`` only permutes the order in which a
workload submits them, so the reference check holds on every seed.
"""

from __future__ import annotations

from repro.experiments.parallel import RunRequest
from repro.power import BIG_LEVELS, LITTLE_LEVELS, freqs
from repro.soc import SYSTEM_NAMES

#: fig4-style slice: the heaviest data-parallel app (kmeans, over 40% of
#: the slice's simulation time), two with known 1bDV stall-split drift
#: (sw, jacobi2d), one work-stealing task-parallel app (bc) and the
#: lightest kernel (saxpy).  lavamd (8 s of a 37 s sweep on 2 workers)
#: does not fit the run-time budget at ``small``.
SWEEP_APPS = ("kmeans", "sw", "jacobi2d", "bc", "saxpy")

#: the service's tiny-scale runs: the slice with lavamd kept
SERVICE_APPS = ("kmeans", "lavamd", "sw", "jacobi2d", "bc", "saxpy")

#: fig9 slice: app -> DVFS-swept systems.  Both apps sweep ``1b-4VL``,
#: where the event loop's cross-domain wakes go wrong; blackscholes also
#: sweeps ``1bIV-4L``, whose work-stealing task program is the costly
#: build that every frequency point repeats.  jacobi2d on ``1bIV-4L``
#: (1.5 s a point, 25 s a grid) does not fit the run-time budget.
DVFS_GRIDS = {"blackscholes": ("1bIV-4L", "1b-4VL"),
              "jacobi2d": ("1b-4VL",)}


class Point:
    """One named simulation request."""

    __slots__ = ("name", "request")

    def __init__(self, name, request):
        self.name = name
        self.request = request

    def __repr__(self):
        return f"<Point {self.name}>"


def _plain(system, workload, scale):
    return Point(f"{system}/{workload}@{scale}",
                 RunRequest(system, workload, scale))


def sweep_points(scale="small", apps=SWEEP_APPS):
    """Every (system, app) pair of the fig4 slice: 5 apps x 7 systems."""
    return [_plain(s, w, scale) for w in apps for s in SYSTEM_NAMES]


def dvfs_points(scale="small"):
    """fig9's full 4x4 (big, little) grid per app and system of
    :data:`DVFS_GRIDS`, plus each app's 1L base: 2 + 3 x 16 = 50 points."""
    out = []
    for w, systems in DVFS_GRIDS.items():
        out.append(_plain("1L", w, scale))
        for s in systems:
            for b in BIG_LEVELS:
                for lv in LITTLE_LEVELS:
                    fb, fl = freqs(b, lv)
                    out.append(Point(
                        f"{s}/{w}@{scale}[{b},{lv}]",
                        RunRequest(s, w, scale,
                                   dict(freq_big=fb, freq_little=fl))))
    return out


def service_points(scale="tiny"):
    """The service workload's runs: 6 apps x 7 systems at tiny scale."""
    return sweep_points(scale, SERVICE_APPS)


def all_points():
    """Every point the benchmark checks, deduplicated by name."""
    seen = {}
    for p in sweep_points() + dvfs_points() + service_points():
        seen.setdefault(p.name, p)
    return list(seen.values())
