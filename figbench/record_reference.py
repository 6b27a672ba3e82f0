"""Record ``reference.json``: every figbench point run on the dense loop.

The reference is the simplest schedule the simulator has,
``System.run(program, skip=False)``, which ticks every unit on every
cycle.  The default event loop must reproduce it stat for stat (all but
``sim.ticks_*``); the benchmark counts each point where it does not.

Each recorded point is also cross-checked against the figure values in
``results/fullrun-small.json`` wherever that file holds the point
(fig4/fig9 speedups, fig5/fig6 request ratios, the fig7 ``2c+sw`` lane
breakdown).  A disagreement is printed and stored in the file.

Usage, from the repository root (about a minute on 2 cores)::

    python3 figbench/record_reference.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from figbench import points as P  # noqa: E402
from figbench.check import (FULLRUN, REFERENCE_PATH,  # noqa: E402
                            REFERENCE_SCHEMA, crosscheck, digest, stat_view)


def _dense(point):
    from repro.experiments.runner import _program_for
    from repro.soc import System
    from repro.workloads import get_workload
    req = point.request
    cfg = req.config()
    program = _program_for(cfg, get_workload(req.workload, req.scale))
    return point.name, System(cfg).run(program, skip=False).stats


def main():
    import repro
    pts = P.all_points()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        stats = dict(pool.imap_unordered(_dense, pts))
    with open(FULLRUN, encoding="utf-8") as f:
        checked, bad = crosscheck(stats, json.load(f))
    for line in bad:
        print("crosscheck:", line)
    print(f"{len(stats)} points; {checked} figure values cross-checked "
          f"against results/fullrun-small.json, {len(bad)} disagree")
    doc = {
        "schema": REFERENCE_SCHEMA,
        "loop": "dense: System.run(program, skip=False)",
        "sim_version": repro.__version__,
        "crosscheck": {"source": "results/fullrun-small.json",
                       "checked": checked, "mismatches": bad},
        "points": {name: {"digest": digest(s), "stats": stat_view(s)}
                   for name, s in sorted(stats.items())},
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=0, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
