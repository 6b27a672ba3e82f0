"""figbench: wall time to regenerate the paper's figure sweeps, checked.

Usage, from the repository root::

    python3 figbench/run.py --workload sweep-cold|dvfs-cold|service-mixed \\
        [--seed N] [--seconds S] [--trace 0|1]

Prints a human-readable report, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same workload with spans
around every layer boundary and reports the per-layer metrics plus the
tracing overhead.  See ``figbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".figbench")

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "jobs_wall_s": "s",
    "get_p50_ms": "ms", "get_p90_ms": "ms",
    "failed_frac": "frac", "peak_rss_mb": "MB",
}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-cold", "dvfs-cold", "service-mixed"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="expected measuring time; every workload is a "
                         "fixed amount of work, so this only triggers a "
                         "warning when a run measured for less")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _tally(out, reference, ledger):
    from figbench.check import Tally, check_points
    tally = Tally()
    digests = ledger.load()
    for points in out.passes:
        # a later pass must reproduce the first pass's digests
        digests = {**check_points(points, reference, tally, digests),
                   **digests}
    for kind, name, problem in out.ops:
        if problem is None:
            tally.ok()
        else:
            tally.fail(kind, name, problem)
    return tally, digests


def _measure(workload, seed, workdir, tracer=None):
    """One pass of ``workload``; returns its outcome."""
    from figbench.workloads import WORKLOADS
    os.makedirs(workdir)
    if tracer is not None:
        from figbench.trace import instrument
        tracer.start()
        instrument(tracer)
    try:
        return WORKLOADS[workload](workdir, seed)
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.collect()


def _load_json(path, default):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return default


def _save_json(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=0, sort_keys=True)
    os.replace(tmp, path)


def main(argv=None):
    args = _args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"figbench: no simulator sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from figbench.check import Ledger, load_reference
    from figbench.measure import peak_rss_mb, percentile, setup_seconds
    from figbench.trace import PER_LAYER, Tracer, layer_metrics
    from repro.log import configure

    configure(level="warning")
    wl = args.workload
    reference = load_reference()
    ledger = Ledger(os.path.join(STATE, "state", f"{wl}.digests.json"))
    walls_path = os.path.join(STATE, "state", f"{wl}.walls.json")
    run_dir = os.path.join(STATE, "runs", f"{wl}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        if not args.trace:
            setup_s = setup_seconds(ROOT, os.path.join(run_dir, "setup"))
        walls = _load_json(walls_path, [])
        tracer = None
        if args.trace and not walls:
            # the overhead needs an untraced wall from this checkout
            out = _measure(wl, args.seed, os.path.join(run_dir, "plain"))
            walls.append(out.wall_s)
            _save_json(walls_path, walls)
        if args.trace:
            tracer = Tracer(os.path.join(run_dir, "spill"))
        t0 = time.perf_counter()
        out = _measure(wl, args.seed, os.path.join(run_dir, "run"), tracer)
        measured = time.perf_counter() - t0
        tally, digests = _tally(out, reference, ledger)
        if args.trace:
            metrics = layer_metrics(tracer, out, statistics.median(walls))
            trace_path = os.path.join(STATE, "traces",
                                      f"{wl}-seed{args.seed}.json")
            _save_json(trace_path, {"spans": tracer.spans,
                                    "counts": tracer.counts})
        else:
            ledger.record(digests)
            _save_json(walls_path, walls + [out.wall_s])
            metrics = {
                "setup_s": setup_s,
                "wall_s": out.wall_s,
                "jobs_wall_s": out.jobs_wall_s,
                "get_p50_ms": statistics.median(out.get_ms),
                "get_p90_ms": percentile(out.get_ms, 90.0),
                "failed_frac": tally.failed_frac,
                "peak_rss_mb": peak_rss_mb(out.pool_workers),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    _report(wl, args, out, tally, metrics, measured)
    # a point that disagrees with the dense reference is a failed
    # operation (failed_frac); every other failure means the outputs
    # could not be trusted at all
    correct = all(kind == "reference" for kind, _, _ in tally.failures)
    units = ({k: u for k, (u, _) in PER_LAYER.items()} if args.trace
             else END_TO_END)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


def _report(wl, args, out, tally, metrics, measured):
    from figbench.measure import summarize
    print(f"figbench {wl} seed={args.seed} trace={args.trace}")
    n_points = sum(len(points) for points in out.passes)
    print(f"  points: {tally.count('reference')}/{n_points} disagree with "
          f"the dense-loop reference (all stats but sim.ticks_*), "
          f"{len(out.passes)} pass(es)")
    for kind, name, detail in sorted(tally.failures):
        print(f"    FAIL {kind:16s} {name}: {detail}")
    print(f"  operations: {tally.failed}/{tally.attempted} failed")
    g = summarize(out.get_ms)
    print(f"  GETs: n={g['n']} p50={g['p50']:.3f} ms "
          f"p{g['tail_p']:g}={g['tail']:.3f} ms")
    for k, v in metrics.items():
        print(f"  {k:28s} {v:.6g}")
    if measured < args.seconds:
        print(f"  note: measured {measured:.1f} s < --seconds "
              f"{args.seconds:g}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
