"""Benchmark + CI guard: the critpath-off run loop must stay free.

Not collected by pytest (no ``test_`` prefix) — run directly:

    PYTHONPATH=src python benchmarks/bench_critpath_overhead.py
    PYTHONPATH=src python benchmarks/bench_critpath_overhead.py --record baseline.json
    PYTHONPATH=src python benchmarks/bench_critpath_overhead.py --check \
        benchmarks/critpath_overhead_baseline.json

A :class:`~repro.obs.critpath.CritPath` attaches by *wrapping* each
unit's tick callable once, before the loop starts — the production path
with no CritPath attached must not pay a single extra branch per
iteration.
Absolute wall time is machine-dependent, so the guard checks the
machine-relative **off/on ratio** (how long an unattributed run takes
relative to an attributed run of the same pair, interleaved in one
process): if someone later leaks per-tick bookkeeping into the
unattached path, off creeps toward on and the ratio rises past the
recorded baseline. Arms are timed with ``time.process_time`` (CPU time
— immune to container-scheduler preemption) and each arm's estimate is
the minimum over interleaved repeats, the standard noise-floor
estimator.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments.runner import _program_for
from repro.obs import CritPath
from repro.soc import System, preset
from repro.workloads import get_workload

SYSTEM = "1b-4VL"
WORKLOAD = "saxpy"
SCALE = "small"


def _one_run(critpath):
    cfg = preset(SYSTEM)
    program = _program_for(cfg, get_workload(WORKLOAD, SCALE))
    system = System(cfg)
    t0 = time.process_time()
    system.run(program, critpath=critpath)
    return time.process_time() - t0


def measure(repeats):
    """Best-of-``repeats`` CPU time for critpath-off and critpath-on,
    interleaved so frequency scaling and cache warmth hit both arms
    equally."""
    _one_run(None)  # warm imports, traces, and branch predictors
    _one_run(CritPath())
    off = on = float("inf")
    for _ in range(repeats):
        off = min(off, _one_run(None))
        on = min(on, _one_run(CritPath()))
    return off, on


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--record", metavar="PATH",
                    help="write the measured off/on ratio as the new baseline")
    ap.add_argument("--check", metavar="PATH",
                    help="fail (exit 1) if off/on exceeds this baseline "
                         "by more than --tolerance")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed relative ratio increase (default 0.05)")
    ap.add_argument("--bench-json", metavar="PATH",
                    help="merge the measurements into a bigvlittle-bench-v1 "
                         "results file (CI artifact)")
    args = ap.parse_args(argv)

    off, on = measure(args.repeats)
    ratio = off / on
    print(f"{WORKLOAD}@{SCALE} on {SYSTEM}, best of {args.repeats}:")
    print(f"  critpath off : {off * 1000:8.1f} ms")
    print(f"  critpath on  : {on * 1000:8.1f} ms")
    print(f"  off/on       : {ratio:.3f}  "
          f"(attribution costs {(on / off - 1) * 100:+.1f}%)")

    if args.record:
        payload = {"system": SYSTEM, "workload": WORKLOAD, "scale": SCALE,
                   "off_on_ratio": round(ratio, 4), "repeats": args.repeats}
        with open(args.record, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"recorded baseline to {args.record}")
    if args.bench_json:
        from bench_pipeview_overhead import emit_bench_json

        emit_bench_json(
            args.bench_json, "critpath_overhead",
            {"off_ms": round(off * 1000, 3), "on_ms": round(on * 1000, 3),
             "off_on_ratio": round(ratio, 4)},
            {"system": SYSTEM, "workload": WORKLOAD, "scale": SCALE,
             "repeats": args.repeats})
        print(f"merged results into {args.bench_json}")
    if args.check:
        with open(args.check) as f:
            base = json.load(f)["off_on_ratio"]
        limit = base * (1.0 + args.tolerance)
        verdict = "OK" if ratio <= limit else "FAIL"
        print(f"  guard   : ratio {ratio:.3f} vs limit {limit:.3f} "
              f"(baseline {base:.3f} +{args.tolerance:.0%}) -> {verdict}")
        if ratio > limit:
            print("critpath-off overhead regression: the unattributed run "
                  "loop slowed down relative to critpath-on; check for "
                  "bookkeeping that is not gated behind the one-time "
                  "`critpath is not None` setup in System.run.")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
