"""Benchmark + CI guard: host profiling must stay cheap enough to trust.

Not collected by pytest (no ``test_`` prefix) — run directly:

    PYTHONPATH=src python benchmarks/bench_hostprof_overhead.py
    PYTHONPATH=src python benchmarks/bench_hostprof_overhead.py --record baseline.json
    PYTHONPATH=src python benchmarks/bench_hostprof_overhead.py --check \
        benchmarks/hostprof_overhead_baseline.json

A profiler that distorts what it measures is worse than none: the whole
point of ``bigvlittle hostprof`` is to decide what to vectorize next, so
the sampled mode's own cost must stay in the noise. Three arms of the
same (system, workload) pair, interleaved in one process:

* **off**     — no HostScope attached (the production path);
* **full**    — ``HostScope(stride=1)``: every tick timed (exact
  attribution, reported for information);
* **sampled** — ``HostScope(stride=STRIDE)``: the low-overhead mode CI
  and long sweeps should use.

Absolute run time is machine-dependent, so the guard is two-fold: the
measured **sampled/off ratio** must not exceed the recorded baseline by
more than ``--tolerance`` (default 5%), and the *baseline itself* — the
quiet-run consensus estimate of the profiler's true cost — must stay
under ``--max-overhead`` (default 5%, the acceptance bar). The absolute
budget is checked against the committed baseline rather than the live
measurement because a single CI run's ratio jitters by several percent
on a shared machine; a real regression still trips the relative check
(e.g. doubling a 3% overhead lands well past baseline + 5%).

Two choices keep the guard honest on noisy shared machines: arms are
measured with ``time.process_time`` (CPU time — immune to the container
scheduler preempting the process mid-run, which inflates wall time by
double-digit percents here), and each arm's estimate is the **minimum**
over interleaved repeats, the standard noise-floor estimator for
benchmark timing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments.runner import _program_for
from repro.obs import HostScope
from repro.soc import System, preset
from repro.workloads import get_workload

SYSTEM = "1b-4VL"
WORKLOAD = "saxpy"
SCALE = "small"
STRIDE = 16


def _one_run(hostscope):
    cfg = preset(SYSTEM)
    program = _program_for(cfg, get_workload(WORKLOAD, SCALE))
    system = System(cfg)
    t0 = time.process_time()
    system.run(program, hostscope=hostscope)
    return time.process_time() - t0


def _make(arm):
    if arm == "off":
        return None
    return HostScope(stride=1 if arm == "full" else STRIDE)


def measure(repeats):
    """Best-of-``repeats`` CPU time per arm, interleaved so frequency
    scaling and cache warmth hit all arms equally."""
    best = {"off": float("inf"), "full": float("inf"),
            "sampled": float("inf")}
    for arm in best:
        _one_run(_make(arm))  # warm imports, traces, branch predictors
    for _ in range(repeats):
        for arm in best:
            best[arm] = min(best[arm], _one_run(_make(arm)))
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--record", metavar="PATH",
                    help="write the measured sampled/off ratio as the new "
                         "baseline")
    ap.add_argument("--check", metavar="PATH",
                    help="fail (exit 1) if sampled/off exceeds this baseline "
                         "by more than --tolerance, or the baseline itself "
                         "exceeds --max-overhead")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed relative ratio increase (default 0.05)")
    ap.add_argument("--max-overhead", type=float, default=0.05,
                    help="absolute budget for the *recorded* sampled-mode "
                         "overhead (default 0.05 = 5%%)")
    ap.add_argument("--bench-json", metavar="PATH",
                    help="merge the measurements into a bigvlittle-bench-v1 "
                         "results file (CI artifact)")
    args = ap.parse_args(argv)

    best = measure(args.repeats)
    off, full, sampled = best["off"], best["full"], best["sampled"]
    ratio = sampled / off
    print(f"{WORKLOAD}@{SCALE} on {SYSTEM}, best of {args.repeats} "
          f"(sampling stride {STRIDE}):")
    print(f"  hostprof off     : {off * 1000:8.1f} ms")
    print(f"  hostprof stride 1: {full * 1000:8.1f} ms "
          f"({(full / off - 1) * 100:+.1f}%)")
    print(f"  hostprof sampled : {sampled * 1000:8.1f} ms "
          f"({(ratio - 1) * 100:+.1f}%)")

    if args.record:
        payload = {"system": SYSTEM, "workload": WORKLOAD, "scale": SCALE,
                   "stride": STRIDE, "sampled_off_ratio": round(ratio, 4),
                   "repeats": args.repeats}
        with open(args.record, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"recorded baseline to {args.record}")
    if args.bench_json:
        from bench_pipeview_overhead import emit_bench_json

        emit_bench_json(
            args.bench_json, "hostprof_overhead",
            {"off_ms": round(off * 1000, 3),
             "full_ms": round(full * 1000, 3),
             "sampled_ms": round(sampled * 1000, 3),
             "sampled_off_ratio": round(ratio, 4),
             "full_off_ratio": round(full / off, 4)},
            {"system": SYSTEM, "workload": WORKLOAD, "scale": SCALE,
             "stride": STRIDE, "repeats": args.repeats})
        print(f"merged results into {args.bench_json}")
    if args.check:
        with open(args.check) as f:
            base = json.load(f)["sampled_off_ratio"]
        cap = 1.0 + args.max_overhead
        limit = base * (1.0 + args.tolerance)
        ok = base <= cap and ratio <= limit
        print(f"  guard   : ratio {ratio:.3f} vs limit {limit:.3f} "
              f"(baseline {base:.3f} +{args.tolerance:.0%}; baseline budget "
              f"{cap:.2f}) -> {'OK' if ok else 'FAIL'}")
        if base > cap:
            print("hostprof overhead budget exceeded: the committed baseline "
                  "records a sampled-mode cost above --max-overhead; the "
                  "profiler must get cheaper before re-recording.")
            return 1
        if ratio > limit:
            print("hostprof overhead regression: the sampled profiler now "
                  "costs more than its budget; check for un-strided work in "
                  "HostScope.wrap or new always-on bookkeeping.")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
