"""Spans and counters recorded from outside the simulator.

:func:`instrument` wraps the calls the benchmark's workloads make into
each module (``workloads``/``trace``, ``soc``, ``experiments.cache``,
``experiments.parallel``, ``experiments.figures``, ``service``) for the
duration of one traced run and restores them afterwards.  Nothing under
``src/`` is edited.  :func:`layer_metrics` turns the spans and counters
into the per-layer metrics (:data:`PER_LAYER`).

A span is ``(id, name, start, end, parent, request id)``; ids are
``"<pid>:<n>"`` so spans from forked pool workers never collide.  Spans
and counters live in memory; a pool worker appends its own to a spill
file after each simulation (a worker has no exit hook) and the parent
merges them when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: hostprof groups reported as per-layer metrics
HOSTPROF_GROUPS = ("big", "little", "vcu", "vcu.lanes.batch",
                   "vcu.lanes.scalar", "vmu", "l2", "mem", "scheduler")

#: every 16th dispatch is timed; event counts stay exact (the stride the
#: repository's own hostprof overhead gate uses)
HOSTPROF_STRIDE = 16

#: per-layer metric -> (unit, which direction is better)
PER_LAYER = {
    "workloads.build_s": ("s", "lower"),
    "workloads.builds": ("count", "lower"),
    "workloads.reuse_frac": ("frac", "lower"),
    "soc.run_s": ("s", "lower"),
    "soc.runs": ("count", "lower"),
    "soc.kcycles_per_s": ("kcycles/s", "higher"),
    "soc.skip_frac": ("frac", "higher"),
    **{f"hostprof.{g}_s": ("s", "lower") for g in HOSTPROF_GROUPS},
    "vector.batched_frac": ("frac", "higher"),
    "cache.get_s": ("s", "lower"),
    "cache.gets": ("count", "lower"),
    "cache.put_s": ("s", "lower"),
    "cache.puts": ("count", "lower"),
    "cache.hit_frac": ("frac", "higher"),
    "cache.bytes": ("bytes", "lower"),
    "parallel.sweep_s": ("s", "lower"),
    "parallel.worker_util": ("frac", "higher"),
    "parallel.pool_overhead_s": ("s", "lower"),
    "parallel.worker_nonsim_s": ("s", "lower"),
    "figures.aggregate_s": ("s", "lower"),
    "service.queue_wait_s": ("s", "lower"),
    "service.job_run_s": ("s", "lower"),
    "service.handler_ms": ("ms", "lower"),
    "service.transport_ms": ("ms", "lower"),
    "service.generated": ("count", "lower"),
    "service.artifact": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


class Tracer:
    """In-memory span and counter store, one per process."""

    def __init__(self, spill_dir):
        self.spill_dir = spill_dir
        self._patches = []
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.spans = []
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        if os.getpid() != self.pid:   # first use in a forked worker
            self._reset()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, rid=None):
        stack = self._stack()
        sid = f"{self.pid}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, rid))

    def add(self, name, value=1):
        self._stack()
        self.counts[name] += value

    def see(self, name, item):
        self._stack()
        self.distinct[name].add(item)

    # ------------------------------------------------------------- patching

    def wrap(self, owner, attr, name, rid=None, after=None):
        """Replace ``owner.attr`` with a spanned wrapper.  ``rid(*args)``
        names the request; ``after(result, args)`` records counters
        inside the span."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name, rid(*args) if rid else None):
                out = orig(*args, **kwargs)
                if after is not None:
                    after(out, args)
            return out

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr, new):
        """Set ``owner.attr`` to ``new`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -------------------------------------------------------- worker spills

    def spill(self):
        """In a forked worker, append everything recorded so far to this
        worker's spill file and clear it; no-op in the parent."""
        if os.getpid() == self._root_pid:
            return
        path = os.path.join(self.spill_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps({
                "spans": self.spans, "counts": self.counts,
                "distinct": {k: sorted(map(list, v))
                             for k, v in self.distinct.items()},
            }) + "\n")
        self.spans, self.counts = [], defaultdict(float)
        self.distinct = defaultdict(set)

    def collect(self):
        """Merge every worker spill file into this (parent) tracer."""
        if not os.path.isdir(self.spill_dir):
            return
        for fn in sorted(os.listdir(self.spill_dir)):
            if not fn.startswith("spans-"):
                continue
            with open(os.path.join(self.spill_dir, fn),
                      encoding="utf-8") as f:
                for line in f:
                    rec = json.loads(line)
                    self.spans.extend(tuple(s) for s in rec["spans"])
                    for k, v in rec["counts"].items():
                        self.counts[k] += v
                    for k, items in rec["distinct"].items():
                        self.distinct[k].update(map(tuple, items))

    def start(self):
        self._root_pid = os.getpid()
        os.makedirs(self.spill_dir, exist_ok=True)
        return self


# ---------------------------------------------------------------- analysis

def self_times(spans):
    """``{span id: self seconds}``: each span's duration minus the union
    of its direct children's intervals, clipped to the span."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _ in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (t1 - t0) - covered
    return out


def self_by_name(spans):
    """Summed self seconds and span counts per span name."""
    st = self_times(spans)
    total, count = defaultdict(float), defaultdict(int)
    for s in spans:
        total[s[1]] += st[s[0]]
        count[s[1]] += 1
    return total, count


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer, out, untraced_wall):
    """Every :data:`PER_LAYER` metric from one traced run's spans and
    counters; ``untraced_wall`` is the untraced ``wall_s`` to compare."""
    from repro.experiments.cache import ResultCache

    def ratio(a, b):
        return a / b if b else 0.0

    total, count = self_by_name(tracer.spans)
    c = tracer.counts
    builds = c["workloads.builds"]
    batch = c["hostprof.vcu.lanes.batch.events"]
    handler = {s[5]: (s[3] - s[2]) * 1e3 for s in tracer.spans
               if s[1] == "service.handle_get" and s[5] is not None}
    levels = [level for _, _, level in out.gets]
    return {
        "workloads.build_s": total["workloads.get"] + total["trace.build"],
        "workloads.builds": builds,
        "workloads.reuse_frac": 1.0 - ratio(
            len(tracer.distinct["workloads.programs"]), builds)
        if builds else 0.0,
        "soc.run_s": total["soc.run"],
        "soc.runs": c["soc.runs"],
        "soc.kcycles_per_s": ratio(c["soc.cycles_1ghz"],
                                   total["soc.run"]) / 1e3,
        "soc.skip_frac": ratio(c["soc.ticks_skipped"],
                               c["soc.ticks"] + c["soc.ticks_skipped"]),
        **{f"hostprof.{g}_s": c[f"hostprof.{g}_s"] for g in HOSTPROF_GROUPS},
        "vector.batched_frac": ratio(
            batch, batch + c["hostprof.vcu.lanes.scalar.events"]),
        "cache.get_s": total["cache.get"],
        "cache.gets": count["cache.get"],
        "cache.put_s": total["cache.put"],
        "cache.puts": count["cache.put"],
        "cache.hit_frac": ratio(c["cache.hits"], count["cache.get"]),
        "cache.bytes": ResultCache(cache_dir=out.cache_dir, shards=out.shards
                                   ).stats()["disk_bytes"],
        "parallel.sweep_s": c["parallel.sweep_s"],
        "parallel.worker_util": ratio(c["parallel.busy_s"],
                                      c["parallel.capacity_s"]),
        "parallel.pool_overhead_s": c["parallel.pool_overhead_s"],
        "parallel.worker_nonsim_s": (c["parallel.busy_s"]
                                     - c["parallel.sim_wall_s"]),
        "figures.aggregate_s": total["figures.aggregate"],
        "service.queue_wait_s": _median([j["started_ts"] - j["created_ts"]
                                         for j in out.jobs]),
        "service.job_run_s": _median([j["finished_ts"] - j["started_ts"]
                                      for j in out.jobs]),
        "service.handler_ms": _median(list(handler.values())),
        "service.transport_ms": _median([ms - handler[rid]
                                         for rid, ms, _ in out.gets
                                         if rid in handler]),
        "service.generated": levels.count("generated"),
        "service.artifact": levels.count("artifact"),
        "trace.overhead_s": out.wall_s - untraced_wall,
        "trace.overhead_frac": ratio(out.wall_s - untraced_wall,
                                     untraced_wall),
    }


# ----------------------------------------------------------- instrumentation

def instrument(tracer):
    """Wrap every layer boundary the workloads cross; undo with
    ``tracer.restore()``."""
    from repro.experiments import cache, figures, parallel, runner
    from repro.obs.host import HostScope
    from repro.service.http import ServiceApp
    from repro.soc.system import System

    def built(program, args):
        cfg, workload = args
        tracer.add("workloads.builds")
        tracer.see("workloads.programs",
                   (workload.name, workload.scale, cfg.name,
                    cfg.vlen_bits(4)))

    tracer.wrap(runner, "get_workload", "workloads.get")
    tracer.wrap(runner, "_program_for", "trace.build", after=built)

    orig_run = System.run

    @functools.wraps(orig_run)
    def run(self, program=None, *args, **kwargs):
        hs = kwargs.setdefault("hostscope", HostScope(stride=HOSTPROF_STRIDE))
        with tracer.span("soc.run"):
            res = orig_run(self, program, *args, **kwargs)
        st = res.stats
        tracer.add("soc.runs")
        tracer.add("soc.cycles_1ghz", st["cycles_1ghz"])
        for dom in ("big", "little", "mem"):
            tracer.add("soc.ticks", st[f"sim.ticks_{dom}"])
            tracer.add("soc.ticks_skipped", st[f"sim.ticks_skipped_{dom}"])
        for row in hs.group_rows():
            tracer.add(f"hostprof.{row['group']}_s", row["wall_s"])
            tracer.add(f"hostprof.{row['group']}.events", row["events"])
        return res

    tracer.patch(System, "run", run)

    tracer.wrap(cache.ResultCache, "get", "cache.get",
                after=lambda out, args: tracer.add(
                    "cache.hits", out is not None))
    tracer.wrap(cache.ResultCache, "put", "cache.put")

    def swept(out, args):
        s = args[0].summary()
        if not s["workers"]:
            return
        busy = s["worker_util"] * s["workers"] * s["wall_s"]
        tracer.add("parallel.sweep_s", s["wall_s"])
        tracer.add("parallel.capacity_s", s["workers"] * s["wall_s"])
        tracer.add("parallel.busy_s", busy)
        tracer.add("parallel.pool_overhead_s",
                   s["wall_s"] - busy / s["workers"])
        tracer.add("parallel.sim_wall_s", s["sim_wall_s"])

    tracer.wrap(parallel.ParallelRunner, "run", "parallel.run", after=swept)
    # parallel.run_pair is the name both the inline path and the pool
    # worker body (_simulate) call: one span per simulated request
    tracer.wrap(parallel, "run_pair", "parallel.worker",
                rid=lambda system, workload, scale="small", *a: (
                    f"{system}/{workload}@{scale}"))
    orig_simulate = parallel._simulate

    # keeps the pickled name, so forked pool workers run this wrapper
    @functools.wraps(orig_simulate)
    def simulate(*args):
        try:
            return orig_simulate(*args)
        finally:
            tracer.spill()

    tracer.patch(parallel, "_simulate", simulate)

    for fig in ("fig4", "fig9"):
        tracer.wrap(figures, fig, "figures.aggregate")

    tracer.wrap(ServiceApp, "handle_get", "service.handle_get",
                rid=lambda app, handler: handler.headers.get(
                    "X-Figbench-Rid"))
