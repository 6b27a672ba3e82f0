"""The three figbench workloads, each driven through public entry points.

``sweep-cold``
    A fig4-style slice (5 apps x 7 systems at ``small``) through
    ``ParallelRunner(jobs=2)`` on a fresh cache, then the ``fig4``
    aggregation.
``dvfs-cold``
    fig9's full (big, little) grids of :data:`figbench.points.DVFS_GRIDS`
    plus the ``1L`` bases, serially in-process (``ParallelRunner(jobs=1)``:
    no pool) on a fresh cache, then ``fig9``.
``service-mixed``
    Two bursts, each on a fresh ``ServiceApp`` with one worker: one client
    connection POSTs 42 tiny-scale runs as separate jobs and polls them to
    done.

Every workload then reads its results back as a user browsing them
would: a ``ServiceApp`` on its cache serves a closed loop of artifact
GETs over one keep-alive loopback connection (:func:`_get_phase`).  The
seed shuffles request order, picks which artifacts are read and shuffles
the GETs; it never changes a simulated input.

Each workload returns an :class:`Outcome`: the measured times, each
point's stats, and the operations it attempted with any problem found.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import statistics
import time

from repro.experiments import figures
from repro.experiments.cache import ResultCache, set_cache
from repro.experiments.parallel import ParallelRunner
from repro.log import configure
from repro.service.artifacts import render_result, render_stats, render_summary
from repro.service.http import ServiceApp
from repro.soc import SYSTEM_NAMES

from figbench import points as P
from figbench.check import digest

#: derived artifacts a GET phase reads, rendered here to check the bytes
RENDER = {"stats": lambda res, key: render_stats(res),
          "summary": render_summary,
          "result": lambda res, key: render_result(res)}

#: cold bursts per service-mixed run, each on a fresh service; its wall
#: times are their median (one 10 s burst swings with the host's speed)
SERVICE_BURSTS = 2

#: a GET phase reads this many artifacts, each twice (first render, then
#: from disk): 104 GETs leave 10 samples beyond the p90
GET_ARTIFACTS = 52


class Outcome:
    """What one workload measured and produced."""

    def __init__(self):
        self.wall_s = 0.0        # first request until every result is in
        self.jobs_wall_s = 0.0   # first request to last simulation done
        self.get_ms = []         # GET latencies, in request order
        self.gets = []           # (request id, latency ms, cache level)
        self.points = {}         # point name -> stats
        self.passes = []         # one points dict per pass over the points
        self.ops = []            # (kind, name, problem or None)
        self.cache_dir = None
        self.shards = 0
        self.pool_workers = 0    # worker processes the run forked
        self.jobs = []           # service job records (service-mixed)

    def op(self, kind, name, problem=None):
        self.ops.append((kind, name, problem))


def _order(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


class _Client:
    """One keep-alive loopback connection; ``call`` returns
    ``(status, response, body, seconds)``."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method, path, body=None, headers=None):
        headers = dict(headers or {})
        if body is not None:
            body = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        t0 = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        return resp.status, resp, data, time.perf_counter() - t0

    def close(self):
        self.conn.close()


def _get_phase(out, app, client, keys, rng):
    """Closed loop of artifact GETs for ``keys`` (point name -> cache
    key); the bodies are checked by :func:`_check_gets` once the service
    has stopped."""
    arts = rng.sample([(name, key, art) for name, key in sorted(keys.items())
                       for art in RENDER], GET_ARTIFACTS)
    started = app.queue.counters["started"]
    bodies = []
    for i, (name, key, art) in enumerate(_order(arts * 2, rng)):
        status, resp, data, dt = client.call(
            "GET", f"/v1/results/{key}/{art}",
            headers={"X-Figbench-Rid": str(i)})
        out.get_ms.append(dt * 1e3)
        out.gets.append((str(i), dt * 1e3,
                         resp.getheader("X-BigVLittle-Cache")))
        bodies.append((name, key, art, status, data))
    moved = app.queue.counters["started"] - started
    return bodies, moved


def _check_gets(out, app, bodies, moved):
    """Every GET must return 200 with the bytes rendered from the cached
    result, identical to the first GET of the same artifact, and the
    phase must start no simulation."""
    cached = {}
    first = {}
    for name, key, art, status, data in bodies:
        if key not in cached:
            res = cached[key] = app.cache.get(key)
            if res is not None and digest(res.stats) != digest(
                    out.points[name]):
                out.op("read-back", name, "cached stats differ from the "
                                          "stats the run returned")
        res = cached[key]
        seen = first.setdefault((key, art), data)
        problem = (f"GET {art} returned {status}" if status != 200 else
                   "no cached result" if res is None else
                   f"{art} bytes differ from the render of the cached "
                   f"result" if data != RENDER[art](res, key) else
                   f"{art} bytes differ from the first GET" if data != seen
                   else None)
        out.op("get", f"{name}/{art}", problem)
    out.op("warm-read", "get-phase",
           f"{moved} job(s) started during the GET phase" if moved else None)


# -------------------------------------------------------------- cold sweeps

def _schedule(pts, rng):
    """Submission order for a cold sweep: apps keep figure order and the
    seed shuffles the systems within each app.  A pool's wall time then
    ends on the last app's short runs instead of on whichever long run a
    free shuffle happened to put last."""
    blocks = {}
    for p in pts:
        blocks.setdefault(p.request.workload, []).append(p)
    return [p for block in blocks.values() for p in _order(block, rng)]


def _cold_sweep(workdir, seed, pts, jobs, aggregate, figure_of):
    configure(level="warning")
    rng = random.Random(seed)
    out = Outcome()
    out.cache_dir = os.path.join(workdir, "cache")
    cache = set_cache(ResultCache(cache_dir=out.cache_dir))
    order = _schedule(pts, rng)
    t0 = time.perf_counter()
    runner = ParallelRunner(jobs=jobs)
    results = runner.run([p.request for p in order])
    t1 = time.perf_counter()
    fig = aggregate()
    t2 = time.perf_counter()
    out.jobs_wall_s, out.wall_s = t1 - t0, t2 - t0
    out.pool_workers = runner.summary()["workers"] if jobs > 1 else 0
    out.points = {p.name: r.stats for p, r in zip(order, results)}
    out.passes = [out.points]
    wrong = [f"{name}: {theirs!r} != {mine!r} from the swept points"
             for name, mine, theirs in figure_of(fig, out.points)
             if mine != theirs]
    out.op("figure", "aggregation", "; ".join(wrong) or None)

    # browse the regenerated points through a service on the same cache
    keys = {p.name: cache.key_for(p.request.config(), p.request.workload,
                                  p.request.scale) for p in pts}
    app = ServiceApp(cache_root=workdir, workers=1, runner_jobs=1).start()
    client = _Client(app.port)
    try:
        bodies, moved = _get_phase(out, app, client, keys, rng)
    finally:
        client.close()
        app.stop()
    _check_gets(out, app, bodies, moved)
    return out


def sweep_cold(workdir, seed):
    def fig4_values(fig, stats):
        for w in P.SWEEP_APPS:
            base = stats[f"1L/{w}@small"]["time_ps"]
            for s in SYSTEM_NAMES:
                yield (f"fig4 {s}/{w}", base / stats[f"{s}/{w}@small"]
                       ["time_ps"], fig["speedups"][w][s])

    return _cold_sweep(
        workdir, seed, P.sweep_points(), 2,
        lambda: figures.fig4("small", SYSTEM_NAMES, list(P.SWEEP_APPS)),
        fig4_values)


def dvfs_cold(workdir, seed):
    def fig9_values(fig, stats):
        for w, systems in P.DVFS_GRIDS.items():
            base = stats[f"1L/{w}@small"]["time_ps"]
            for s in systems:
                for (b, lv), v in fig[w][s].items():
                    name = f"{s}/{w}@small[{b},{lv}]"
                    yield (f"fig9 {name}", base / stats[name]["time_ps"], v)

    def fig9():
        out = {}
        for w, systems in P.DVFS_GRIDS.items():
            out.update(figures.fig9("small", [w], systems, jobs=1))
        return out

    return _cold_sweep(workdir, seed, P.dvfs_points(), 1, fig9, fig9_values)


# ------------------------------------------------------------------ service

def _burst(out, app, client, rng):
    """POST every service point as its own job, poll until all are done;
    returns ``(wall_s, jobs_wall_s, {point name: cache key})``."""
    jobs = {}   # job id -> point
    t0 = time.perf_counter()
    t0_wall = time.time()
    for p in _order(P.service_points(), rng):
        r = p.request
        status, _, data, _ = client.call("POST", "/v1/runs", {
            "runs": [{"system": r.system, "workload": r.workload,
                      "scale": r.scale}]})
        if status != 202:
            out.op("post", p.name, f"POST returned {status}")
            continue
        out.op("post", p.name)
        jobs[json.loads(data)["id"]] = p
    while True:
        status, _, data, _ = client.call("GET", "/v1/jobs?limit=1000")
        if status != 200:
            raise RuntimeError(f"GET /v1/jobs returned {status}")
        records = [j for j in json.loads(data)["jobs"] if j["id"] in jobs]
        if len(records) == len(jobs) and all(
                j["state"] in ("done", "failed") for j in records):
            break
        time.sleep(0.1)
    wall = time.perf_counter() - t0
    done = [j for j in records if j["state"] == "done"]
    out.jobs += done
    keys = {}
    for j in records:
        name = jobs[j["id"]].name
        if j["state"] == "done":
            keys[name] = j["keys"][0]
        else:
            out.op("job", name, f"job {j['id']} failed: {j['error']}")
    return wall, max(j["finished_ts"] for j in done) - t0_wall, keys


def service_mixed(workdir, seed):
    configure(level="warning")
    rng = random.Random(seed)
    out = Outcome()
    walls, job_walls = [], []
    for i in range(SERVICE_BURSTS):
        app = ServiceApp(cache_root=os.path.join(workdir, f"service-{i}"),
                         workers=1, runner_jobs=1).start()
        client = _Client(app.port)
        try:
            wall, jobs_wall, keys = _burst(out, app, client, rng)
            walls.append(wall)
            job_walls.append(jobs_wall)
            if i == SERVICE_BURSTS - 1:
                bodies, moved = _get_phase(out, app, client, keys, rng)
        finally:
            client.close()
            app.stop()
        # checks run after the timed phases, against the service's cache
        out.passes.append({name: app.cache.get(key).stats
                           for name, key in keys.items()})
    out.wall_s = statistics.median(walls)
    out.jobs_wall_s = statistics.median(job_walls)
    out.points = out.passes[-1]
    out.cache_dir, out.shards = app.cache.cache_dir, app.cache.shards
    _check_gets(out, app, bodies, moved)
    return out


WORKLOADS = {
    "sweep-cold": sweep_cold,
    "dvfs-cold": dvfs_cold,
    "service-mixed": service_mixed,
}
