#!/usr/bin/env python
"""End-to-end smoke test of ``bigvlittle serve`` over a real socket.

What CI runs (and what an operator can run locally to vet a deploy):

1. start the service as a subprocess on a free port, with telemetry on;
2. wait for ``GET /v1/healthz``;
3. ``POST /v1/runs`` one saxpy run and poll ``GET /v1/jobs/<id>`` to done;
4. fetch the ``stats`` artifact twice — first ``generated``, then
   ``artifact`` — and byte-compare it against a direct in-process
   ``run_pair`` dump (the no-simulation-drift guarantee);
5. fetch it 20 more times over one keep-alive connection, byte-compare
   each fetch with the direct dump and require a median under 20 ms (a
   Nagle / delayed-ACK stall costs ~40 ms per reused-connection GET);
6. re-submit the same body and require dedup/instant completion;
7. check ``GET /v1/stats`` counters reconcile with the telemetry JSONL;
8. SIGTERM the server and require a clean drain + exit 0.

Usage: ``python tools/service_smoke.py [--keep DIR]`` — ``--keep``
copies the server's telemetry log and fetched artifacts into DIR (CI
uploads it).  Exit 0 on success; any failure prints a diagnosis and the
server's output, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))


def http(method, url, body=None):
    req = urllib.request.Request(
        url, method=method,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"} if body else {})
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), e.read()


def free_port():
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def fail(msg, proc=None):
    print(f"service_smoke: FAIL: {msg}")
    if proc is not None:
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=10)
            print("---- server output ----")
            print(out)
        except subprocess.TimeoutExpired:
            proc.kill()
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--keep", metavar="DIR", default=None,
                    help="copy the telemetry log + fetched artifacts here")
    args = ap.parse_args()

    root = tempfile.mkdtemp(prefix="bigvlittle-smoke-")
    tele = os.path.join(root, "service_telemetry.jsonl")
    port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", "serve",
         "--port", str(port), "--workers", "1",
         "--cache-root", os.path.join(root, "results"),
         "--telemetry", tele],
        env=env, cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    base = f"http://127.0.0.1:{port}"

    try:
        for _ in range(100):
            if proc.poll() is not None:
                return fail("server exited during startup", proc)
            try:
                status, _, _ = http("GET", f"{base}/v1/healthz")
                if status == 200:
                    break
            except (urllib.error.URLError, OSError):
                time.sleep(0.1)
        else:
            return fail("server never answered /v1/healthz", proc)
        print(f"service_smoke: server healthy on port {port}")

        body = {"system": "1b-4VL", "workload": "saxpy", "scale": "tiny"}
        status, _, raw = http("POST", f"{base}/v1/runs", body)
        if status != 202:
            return fail(f"submit returned {status}: {raw!r}", proc)
        job = json.loads(raw)
        key = job["keys"][0]
        print(f"service_smoke: submitted {job['id']} key={key[:12]}…")

        for _ in range(300):
            status, _, raw = http("GET", f"{base}/v1/jobs/{job['id']}")
            state = json.loads(raw)["state"]
            if state in ("done", "failed"):
                break
            time.sleep(0.1)
        if state != "done":
            return fail(f"job ended as {state}: {raw!r}", proc)
        print(f"service_smoke: job done, levels="
              f"{json.loads(raw)['levels']}")

        status, h1, served = http("GET", f"{base}/v1/results/{key}/stats")
        status2, h2, served2 = http("GET", f"{base}/v1/results/{key}/stats")
        if status != 200 or status2 != 200:
            return fail(f"stats artifact GET failed ({status}/{status2})",
                        proc)
        lvl1 = h1.get("X-BigVLittle-Cache")
        lvl2 = h2.get("X-BigVLittle-Cache")
        if (lvl1, lvl2) != ("generated", "artifact") or served != served2:
            return fail(f"artifact levels {lvl1}/{lvl2} or bytes changed "
                        "between fetches", proc)

        from repro.experiments.runner import run_pair
        from repro.obs.diff import dump_result

        direct = (json.dumps(dump_result(
            run_pair("1b-4VL", "saxpy", "tiny", use_cache=False)),
            indent=1, sort_keys=True) + "\n").encode()
        if served != direct:
            return fail("served stats artifact differs from a direct "
                        "run_pair dump", proc)
        print(f"service_smoke: stats artifact byte-identical to direct run "
              f"({len(served)} bytes)")

        conn = HTTPConnection("127.0.0.1", port, timeout=10)
        latencies = []
        try:
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", f"/v1/results/{key}/stats")
                resp = conn.getresponse()
                fetched = resp.read()
                latencies.append((time.perf_counter() - t0) * 1e3)
                if resp.status != 200 or fetched != direct:
                    return fail(f"keep-alive stats GET returned "
                                f"{resp.status} or different bytes", proc)
        finally:
            conn.close()
        median_ms = statistics.median(latencies)
        if median_ms >= 20.0:
            return fail(f"keep-alive GET median {median_ms:.1f} ms >= 20 ms "
                        f"over 20 fetches on one connection", proc)
        print(f"service_smoke: 20 keep-alive GETs byte-identical, median "
              f"{median_ms:.2f} ms")

        status, _, raw = http("POST", f"{base}/v1/runs", body)
        if status != 200 and json.loads(raw)["state"] != "done":
            # not deduplicated (job already finished) — must at least be
            # a warm job; poll it to done and require a cache-level hit
            job2 = json.loads(raw)
            for _ in range(100):
                status, _, raw = http("GET", f"{base}/v1/jobs/{job2['id']}")
                if json.loads(raw)["state"] in ("done", "failed"):
                    break
                time.sleep(0.05)
            levels = json.loads(raw).get("levels") or {}
            if levels.get(key) not in ("memory", "disk"):
                return fail(f"warm resubmit did not hit the cache: {levels}",
                            proc)
        print("service_smoke: warm resubmit served from cache")

        status, _, raw = http("GET", f"{base}/v1/stats")
        stats = json.loads(raw)
        counters = stats["queue"]["counters"]
        if counters["done"] < 1 or counters["enqueued"] < 1:
            return fail(f"queue counters look wrong: {counters}", proc)

        from repro.experiments.telemetry import load_jsonl

        events = load_jsonl(tele)
        by_ev = {}
        for ev in events:
            by_ev[ev["ev"]] = by_ev.get(ev["ev"], 0) + 1
        if by_ev.get("job_done", 0) != counters["done"] + counters["failed"]:
            return fail(f"telemetry does not reconcile: job_done="
                        f"{by_ev.get('job_done')} vs counters {counters}",
                        proc)
        print(f"service_smoke: telemetry reconciles "
              f"({by_ev.get('job_enqueued', 0)} enqueued, "
              f"{by_ev.get('job_done', 0)} done events)")

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        if proc.returncode != 0:
            print(out)
            return fail(f"server exited {proc.returncode} on SIGTERM")
        print("service_smoke: clean drain on SIGTERM")

        if args.keep:
            os.makedirs(args.keep, exist_ok=True)
            shutil.copy(tele, os.path.join(args.keep,
                                           "service_telemetry.jsonl"))
            with open(os.path.join(args.keep, "stats_artifact.json"),
                      "wb") as f:
                f.write(served)
            print(f"service_smoke: kept telemetry + artifact in {args.keep}")
        print("service_smoke: OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
