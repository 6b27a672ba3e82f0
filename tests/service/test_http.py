"""HTTP API tests over a real socket: contract headers, artifact serving
(warm GETs never simulate), keep-alive transport, dedup, validation, and
graceful drain."""

import http.client
import json
import socket
import statistics
import time
import urllib.error
import urllib.request

from repro.service.http import MAX_BODY_BYTES
from repro.service.schemas import ENDPOINTS, SERVICE_SCHEMA

RUN = {"system": "1b", "workload": "vvadd", "scale": "tiny"}


def req(app, method, path, body=None):
    r = urllib.request.Request(
        f"http://127.0.0.1:{app.port}{path}", method=method,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"} if body else {})
    try:
        with urllib.request.urlopen(r, timeout=10) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), e.read()


def submit_and_wait(app, body, timeout=20.0):
    status, _, raw = req(app, "POST", "/v1/runs", body)
    assert status in (200, 202)
    job = json.loads(raw)
    deadline = time.time() + timeout
    while time.time() < deadline:
        _, _, raw = req(app, "GET", f"/v1/jobs/{job['id']}")
        doc = json.loads(raw)
        if doc["state"] in ("done", "failed"):
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job never finished: {doc}")


# ---------------------------------------------------------------- contract

def test_healthz_and_schema_headers(service_app):
    status, headers, raw = req(service_app, "GET", "/v1/healthz")
    assert status == 200
    assert headers["X-BigVLittle-Schema"] == SERVICE_SCHEMA
    assert headers["X-BigVLittle-Cache"] == "memory"
    doc = json.loads(raw)
    assert doc["ok"] is True and doc["schema"] == SERVICE_SCHEMA


def test_every_documented_endpoint_answers(service_app):
    """Each row of the schema's ENDPOINTS table resolves (no 500s, no
    unrouted 404): the table is the API, not decoration."""
    job = submit_and_wait(service_app, dict(RUN))
    key = job["keys"][0]
    fill = {"<id>": job["id"], "<config_hash>": key, "<artifact>": "stats"}
    for method, template, _ in ENDPOINTS:
        path = template
        for token, value in fill.items():
            path = path.replace(token, value)
        status, headers, _ = req(service_app, method, path,
                                 dict(RUN) if method == "POST" else None)
        assert status in (200, 202), (method, path, status)
        assert headers["X-BigVLittle-Schema"] == SERVICE_SCHEMA


def test_unknown_routes_get_hints(service_app):
    status, headers, raw = req(service_app, "GET", "/v2/nope")
    assert status == 404 and headers["X-BigVLittle-Cache"] == "miss"
    assert "hint" in json.loads(raw)
    status, _, _ = req(service_app, "POST", "/v1/jobs", {})
    assert status == 404


# ----------------------------------------------------------------- submit

def test_submit_runs_job_to_done_with_levels(service_app):
    job = submit_and_wait(service_app, dict(RUN))
    assert job["state"] == "done" and job["schema"] == SERVICE_SCHEMA
    assert list(job["levels"].values()) == ["fresh"]
    # a second, identical submission completes from cache (warm job)
    job2 = submit_and_wait(service_app, dict(RUN))
    assert job2["levels"][job["keys"][0]] in ("memory", "disk")


def test_submit_validation_errors_are_400(service_app):
    for bad in ({"workload": "vvadd"},
                {"system": "1b", "workload": "vvadd", "scale": "huge"},
                {"system": "1b", "workload": "vvadd",
                 "artifacts": ["stats"]}):
        status, _, raw = req(service_app, "POST", "/v1/runs", bad)
        assert status == 400
        assert json.loads(raw)["schema"] == SERVICE_SCHEMA
    status, _, raw = req(service_app, "POST", "/v1/runs", None)
    assert status == 400


def test_concurrent_identical_submits_dedup(service_app):
    # stall the single worker with a first job so the next two coexist
    # in the queue and coalesce
    service_app.queue.submit([{"system": "1b", "workload": "vvadd",
                               "scale": "tiny",
                               "overrides": {"mem": {"dram_latency": 555}}}])
    s1, _, r1 = req(service_app, "POST", "/v1/runs", dict(RUN))
    s2, _, r2 = req(service_app, "POST", "/v1/runs", dict(RUN))
    a, b = json.loads(r1), json.loads(r2)
    if b["deduplicated"]:  # worker may drain a before b arrives
        assert (s1, s2) == (202, 200)
        assert a["id"] == b["id"]
        assert service_app.queue.counters["deduped"] >= 1


# ---------------------------------------------------------------- results

def test_results_index_reports_levels_and_artifacts(service_app):
    job = submit_and_wait(service_app, dict(RUN))
    key = job["keys"][0]
    status, headers, raw = req(service_app, "GET", f"/v1/results/{key}")
    assert status == 200
    doc = json.loads(raw)
    assert doc["cached"] is True
    assert headers["X-BigVLittle-Cache"] in ("memory", "disk")
    assert doc["artifacts"]["derived"] == ["stats", "result", "summary",
                                           "stall.svg"]
    status, headers, raw = req(service_app, "GET", "/v1/results/" + "0" * 64)
    assert status == 404 and headers["X-BigVLittle-Cache"] == "miss"
    assert "POST /v1/runs" in json.loads(raw)["hint"]


def test_warm_artifact_get_never_simulates(service_app, run_spy):
    """The acceptance bar: once a run is cached, GET /v1/results serves
    bytes with ZERO System.run calls — and those bytes are identical to
    the canonical dump of the directly generated result."""
    job = submit_and_wait(service_app, dict(RUN))
    key = job["keys"][0]
    assert run_spy["n"] == 1  # the one worker simulation

    baseline = run_spy["n"]
    status, h1, first = req(service_app, "GET", f"/v1/results/{key}/stats")
    status2, h2, second = req(service_app, "GET", f"/v1/results/{key}/stats")
    assert (status, status2) == (200, 200)
    assert h1["X-BigVLittle-Cache"] == "generated"
    assert h2["X-BigVLittle-Cache"] == "artifact"
    assert first == second
    for name in ("result", "summary", "stall.svg"):
        status, _, _ = req(service_app, "GET", f"/v1/results/{key}/{name}")
        assert status == 200
    assert run_spy["n"] == baseline  # zero System.run across every GET

    # byte-identical to the canonical dump of the cached result (which
    # round-tripped the simulation run_pair performed)
    from repro.obs.diff import dump_result

    direct = (json.dumps(dump_result(service_app.cache.get(key)),
                         indent=1, sort_keys=True) + "\n").encode()
    assert first == direct
    assert run_spy["n"] == baseline


def test_simulated_artifacts_404_with_hint_not_a_run(service_app, run_spy):
    job = submit_and_wait(service_app, dict(RUN))
    key = job["keys"][0]
    baseline = run_spy["n"]
    status, headers, raw = req(service_app, "GET",
                               f"/v1/results/{key}/timeline")
    assert status == 404
    assert "GET never simulates" in json.loads(raw)["hint"]
    assert run_spy["n"] == baseline
    status, _, raw = req(service_app, "GET", f"/v1/results/{key}/bogus")
    assert status == 404 and "stall.svg" in json.loads(raw)["hint"]


def test_requested_artifacts_serve_after_job(service_app):
    job = submit_and_wait(service_app,
                          dict(RUN, artifacts=["timeline", "phases"]))
    key = job["keys"][0]
    for name, ctype in (("timeline", "application/json"),
                        ("phases", "application/json")):
        status, headers, raw = req(service_app, "GET",
                                   f"/v1/results/{key}/{name}")
        assert status == 200
        assert headers["X-BigVLittle-Cache"] == "artifact"
        assert headers["Content-Type"] == ctype
        assert json.loads(raw)  # well-formed
    status, headers, _ = req(service_app, "GET",
                             f"/v1/results/{key}/stall.svg")
    assert headers["Content-Type"] == "image/svg+xml"


# -------------------------------------------------------------- transport
#
# urllib opens a fresh connection per request, and a fresh TCP connection
# ACKs at once, so only reuse of one connection shows transport stalls.

def test_keep_alive_gets_are_fast_and_byte_identical(service_app):
    """Twenty GETs of a cached artifact over one connection each return
    the urllib bytes, at a median far below the ~40 ms a Nagle /
    delayed-ACK stall adds when headers and body leave as two writes."""
    job = submit_and_wait(service_app, dict(RUN))
    path = f"/v1/results/{job['keys'][0]}/stats"
    status, _, expected = req(service_app, "GET", path)
    assert status == 200
    conn = http.client.HTTPConnection("127.0.0.1", service_app.port,
                                      timeout=10)
    try:
        latencies = []
        for _ in range(20):
            t0 = time.perf_counter()
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            latencies.append(time.perf_counter() - t0)
            assert resp.status == 200
            assert body == expected
    finally:
        conn.close()
    assert statistics.median(latencies) < 0.020, latencies


def test_keep_alive_survives_an_error_response(service_app):
    conn = http.client.HTTPConnection("127.0.0.1", service_app.port,
                                      timeout=10)
    try:
        conn.request("GET", "/v2/nope")
        resp = conn.getresponse()
        assert resp.status == 404 and "hint" in json.loads(resp.read())
        conn.request("GET", "/v1/healthz")
        resp = conn.getresponse()
        assert resp.status == 200 and json.loads(resp.read())["ok"] is True
    finally:
        conn.close()


def _raw_exchange(app, request):
    """Send raw bytes on one connection; return everything the server
    writes before it closes (or goes quiet for 2 s)."""
    with socket.create_connection(("127.0.0.1", app.port), timeout=2) as s:
        s.sendall(request)
        data = b""
        try:
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
        except (socket.timeout, ConnectionResetError):
            pass
    return data


def test_rejected_post_body_is_not_parsed_as_a_request(service_app):
    """A POST rejected before its body is read closes the connection, so
    the unread body bytes cannot be run as a smuggled second request."""
    smuggled = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    for path, length in (("/v1/runs", MAX_BODY_BYTES + 1),
                         ("/v1/nope", len(smuggled)),
                         ("/v1/runs", "junk")):
        head = (f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\n\r\n").encode()
        data = _raw_exchange(service_app, head + smuggled)
        status_lines = [line for line in data.split(b"\r\n")
                        if line.startswith(b"HTTP/1.1 ")]
        assert len(status_lines) == 1, (path, length, data)
        assert status_lines[0].split()[1] in (b"400", b"404")
        assert b"\r\nConnection: close\r\n" in data


# ------------------------------------------------------------ stats, drain

def test_stats_counters_reconcile(service_app):
    submit_and_wait(service_app, dict(RUN))
    status, _, raw = req(service_app, "GET", "/v1/stats")
    doc = json.loads(raw)
    assert doc["cache"]["shards"] == 2
    c = doc["queue"]["counters"]
    assert c["enqueued"] >= 1 and c["done"] >= 1
    assert doc["pool"]["alive"] == doc["pool"]["workers"] == 1


def test_draining_service_returns_503(service_app):
    submit_and_wait(service_app, dict(RUN))
    service_app.queue.close()  # what stop(drain=True) does first
    status, _, raw = req(service_app, "POST", "/v1/runs", dict(RUN))
    assert status == 503
    assert "draining" in json.loads(raw)["error"]
    # reads keep working during the drain window
    status, _, _ = req(service_app, "GET", "/v1/jobs")
    assert status == 200


def test_jobs_listing_newest_first(service_app):
    first = submit_and_wait(service_app, dict(RUN))
    second = submit_and_wait(
        service_app, dict(RUN, overrides={"mem": {"dram_latency": 200}}))
    status, _, raw = req(service_app, "GET", "/v1/jobs?limit=10")
    jobs = json.loads(raw)["jobs"]
    assert [j["id"] for j in jobs[:2]] == [second["id"], first["id"]]


def test_journal_survives_restart(tmp_path):
    """Stop a service with queued work; a new instance on the same root
    recovers and runs it."""
    from repro.service import ServiceApp

    root = str(tmp_path / "svc")
    app = ServiceApp(cache_root=root, port=0, workers=1)
    # enqueue without workers running, then shut down without draining
    job, _ = app.queue.submit([{"system": "1b", "workload": "vvadd",
                                "scale": "tiny", "overrides": {}}])
    app.queue.close()
    app.httpd.server_close()

    app2 = ServiceApp(cache_root=root, port=0, workers=1).start()
    try:
        assert app2.queue.counters["recovered"] == 1
        deadline = time.time() + 20
        while time.time() < deadline:
            j = app2.queue.get(job.id)
            if j.state == "done":
                break
            time.sleep(0.02)
        assert app2.queue.get(job.id).state == "done"
    finally:
        app2.stop(drain=True)
