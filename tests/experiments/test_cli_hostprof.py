"""``bigvlittle hostprof`` end to end.

Contract: the verb simulates fresh (never touches the result cache),
prints the per-group table or writes a valid ``bigvlittle-hostprof-v1``
report, and the report attributes at least 95% of the measured run wall
time (the PR's acceptance bar).
"""

import json

from repro.experiments.cli import main

ARGS = ["hostprof", "saxpy", "--scale", "tiny"]


def _cache_untouched(cache):
    assert cache.hits == 0 and cache.misses == 0
    assert cache.stats()["disk_entries"] == 0


def test_hostprof_table(fresh_cache, run_spy, capsys):
    assert main(ARGS) == 0
    assert run_spy["n"] == 1
    out = capsys.readouterr().out
    assert "group" in out and "scheduler" in out and "total" in out
    assert "attributed" in out
    _cache_untouched(fresh_cache)


def test_hostprof_json_stdout_meets_coverage_bar(fresh_cache, capsys):
    assert main([*ARGS, "--json"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text[text.index("{"):])
    assert doc["schema"] == "bigvlittle-hostprof-v1"
    assert doc["coverage"] >= 0.95
    assert doc["meta"]["workload"] == "saxpy"
    assert doc["meta"]["loop"] == "skip"
    assert doc["meta"]["cycles"] > 0
    _cache_untouched(fresh_cache)


def test_hostprof_json_file_and_stride(tmp_path, fresh_cache, capsys):
    out = tmp_path / "hostprof.json"
    assert main([*ARGS, "--stride", "8", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["stride"] == 8
    assert doc["coverage"] >= 0.95
    assert "wrote hostprof report" in capsys.readouterr().out
    _cache_untouched(fresh_cache)


def test_hostprof_top_limits_rows(fresh_cache, capsys):
    assert main([*ARGS, "--top", "2"]) == 0
    out = capsys.readouterr().out
    body = [ln for ln in out.splitlines()
            if ln and not ln.startswith(("==", "group", "-", "total"))]
    assert len(body) == 2
