"""Tests for figbench's own helpers: percentile selection, span self
time, failure accounting, and the recorded dense-loop reference.

Run with ``python3 -m pytest figbench/tests`` from the repository root.
"""

import json
import os

import pytest

from figbench import points as P
from figbench.check import (Ledger, Tally, check_points, digest, diff_keys,
                            load_reference)
from figbench.measure import beyond, percentile, summarize, tail_percentile
from figbench.trace import Tracer, self_by_name, self_times


# ------------------------------------------------------------ percentiles

def test_nearest_rank_percentile():
    xs = list(range(1, 101))            # 1..100
    assert percentile(xs, 50) == 50
    assert percentile(xs, 95) == 95
    assert percentile(xs, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2   # unsorted input
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (99, None),      # p90 leaves only 9 beyond
    (100, 90.0),     # exactly ten beyond p90
    (128, 90.0),     # one GET phase: 12 beyond p90, 6 beyond p95
    (200, 95.0),
    (999, 95.0),     # 9 beyond p99
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_summarize_reports_count_median_and_tail():
    s = summarize([float(i) for i in range(1, 129)])
    assert s["n"] == 128 and s["p50"] == 64.5
    assert s["tail_p"] == 90.0 and s["tail"] == 116.0


# --------------------------------------------------------------- self time

def _span(sid, t0, t1, parent=None, name="x"):
    return (sid, name, t0, t1, parent, None)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span("p", 0.0, 10.0),
        _span("a", 1.0, 3.0, "p"),
        _span("b", 2.0, 5.0, "p"),      # overlaps a: union is [1, 5]
        _span("c", 8.0, 12.0, "p"),     # clipped to [8, 10]
        _span("g", 1.5, 2.5, "a"),      # grandchild: only a's child
    ]
    st = self_times(spans)
    assert st["p"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st["a"] == pytest.approx(2.0 - 1.0)
    assert st["b"] == pytest.approx(3.0)
    assert st["g"] == pytest.approx(1.0)


def test_self_by_name_sums_over_spans():
    spans = [_span("1", 0, 4, name="outer"),
             _span("2", 1, 2, "1", name="inner"),
             _span("3", 5, 6, name="outer")]
    total, count = self_by_name(spans)
    assert total["outer"] == pytest.approx(4.0)
    assert total["inner"] == pytest.approx(1.0)
    assert count == {"outer": 2, "inner": 1}


def test_tracer_nests_spans_and_restores_patches(tmp_path):
    class Box:
        def work(self, x):
            return x + 1

    tracer = Tracer(str(tmp_path)).start()
    orig = Box.work
    tracer.wrap(Box, "work", "box.work", rid=lambda self, x: f"r{x}",
                after=lambda out, args: tracer.add("box.out", out))
    with tracer.span("outer") as outer:
        assert Box().work(1) == 2
    tracer.restore()
    assert Box.work is orig
    (inner, outer_span) = tracer.spans
    assert inner[1] == "box.work" and inner[4] == outer and inner[5] == "r1"
    assert outer_span[1] == "outer" and outer_span[4] is None
    assert tracer.counts["box.out"] == 2


# ------------------------------------------------------- failure accounting

def _ref(**points):
    return {"points": {name: {"digest": digest(st), "stats": st}
                       for name, st in points.items()}}


def test_failed_frac_counts_each_point_once():
    good = {"time_ps": 10, "a": 1, "sim.ticks_big": 5}
    ref = _ref(p_ok=good, p_bad=good, p_flaky=good)
    tally = Tally()
    results = {
        # the executed/skipped tick split may differ between run loops
        "p_ok": dict(good, **{"sim.ticks_big": 3}),
        "p_bad": dict(good, time_ps=11, a=2),
        "p_flaky": good,
        "p_new": good,
    }
    earlier = {"p_bad": "stale", "p_flaky": "stale"}
    check_points(results, ref, tally, earlier)
    assert tally.attempted == 4
    kinds = {name: (kind, detail) for kind, name, detail in tally.failures}
    assert set(kinds) == {"p_bad", "p_flaky", "p_new"}
    # a point failing two checks is still one failed operation
    assert kinds["p_bad"][0] == "reference"
    assert "differs in a, time_ps" in kinds["p_bad"][1]
    assert "earlier run" in kinds["p_bad"][1]
    assert kinds["p_flaky"][0] == "nondeterministic"
    assert kinds["p_new"][0] == "unreferenced"
    for _ in range(6):
        tally.ok()
    assert tally.failed == 3 and tally.attempted == 10
    assert tally.failed_frac == pytest.approx(0.3)
    assert Tally().failed_frac == 0.0


def test_diff_keys_ignores_tick_split_and_names_one_sided_keys():
    assert diff_keys({"a": 1, "sim.ticks_mem": 1},
                     {"a": 1, "sim.ticks_mem": 2}) == []
    assert diff_keys({"a": 1}, {"a": 1, "b": 0}) == ["b"]


def test_ledger_keeps_first_digests(tmp_path):
    led = Ledger(str(tmp_path / "state" / "w.json"))
    assert led.load() == {}
    led.record({"p": "d1"})
    led.record({"p": "d2", "q": "d3"})
    assert led.load() == {"p": "d1", "q": "d3"}


# ---------------------------------------------------------- the reference

def test_reference_is_dense_and_covers_every_point():
    ref = load_reference()
    assert ref["loop"].startswith("dense")
    names = {p.name for p in P.all_points()}
    assert names == set(ref["points"])
    for entry in ref["points"].values():
        assert digest(entry["stats"]) == entry["digest"]
        assert not any(k.startswith("sim.ticks_") for k in entry["stats"])


def test_reference_agrees_with_fullrun_figures():
    from figbench.check import FULLRUN, crosscheck
    ref = load_reference()
    if not os.path.exists(FULLRUN):
        pytest.skip("results/fullrun-small.json not present")
    with open(FULLRUN, encoding="utf-8") as f:
        checked, bad = crosscheck(
            {n: e["stats"] for n, e in ref["points"].items()}, json.load(f))
    assert checked >= 100 and bad == []
    assert ref["crosscheck"]["checked"] == checked


# ------------------------------------------------------------ the harness

def test_schedule_keeps_app_order_and_every_point():
    import random
    from figbench.workloads import _schedule
    pts = P.sweep_points()
    for seed in (1, 2):
        order = _schedule(pts, random.Random(seed))
        assert sorted(p.name for p in order) == sorted(p.name for p in pts)
        apps = [p.request.workload for p in order]
        assert list(dict.fromkeys(apps)) == list(P.SWEEP_APPS)
    assert ([p.name for p in _schedule(pts, random.Random(1))]
            != [p.name for p in _schedule(pts, random.Random(2))])


def test_run_refuses_a_tree_without_simulator_sources(tmp_path):
    import shutil
    import subprocess
    import sys
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(here, tmp_path / "figbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "figbench/run.py", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
