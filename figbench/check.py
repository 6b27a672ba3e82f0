"""Output checks: per-point stat digests, the dense-loop reference and its
cross-check against ``results/fullrun-small.json``, the cross-run
determinism ledger, and failure accounting.

A point's digest covers every stat except the ``sim.ticks_*`` executed /
skipped split, which is the one family the run loops are allowed to
report differently.  Host timing lives in ``RunResult.timing`` and is
never part of ``stats``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SCHEMA = "figbench-reference-v1"
FULLRUN = os.path.join(os.path.dirname(HERE), "results", "fullrun-small.json")


def stat_view(stats):
    """The stats a point is judged on: all but ``sim.ticks_*``."""
    return {k: v for k, v in stats.items() if not k.startswith("sim.ticks_")}


def digest(stats):
    blob = json.dumps(stat_view(stats), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def diff_keys(expected, actual):
    """Sorted stat keys whose values differ (or exist on one side only)."""
    exp, act = stat_view(expected), stat_view(actual)
    return sorted(k for k in exp.keys() | act.keys()
                  if exp.get(k) != act.get(k))


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as f:
        ref = json.load(f)
    if ref.get("schema") != REFERENCE_SCHEMA:
        raise ValueError(f"{path}: expected schema {REFERENCE_SCHEMA!r}")
    return ref


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def crosscheck(stats, fullrun):
    """Compare reference-derived figure values with ``fullrun``; returns
    ``(checked, mismatches)``."""
    from repro.experiments.figures import VECTOR_SYSTEMS

    checked, bad = 0, []

    def cmp(what, mine, theirs):
        nonlocal checked
        checked += 1
        if not _close(mine, theirs):
            bad.append(f"{what}: reference {mine!r} != fullrun {theirs!r}")

    def t(name):
        return stats[name]["time_ps"]

    for w, row in fullrun["fig4"]["speedups"].items():
        for s, v in row.items():
            name, base = f"{s}/{w}@small", f"1L/{w}@small"
            if name in stats and base in stats:
                cmp(f"fig4 {name}", t(base) / t(name), v)
    for fig, key in (("fig5", "fetch_requests"), ("fig6", "data_requests")):
        for w, row in fullrun[fig].items():
            base = f"1bDV/{w}@small"
            for s in VECTOR_SYSTEMS:
                name = f"{s}/{w}@small"
                if s in row and name in stats and base in stats:
                    cmp(f"{fig} {name}",
                        stats[name][key] / max(stats[base][key], 1), row[s])
    for w, cfgs in fullrun["fig7"].items():
        name = f"1b-4VL/{w}@small"   # the 1b-4VL preset is fig7's 2c+sw
        if name not in stats:
            continue
        for cat, v in cfgs["2c+sw"].items():
            mine = (stats[name]["cycles_1ghz"] if cat == "cycles" else
                    stats[name].get(f"vlittle.lane_stall.{cat}", 0))
            cmp(f"fig7 {name} {cat}", mine, v)
    for w, systems in fullrun["fig9"].items():
        base = f"1L/{w}@small"
        for s, grid in systems.items():
            for lv, v in grid.items():
                b, little = (x.strip(" '") for x in lv.strip("()").split(","))
                name = f"{s}/{w}@small[{b},{little}]"
                if name in stats and base in stats:
                    cmp(f"fig9 {name}", t(base) / t(name), v)
    return checked, bad


class Tally:
    """Operations attempted and failed, with every failure named.

    ``kind`` separates a point whose stats disagree with the dense
    reference (``reference``) from every other failure (exceptions,
    non-2xx responses, byte mismatches, nondeterminism, a missing
    reference entry).  Both count toward ``failed_frac``.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []   # (kind, name, detail)

    def ok(self):
        self.attempted += 1

    def fail(self, kind, name, detail=""):
        self.attempted += 1
        self.failures.append((kind, name, detail))

    @property
    def failed(self):
        return len(self.failures)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def count(self, kind):
        return sum(1 for k, _, _ in self.failures if k == kind)


def check_points(results, reference, tally, earlier=None):
    """Check each ``{name: stats}`` entry against the dense reference and
    against ``earlier`` digests of the same points (:class:`Ledger`).
    Every point is one attempted operation; it fails once, naming each
    check it broke.  Returns ``{name: digest}``."""
    points = reference["points"]
    earlier = earlier or {}
    digests = {}
    for name, stats in results.items():
        d = digests[name] = digest(stats)
        problems = []
        ref = points.get(name)
        if ref is None:
            problems.append(("unreferenced", "no reference entry"))
        elif d != ref["digest"]:
            problems.append(("reference", "differs in " + ", ".join(
                diff_keys(ref["stats"], stats))))
        if earlier.get(name, d) != d:
            problems.append(("nondeterministic",
                             f"digest {d} != {earlier[name]} from an "
                             f"earlier run"))
        if problems:
            tally.fail(problems[0][0], name,
                       "; ".join(detail for _, detail in problems))
        else:
            tally.ok()
    return digests


class Ledger:
    """Per-workload point digests from the first untraced run in this
    checkout.  Inputs never depend on ``--seed``, so a later digest that
    differs marks the point nondeterministic."""

    def __init__(self, path):
        self.path = path

    def load(self):
        try:
            with open(self.path, encoding="utf-8") as f:
                return json.load(f)
        except FileNotFoundError:
            return {}

    def record(self, digests):
        """Add points not seen before; first digests are never replaced."""
        seen = self.load()
        for name, d in digests.items():
            seen.setdefault(name, d)
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(seen, f, indent=0, sort_keys=True)
        os.replace(tmp, self.path)
