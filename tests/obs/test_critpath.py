"""CritPath tests: exact tiling, stat invisibility, skip/dense
agreement, reports.

Contract: the per-unit-group critical sim-times sum EXACTLY to the
total simulated time on every §IV system matrix preset (tiling is the
attribution invariant, not an approximation), with and without
skipping; an attached CritPath never changes a single stat.
"""

import json

import pytest

from repro.errors import DeadlockError
from repro.experiments.runner import _program_for
from repro.obs import CritPath
from repro.obs.critpath import GROUPS, SCHEMA
from repro.soc import System, preset
from repro.trace.source import InstrSource
from repro.workloads import get_workload

#: the §IV system matrix: scalar baseline, big.LITTLE, DVE, big.VLITTLE
MATRIX = ("1b", "1b-4L", "1bDV", "1b-4VL")


def _run(system="1b-4VL", workload="saxpy", scale="tiny", **kw):
    cfg = preset(system)
    program = _program_for(cfg, get_workload(workload, scale))
    return System(cfg).run(program, **kw)


@pytest.mark.parametrize("system", MATRIX)
def test_critical_times_tile_total_exactly(system):
    cp = CritPath()
    result = _run(system=system, critpath=cp)
    assert cp.finalized and cp.tiles()
    assert cp.total_ps == result.stats["time_ps"]
    rep = cp.report()
    assert rep["attributed_ps"] == rep["total_ps"] == result.stats["time_ps"]
    assert sum(g["crit_ps"] for g in rep["groups"]) == rep["total_ps"]


@pytest.mark.parametrize("system", MATRIX)
def test_stats_identical_with_and_without_critpath(system):
    """Determinism guard: attribution must be invisible to the sim."""
    base = _run(system=system)
    probed = _run(system=system, critpath=CritPath())
    assert probed.stats == base.stats
    assert probed.cycles == base.cycles


def test_groups_are_known_and_plausible():
    cp = CritPath()
    _run(critpath=cp)
    rows = cp.group_rows()
    assert {r["group"] for r in rows} <= set(GROUPS)
    groups = {r["group"]: r for r in rows}
    # a vector workload on 1b-4VL is gated by big, vcu, and mem at least
    assert groups["big"]["crit_ps"] > 0
    assert groups["vcu"]["crit_ps"] > 0
    assert groups["mem"]["crit_ps"] > 0
    assert "stalled" not in groups  # run completed
    shares = sum(r["share"] for r in rows)
    assert shares == pytest.approx(1.0)


@pytest.mark.parametrize("system", MATRIX)
def test_dense_loop_tiles_and_matches_skip(system):
    """Skipped spans roll forward exactly like idle dense ticks, so the
    attribution does not depend on ``skip``."""
    dense, skipped = CritPath(), CritPath()
    result = _run(system=system, critpath=dense, skip=False)
    _run(system=system, critpath=skipped)
    assert dense.tiles() and dense.total_ps == result.stats["time_ps"]
    assert dense.group_rows() == skipped.group_rows()
    assert result.stats == _run(system=system, skip=False).stats


def test_report_json_roundtrip(tmp_path):
    cp = CritPath()
    _run(critpath=cp)
    out = tmp_path / "critpath.json"
    doc = cp.write_json(out, meta={"workload": "saxpy"})
    loaded = json.loads(out.read_text())
    assert loaded == json.loads(json.dumps(doc))  # JSON-safe
    assert loaded["schema"] == SCHEMA
    assert loaded["tiles"] is True
    assert loaded["meta"]["workload"] == "saxpy"


def test_format_table_reports_exact_tiling():
    cp = CritPath()
    _run(critpath=cp)
    table = cp.format_table(top=3)
    assert "tiles exactly" in table
    # at most ``top`` group rows between the header and the total line
    assert len(table.splitlines()) <= 2 + 3 + 1


class _WedgedSource(InstrSource):
    __slots__ = ()
    pure_peek = True

    def peek(self):
        return None

    def pop(self):  # pragma: no cover
        raise AssertionError

    def done(self):
        return False


def _wedged_critpath(skip):
    sys_ = System(preset("1b"))
    sys_.bigs[0].set_source(_WedgedSource())
    cp = CritPath()
    with pytest.raises(DeadlockError) as ei:
        sys_.run(critpath=cp, skip=skip)
    assert cp.finalized and cp.tiles()
    assert cp.total_ps == ei.value.cycle
    stalled = {r["group"]: r["crit_ps"] for r in cp.group_rows()}["stalled"]
    assert stalled > 0  # the wedged tail is charged to the stall
    return cp


def test_deadlocked_run_tiles_via_stalled_group():
    _wedged_critpath(skip=True)


def test_deadlocked_dense_run_tiles_like_skip():
    assert (_wedged_critpath(skip=False).group_rows()
            == _wedged_critpath(skip=True).group_rows())
