"""Sim-time critical-path attribution for the run loop.

:mod:`repro.obs.host` answers "where does the *host* spend wall-time?";
this module answers the dual scheduling question: **which unit group
gates simulated time?** A :class:`CritPath` attaches to one run
(``System.run(..., critpath=CritPath())``) and charges every advance of
the union-grid clock to the first unit, in ground order (big cores, the
big-domain engine, little cores, the little-domain engine, memory),
whose tick does work at the new instant — meaning its pure
``next_work_ps(T)`` probe returns 0 just before the tick. Instants at
which no unit does work (idle ticks, boundary-only iterations) and
skipped spans roll forward into the next working instant, so the
per-group critical sim-times **tile the total simulated time exactly**:
``sum(groups) == time_ps``, enforced by :meth:`tiles` and the critpath
tests. The attribution is the same with ``skip=True`` and
``skip=False``.

Like :class:`~repro.obs.host.HostScope`, a CritPath is a null-object
opt-in: nothing in the simulator references it unless one is attached,
stats stay bit-identical with and without it (determinism-tested — the
probes it calls are side-effect free), and it is never part of
:class:`~repro.soc.SoCConfig` or cache keys.

The report (``bigvlittle-critpath-v2``; CLI ``bigvlittle critpath``)
is the before/after measurement for lane-execution work: the group
carrying the largest critical-sim-time share is the one whose latency
actually bounds the simulated clock.

A run that deadlocks still tiles: the span from the last working
instant to the watchdog/horizon raise is charged to the pseudo-group
``stalled`` (no unit had work — that is what a deadlock *is*).
"""

from __future__ import annotations

import json

SCHEMA = "bigvlittle-critpath-v2"

#: canonical group order for reports (zero-time groups are elided);
#: ``stalled`` only appears on deadlocked runs, ``idle`` only if the
#: run ends before any unit ever has work (not reachable in practice)
GROUPS = ("big", "little", "vcu", "dve", "mem", "stalled", "idle")


class CritPath:
    """Per-unit-group critical-sim-time attribution for one run."""

    __slots__ = ("total_ps", "finalized", "_crit", "_gates", "_cur")

    def __init__(self):
        self.total_ps = 0
        self.finalized = False
        self._crit = {}   # group -> critical sim ps
        self._gates = {}  # group -> union-grid advances this group gated
        # [last charged instant marker, last charged instant, last group]:
        # the marker equals the instant of the most recent charge so that
        # only the *first* working unit at a new T pays for the advance
        self._cur = [-1, 0, None]

    # ---------------------------------------------------------------- wiring

    def wrap(self, fn, probe, group):
        """Wrap a unit's ``tick(T)`` so the first unit with work at each
        new instant charges the span since the previous charged instant
        to ``group``.

        ``probe`` is the unit's pure ``next_work_ps``: the unit has work
        at ``T`` when ``probe(T)`` is 0 just before its tick. The run
        loop ticks units in ground order within one instant, so the
        first wrapper to charge a new ``T`` belongs to the first working
        unit in that order. Pure bookkeeping; simulated state is
        untouched.
        """
        crit = self._crit
        gates = self._gates
        crit.setdefault(group, 0)
        gates.setdefault(group, 0)
        cur = self._cur

        def gated(T):
            if T != cur[0] and not probe(T):
                crit[group] += T - cur[1]
                gates[group] += 1
                cur[0] = T
                cur[1] = T
                cur[2] = group
            return fn(T)

        return gated

    def finalize(self, t_ps, stalled=False):
        """Close the run at ``t_ps`` (the result's ``time_ps``, or the
        deadlock timestamp). The tail span past the last working
        instant is charged to the last gating group — it is that
        group's final work the run drained — or to ``stalled`` when
        the run deadlocked (no unit had work; the watchdog/horizon
        ended it)."""
        cur = self._cur
        rem = t_ps - cur[1]
        if rem > 0 or cur[2] is None:
            group = "stalled" if stalled else (cur[2] or "idle")
            self._crit[group] = self._crit.get(group, 0) + rem
            self._gates.setdefault(group, 0)
        self.total_ps = t_ps
        self.finalized = True

    # --------------------------------------------------------------- reports

    def tiles(self):
        """True when the per-group critical times sum exactly to the
        total simulated time (the attribution invariant)."""
        return sum(self._crit.values()) == self.total_ps

    def group_rows(self):
        """Per-group attribution rows, largest share first, zero-time
        zero-gate groups elided."""
        rows = []
        total = self.total_ps
        order = list(GROUPS) + sorted(set(self._crit) - set(GROUPS))
        for group in order:
            ps = self._crit.get(group)
            if ps is None or (ps == 0 and not self._gates.get(group, 0)):
                continue
            rows.append({
                "group": group,
                "crit_ps": ps,
                "gates": self._gates.get(group, 0),
                "share": ps / total if total > 0 else 0.0,
            })
        rows.sort(key=lambda r: (-r["crit_ps"], r["group"]))
        return rows

    def report(self, meta=None):
        """The ``bigvlittle-critpath-v2`` document (JSON-safe dict)."""
        rows = self.group_rows()
        doc = {
            "schema": SCHEMA,
            "total_ps": self.total_ps,
            "attributed_ps": sum(r["crit_ps"] for r in rows),
            "tiles": self.tiles(),
            "groups": [
                {"group": r["group"],
                 "crit_ps": r["crit_ps"],
                 "gates": r["gates"],
                 "share": round(r["share"], 4)}
                for r in rows
            ],
        }
        if meta:
            doc["meta"] = dict(meta)
        return doc

    def write_json(self, path, meta=None):
        doc = self.report(meta=meta)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        return doc

    def format_table(self, top=None):
        """Text report: the critical-time breakdown, largest share
        first, at most ``top`` groups."""
        rows = self.group_rows()
        if top is not None:
            rows = rows[:top]
        hdr = f"{'group':<10} {'crit':>14} {'share':>7} {'gates':>10}"
        lines = [hdr, "-" * len(hdr)]
        for r in rows:
            lines.append(f"{r['group']:<10} {r['crit_ps']:>11} ps "
                         f"{r['share'] * 100:>6.1f}% {r['gates']:>10}")
        lines.append(f"{'total':<10} {self.total_ps:>11} ps "
                     f"({'tiles exactly' if self.tiles() else 'GAP'})")
        return "\n".join(lines)

    def __repr__(self):
        return (f"<CritPath groups={len(self._crit)} "
                f"total_ps={self.total_ps}>")
