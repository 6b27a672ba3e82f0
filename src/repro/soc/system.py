"""System assembly and the multi-clock-domain simulation loop.

All component timing runs in integer picoseconds; each clock domain (big
cluster, little cluster, memory) ticks its components at its own period, so
independent big/little voltage-frequency scaling (paper §VII) falls out of
the same simulation that produces §V's iso-frequency results.

The loop is a *quiescence-skipping* scheduler: every ticking component
exposes a pure ``next_work_ps(now)`` bound — the earliest future picosecond
at which it could change architectural state — and when all components in
all three domains report no work before some time ``T``, the loop
fast-forwards each domain clock to its first tick at or after ``T`` instead
of grinding through provably idle iterations. Skipped ticks are replayed
into the per-cycle accounting (stall breakdowns, observability categories,
histograms) by each component's ``skip_ticks``, so every stat except the
``sim.ticks_*`` executed/skipped split is bit-identical with skipping
disabled (see docs/performance.md for the contract).
"""

from __future__ import annotations

import time

from repro.cores import BigCore, LittleCore
from repro.errors import ConfigError, DeadlockError, WorkloadError
from repro.log import get_logger
from repro.mem import MemorySystem
from repro.runtime.workstealing import WorkStealingRuntime
from repro.soc.config import SoCConfig
from repro.stats import RunResult
from repro.trace import TaskProgram, Trace, TraceSource, single_trace_program
from repro.vector import DecoupledVectorEngine, VLittleEngine

_INF = 1 << 60

#: Deadlock-watchdog window in ps (must exceed any legitimate idle
#: period, e.g. a long mode-switch penalty). Skipping never jumps past a
#: window boundary, so DeadlockError timestamps match the dense loop's.
WATCHDOG_PS = 20_000_000

#: watchdog / horizon diagnostics go through the structured logger
_wdlog = get_logger("repro.soc.watchdog")


def _grab_forensics(system, t_ps, reason):
    """Best-effort scheduling snapshot for a DeadlockError: the probes
    are pure, but an error-path diagnostic must never mask the deadlock
    it is describing, so any snapshot failure degrades to None."""
    try:
        from repro.obs.forensics import snapshot
        return snapshot(system, t_ps, reason=reason)
    except Exception:
        return None


def progress_check(system, t_ps, last_instrs, loop):
    """One watchdog window's progress check: returns ``(stalled,
    signature)`` and routes the diagnostic through :mod:`repro.log`
    (debug level — silent by default)."""
    instrs = system._progress_signature()
    stalled = instrs == last_instrs
    if _wdlog.enabled_for("debug"):
        _wdlog.debug("watchdog progress check", loop=loop, t_ps=t_ps,
                     signature=instrs, window_ps=WATCHDOG_PS,
                     stalled=stalled)
    return stalled, instrs


def watchdog_deadlock(system, t_ps, loop):
    """The watchdog's DeadlockError — one constructor for both
    ``skip`` settings keeps the message and timestamp bit-identical —
    with the forensics snapshot attached and the failure logged (error
    level: a stalled simulation is always a bug in the workload or the
    model)."""
    detail = f"no instruction progress in system {system.config.name}"
    rep = _grab_forensics(system, t_ps, reason="watchdog")
    _wdlog.error(detail, loop=loop, t_ps=t_ps, window_ps=WATCHDOG_PS,
                 frontier=",".join(rep["blocking_frontier"]) if rep else "")
    return DeadlockError(t_ps, detail, forensics=rep)


def horizon_deadlock(system, t_ps, max_ns, loop):
    """The ``max_ns``-horizon DeadlockError, forensics attached. Logged
    at debug only: hitting the horizon is often deliberate (bounded
    runs, ``bigvlittle inspect --at-ns``)."""
    if _wdlog.enabled_for("debug"):
        _wdlog.debug(f"exceeded max_ns={max_ns}", loop=loop, t_ps=t_ps)
    return DeadlockError(t_ps, f"exceeded max_ns={max_ns}",
                         forensics=_grab_forensics(system, t_ps,
                                                   reason="horizon"))


class System:
    """One simulated SoC built from a :class:`SoCConfig`."""

    __slots__ = ("config", "obs", "_pending_obs", "ms", "bigs", "littles",
                 "engine", "runtime", "_pb", "_pl", "_pm", "_name",
                 "_wall_t0", "_ticks_big", "_ticks_little", "_ticks_mem",
                 "_skipped_big", "_skipped_little", "_skipped_mem",
                 "_done_blocker")

    def __init__(self, config, obs=None):
        if not isinstance(config, SoCConfig):
            raise ConfigError("System expects a SoCConfig")
        self.config = config
        # observability is deliberately *not* part of SoCConfig: attaching an
        # Observation must never change canonical_json(), cache keys, or any
        # pre-existing stat — it only adds obs.* keys to the result
        self.obs = None
        self._pending_obs = obs
        pb, pl, pm = config.period_big(), config.period_little(), config.period_mem()
        m = config.mem
        self.ms = MemorySystem(
            n_big=config.n_big,
            n_little=config.n_little,
            l1_size=m.l1_size,
            l1_assoc=m.l1_assoc,
            l1_hit_latency=m.l1_hit_latency,
            l1i_hit_latency=m.l1i_hit_latency,
            l1_mshrs=m.l1_mshrs,
            l2_size=m.l2_size,
            l2_assoc=m.l2_assoc,
            l2_banks=m.l2_banks,
            l2_latency=m.l2_latency,
            dram_latency=m.dram_latency,
            dram_line_interval=m.dram_line_interval,
            line_bytes=m.line_bytes,
            big_period=pb,
            little_period=pl,
            mem_period=pm,
        )
        self.littles = [
            LittleCore(f"lit{i}", self.ms.little_l1i[i], self.ms.little_l1d[i],
                       period=pl, line_bytes=m.line_bytes)
            for i in range(config.n_little)
        ]
        self.engine = None
        vector_mode = "none"
        if config.vector == "vlittle":
            self.engine = VLittleEngine(
                self.littles,
                chimes=config.chimes,
                packed=config.packed,
                loadq_lines=config.vmu_loadq,
                storeq_lines=config.vmu_storeq,
                switch_penalty=config.switch_penalty,
                vxu_extra_latency=config.vxu_extra_latency,
                coalesce_width=config.coalesce_width,
                line_bytes=m.line_bytes,
                period=pl,
            )
            vector_mode = "decoupled"
        elif config.vector == "dve":
            port = self.ms.make_raw_port("dve0")
            self.engine = DecoupledVectorEngine(
                self.ms.l2, port,
                vlen_bits=config.dve_vlen_bits,
                lanes=config.dve_lanes,
                line_bytes=m.line_bytes,
                period=pb,
            )
            vector_mode = "decoupled"
        elif config.vector == "ivu":
            vector_mode = "integrated"

        self.bigs = [
            BigCore(f"big{i}", self.ms.big_l1i[i], self.ms.big_l1d[i],
                    vector_mode=vector_mode if i == 0 else "none",
                    ivu_vlen_bits=config.ivu_vlen_bits,
                    engine=self.engine if (i == 0 and vector_mode == "decoupled") else None,
                    period=pb, line_bytes=m.line_bytes)
            for i in range(config.n_big)
        ]
        self.runtime = None
        self._pb, self._pl, self._pm = pb, pl, pm
        self._name = ""
        self._ticks_big = self._ticks_little = self._ticks_mem = 0
        self._skipped_big = self._skipped_little = self._skipped_mem = 0
        self._done_blocker = None
        self._wall_t0 = time.perf_counter()

    # ------------------------------------------------------------------- run

    def load(self, program):
        """Attach a workload: a Trace or a TaskProgram."""
        if isinstance(program, Trace):
            program = single_trace_program(program)
        if not isinstance(program, TaskProgram):
            raise WorkloadError("load() expects a Trace or TaskProgram")
        self._name = program.name
        if program.total_tasks == 0:
            # pure serial: one trace on the fastest core available
            traces = [p.serial for p in program.phases if p.serial is not None]
            if len(traces) != 1:
                raise WorkloadError("a serial program must have exactly one trace")
            src = TraceSource(traces[0])
            if self.bigs:
                self.bigs[0].set_source(src)
            else:
                self.littles[0].set_source(src)
            return
        # task-parallel: the VLITTLE cluster runs in *scalar mode* — the paper
        # guarantees it behaves exactly like the equivalent big.LITTLE system
        # (§V-A), so the engine is bypassed and the cores re-enabled
        if isinstance(self.engine, VLittleEngine):
            for c in self.littles:
                c.active = True
                c.l1d.set_private_mode()
            if self.bigs:
                self.bigs[0].vector_mode = "none"
                self.bigs[0].engine = None
            self.engine = None
        # work-stealing runtime over every active core
        workers = []
        caps = []
        for b in self.bigs:
            workers.append(b)
            caps.append(self.config.vector == "ivu")
        for l in self.littles:
            if l.active:
                workers.append(l)
                caps.append(False)
        if not workers:
            raise WorkloadError("no active cores to run tasks on")
        self.runtime = WorkStealingRuntime(program, len(workers), vector_capable=caps)
        for w, worker_src in zip(workers, self.runtime.workers):
            w.set_source(worker_src)

    def _attach_obs(self, obs):
        """Fan an Observation out to every component that can report."""
        self.obs = obs
        for c in self.bigs:
            c.attach_obs(obs)
        for c in self.littles:
            c.attach_obs(obs)
        if self.engine is not None:
            self.engine.attach_obs(obs)
        self.ms.attach_obs(obs)
        if obs.sampler is not None:
            obs.sampler.attach(self, obs)

    def run(self, program=None, max_ns=50_000_000, quiet=True, obs=None,
            skip=True, hostscope=None, critpath=None):
        """Simulate to completion; returns a :class:`RunResult`.

        ``skip`` toggles idle-time elision: the default loop fast-forwards
        every span in which all units' ``next_work_ps`` probes rule out
        work, and ``skip=False`` runs the dense reference loop that grinds
        through every tick. ``skip`` is a run-time knob only —
        deliberately *not* part of :class:`SoCConfig` (it must never
        change ``canonical_json()`` or cache keys) — and every stat except
        the ``sim.ticks_*`` executed/skipped split is bit-identical across
        both settings.

        ``hostscope`` attaches a :class:`~repro.obs.host.HostScope` that
        attributes host wall-time to per-unit groups by timing each
        unit's tick; ``critpath`` attaches a
        :class:`~repro.obs.critpath.CritPath` that charges every advance
        of simulated time to the unit group whose tick does work at the
        new instant. Both wrap the per-unit tick callables once, before
        the loop starts, so the loop itself is the same with or without
        them; both are run-time-only and stat-invisible, under either
        value of ``skip``.
        """
        if program is not None:
            self.load(program)
        if obs is None:
            obs = self._pending_obs
        if obs is not None and self.obs is None:
            # attach after load(): task-parallel programs may bypass the
            # engine, and only surviving components should own obs units
            self._attach_obs(obs)
        units = self.units()
        ticks = [u.tick for _, _, u in units]
        if hostscope is not None or critpath is not None:
            from repro.obs.host import unit_group
            for i, (name, dom, u) in enumerate(units):
                if not getattr(u, "active", True):
                    continue  # a vector lane: its tick never does work
                group = unit_group(name, dom)
                if hostscope is not None:
                    ticks[i] = hostscope.wrap(ticks[i], group, arity=1)
                if critpath is not None:
                    # outside any hostscope wrapper, so critpath
                    # bookkeeping lands in hostprof's scheduler residual
                    ticks[i] = critpath.wrap(ticks[i], u.next_work_ps,
                                             group)
        if hostscope is not None:
            hostscope.install(self)
        try:
            return self._loop(max_ns, skip, ticks, critpath)
        finally:
            if hostscope is not None:
                hostscope.uninstall()
                hostscope.finalize(time.perf_counter() - self._wall_t0,
                                   loop_events=self._ticks_big
                                   + self._ticks_little + self._ticks_mem)

    def units(self):
        """``(name, domain, component)`` for every ticking unit, in ground
        (service) order: big cores, the big-domain engine, little cores
        (including those reconfigured as vector lanes), the little-domain
        engine, memory. Domain 0 is big, 1 little, 2 mem."""
        engine = self.engine
        units = [(c.core_id, 0, c) for c in self.bigs]
        if isinstance(engine, DecoupledVectorEngine):
            units.append(("dve", 0, engine))
        units += [(c.core_id, 1, c) for c in self.littles]
        if isinstance(engine, VLittleEngine):
            units.append(("vcu", 1, engine))
        units.append(("mem", 2, self.ms))
        return units

    def _loop(self, max_ns, skip, ticks, cp):
        """The run loop proper, over ``ticks`` (one callable per unit, in
        :meth:`units` order); ``cp`` is the attached CritPath, if any."""
        pb, pl, pm = self._pb, self._pl, self._pm
        bigs, littles, engine, ms = self.bigs, self.littles, self.engine, self.ms
        n_big = len(bigs)
        big_engine = isinstance(engine, DecoupledVectorEngine)
        little_engine = isinstance(engine, VLittleEngine)
        big_units = list(zip(bigs, ticks[:n_big]))
        k = n_big
        big_engine_tick = None
        if big_engine:
            big_engine_tick = ticks[k]
            k += 1
        little_ticks = ticks[k:-1]
        ms_tick = ticks[-1]
        done = self._done
        t_big = t_little = t_mem = 0
        t = 0
        max_ps = max_ns * 1000
        # interval sampling: with no sampler the loop pays one int compare
        sampler = self.obs.sampler if self.obs is not None else None
        next_sample = sampler.interval_ps if sampler is not None else max_ps + 1
        loop_name = "skip" if skip else "dense"
        last_progress_check = 0
        last_instrs = -1
        ticks_big = ticks_little = ticks_mem = 0
        skipped_big = skipped_little = skipped_mem = 0
        self._ticks_big = self._ticks_little = self._ticks_mem = 0
        self._skipped_big = self._skipped_little = self._skipped_mem = 0
        self._done_blocker = None
        self._wall_t0 = time.perf_counter()
        # adaptive probe stride: probing every unit costs ~a dozen calls, so
        # back off (doubling up to 64 iterations) while attempts keep
        # failing and reset on success. Probes are pure, so the stride can
        # never change simulated state — only how often we look for a skip.
        stride = 1
        since_probe = 0

        def fast_forward(nb, nl, nm):
            """Charge ``n`` skipped ticks to every unit of each domain and
            advance the domain clocks past them. Compensation happens
            *before* the clocks move so each unit sees the time of the
            first skipped tick."""
            nonlocal t_big, t_little, t_mem
            nonlocal skipped_big, skipped_little, skipped_mem
            if nb:
                for c in bigs:
                    c.skip_ticks(nb)
                if big_engine:
                    engine.skip_ticks(nb, t_big)
                t_big += nb * pb
                skipped_big += nb
            if nl:
                for c in littles:
                    c.skip_ticks(nl, t_little)
                if little_engine:
                    engine.skip_ticks(nl, t_little)
                t_little += nl * pl
                skipped_little += nl
            if nm:
                ms.skip_ticks(nm, t_mem)
                t_mem += nm * pm
                skipped_mem += nm

        def close(t_end, stalled=False):
            """Publish the tick counters (and close critpath) on exit."""
            self._ticks_big, self._ticks_little, self._ticks_mem = \
                ticks_big, ticks_little, ticks_mem
            self._skipped_big, self._skipped_little, self._skipped_mem = \
                skipped_big, skipped_little, skipped_mem
            if cp is not None:
                cp.finalize(t_end, stalled=stalled)

        while t < max_ps:
            t = min(t_big, t_little, t_mem)
            if t == t_big:
                for c, tick in big_units:
                    c.set_now_hint(t)
                    tick(t)
                if big_engine_tick is not None:
                    big_engine_tick(t)
                t_big += pb
                ticks_big += 1
            if t == t_little:
                for tick in little_ticks:
                    tick(t)
                t_little += pl
                ticks_little += 1
            if t == t_mem:
                ms_tick(t)
                t_mem += pm
                ticks_mem += 1
            if t >= next_sample:
                sampler.sample(t)
                next_sample = t + sampler.interval_ps
            if done():
                close(t + max(pb, pl, pm))
                return self._result(t + max(pb, pl, pm))
            # watchdog (window must exceed any legitimate idle period,
            # e.g. a long mode-switch penalty)
            if t - last_progress_check >= WATCHDOG_PS:  # every ~20k ns
                last_progress_check = t
                stalled, instrs = progress_check(self, t, last_instrs,
                                                 loop_name)
                if stalled:
                    close(t, stalled=True)
                    raise watchdog_deadlock(self, t, loop_name)
                last_instrs = instrs
            if not skip:
                continue
            since_probe += 1
            if since_probe < stride:
                continue
            since_probe = 0
            # probe every unit at its own next tick time; 0 from any unit
            # means its next tick does real work and nothing may be
            # skipped. Cores go first: they veto most often (fetch/issue
            # retry every tick while running) and their probe is cheapest.
            T = _INF
            for c in bigs:
                b = c.next_work_ps(t_big)
                if not b:
                    T = 0
                    break
                if b < T:
                    T = b
            if T and engine is not None:
                b = engine.next_work_ps(t_little if little_engine else t_big)
                if not b:
                    T = 0
                elif b < T:
                    T = b
            if T:
                for c in littles:
                    b = c.next_work_ps(t_little)
                    if not b:
                        T = 0
                        break
                    if b < T:
                        T = b
            if T:
                b = ms.next_work_ps(t_mem)
                if not b:
                    T = 0
                elif b < T:
                    T = b
            nb = nl = nm = 0
            if T:
                # clamp to the events the loop itself must observe at their
                # original times: the watchdog window and the max_ns
                # horizon (both independent of obs/sampler attachment, so
                # the executed/skipped split never changes when they are)
                wd = last_progress_check + WATCHDOG_PS
                if wd < T:
                    T = wd
                if max_ps < T:
                    T = max_ps
                if T > t_big:
                    nb = (T - t_big + pb - 1) // pb
                if T > t_little:
                    nl = (T - t_little + pl - 1) // pl
                if T > t_mem:
                    nm = (T - t_mem + pm - 1) // pm
                if nb + nl + nm < 16:
                    # too short to pay for the compensation calls: skipping
                    # is always optional, so let these ticks execute
                    nb = nl = nm = 0
            if nb or nl or nm:
                # sampler boundaries that fall inside the span fire at
                # their exact original grid points: compensate every tick
                # up to and *including* the boundary (the original loop
                # samples after ticking it), sample, and keep going —
                # never forcing an executed tick, so attaching a sampler
                # cannot perturb the skip schedule either
                while next_sample < T:
                    g = t_big if next_sample <= t_big else \
                        t_big + (next_sample - t_big + pb - 1) // pb * pb
                    gl = t_little if next_sample <= t_little else \
                        t_little + (next_sample - t_little + pl - 1) // pl * pl
                    if gl < g:
                        g = gl
                    gm = t_mem if next_sample <= t_mem else \
                        t_mem + (next_sample - t_mem + pm - 1) // pm * pm
                    if gm < g:
                        g = gm
                    if g >= T:
                        break
                    fast_forward(
                        (g - t_big) // pb + 1 if g >= t_big else 0,
                        (g - t_little) // pl + 1 if g >= t_little else 0,
                        (g - t_mem) // pm + 1 if g >= t_mem else 0,
                    )
                    sampler.sample(g)
                    next_sample = g + sampler.interval_ps
                nb = (T - t_big + pb - 1) // pb if T > t_big else 0
                nl = (T - t_little + pl - 1) // pl if T > t_little else 0
                nm = (T - t_mem + pm - 1) // pm if T > t_mem else 0
                fast_forward(nb, nl, nm)
                stride = 1
            elif stride < 64:
                stride += stride
        close(t)
        raise horizon_deadlock(self, t, max_ns, loop_name)

    def _progress_signature(self):
        """Monotonic global progress count for the deadlock watchdog:
        retired instructions on every core, memory-side DRAM traffic, and
        engine instruction/uop issue."""
        instrs = sum(c.instrs for c in self.bigs) + sum(c.instrs for c in self.littles)
        instrs += self.ms.dram.reads + self.ms.dram.writes  # memory-side progress
        engine = self.engine
        if engine is not None:
            instrs += getattr(engine, "instrs", 0)
            if isinstance(engine, VLittleEngine):
                instrs += sum(l.uops_issued for l in engine.lanes)
        return instrs

    def _done(self):
        # O(1) fast path on quiet iterations: re-check only the unit that
        # blocked completion last time — a unit can only *become* done, so
        # while the cached blocker is still busy nothing else needs a look
        blk = self._done_blocker
        if blk is not None and not blk():
            return False
        for c in self.bigs:
            if not c.done():
                self._done_blocker = c.done
                return False
        for c in self.littles:
            if c.active and not c.done():
                self._done_blocker = c.done
                return False
        engine = self.engine
        if engine is not None and not engine.idle():
            self._done_blocker = engine.idle
            return False
        runtime = self.runtime
        if runtime is not None and not runtime.finished:
            self._done_blocker = lambda: runtime.finished
            return False
        return True

    # ----------------------------------------------------------------- stats

    def _result(self, t_ps):
        stats = {}
        stats["time_ps"] = t_ps
        stats["cycles_1ghz"] = t_ps // 1000
        # simulated clock ticks per domain: deterministic work counters that
        # let the harness report sim throughput (ticks / wall second).
        # ticks_* counts only *executed* loop ticks; ticks_skipped_* counts
        # ticks the quiescence scheduler fast-forwarded past, so
        # ticks_X + ticks_skipped_X is invariant under the skip toggle
        stats["sim.ticks_big"] = self._ticks_big
        stats["sim.ticks_little"] = self._ticks_little
        stats["sim.ticks_mem"] = self._ticks_mem
        stats["sim.ticks_skipped_big"] = self._skipped_big
        stats["sim.ticks_skipped_little"] = self._skipped_little
        stats["sim.ticks_skipped_mem"] = self._skipped_mem
        stats["fetch_requests"] = self.ms.fetch_requests()
        data_reqs = self.ms.data_requests()
        if isinstance(self.engine, DecoupledVectorEngine):
            data_reqs += self.engine.line_reqs
        stats["data_requests"] = data_reqs
        for c in self.bigs + self.littles:
            stats.update(c.stats())
        if self.engine is not None:
            stats.update(self.engine.stats())
        if self.runtime is not None:
            stats.update(self.runtime.stats())
        stats.update(self.ms.stats())
        if self.obs is not None:
            if self.obs.sampler is not None:
                # close the final (partial) interval so short runs still
                # produce at least one sample
                self.obs.sampler.sample(t_ps)
            # per-unit cycle attribution covers executed *and* compensated
            # (skipped) ticks, so validation totals include both
            self.obs.validate({
                "big": self._ticks_big + self._skipped_big,
                "little": self._ticks_little + self._skipped_little,
                "mem": self._ticks_mem + self._skipped_mem,
            })
            stats.update(self.obs.stats_dict())
        wall = time.perf_counter() - self._wall_t0
        timing = {
            "wall_s": wall,
            # sim_wall_s is the time actually spent simulating; a later
            # disk-cache load of this result keeps it and records its own
            # load_wall_s, so hit and miss costs stay distinguishable
            "sim_wall_s": wall,
            "from_cache": False,
        }
        return RunResult(self._name, self.config.name, t_ps // 1000, stats, timing)


def build_system(config):
    return System(config)
