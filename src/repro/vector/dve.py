"""Aggressive decoupled vector engine — the ``1bDV`` baseline (paper Fig. 3).

Tarantula-class resources: a 2048-bit vector register file, sixteen 32-bit
execution lanes (a 64-element instruction executes in 4 chimes), deep command
and data buffers, and a private high-bandwidth port into the shared L2 that
can issue multiple cache-line requests per cycle with many in flight.

Memory decoupling is first-class: load instructions start fetching their
lines the moment the big core dispatches them (well before the compute
pipeline reaches them); the compute side is a single in-order issue pipe
whose dependences are tracked through producer sequence ids.
"""

from __future__ import annotations

from collections import deque

from repro.cores.fu import DEFAULT_LATENCY
from repro.errors import ConfigError
from repro.isa.scalar import FUClass
from repro.isa.vector import VClass, VOp, VOP_CLASS, VOP_IS_LOAD, VOP_IS_STORE
from repro.stats.breakdown import Stall
from repro.utils import ceil_div

_INF = 1 << 60

_CLS_FU = {
    VClass.INT_SIMPLE: FUClass.ALU,
    VClass.INT_COMPLEX: FUClass.DIV,
    VClass.FP: FUClass.FPU,
    VClass.FDIV: FUClass.FDIV,
    VClass.MASK: FUClass.ALU,
    VClass.MOVE: FUClass.ALU,
}


class _LoadTracker:
    __slots__ = ("seq", "lines", "arrived", "ready_time")

    def __init__(self, seq, lines):
        self.seq = seq
        self.lines = lines
        self.arrived = 0
        self.ready_time = None


class DecoupledVectorEngine:
    """Engine interface: ``can_accept`` / ``dispatch`` / ``tick`` / ``idle``."""

    __slots__ = (
        "l2", "port", "vlen_bits", "lanes", "cmdq_depth", "loadq_lines",
        "max_inflight", "lines_per_cycle", "line_bytes", "period",
        "_cmdq", "_vready", "_trackers", "_line_to_tracker", "_pending_reqs",
        "_inflight", "_loadq_used", "_store_outstanding", "_pipe_free",
        "_token", "instrs", "line_reqs", "store_line_reqs", "_pop_at",
        "obs", "_pv", "_obs_inflight",
    )

    def __init__(
        self,
        l2,
        port,
        vlen_bits=2048,
        lanes=16,
        cmdq_depth=64,
        loadq_lines=64,
        max_inflight=32,
        lines_per_cycle=2,
        line_bytes=64,
        period=1,
    ):
        if vlen_bits % 64:
            raise ConfigError("VLEN must be a multiple of 64")
        self.l2 = l2
        self.port = port
        self.vlen_bits = vlen_bits
        self.lanes = lanes
        self.cmdq_depth = cmdq_depth
        self.loadq_lines = loadq_lines
        self.max_inflight = max_inflight
        self.lines_per_cycle = lines_per_cycle
        self.line_bytes = line_bytes
        self.period = period

        self._cmdq = deque()  # (ins, respond)
        self._vready = {}  # producer seq -> cycle its register value is ready
        self._trackers = {}  # seq -> _LoadTracker
        self._line_to_tracker = {}  # token -> tracker
        self._pending_reqs = deque()  # (line, tracker) awaiting issue to L2
        self._inflight = 0
        self._loadq_used = 0
        self._store_outstanding = 0
        self._pipe_free = 0
        self._token = 0

        # counters
        self.instrs = 0
        self.line_reqs = 0
        self.store_line_reqs = 0

        # head popping folded into tick entry to keep the FSM tiny
        self._pop_at = -1

        self.obs = None  # UnitObs handle; every hook is a single cheap check
        self._pv = None  # PipeView handle; same cheap-check discipline

    # --------------------------------------------------------- observability

    def attach_obs(self, obs):
        self.obs = obs.unit("dve", "big", process="vector")
        self._pv = obs.pipeview
        self._obs_inflight = obs.metrics.gauge("dve.inflight_lines")

    # ------------------------------------------------------------- interface

    def vlmax(self, ew):
        return self.vlen_bits // (8 * ew)

    def can_accept(self, now):
        return len(self._cmdq) < self.cmdq_depth

    def dispatch(self, ins, now, respond=None):
        self.instrs += 1
        if ins.op == VOp.VSETVL:
            # the grant depends only on avl and vtype — no need to traverse
            # the command queue; respond right away so the big core's ROB
            # head never serializes on strip-mine bookkeeping
            if respond:
                respond(now + 2 * self.period)
            return
        entry = [ins, respond, False, None]  # [ins, respond, started, pv]
        if self._pv is not None:
            entry[3] = self._pv.begin(
                "dve", f"{VOp(ins.op).name} s{ins.seq}", now, stage="Q",
                pc=ins.pc, parent=self._pv.seq_record(ins.seq))
        self._cmdq.append(entry)
        if VOP_IS_LOAD[ins.op]:
            # decoupling: begin fetching lines immediately
            lines = self._lines_of(ins)
            tracker = _LoadTracker(ins.seq, len(lines))
            self._trackers[ins.seq] = tracker
            for line in lines:
                self._pending_reqs.append((line, tracker))

    def idle(self):
        return (
            not self._cmdq
            and not self._pending_reqs
            and self._inflight == 0
            and self._store_outstanding == 0
        )

    def forensic_state(self, now):
        """Scheduling-state summary for :mod:`repro.obs.forensics`.
        Pure (read-only); see :meth:`BigCore.forensic_state`."""
        waits = []
        if (self._inflight or self._pending_reqs
                or self._store_outstanding):
            waits.append(("mem",
                          f"{self._inflight} line(s) in flight, "
                          f"{len(self._pending_reqs)} queued, "
                          f"{self._store_outstanding} store(s) outstanding"))
        return {
            "cmdq": len(self._cmdq),
            "cmdq_depth": self.cmdq_depth,
            "pending_line_reqs": len(self._pending_reqs),
            "inflight_lines": self._inflight,
            "loadq_used": self._loadq_used,
            "store_outstanding": self._store_outstanding,
            "instrs": self.instrs,
            "done": self.idle(),
            "waits_on": waits,
        }

    # ------------------------------------------------------- skip scheduling

    def next_accept_ps(self, now):
        """Pure bound on ``can_accept`` (which is itself pure here)."""
        return 0 if len(self._cmdq) < self.cmdq_depth else _INF

    def _compute_probe(self, now):
        """Pure mirror of ``_compute_tick``: ``(category, bound)`` with
        category None when the next tick would pop/issue/execute."""
        if self._cmdq and self._cmdq[0][2]:
            if self._pop_at <= now:
                return None, 0
            return Stall.BUSY, self._pop_at
        if not self._cmdq:
            return Stall.MISC, _INF
        ins = self._cmdq[0][0]
        if ins.op == VOp.VMFENCE:
            if (self._inflight == 0 and self._store_outstanding == 0
                    and not self._pending_reqs):
                return None, 0
            return Stall.RAW_MEM, _INF  # drained by L2 responses
        for dep in ins.dep_ids:
            t = self._vready.get(dep, 0)
            if t > now:
                return Stall.RAW_LLFU, t
        if self._pipe_free > now:
            return Stall.STRUCT, self._pipe_free
        if VOP_IS_LOAD[ins.op]:
            tr = self._trackers.get(ins.seq)
            if tr is None or tr.ready_time is None:
                return Stall.RAW_MEM, _INF  # lines still in flight
            if tr.ready_time > now:
                return Stall.RAW_MEM, tr.ready_time
        return None, 0

    def next_work_ps(self, now):
        """Earliest future ps at which the engine could do real work."""
        bound = _INF
        t = self.port.resp_queue.next_time()
        if t is not None:
            if t <= now:
                return 0  # a response pops next tick
            if t < bound:
                bound = t
        if (self._pending_reqs and self._inflight < self.max_inflight
                and self._loadq_used < self.loadq_lines):
            return 0  # line requests issue next tick
        cat, t = self._compute_probe(now)
        if cat is None:
            return 0
        if t < bound:
            bound = t
        return bound

    def skip_ticks(self, n, now):
        """Replay ``n`` provably idle ticks (per-cycle obs attribution is
        the engine's only per-tick effect)."""
        if self.obs is not None:
            cat, _ = self._compute_probe(now)
            self.obs.cycle(cat, n)
            self._obs_inflight.set(self._inflight, n)

    # ----------------------------------------------------------------- tick

    def tick(self, now):
        self._mem_tick(now)
        cat = self._compute_tick(now)
        if self.obs is not None:
            self.obs.cycle(cat)
            self._obs_inflight.set(self._inflight)

    def _mem_tick(self, now):
        # responses from the L2
        while True:
            resp = self.port.pop_ready(now)
            if resp is None:
                break
            line, granted, token = resp
            tr = self._line_to_tracker.pop(token, None)
            self._inflight -= 1
            if tr is None:
                self._store_outstanding -= 1
                continue
            tr.arrived += 1
            if tr.arrived == tr.lines:
                tr.ready_time = now
        # issue new line requests
        issued = 0
        while (
            self._pending_reqs
            and issued < self.lines_per_cycle
            and self._inflight < self.max_inflight
            and self._loadq_used < self.loadq_lines
        ):
            line, tr = self._pending_reqs.popleft()
            token = self._token
            self._token += 1
            self._line_to_tracker[token] = tr
            self._l2_request(line, False, now, token)
            self._inflight += 1
            self._loadq_used += 1
            self.line_reqs += 1
            issued += 1
            if self.obs is not None:
                self.obs.instant("load_line", now, {"seq": tr.seq})

    def _l2_request(self, line, is_write, now, token):
        # the raw port was registered with the L2 under its port_id
        self.l2.request(self.port.port_id, line, is_write, now, token=token)

    def _compute_tick(self, now):
        """One issue-pipe cycle; returns its Stall attribution category."""
        if self._cmdq and self._cmdq[0][2]:
            if self._pop_at <= now:
                self._cmdq.popleft()
            else:
                return Stall.BUSY  # head executing over its chimes
        if not self._cmdq:
            return Stall.MISC
        ins, respond, started, _pv_rec = self._cmdq[0]
        cls = VOP_CLASS[ins.op]
        nchimes = max(1, ceil_div(max(ins.vl, 1), self.lanes))

        P = self.period
        if ins.op == VOp.VMFENCE:
            if self._inflight == 0 and self._store_outstanding == 0 and not self._pending_reqs:
                self._finish(now, now + P)
                return Stall.BUSY
            return Stall.RAW_MEM  # fence draining outstanding lines
        # register dependences
        for dep in ins.dep_ids:
            if self._vready.get(dep, 0) > now:
                return Stall.RAW_LLFU
        if self._pipe_free > now:
            return Stall.STRUCT

        if VOP_IS_LOAD[ins.op]:
            tr = self._trackers.get(ins.seq)
            if tr is None or tr.ready_time is None or tr.ready_time > now:
                return Stall.RAW_MEM
            # write back over the chimes; free load-queue lines
            done = now + nchimes * P
            self._vready[ins.seq] = done + P
            self._pipe_free = done
            self._loadq_used -= tr.lines
            del self._trackers[ins.seq]
            self._finish(now, done)
            return Stall.BUSY
        if VOP_IS_STORE[ins.op]:
            lines = self._lines_of(ins)
            for line in lines:
                token = self._token
                self._token += 1
                self._store_outstanding += 1
                self._inflight += 1
                self._l2_request(line, True, now, token)
                self.line_reqs += 1
                self.store_line_reqs += 1
            done = now + nchimes * P
            self._pipe_free = done
            self._finish(now, done)
            return Stall.BUSY
        if cls in (VClass.CROSS_PERM, VClass.CROSS_RED):
            lat = (max(ins.vl, 1) + DEFAULT_LATENCY[FUClass.FPU]) * P
            done = now + lat
            self._vready[ins.seq] = done
            self._pipe_free = done
            if respond:
                respond(done + 2 * P)
            self._finish(now, done)
            return Stall.BUSY
        # plain arithmetic: chime-pipelined over the wide lanes
        fu = _CLS_FU.get(cls, FUClass.ALU)
        lat = DEFAULT_LATENCY[fu] * P
        occupancy = (nchimes if fu not in (FUClass.DIV, FUClass.FDIV)
                     else nchimes * DEFAULT_LATENCY[fu]) * P
        done = now + occupancy
        self._vready[ins.seq] = done + lat
        self._pipe_free = done
        if respond:
            respond(done + lat + 2 * P)
        self._finish(now, done)
        return Stall.BUSY

    def _finish(self, now, at):
        """Mark the head instruction as started; it pops when ``at`` passes."""
        head = self._cmdq[0]
        head[2] = True
        self._pop_at = at
        if head[3] is not None:
            self._pv.stage(head[3], "X", now)
            self._pv.retire(head[3], at)

    def _lines_of(self, ins):
        seen = []
        last = None
        for a in ins.element_addrs():
            ln = a // self.line_bytes * self.line_bytes
            if ln != last:
                if ln not in seen[-4:]:
                    seen.append(ln)
                last = ln
        return seen

    def stats(self):
        return {
            "dve.instrs": self.instrs,
            "dve.line_reqs": self.line_reqs,
            "dve.store_line_reqs": self.store_line_reqs,
        }
