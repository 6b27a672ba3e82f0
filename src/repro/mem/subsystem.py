"""Wiring of the full cache hierarchy for one simulated SoC."""

from __future__ import annotations

from repro.mem.cache import L1Cache
from repro.mem.dram import DRAM
from repro.mem.l2 import L2Cache
from repro.mem.message import DelayQueue
from repro.stats.breakdown import Stall

_INF = 1 << 60


class RawPort:
    """A non-caching L2 client port (used by the decoupled vector engine).

    The owner polls ``pop_ready`` each cycle for ``(line, granted, token)``
    responses.
    """

    __slots__ = ("port_id", "resp_queue")

    def __init__(self, port_id, resp_delay=2):
        self.port_id = port_id
        self.resp_queue = DelayQueue(resp_delay)

    def pop_ready(self, now):
        return self.resp_queue.pop_ready(now)

    # raw ports hold no lines, so coherence probes are no-ops
    def invalidate(self, line):
        return False

    def downgrade(self, line):
        return False


class MemorySystem:
    """DRAM + shared L2 + per-core private L1I/L1D caches."""

    __slots__ = ("line_bytes", "dram", "l2", "big_l1i", "big_l1d",
                 "little_l1i", "little_l1d", "_all_l1", "_l1_queues",
                 "_raw_ports", "obs", "_l2_obs", "_dram_obs")

    def __init__(
        self,
        n_big=1,
        n_little=4,
        l1_size=32 * 1024,
        l1_assoc=2,
        l1_hit_latency=2,
        l1i_hit_latency=1,
        l1_mshrs=8,
        l2_size=1024 * 1024,
        l2_assoc=8,
        l2_banks=4,
        l2_latency=12,
        dram_latency=80,
        dram_line_interval=4,
        line_bytes=64,
        big_period=1,
        little_period=1,
        mem_period=1,
    ):
        self.line_bytes = line_bytes
        self.dram = DRAM(latency=dram_latency, line_interval=dram_line_interval,
                         period=mem_period)
        self.l2 = L2Cache(
            self.dram,
            size_bytes=l2_size,
            assoc=l2_assoc,
            line_bytes=line_bytes,
            nbanks=l2_banks,
            latency=l2_latency,
            period=mem_period,
        )

        def mk(cid, icache, big):
            c = L1Cache(
                cid,
                l2=self.l2,
                size_bytes=l1_size,
                assoc=l1_assoc,
                line_bytes=line_bytes,
                hit_latency=l1i_hit_latency if icache else l1_hit_latency,
                n_mshrs=l1_mshrs * (2 if big else 1),
                period=big_period if big else little_period,
            )
            self.l2.register_client(cid, c, coherent=True)
            return c

        self.big_l1i = [mk(f"big{i}.l1i", True, True) for i in range(n_big)]
        self.big_l1d = [mk(f"big{i}.l1d", False, True) for i in range(n_big)]
        self.little_l1i = [mk(f"lit{i}.l1i", True, False) for i in range(n_little)]
        self.little_l1d = [mk(f"lit{i}.l1d", False, False) for i in range(n_little)]
        self._all_l1 = self.big_l1i + self.big_l1d + self.little_l1i + self.little_l1d
        # response queues in a flat list: next_work_ps is a hot probe
        # and scans these on every skip attempt
        self._l1_queues = [c.resp_queue for c in self._all_l1]
        self._raw_ports = []
        self.obs = None  # Observation handle; hooks stay a cheap None check

    def make_raw_port(self, port_id, resp_delay=2):
        port = RawPort(port_id, resp_delay=resp_delay)
        self.l2.register_client(port_id, port, coherent=False)
        self._raw_ports.append(port)
        return port

    # --------------------------------------------------------- observability

    def attach_obs(self, obs):
        self.obs = obs
        self._l2_obs = obs.unit("l2", "mem", process="mem")
        self._dram_obs = obs.unit("dram", "mem", process="mem")
        self.l2.attach_obs(self._l2_obs, obs.metrics)
        self.dram.attach_obs(self._dram_obs)
        fill_hist = obs.metrics.histogram(
            "l1.fill_latency_ps",
            (20_000, 50_000, 100_000, 150_000, 250_000, 500_000))
        for c in self._all_l1:
            c.attach_obs(obs, fill_hist)

    def tick(self, now):
        for c in self._all_l1:
            if c.resp_queue:
                c.tick(now)
        if self.obs is not None:
            self._l2_obs.cycle(Stall.BUSY if self.l2.busy_at(now) else Stall.MISC)
            self._dram_obs.cycle(Stall.BUSY if self.dram.busy_at(now) else Stall.MISC)

    # ------------------------------------------------------- skip scheduling

    def next_work_ps(self, now):
        """Earliest future ps at which a memory tick could do real work:
        the earliest L1 fill response (raw ports are drained by their
        owning engine, which bounds them itself), and the L2/DRAM
        busy->idle flips so per-cycle attribution stays exact. The flip
        bounds apply whether or not an Observation is attached — the skip
        schedule (and with it the sim.ticks_* executed/skipped split) must
        not change when obs is attached. Pure."""
        bound = _INF
        for q in self._l1_queues:
            dq = q._q  # hot path: inlined DelayQueue.next_time()
            if dq:
                t = dq[0][0]
                if t <= now:
                    return 0  # a fill would install next tick
                if t < bound:
                    bound = t
        # inlined l2.next_idle_ps / dram.next_idle_ps: this probe runs on
        # every skip attempt, so the two busy->idle flips read the
        # underlying fields directly
        t = max(self.l2._bank_free)
        if now < t < bound:
            bound = t
        t = self.dram._next_free
        if now < t < bound:
            bound = t
        return bound

    def forensic_state(self, now):
        """Scheduling-state summary for :mod:`repro.obs.forensics`.
        Pure (read-only): pending L1 fill responses plus the L2/DRAM
        busy horizons — the memory side never *waits* on anyone, so its
        ``waits_on`` is always empty."""
        fills = 0
        next_fill = _INF
        for q in self._l1_queues:
            dq = q._q
            if dq:
                fills += len(dq)
                t = dq[0][0]
                if t < next_fill:
                    next_fill = t
        l2_busy = max(self.l2._bank_free)
        dram_busy = self.dram._next_free
        return {
            "l1_fills_pending": fills,
            "next_fill_ps": None if next_fill >= _INF else next_fill,
            "l2_busy_until_ps": l2_busy if l2_busy > now else None,
            "dram_busy_until_ps": dram_busy if dram_busy > now else None,
            "dram_reads": self.dram.reads,
            "dram_writes": self.dram.writes,
            "done": fills == 0,
            "waits_on": [],
        }

    def skip_ticks(self, n, now):
        """Replay ``n`` provably idle memory ticks (per-cycle busy/idle
        attribution is the only per-tick effect, and only under obs)."""
        if self.obs is not None:
            self._l2_obs.cycle(
                Stall.BUSY if self.l2.busy_at(now) else Stall.MISC, n)
            self._dram_obs.cycle(
                Stall.BUSY if self.dram.busy_at(now) else Stall.MISC, n)

    def data_requests(self):
        """Core/engine-issued data requests into the memory subsystem
        (the Fig. 6 metric): L1D accesses plus raw-port line requests."""
        n = sum(c.accesses for c in self.big_l1d + self.little_l1d)
        return n

    def fetch_requests(self):
        """Front-end instruction fetch requests (the Fig. 5 metric)."""
        return sum(c.accesses for c in self.big_l1i + self.little_l1i)

    def stats(self):
        out = {}
        for c in self._all_l1:
            for k, v in c.stats().items():
                out[f"{c.cache_id}.{k}"] = v
        out.update(self.l2.stats())
        out.update(self.dram.stats())
        return out
