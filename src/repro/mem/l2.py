"""Shared banked L2 with a full-map coherence directory.

The L2 is the ordering point of the hierarchy (the role the Arm CHI home node
plays in the paper's gem5 setup). Requests are resolved *closed-form* at
arrival: per-bank service slots, directory probes (synchronous invalidate /
downgrade calls into the L1s, with their latency charged to the requester),
optional DRAM fetch, and a response pushed into the requester's response
queue with an explicit ready cycle. This keeps the hierarchy deadlock-free by
construction while modeling the effects that matter at the paper's level:
bank throughput, dirty-line migration, sharer invalidation, and DRAM
bandwidth saturation.

Clients are either *coherent* (L1 caches, tracked by the directory) or *raw*
(the decoupled vector engine's memory unit, which holds no lines but must see
coherent data and invalidate cached copies on stores).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.mem.cache import STATE_M, STATE_S
from repro.utils import is_pow2, log2i


class L2Cache:
    __slots__ = ("dram", "assoc", "line_bytes", "nbanks", "latency",
                 "miss_lookup_latency", "req_delay", "dirty_fwd_latency",
                 "inv_latency", "fill_latency", "period", "_off_bits",
                 "_nsets", "_set_mask", "_bank_mask", "_tags", "_lru",
                 "_dir", "_bank_free", "_clients", "reads", "writes",
                 "hits", "misses", "dirty_forwards", "invalidations_sent",
                 "writebacks_in", "obs", "_obs_lat")

    def __init__(
        self,
        dram,
        size_bytes=1024 * 1024,
        assoc=8,
        line_bytes=64,
        nbanks=4,
        latency=12,
        miss_lookup_latency=4,
        req_delay=2,
        dirty_fwd_latency=8,
        inv_latency=6,
        fill_latency=2,
        period=1,
    ):
        if not (is_pow2(size_bytes) and is_pow2(nbanks)):
            raise ConfigError("L2 size and bank count must be powers of two")
        self.dram = dram
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.nbanks = nbanks
        self.latency = latency
        self.miss_lookup_latency = miss_lookup_latency
        self.req_delay = req_delay
        self.dirty_fwd_latency = dirty_fwd_latency
        self.inv_latency = inv_latency
        self.fill_latency = fill_latency
        self.period = period

        self._off_bits = log2i(line_bytes)
        self._nsets = size_bytes // (assoc * line_bytes)
        self._set_mask = self._nsets - 1
        self._bank_mask = nbanks - 1

        self._tags = {}  # line -> dirty bool
        self._lru = {}  # set -> [lines], MRU last
        self._dir = {}  # line -> [owner_id | None, set(sharer_ids)]
        self._bank_free = [0] * nbanks
        self._clients = {}  # id -> (client, coherent)

        # counters
        self.reads = 0
        self.writes = 0
        self.hits = 0
        self.misses = 0
        self.dirty_forwards = 0
        self.invalidations_sent = 0
        self.writebacks_in = 0

        self.obs = None  # UnitObs handle; every hook is a single cheap check

    # --------------------------------------------------------- observability

    def attach_obs(self, obs_unit, metrics):
        self.obs = obs_unit
        self._obs_lat = metrics.histogram(
            "l2.req_latency_ps",
            (20_000, 50_000, 100_000, 150_000, 250_000, 500_000))

    def busy_at(self, now):
        """True while any bank still has a service slot in flight."""
        for b in self._bank_free:
            if b > now:
                return True
        return False

    def next_idle_ps(self, now):
        """ps at which ``busy_at`` flips back to idle (the last in-flight
        bank slot freeing), or 0 when already idle. Pure."""
        t = max(self._bank_free)
        return t if t > now else 0

    # ------------------------------------------------------------- clients

    def register_client(self, client_id, client, coherent=True):
        """Register an L1 (coherent) or a raw engine port (non-coherent)."""
        if client_id in self._clients:
            raise ConfigError(f"duplicate L2 client id {client_id!r}")
        self._clients[client_id] = (client, coherent)

    # ------------------------------------------------------------ requests

    def _bank_slot(self, line, arrival):
        bank = (line >> self._off_bits) & self._bank_mask
        start = arrival if arrival >= self._bank_free[bank] else self._bank_free[bank]
        self._bank_free[bank] = start + self.period
        return start

    def _dir_entry(self, line):
        e = self._dir.get(line)
        if e is None:
            e = [None, set()]
            self._dir[line] = e
        return e

    def request(self, src_id, line, is_write, now, token=None):
        """Handle a fetch/ownership request; respond via the client's queue."""
        client, coherent = self._clients[src_id]
        arrival = now + self.req_delay * self.period
        start = self._bank_slot(line, arrival)
        penalty = 0
        entry = self._dir_entry(line)
        owner, sharers = entry[0], entry[1]

        if is_write:
            self.writes += 1
            others = [j for j in sharers if j != src_id]
            if owner is not None and owner != src_id and owner not in others:
                others.append(owner)
            for j in others:
                holder, _ = self._clients[j]
                if holder.invalidate(line):
                    self._tags[line] = True  # dirty data pulled to L2
                self.invalidations_sent += 1
            if others:
                penalty += self.inv_latency * self.period
            if coherent:
                entry[0] = src_id
                entry[1] = {src_id}
            else:
                entry[0] = None
                entry[1] = set()
            granted = STATE_M
        else:
            self.reads += 1
            if owner is not None and owner != src_id:
                holder, _ = self._clients[owner]
                if holder.downgrade(line):
                    self.dirty_forwards += 1
                    self._tags.setdefault(line, False)
                    self._tags[line] = True
                    penalty += self.dirty_fwd_latency * self.period
                sharers.add(owner)
                entry[0] = None
            if coherent:
                if not sharers and entry[0] is None:
                    # exclusive grant: silent private read-then-write is free
                    entry[0] = src_id
                    entry[1] = {src_id}
                    granted = STATE_M
                else:
                    sharers.add(src_id)
                    granted = STATE_S
            else:
                granted = STATE_S

        if is_write and not coherent:
            # raw full-line store: write straight into the L2
            self._insert(line, dirty=True, now=start)
            ready = start + self.latency * self.period + penalty
            self.hits += 1
        elif line in self._tags:
            self.hits += 1
            self._touch(line)
            ready = start + self.latency * self.period + penalty
        else:
            self.misses += 1
            dram_ready = self.dram.request(start + self.miss_lookup_latency * self.period, is_write=False)
            self._insert(line, dirty=False, now=start)
            ready = dram_ready + self.fill_latency * self.period + penalty
            if self.obs is not None:
                self.obs.instant("miss", now, {"src": src_id})

        if self.obs is not None:
            self._obs_lat.observe(ready - now)
        client.resp_queue.push_at((line, granted) if token is None else (line, granted, token), ready)
        return ready

    # ----------------------------------------------------------- writeback

    def writeback(self, src_id, line, now):
        """Absorb a dirty L1 eviction."""
        self.writebacks_in += 1
        arrival = now + self.req_delay * self.period
        self._bank_slot(line, arrival)
        entry = self._dir.get(line)
        if entry is not None:
            if entry[0] == src_id:
                entry[0] = None
            entry[1].discard(src_id)
        self._insert(line, dirty=True, now=arrival)

    def drop_sharer(self, src_id, line):
        """A clean L1 eviction: keep the directory precise."""
        entry = self._dir.get(line)
        if entry is not None:
            if entry[0] == src_id:
                entry[0] = None
            entry[1].discard(src_id)

    # -------------------------------------------------------------- storage

    def _set_of(self, line):
        return (line >> self._off_bits) & self._set_mask

    def _touch(self, line):
        s = self._lru[self._set_of(line)]
        if s[-1] != line:
            s.remove(line)
            s.append(line)

    def _insert(self, line, dirty, now):
        if line in self._tags:
            self._tags[line] = self._tags[line] or dirty
            self._touch(line)
            return
        sidx = self._set_of(line)
        s = self._lru.setdefault(sidx, [])
        if len(s) >= self.assoc:
            victim = s.pop(0)
            if self._tags.pop(victim):
                self.dram.request(now, is_write=True)
        s.append(line)
        self._tags[line] = dirty

    def probe(self, line):
        return line in self._tags

    def stats(self):
        return {
            "l2_reads": self.reads,
            "l2_writes": self.writes,
            "l2_hits": self.hits,
            "l2_misses": self.misses,
            "l2_dirty_forwards": self.dirty_forwards,
            "l2_invalidations": self.invalidations_sent,
            "l2_writebacks_in": self.writebacks_in,
        }
