//! The memory hierarchy: per-core L1I/L1D, one on-chip L2 beyond them —
//! private per core, shared by an island of adjacent cores, or
//! chip-shared (see [`LevelSpec`]) — plus instruction stream buffers.
//!
//! Classification of each access follows the paper's §5 decomposition:
//!
//! * **L1** — hit in the core's own L1 (not a stall).
//! * **L2Hit** — L1 miss served on-chip: an L2 hit, or a dirty line
//!   transferred L1-to-L1 within one L2 instance's cores. The paper
//!   counts both as "L2 hits", and their stall time is the rising
//!   component.
//! * **Mem** — off-chip memory access.
//! * **Coherence** — multi-node arrangements only (private or island
//!   L2s): the line was supplied dirty by a *remote node's* cache over the
//!   off-chip interconnect. With a chip-shared L2 these turn into L2Hit —
//!   mechanically reproducing the paper's Fig. 7, and `fig_islands`' 2x2
//!   island midpoint sits in between.
//!
//! Every L1 miss, data or instruction, goes through one path (`fetch`),
//! and one coherence protocol serves every sharing:
//!
//! * Each L2 instance is a directory over its member cores' L1Ds (sharer
//!   bitmap, owner, dirty-in-L1, each indexed by the core's position in
//!   its instance); dirty peer lines transfer L1-to-L1 on chip. A private
//!   L2 is a one-core instance and a chip-shared L2 the one instance.
//! * If there is more than one instance, they form *nodes* that snoop
//!   each other over the off-chip interconnect (MESI-style): remote-dirty
//!   supplies cost the coherence latency.
//! * Instances are banked; banks have an occupancy per access and a
//!   `next_free` cycle, so correlated miss bursts queue (paper §5.3:
//!   cache pressure, not miss rate, limits core-count scaling for OLTP).
//!
//! A private L2 (`Level::private`) differs in four rules, each marked
//! where it applies: its demand port never queues, its prefetches share
//! one chip-wide bank pool, a prefetch's eviction purges every core's
//! L1I, and a write hit that invalidates another node also counts as an
//! L2 hit.

use crate::cache::{Cache, Divisor, Evicted};
use crate::config::{LevelSpec, MachineConfig, SharedBy};
use crate::stats::MemCounters;
use crate::stream::StreamBuffer;

/// How an access was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemClass {
    L1,
    L2Hit,
    Mem,
    Coherence,
}

/// Timing + classification of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Cycle at which the data is available to the core.
    pub ready_at: u64,
    pub(crate) class: MemClass,
}

/// Number of sequential lines a stream buffer keeps in flight ahead of the
/// fetch point.
const PREFETCH_AHEAD: u64 = 4;
/// Cycles to promote a ready stream-buffer line into the L1I.
const STREAM_PROMOTE: u64 = 2;
/// Directory sentinel: no L1 owner.
const NO_OWNER: u8 = 0xFF;
/// Cycles one access occupies an L2 bank port, the queueing source: the
/// same on every machine.
const BANK_OCCUPANCY: u64 = 2;

/// Per-core private caches + stream buffers.
#[derive(Debug)]
struct CoreCaches {
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    streams: Vec<StreamBuffer>,
}

impl CoreCaches {
    fn invalidate_all(&mut self, node: usize, line: u64) {
        self.l1d[node].invalidate(line);
        self.l1i[node].invalidate(line);
    }
}

/// The instantiated L2: one tag array per instance, each the directory
/// of its member cores' L1Ds.
#[derive(Debug)]
struct Level {
    /// One core per instance (`SharedBy::Core`, `Cluster(0 | 1)`): the
    /// four private-L2 rules of the module docs apply.
    private: bool,
    /// Cores per instance.
    cluster: usize,
    /// `cluster` as a divisor (core → instance, core → member slot).
    per_instance: Divisor,
    latency: u64,
    /// One tag array per instance (`n_cores / cluster` of them).
    caches: Vec<Cache>,
    /// Bank `next_free` cycles, `banks_per_group` per instance,
    /// concatenated.
    bank_free: Vec<u64>,
    banks_per_group: usize,
    /// Line → bank within one instance's `banks_per_group`.
    bank_of: Divisor,
}

impl Level {
    fn new(spec: &LevelSpec, n_cores: usize) -> Self {
        let n_cores = n_cores.max(1);
        let cluster = spec.shared_by.cores_per_instance(n_cores).clamp(1, n_cores);
        let groups = n_cores / cluster;
        let banks_per_group = spec.banks.max(1);
        Level {
            private: matches!(spec.shared_by, SharedBy::Core | SharedBy::Cluster(0 | 1)),
            cluster,
            per_instance: Divisor::new(cluster),
            latency: spec.geom.latency,
            caches: (0..groups)
                .map(|_| Cache::new(spec.geom.size, spec.geom.assoc))
                .collect(),
            bank_free: vec![0; banks_per_group * groups],
            banks_per_group,
            bank_of: Divisor::new(banks_per_group),
        }
    }

    #[inline]
    fn group(&self, core: usize) -> usize {
        self.per_instance.div(core)
    }

    /// `core`'s position in its instance: its sharer bit and owner id.
    #[inline]
    fn slot(&self, core: usize) -> usize {
        self.per_instance.rem(core as u64)
    }

    /// Member cores of instance `g`.
    #[inline]
    fn members(&self, g: usize) -> std::ops::Range<usize> {
        g * self.cluster..(g + 1) * self.cluster
    }
}

/// Timing parameters, copied out of the config.
#[derive(Debug, Clone, Copy)]
struct Params {
    mem_latency: u64,
    l1_to_l1: u64,
    coherence_latency: u64,
}

/// The full memory system of a machine.
#[derive(Debug)]
pub struct MemSys {
    cores: CoreCaches,
    l2: Level,
    p: Params,
    pub(crate) counters: MemCounters,
}

impl MemSys {
    pub fn new(cfg: &MachineConfig) -> Self {
        let n = cfg.n_cores;
        MemSys {
            cores: CoreCaches {
                l1i: (0..n)
                    .map(|_| Cache::new(cfg.l1i.size, cfg.l1i.assoc))
                    .collect(),
                l1d: (0..n)
                    .map(|_| Cache::new(cfg.l1d.size, cfg.l1d.assoc))
                    .collect(),
                streams: (0..n).map(|_| StreamBuffer::new(cfg.stream_buf)).collect(),
            },
            l2: Level::new(&cfg.l2, n),
            p: Params {
                mem_latency: cfg.mem_latency,
                l1_to_l1: cfg.l1_to_l1,
                coherence_latency: cfg.coherence_latency,
            },
            counters: MemCounters::with_levels(1),
        }
    }

    /// Reset event counters (end of warm-up) without touching cache state.
    pub(crate) fn reset_counters(&mut self) {
        self.counters = MemCounters::with_levels(1);
    }

    /// One L2 instance: every transfer stays on chip.
    #[inline]
    fn single_realm(&self) -> bool {
        self.l2.caches.len() == 1
    }

    /// A data load/store by `core` to cache line `line` (line number =
    /// addr / 64).
    pub fn data_access(&mut self, core: usize, line: u64, write: bool, now: u64) -> Access {
        self.counters.l1d_accesses += 1;
        if let Some(idx) = self.cores.l1d[core].probe(line) {
            let dirty = self.cores.l1d[core].entry(idx).dirty;
            if write && !dirty {
                let acc = self.upgrade(core, line, now);
                if let Some(i) = self.cores.l1d[core].peek(line) {
                    self.cores.l1d[core].entry_mut(i).dirty = true;
                }
                return acc;
            }
            return Access {
                ready_at: now,
                class: MemClass::L1,
            };
        }
        self.counters.l1d_misses += 1;
        let acc = self.fetch(core, line, write, false, now);
        // Fill L1D; handle the victim.
        let (idx, evicted) = self.cores.l1d[core].insert(line);
        self.cores.l1d[core].entry_mut(idx).dirty = write;
        if let Some(ev) = evicted {
            self.drop_l1d_victim(core, ev);
        }
        acc
    }

    /// An instruction fetch by `core` of line `line`.
    pub(crate) fn instr_access(&mut self, core: usize, line: u64, now: u64) -> Access {
        self.counters.l1i_accesses += 1;
        if self.cores.l1i[core].probe(line).is_some() {
            return Access {
                ready_at: now,
                class: MemClass::L1,
            };
        }
        self.counters.l1i_misses += 1;
        if let Some(ready) = self.cores.streams[core].take(line) {
            self.counters.stream_hits += 1;
            let ready_at = ready.max(now) + STREAM_PROMOTE;
            self.fill_l1i(core, line);
            self.prefetch(core, line + PREFETCH_AHEAD, now);
            return Access {
                ready_at,
                class: MemClass::L2Hit,
            };
        }
        let acc = self.fetch(core, line, false, true, now);
        self.fill_l1i(core, line);
        for d in 1..=PREFETCH_AHEAD {
            self.prefetch(core, line + d, now);
        }
        acc
    }

    // ------------------------------------------------------------- L2 walk

    /// Serve an L1 miss (data or instruction): probe the core's L2
    /// instance, filling it on a miss, then go to the realm snoop or
    /// memory.
    fn fetch(&mut self, core: usize, line: u64, write: bool, is_instr: bool, now: u64) -> Access {
        let g = self.l2.group(core);
        let mut t = now;
        // Private rule 1: a one-core instance's demand port never queues.
        if !self.l2.private {
            t = self.claim_bank(g, line, t);
        }
        if let Some(idx) = self.l2.caches[g].probe(line) {
            let pl = &mut self.counters.per_level[0];
            if is_instr {
                pl.hits_instr += 1;
            } else {
                pl.hits_data += 1;
            }
            let acc = self.serve_hit(idx, core, line, write, is_instr, t);
            self.counters.per_level[0].service_cycles += acc.ready_at.saturating_sub(now);
            return acc;
        }
        let pl = &mut self.counters.per_level[0];
        if is_instr {
            pl.misses_instr += 1;
        } else {
            pl.misses_data += 1;
        }
        // Inclusive L2: fill it now, victim and all. Instruction lines
        // are not sharer-tracked.
        let (idx, ev) = self.l2.caches[g].insert(line);
        let slot = self.l2.slot(core);
        let en = self.l2.caches[g].entry_mut(idx);
        en.sharers = if is_instr { 0 } else { 1 << slot };
        en.dirty_in_l1 = write;
        en.owner = if write { slot as u8 } else { NO_OWNER };
        if let Some(ev) = ev {
            self.handle_eviction(g, ev, false);
        }
        t += self.l2.latency;
        self.serve_offchip(core, line, write, is_instr, t)
    }

    /// Claim a bank port of L2 instance `g`; returns the start cycle
    /// after any queueing delay.
    fn claim_bank(&mut self, g: usize, line: u64, now: u64) -> u64 {
        let l2 = &mut self.l2;
        let b = g * l2.banks_per_group + l2.bank_of.rem(line);
        let start = now.max(l2.bank_free[b]);
        if start > now {
            self.counters.l2_queue_cycles += start - now;
            self.counters.l2_queued_accesses += 1;
            let pl = &mut self.counters.per_level[0];
            pl.queue_cycles += start - now;
            pl.queued_accesses += 1;
        }
        l2.bank_free[b] = start + BANK_OCCUPANCY;
        start
    }

    /// The write-side realm crossing shared by every ownership-claiming
    /// path (hit, upgrade): if there is more than one node and another
    /// caches the line, invalidate those copies over the snoop bus and
    /// charge the coherence latency.
    fn cross_realm_write(&mut self, core: usize, line: u64, t: u64) -> Option<Access> {
        if self.single_realm() || !self.foreign_copies_exist(core, line) {
            return None;
        }
        self.scrub_foreign_nodes(core, line, true);
        self.counters.coherence_transfers += 1;
        Some(Access {
            ready_at: t + self.p.coherence_latency,
            class: MemClass::Coherence,
        })
    }

    /// Hit in the core's L2 instance: directory upkeep over its member
    /// L1s.
    fn serve_hit(
        &mut self,
        idx: usize,
        core: usize,
        line: u64,
        write: bool,
        is_instr: bool,
        t: u64,
    ) -> Access {
        let g = self.l2.group(core);
        let slot = self.l2.slot(core);
        let e = *self.l2.caches[g].entry(idx);
        let peer_dirty = e.dirty_in_l1 && e.owner as usize != slot && e.owner != NO_OWNER;
        if peer_dirty {
            let owner = self.l2.members(g).start + e.owner as usize;
            if write {
                self.cores.l1d[owner].invalidate(line);
            } else if let Some(j) = self.cores.l1d[owner].peek(line) {
                self.cores.l1d[owner].entry_mut(j).dirty = false;
            }
            let en = self.l2.caches[g].entry_mut(idx);
            en.dirty = true; // data now (also) current in the L2
            en.dirty_in_l1 = false;
            en.owner = NO_OWNER;
        }
        if write {
            self.take_ownership(g, idx, core, line);
            if let Some(acc) = self.cross_realm_write(core, line, t) {
                // Private rule 4 (ROADMAP 10(i)): the hit counts too.
                if self.l2.private {
                    self.counters.l2_hits += 1;
                }
                return acc;
            }
        } else if !is_instr {
            self.l2.caches[g].entry_mut(idx).sharers |= 1 << slot;
        }
        let ready_at = if peer_dirty {
            self.counters.l1_to_l1 += 1;
            t + self.p.l1_to_l1
        } else {
            if is_instr {
                self.counters.l2_hits_instr += 1;
            } else {
                self.counters.l2_hits += 1;
            }
            t + self.l2.latency
        };
        Access {
            ready_at,
            class: MemClass::L2Hit,
        }
    }

    /// Make `core` the sole sharer and dirty owner of entry `idx` of
    /// instance `g`, invalidating every other member L1 copy the
    /// directory tracks. Returns whether there was any.
    fn take_ownership(&mut self, g: usize, idx: usize, core: usize, line: u64) -> bool {
        let slot = self.l2.slot(core);
        let en = self.l2.caches[g].entry_mut(idx);
        let others = en.sharers & !(1u16 << slot);
        en.sharers = 1 << slot;
        en.dirty_in_l1 = true;
        en.owner = slot as u8;
        for (s, n) in self.l2.members(g).enumerate() {
            if (others >> s) & 1 == 1 {
                self.cores.l1d[n].invalidate(line);
            }
        }
        others != 0
    }

    /// The L2 missed: snoop the other nodes (if there are any) or go
    /// straight to memory.
    fn serve_offchip(
        &mut self,
        core: usize,
        line: u64,
        write: bool,
        is_instr: bool,
        t: u64,
    ) -> Access {
        let single_realm = self.single_realm();
        let home = self.l2.group(core);
        let remote_dirty = !single_realm
            && self.l2.caches.iter().enumerate().any(|(g, c)| {
                g != home
                    && c.peek(line).is_some_and(|i| {
                        let e = c.entry(i);
                        e.dirty || e.dirty_in_l1
                    })
            });
        let (lat, class) = if remote_dirty {
            self.counters.coherence_transfers += 1;
            (self.p.coherence_latency, MemClass::Coherence)
        } else {
            if is_instr {
                self.counters.mem_accesses_instr += 1;
            } else {
                self.counters.mem_accesses += 1;
            }
            (self.p.mem_latency, MemClass::Mem)
        };
        if !single_realm {
            // Downgrade (read) or invalidate (write) the remote copies.
            self.scrub_foreign_nodes(core, line, write);
        }
        Access {
            ready_at: t + lat,
            class,
        }
    }

    /// Any copy of `line` cached in an L2 instance other than `core`'s?
    fn foreign_copies_exist(&self, core: usize, line: u64) -> bool {
        let home = self.l2.group(core);
        self.l2
            .caches
            .iter()
            .enumerate()
            .any(|(g, c)| g != home && c.peek(line).is_some())
    }

    /// Invalidate (write) or downgrade (read) every copy of `line` held
    /// by other nodes — their L2 instances plus their cores' L1s.
    fn scrub_foreign_nodes(&mut self, core: usize, line: u64, write: bool) {
        let home = self.l2.group(core);
        for g in 0..self.l2.caches.len() {
            if g == home {
                continue;
            }
            if write {
                self.l2.caches[g].invalidate(line);
            } else if let Some(i) = self.l2.caches[g].peek(line) {
                let en = self.l2.caches[g].entry_mut(i);
                en.dirty = false;
                en.dirty_in_l1 = false;
                en.owner = NO_OWNER;
            }
        }
        // Every foreign L1, so also any dirty owner the loop above
        // stopped recording.
        for n in 0..self.cores.l1d.len() {
            if self.l2.group(n) == home {
                continue;
            }
            if write {
                self.cores.invalidate_all(n, line);
            } else if let Some(j) = self.cores.l1d[n].peek(line) {
                self.cores.l1d[n].entry_mut(j).dirty = false;
            }
        }
    }

    /// A write to a line the core's L1 holds clean: invalidate the other
    /// copies via the directory (on chip) or the snoop bus (across
    /// nodes).
    fn upgrade(&mut self, core: usize, line: u64, now: u64) -> Access {
        let g = self.l2.group(core);
        let charged = self.l2.caches[g]
            .peek(line)
            .is_some_and(|idx| self.take_ownership(g, idx, core, line));
        if let Some(acc) = self.cross_realm_write(core, line, now) {
            return acc;
        }
        if !charged {
            // Not tracked / sole sharer: silent upgrade.
            return Access {
                ready_at: now,
                class: MemClass::L1,
            };
        }
        self.counters.l2_hits += 1;
        let pl = &mut self.counters.per_level[0];
        pl.hits_data += 1;
        pl.service_cycles += self.l2.latency;
        Access {
            ready_at: now + self.l2.latency,
            class: MemClass::L2Hit,
        }
    }

    // ---------------------------------------------------- fills + evicts

    /// Instruction lines are not sharer-tracked (`fetch` gives them no
    /// bits and only data hits set any), so an L1I victim needs no
    /// directory upkeep.
    fn fill_l1i(&mut self, core: usize, line: u64) {
        self.cores.l1i[core].insert(line);
    }

    /// An L1D evicted `ev`: drop `core` from its sharers and, if it left
    /// dirty, fold the dirtiness into the L2 and clear a now-stale
    /// ownership record, which would otherwise charge later readers a
    /// phantom L1-to-L1 transfer.
    fn drop_l1d_victim(&mut self, core: usize, ev: Evicted) {
        let (g, slot) = (self.l2.group(core), self.l2.slot(core));
        if let Some(idx) = self.l2.caches[g].peek(ev.line) {
            let en = self.l2.caches[g].entry_mut(idx);
            if ev.dirty && en.dirty_in_l1 && en.owner as usize == slot {
                en.dirty_in_l1 = false;
                en.owner = NO_OWNER;
                en.dirty = true;
            }
            en.sharers &= !(1u16 << slot);
        }
    }

    /// Inclusion upkeep after an eviction from L2 instance `g`: purge the
    /// line from the L1s it covers.
    fn handle_eviction(&mut self, g: usize, ev: Evicted, prefetch: bool) {
        self.counters.per_level[0].evictions += 1;
        for (s, n) in self.l2.members(g).enumerate() {
            if (ev.sharers >> s) & 1 == 1 {
                self.cores.l1d[n].invalidate(ev.line);
            }
            // Instruction lines are not sharer-tracked; purge
            // opportunistically.
            self.cores.l1i[n].invalidate(ev.line);
        }
        // Private rule 3 (ROADMAP 10(h)): a prefetch's eviction purges
        // the line from every core's L1I.
        if prefetch && self.l2.private {
            for l1i in &mut self.cores.l1i {
                l1i.invalidate(ev.line);
            }
        }
    }

    // ---------------------------------------------------------- prefetch

    /// Prefetch `line` into the stream buffer (state update + bank
    /// occupancy; never stalls the core, never counts as a demand miss).
    fn prefetch(&mut self, core: usize, line: u64, now: u64) {
        if !self.cores.streams[core].enabled()
            || self.cores.streams[core].contains(line)
            || self.cores.l1i[core].peek(line).is_some()
        {
            return;
        }
        let g = self.l2.group(core);
        // Private rule 2: one-core instances' prefetches share instance
        // 0's banks, the chip-wide snoop port.
        let port = if self.l2.private { 0 } else { g };
        let t = self.claim_bank(port, line, now) + self.l2.latency;
        let ready = if self.l2.caches[g].probe(line).is_some() {
            t
        } else {
            let (_, ev) = self.l2.caches[g].insert(line);
            if let Some(ev) = ev {
                self.handle_eviction(g, ev, true);
            }
            t + self.p.mem_latency
        };
        self.cores.streams[core].put(line, ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheGeom, MachineConfig};
    use dbcmp_trace::Fnv;

    fn cmp2() -> MemSys {
        let mut cfg = MachineConfig::fat_cmp(2, 1 << 20, 10);
        cfg.stream_buf = 0; // keep the instruction path simple here
        MemSys::new(&cfg)
    }

    #[test]
    fn cold_miss_goes_to_memory_then_hits() {
        let mut m = cmp2();
        let a = m.data_access(0, 100, false, 0);
        assert_eq!(a.class, MemClass::Mem);
        assert!(a.ready_at >= 400);
        let b = m.data_access(0, 100, false, a.ready_at);
        assert_eq!(b.class, MemClass::L1);
        assert_eq!(m.counters.l1d_misses, 1);
    }

    #[test]
    fn cross_core_read_is_l2_hit() {
        let mut m = cmp2();
        m.data_access(0, 100, false, 0);
        let a = m.data_access(1, 100, false, 1000);
        assert_eq!(a.class, MemClass::L2Hit);
        assert_eq!(m.counters.l2_hits, 1);
        assert_eq!(m.counters.per_level[0].hits_data, 1);
    }

    #[test]
    fn dirty_line_transfers_l1_to_l1() {
        let mut m = cmp2();
        m.data_access(0, 100, true, 0); // core 0 writes (M in its L1)
        let a = m.data_access(1, 100, false, 1000);
        assert_eq!(a.class, MemClass::L2Hit);
        assert_eq!(m.counters.l1_to_l1, 1);
        let b = m.data_access(1, 100, false, 2000);
        assert_eq!(b.class, MemClass::L1); // now resident in core 1's L1
    }

    #[test]
    fn write_invalidates_peer_l1() {
        let mut m = cmp2();
        m.data_access(0, 100, false, 0);
        m.data_access(1, 100, false, 500); // both L1s share the line
        m.data_access(0, 100, true, 1000); // core 0 upgrades
        let a = m.data_access(1, 100, false, 2000);
        assert_eq!(
            a.class,
            MemClass::L2Hit,
            "peer copy must have been invalidated"
        );
    }

    #[test]
    fn upgrade_without_sharers_is_silent() {
        let mut m = cmp2();
        m.data_access(0, 100, false, 0); // S in core 0 only
        let a = m.data_access(0, 100, true, 1000);
        assert_eq!(a.class, MemClass::L1, "sole sharer upgrades silently");
    }

    #[test]
    fn smp_dirty_remote_is_coherence_miss() {
        let mut cfg = MachineConfig::smp(2, 1 << 20, 10, crate::config::CoreKind::fat());
        cfg.stream_buf = 0;
        let mut m = MemSys::new(&cfg);
        m.data_access(0, 100, true, 0); // node 0 holds it dirty
        let a = m.data_access(1, 100, false, 1000);
        assert_eq!(a.class, MemClass::Coherence);
        assert_eq!(m.counters.coherence_transfers, 1);
    }

    #[test]
    fn smp_clean_remote_goes_to_memory() {
        let mut cfg = MachineConfig::smp(2, 1 << 20, 10, crate::config::CoreKind::fat());
        cfg.stream_buf = 0;
        let mut m = MemSys::new(&cfg);
        m.data_access(0, 100, false, 0); // node 0, clean
        let a = m.data_access(1, 100, false, 1000);
        assert_eq!(a.class, MemClass::Mem);
    }

    #[test]
    fn smp_write_upgrade_costs_bus_transaction() {
        let mut cfg = MachineConfig::smp(2, 1 << 20, 10, crate::config::CoreKind::fat());
        cfg.stream_buf = 0;
        let mut m = MemSys::new(&cfg);
        m.data_access(0, 100, false, 0);
        m.data_access(1, 100, false, 500); // shared across nodes
        let a = m.data_access(0, 100, true, 1000); // upgrade
        assert_eq!(a.class, MemClass::Coherence);
        // Node 1 lost its copy.
        let b = m.data_access(1, 100, false, 2000);
        assert_eq!(b.class, MemClass::Coherence, "dirty at node 0 now");
    }

    #[test]
    fn bank_queueing_delays_bursts() {
        let mut cfg = MachineConfig::fat_cmp(4, 1 << 20, 10);
        cfg.l2.banks = 1;
        cfg.stream_buf = 0;
        let mut m = MemSys::new(&cfg);
        m.data_access(0, 10, false, 0);
        m.data_access(0, 20, false, 0);
        let a = m.data_access(1, 10, false, 1000);
        let b = m.data_access(2, 20, false, 1000);
        assert_eq!(a.class, MemClass::L2Hit);
        assert_eq!(b.class, MemClass::L2Hit);
        assert!(
            b.ready_at > a.ready_at,
            "second access must queue behind the first"
        );
        assert!(m.counters.l2_queued_accesses >= 1);
        assert!(m.counters.per_level[0].queued_accesses >= 1);
    }

    #[test]
    fn instr_fetch_misses_then_hits() {
        let mut m = cmp2();
        let a = m.instr_access(0, 5000, 0);
        assert_eq!(a.class, MemClass::Mem);
        let b = m.instr_access(0, 5000, 1000);
        assert_eq!(b.class, MemClass::L1);
        assert_eq!(m.counters.l1i_misses, 1);
    }

    #[test]
    fn stream_buffer_catches_sequential_fetch() {
        let mut cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 8;
        let mut m = MemSys::new(&cfg);
        let a = m.instr_access(0, 9000, 0);
        assert_eq!(a.class, MemClass::Mem);
        let b = m.instr_access(0, 9001, a.ready_at + 50);
        assert_eq!(b.class, MemClass::L2Hit);
        assert_eq!(m.counters.stream_hits, 1);
    }

    #[test]
    fn l2_eviction_back_invalidates_l1() {
        // Tiny L2 (forced evictions) but roomy L1: inclusion must purge L1.
        let mut cfg = MachineConfig::fat_cmp(1, 4096, 10); // 64-line L2
        cfg.l1d = crate::config::CacheGeom::new(64 << 10, 2, 1);
        cfg.stream_buf = 0;
        let mut m = MemSys::new(&cfg);
        // Fill the L2 set that line 0 maps to (64 lines / 1 way... assoc 16
        // -> 4 sets). Lines 0,4,8,... map to set 0.
        m.data_access(0, 0, false, 0);
        for k in 1..=16 {
            m.data_access(0, (k * 4) as u64, false, k as u64 * 10);
        }
        // Line 0 must have been evicted from L2 — and therefore from L1.
        let a = m.data_access(0, 0, false, 10_000);
        assert_eq!(
            a.class,
            MemClass::Mem,
            "L1 copy must not outlive L2 (inclusion)"
        );
        assert!(m.counters.per_level[0].evictions >= 1);
    }

    #[test]
    fn counters_reset_preserves_cache_state() {
        let mut m = cmp2();
        m.data_access(0, 100, false, 0);
        m.reset_counters();
        assert_eq!(m.counters.l1d_accesses, 0);
        assert_eq!(m.counters.per_level.len(), 1);
        let a = m.data_access(0, 100, false, 1000);
        assert_eq!(a.class, MemClass::L1, "cache contents must survive reset");
    }

    // ----------------------------------------------------------- islands

    fn island_cfg(n_cores: usize, per_island: usize, l2_size: u64) -> MachineConfig {
        let mut cfg = MachineConfig::fat_cmp(n_cores, l2_size, 10);
        cfg.l2.shared_by = SharedBy::Cluster(per_island);
        cfg.stream_buf = 0;
        cfg.validate().expect("island config validates");
        cfg
    }

    /// Small caches, so the scripted stream evicts at both levels; stream
    /// buffers on.
    fn script_cfg(n_cores: usize, shared_by: SharedBy) -> MachineConfig {
        let mut cfg = MachineConfig::fat_cmp(n_cores, 64 << 10, 10);
        cfg.l1d = CacheGeom::new(4 << 10, 2, 1);
        cfg.l2.shared_by = shared_by;
        cfg.validate().expect("config validates");
        cfg
    }

    /// The scripted stream: 20,000 xorshift64 words, one access each at
    /// cycles 0, 1, 2, …
    fn script() -> impl Iterator<Item = (u64, u64)> {
        let next = |&x: &u64| {
            let x = x ^ (x << 13);
            let x = x ^ (x >> 7);
            Some(x ^ (x << 17))
        };
        let words = std::iter::successors(Some(0x9E37_79B9_7F4A_7C15u64), next).skip(1);
        (0..20_000u64).zip(words)
    }

    /// One scripted access: a fetch (3 in 16), a read or a write (1 in 4
    /// of the data accesses) by core `x mod n` of one of 4,096 lines.
    fn scripted(m: &mut MemSys, n_cores: usize, x: u64, now: u64) -> Access {
        let (core, line) = ((x % n_cores as u64) as usize, (x >> 8) % 4096);
        match x >> 60 {
            0..=2 => m.instr_access(core, (1 << 40) + line, now),
            kind => m.data_access(core, line, kind >= 12, now),
        }
    }

    /// A cluster of one core behaves exactly like `Core` and a cluster of
    /// every core exactly like `Chip`: one random stream of data and
    /// instruction accesses, driven through both spellings at 2 and 4
    /// cores, gets the same `Access` every time and the same counters.
    #[test]
    fn cluster_extremes_behave_like_core_and_chip() {
        for n in [2, 4] {
            for (cluster, plain) in [(1, SharedBy::Core), (n, SharedBy::Chip)] {
                let mut a = MemSys::new(&script_cfg(n, SharedBy::Cluster(cluster)));
                let mut b = MemSys::new(&script_cfg(n, plain));
                for (now, x) in script() {
                    assert_eq!(
                        scripted(&mut a, n, x, now),
                        scripted(&mut b, n, x, now),
                        "{n} cores, Cluster({cluster}) vs {plain:?}, access {now}"
                    );
                }
                assert_eq!(a.counters, b.counters, "{n} cores, {plain:?}");
            }
        }
    }

    /// The walker's exact behavior on private, island and chip-shared
    /// L2s: one FNV digest per sharing over every `Access` of the
    /// scripted stream on 4 cores and every final `MemCounters` field.
    #[test]
    fn access_scripts_are_pinned() {
        for (shared_by, want) in [
            (SharedBy::Core, 0xce01_43b3_ea9c_6f19),
            (SharedBy::Cluster(2), 0x1363_4042_857a_a718),
            (SharedBy::Chip, 0xadd5_8b01_f9f1_96cb),
        ] {
            let mut m = MemSys::new(&script_cfg(4, shared_by));
            let mut d = Fnv::new();
            for (now, x) in script() {
                let a = scripted(&mut m, 4, x, now);
                d.word(a.ready_at);
                d.word(a.class as u64);
            }
            let c = &m.counters;
            for w in [
                c.l1d_accesses,
                c.l1d_misses,
                c.l1i_accesses,
                c.l1i_misses,
                c.l2_hits,
                c.l2_hits_instr,
                c.l1_to_l1,
                c.mem_accesses,
                c.mem_accesses_instr,
                c.coherence_transfers,
                c.stream_hits,
                c.l2_queue_cycles,
                c.l2_queued_accesses,
            ] {
                d.word(w);
            }
            for l in &c.per_level {
                for w in [
                    l.hits_data,
                    l.hits_instr,
                    l.misses_data,
                    l.misses_instr,
                    l.evictions,
                    l.service_cycles,
                    l.queue_cycles,
                    l.queued_accesses,
                    l.mshr_waits,
                    l.mshr_wait_cycles,
                ] {
                    d.word(w);
                }
            }
            assert_eq!(d.finish(), want, "{shared_by:?}");
        }
    }

    #[test]
    fn island_internal_dirty_transfer_stays_on_chip() {
        // 4 cores in 2 islands of 2: cores 0,1 share an L2.
        let mut m = MemSys::new(&island_cfg(4, 2, 1 << 20));
        m.data_access(0, 100, true, 0); // dirty in core 0's L1
        let a = m.data_access(1, 100, false, 1000); // island sibling
        assert_eq!(a.class, MemClass::L2Hit, "intra-island is on-chip");
        assert_eq!(m.counters.l1_to_l1, 1);
    }

    #[test]
    fn cross_island_dirty_is_coherence_miss() {
        let mut m = MemSys::new(&island_cfg(4, 2, 1 << 20));
        m.data_access(0, 100, true, 0); // island 0 holds it dirty
        let a = m.data_access(2, 100, false, 1000); // island 1
        assert_eq!(a.class, MemClass::Coherence, "cross-island is off-chip");
        assert_eq!(m.counters.coherence_transfers, 1);
    }

    /// A dirty L1 eviction must clear the L2 directory's ownership
    /// record — a stale owner would charge later readers a phantom
    /// L1-to-L1 transfer.
    #[test]
    fn dirty_l1_eviction_clears_outer_directory_owner() {
        let mut cfg = MachineConfig::fat_cmp(2, 1 << 20, 10);
        // Two-line L1D so a conflicting fill evicts the dirty line.
        cfg.l1d = CacheGeom::new(128, 1, 1);
        cfg.stream_buf = 0;
        let mut m = MemSys::new(&cfg);
        m.data_access(0, 100, true, 0); // dirty in core 0's L1
        m.data_access(0, 102, false, 500); // same L1 set: evicts line 100
        let a = m.data_access(1, 100, false, 1000);
        assert_eq!(a.class, MemClass::L2Hit);
        assert_eq!(
            m.counters.l1_to_l1, 0,
            "no L1 copy exists any more; the read must be a plain hit"
        );
    }

    /// A cross-island read of a dirty line downgrades the owner's island
    /// directory too: a later read *within* the owner's island must not
    /// charge an L1-to-L1 transfer for an already-clean copy.
    #[test]
    fn cross_island_read_downgrades_owners_island_directory() {
        let mut m = MemSys::new(&island_cfg(4, 2, 1 << 20));
        m.data_access(2, 100, true, 0); // island 1, core 2 owns dirty
        let a = m.data_access(0, 100, false, 1000); // island 0 snoops it
        assert_eq!(a.class, MemClass::Coherence);
        let b = m.data_access(3, 100, false, 2000); // island-1 sibling
        assert_eq!(b.class, MemClass::L2Hit);
        assert_eq!(
            m.counters.l1_to_l1, 0,
            "core 2's copy is already clean; no transfer can happen"
        );
    }

    /// An L1I eviction leaves the directory's *data* sharer bits alone,
    /// even for a line number that is also a data line: a later write by
    /// another core must still invalidate the first core's L1D copy.
    #[test]
    fn l1i_eviction_keeps_the_data_sharer_bit_of_the_same_line_number() {
        let mut cfg = MachineConfig::fat_cmp(2, 1 << 20, 10);
        cfg.l1i = CacheGeom::new(128, 1, 1); // two sets: lines 100 and 102 collide
        cfg.stream_buf = 0;
        let mut m = MemSys::new(&cfg);
        m.data_access(0, 100, false, 0); // core 0 holds data line 100
        m.instr_access(0, 100, 1000); // ... and code line 100
        m.instr_access(0, 102, 2000); // which this fill evicts from its L1I
        m.data_access(1, 100, true, 3000); // core 1 writes the data line
        let a = m.data_access(0, 100, false, 4000);
        assert_eq!(
            a.class,
            MemClass::L2Hit,
            "core 0's L1D copy must have been invalidated by core 1's write"
        );
        assert_eq!(m.counters.l1_to_l1, 1, "the line is dirty in core 1's L1");
    }
}
