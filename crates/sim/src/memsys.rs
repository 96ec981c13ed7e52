//! The memory hierarchy: per-core L1I/L1D, a composable on-chip cache
//! topology (any number of levels, each private, island-shared, or
//! chip-shared — see [`CacheTopology`](crate::config::CacheTopology)),
//! plus instruction stream buffers.
//!
//! Classification of each access follows the paper's §5 decomposition:
//!
//! * **L1** — hit in the core's own L1 (not a stall).
//! * **L2Hit** — L1 miss served on-chip: a hit at any hierarchy level, or
//!   a dirty line transferred L1-to-L1 within a shared cache domain. The
//!   paper counts both as "L2 hits", and their stall time is the rising
//!   component.
//! * **Mem** — off-chip memory access.
//! * **Coherence** — multi-node arrangements only (private L2s or islands
//!   without a shared outer level): the line was supplied dirty by a
//!   *remote node's* cache over the off-chip interconnect. With a shared
//!   outermost level these turn into L2Hit — mechanically reproducing the
//!   paper's Fig. 7, and the island sweep of `fig_islands` walks the
//!   continuum in between.
//!
//! Every access walks the level chain inner→outer through one generic
//! path (`fetch`), which replaced the per-arrangement `shared_fetch` /
//! `private_fetch` pairs and the copy-pasted data/instruction variants.
//! Coherence mechanics per level kind:
//!
//! * **Shared / island instances** (multiple cores) act as a directory
//!   over their member cores' L1Ds (sharer bitmap, owner, dirty-in-L1);
//!   dirty peer lines transfer L1-to-L1 on chip.
//! * **Private instances** (one core) mirror L1 dirtiness in their own
//!   entries, like the legacy SMP nodes.
//! * If the outermost level is not chip-shared, its instances form
//!   *nodes* that snoop each other over the off-chip interconnect
//!   (MESI-style): remote-dirty supplies cost the coherence latency.
//!
//! Shared and island instances are banked; banks have an occupancy per
//! access and a `next_free` cycle, so correlated miss bursts queue (paper
//! §5.3: cache pressure, not miss rate, limits core-count scaling for
//! OLTP). A level may additionally cap outstanding misses per instance
//! (`LevelSpec::mshrs`); legacy configs leave the cap off.

use crate::cache::{Cache, Divisor, Evicted};
use crate::config::{LevelSpec, MachineConfig, SharedBy, MAX_CACHE_LEVELS};
use crate::stats::MemCounters;
use crate::stream::StreamBuffer;

/// How an access was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemClass {
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
    pub class: MemClass,
}

/// Number of sequential lines a stream buffer keeps in flight ahead of the
/// fetch point.
const PREFETCH_AHEAD: u64 = 4;
/// Cycles to promote a ready stream-buffer line into the L1I.
const STREAM_PROMOTE: u64 = 2;
/// Directory sentinel: no L1 owner.
const NO_OWNER: u8 = 0xFF;

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

/// Coherence behavior of one level, derived from its [`SharedBy`]: a
/// cluster of 1 behaves exactly like a private level and a cluster of
/// `n_cores` exactly like a chip-shared one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LevelKind {
    /// One core per instance: no internal directory, dirtiness mirrored
    /// in the entry; demand accesses have a dedicated port.
    Private,
    /// Several (but not all) cores per instance: a directory over the
    /// island's L1s, per-instance bank ports.
    Island,
    /// All cores share the single instance: the legacy CMP shape.
    Shared,
}

/// One instantiated level of the hierarchy.
#[derive(Debug)]
struct Level {
    kind: LevelKind,
    /// Cores per instance.
    cluster: usize,
    /// `cluster` as a divisor (core → instance).
    per_instance: Divisor,
    latency: u64,
    /// One tag array per instance (`n_cores / cluster` of them).
    caches: Vec<Cache>,
    /// Bank `next_free` cycles. Shared: one pool of `banks_per_group`.
    /// Island: `banks_per_group` per instance, concatenated. Private: a
    /// single chip-wide pool of `banks_per_group` carrying prefetch
    /// traffic only (each core's demand port is private and un-queued).
    bank_free: Vec<u64>,
    bank_occupancy: u64,
    banks_per_group: usize,
    /// Line → bank within one pool of `banks_per_group`.
    bank_of: Divisor,
    /// Outstanding-miss completion times per instance; empty inner
    /// vectors when the level has no MSHR cap.
    mshr: Vec<Vec<u64>>,
}

impl Level {
    fn new(spec: &LevelSpec, n_cores: usize) -> Self {
        let kind = match spec.shared_by {
            SharedBy::Chip => LevelKind::Shared,
            SharedBy::Core => LevelKind::Private,
            SharedBy::Cluster(k) if k <= 1 => LevelKind::Private,
            SharedBy::Cluster(k) if k >= n_cores => LevelKind::Shared,
            SharedBy::Cluster(_) => LevelKind::Island,
        };
        let cluster = match kind {
            LevelKind::Private => 1,
            LevelKind::Shared => n_cores.max(1),
            LevelKind::Island => spec.shared_by.cores_per_instance(n_cores),
        };
        let groups = n_cores.max(1) / cluster;
        let banks_per_group = spec.banks.max(1);
        let pool = match kind {
            LevelKind::Island => banks_per_group * groups,
            _ => banks_per_group,
        };
        Level {
            kind,
            cluster,
            per_instance: Divisor::new(cluster),
            latency: spec.geom.latency,
            caches: (0..groups)
                .map(|_| Cache::new(spec.geom.size, spec.geom.assoc))
                .collect(),
            bank_free: vec![0; pool],
            bank_occupancy: spec.bank_occupancy,
            banks_per_group,
            bank_of: Divisor::new(banks_per_group),
            mshr: (0..groups)
                .map(|_| vec![0u64; if spec.mshrs > 0 { spec.mshrs } else { 0 }])
                .collect(),
        }
    }

    #[inline]
    fn group(&self, core: usize) -> usize {
        self.per_instance.div(core)
    }

    /// Member cores of instance `g`.
    #[inline]
    fn members(&self, g: usize) -> std::ops::Range<usize> {
        g * self.cluster..(g + 1) * self.cluster
    }

    #[inline]
    fn bank_index(&self, g: usize, line: u64) -> usize {
        // Shared and private levels have one pool (`g` is ignored).
        match self.kind {
            LevelKind::Island => g * self.banks_per_group + self.bank_of.rem(line),
            _ => self.bank_of.rem(line),
        }
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
    levels: Vec<Level>,
    p: Params,
    /// Outermost level is chip-shared: every transfer stays on chip.
    single_realm: bool,
    /// Cores per node (outermost level's cluster) when `!single_realm`.
    node_cluster: Divisor,
    pub counters: MemCounters,
}

impl MemSys {
    pub fn new(cfg: &MachineConfig) -> Self {
        let n = cfg.n_cores;
        let levels: Vec<Level> = cfg
            .topology
            .levels
            .iter()
            .map(|spec| Level::new(spec, n))
            .collect();
        let single_realm = levels
            .last()
            .map(|l| l.kind == LevelKind::Shared)
            .unwrap_or(true);
        let node_cluster = Divisor::new(levels.last().map(|l| l.cluster).unwrap_or(1));
        let n_levels = levels.len();
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
            levels,
            p: Params {
                mem_latency: cfg.mem_latency,
                l1_to_l1: cfg.l1_to_l1,
                coherence_latency: cfg.coherence_latency,
            },
            single_realm,
            node_cluster,
            counters: MemCounters::with_levels(n_levels),
        }
    }

    /// Reset event counters (end of warm-up) without touching cache state.
    pub fn reset_counters(&mut self) {
        self.counters = MemCounters::with_levels(self.levels.len());
    }

    /// Node (coherence-realm partition) of a core.
    #[inline]
    fn node(&self, core: usize) -> usize {
        self.node_cluster.div(core)
    }

    /// Node a level instance belongs to (instances nest inside nodes by
    /// validation).
    #[inline]
    fn node_of_group(&self, li: usize, g: usize) -> usize {
        self.node_cluster.div(g * self.levels[li].cluster)
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
            if ev.dirty {
                self.writeback_from_l1(core, ev.line);
            }
            self.drop_sharer(core, ev.line);
        }
        acc
    }

    /// An instruction fetch by `core` of line `line`.
    pub fn instr_access(&mut self, core: usize, line: u64, now: u64) -> Access {
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

    // ------------------------------------------------------ generic walk

    /// Serve an L1 miss (data or instruction — the once-duplicated probe/
    /// fill/evict paths share this walker): probe levels inner→outer,
    /// filling on the way; fall through to the realm snoop / memory.
    fn fetch(&mut self, core: usize, line: u64, write: bool, is_instr: bool, now: u64) -> Access {
        let mut t = now;
        // The MSHR slot this walk claimed at each level, if any.
        let mut claimed = [None; MAX_CACHE_LEVELS];
        for li in 0..self.levels.len() {
            let g = self.levels[li].group(core);
            if self.levels[li].kind != LevelKind::Private {
                t = self.claim_bank(li, g, line, t);
            }
            if let Some(idx) = self.levels[li].caches[g].probe(line) {
                if is_instr {
                    self.counters.per_level[li].hits_instr += 1;
                } else {
                    self.counters.per_level[li].hits_data += 1;
                }
                let acc = self.serve_hit(li, g, idx, core, line, write, is_instr, t);
                self.counters.per_level[li].service_cycles += acc.ready_at.saturating_sub(now);
                self.release_mshrs(core, &claimed, acc.ready_at);
                return acc;
            }
            if is_instr {
                self.counters.per_level[li].misses_instr += 1;
            } else {
                self.counters.per_level[li].misses_data += 1;
            }
            if let Some((slot, start)) = self.claim_mshr(li, g, t) {
                claimed[li] = Some(slot);
                t = start;
            }
            // Inclusive hierarchy: fill this level now, victim and all.
            let (idx, ev) = self.levels[li].caches[g].insert(line);
            self.init_fill(li, g, idx, core, write, is_instr);
            if let Some(ev) = ev {
                self.handle_eviction(li, g, core, ev, false);
            }
            t += self.levels[li].latency;
        }
        let acc = self.serve_offchip(core, line, write, is_instr, t);
        self.release_mshrs(core, &claimed, acc.ready_at);
        acc
    }

    /// Claim a bank port at level `li` for instance `g`; returns the
    /// start cycle after any queueing delay.
    fn claim_bank(&mut self, li: usize, g: usize, line: u64, now: u64) -> u64 {
        let lvl = &mut self.levels[li];
        let b = lvl.bank_index(g, line);
        let start = now.max(lvl.bank_free[b]);
        if start > now {
            self.counters.l2_queue_cycles += start - now;
            self.counters.l2_queued_accesses += 1;
            let pl = &mut self.counters.per_level[li];
            pl.queue_cycles += start - now;
            pl.queued_accesses += 1;
        }
        lvl.bank_free[b] = start + lvl.bank_occupancy;
        start
    }

    /// Claim an outstanding-miss slot at level `li` instance `g`;
    /// returns `(slot, start)` where `start` is delayed if every slot is
    /// still in flight, or `None` when the level has no MSHR cap.
    fn claim_mshr(&mut self, li: usize, g: usize, now: u64) -> Option<(usize, u64)> {
        let file = &self.levels[li].mshr[g];
        let (slot, &free) = file.iter().enumerate().min_by_key(|&(_, &f)| f)?;
        let start = now.max(free);
        if start > now {
            let pl = &mut self.counters.per_level[li];
            pl.mshr_waits += 1;
            pl.mshr_wait_cycles += start - now;
        }
        Some((slot, start))
    }

    /// Record the completion time of every MSHR slot `core`'s walk
    /// claimed (`claimed[li]` is the slot at level `li`).
    fn release_mshrs(&mut self, core: usize, claimed: &[Option<usize>], ready_at: u64) {
        for (lvl, slot) in self.levels.iter_mut().zip(claimed) {
            if let Some(slot) = *slot {
                let g = lvl.group(core);
                lvl.mshr[g][slot] = ready_at;
            }
        }
    }

    /// Initialize a freshly inserted entry per the level's coherence
    /// role.
    fn init_fill(
        &mut self,
        li: usize,
        g: usize,
        idx: usize,
        core: usize,
        write: bool,
        is_instr: bool,
    ) {
        let kind = self.levels[li].kind;
        let en = self.levels[li].caches[g].entry_mut(idx);
        match kind {
            LevelKind::Private => {
                en.dirty = write;
            }
            LevelKind::Island | LevelKind::Shared => {
                en.sharers = if is_instr { 0 } else { 1 << core };
                en.dirty_in_l1 = write;
                en.owner = if write { core as u8 } else { NO_OWNER };
            }
        }
    }

    /// Serve a probe hit at level `li`.
    #[allow(
        clippy::too_many_arguments,
        reason = "per-access hot path: the probe's coordinates are passed unpacked, not through a struct built per access"
    )]
    fn serve_hit(
        &mut self,
        li: usize,
        g: usize,
        idx: usize,
        core: usize,
        line: u64,
        write: bool,
        is_instr: bool,
        t: u64,
    ) -> Access {
        match self.levels[li].kind {
            LevelKind::Private => {
                self.serve_hit_private(li, g, idx, core, line, write, is_instr, t)
            }
            LevelKind::Island | LevelKind::Shared => {
                self.serve_hit_directory(li, g, idx, core, line, write, is_instr, t)
            }
        }
    }

    /// Hit in a private instance (the legacy SMP node path).
    #[allow(
        clippy::too_many_arguments,
        reason = "per-access hot path: the probe's coordinates are passed unpacked, not through a struct built per access"
    )]
    fn serve_hit_private(
        &mut self,
        li: usize,
        g: usize,
        idx: usize,
        core: usize,
        line: u64,
        write: bool,
        is_instr: bool,
        t: u64,
    ) -> Access {
        if li == 0 {
            if is_instr {
                self.counters.l2_hits_instr += 1;
            } else {
                self.counters.l2_hits += 1;
            }
        }
        if write {
            let outer_charge = self.claim_outward(core, line, li + 1);
            self.levels[li].caches[g].entry_mut(idx).dirty = true;
            if let Some(acc) = self.cross_realm_write(core, line, t) {
                return acc;
            }
            if let Some(lo) = outer_charge {
                return Access {
                    ready_at: t + self.levels[lo].latency,
                    class: MemClass::L2Hit,
                };
            }
        } else if li + 1 < self.levels.len() {
            self.register_sharer_outward(core, line, li + 1, is_instr);
        }
        Access {
            ready_at: t + self.levels[li].latency,
            class: MemClass::L2Hit,
        }
    }

    /// The write-side realm crossing shared by every ownership-claiming
    /// path (private hit, directory hit, upgrade): if the chip has no
    /// shared root and another node caches the line, invalidate those
    /// copies over the snoop bus and charge the coherence latency.
    fn cross_realm_write(&mut self, core: usize, line: u64, t: u64) -> Option<Access> {
        if self.single_realm || !self.foreign_copies_exist(core, line) {
            return None;
        }
        self.scrub_foreign_nodes(core, line, true);
        self.counters.coherence_transfers += 1;
        Some(Access {
            ready_at: t + self.p.coherence_latency,
            class: MemClass::Coherence,
        })
    }

    /// Hit in a shared/island instance: directory maintenance over the
    /// member cores' L1s (the legacy shared-L2 path, scoped to members).
    #[allow(
        clippy::too_many_arguments,
        reason = "per-access hot path: the probe's coordinates are passed unpacked, not through a struct built per access"
    )]
    fn serve_hit_directory(
        &mut self,
        li: usize,
        g: usize,
        idx: usize,
        core: usize,
        line: u64,
        write: bool,
        is_instr: bool,
        t: u64,
    ) -> Access {
        let e = *self.levels[li].caches[g].entry(idx);
        let peer_dirty = e.dirty_in_l1 && e.owner as usize != core && e.owner != NO_OWNER;
        // The owner must stay in the invalidation mask even after its
        // sharer bit is dropped below: its *inner-level* copies (island /
        // private L2s between the L1 and this directory) have to go too.
        let mut owner_bit: u16 = 0;
        if peer_dirty {
            let owner = e.owner as usize;
            if write {
                self.cores.l1d[owner].invalidate(line);
                owner_bit = 1 << owner;
            } else {
                if let Some(j) = self.cores.l1d[owner].peek(line) {
                    self.cores.l1d[owner].entry_mut(j).dirty = false;
                }
                // The owner's inner directories also believed the L1 copy
                // was dirty; downgrade them so later intra-island reads
                // don't charge phantom L1-to-L1 transfers.
                self.downgrade_inner_owner(core, owner, line, li);
            }
            let en = self.levels[li].caches[g].entry_mut(idx);
            en.dirty = true; // data now (also) current at this level
            if write {
                en.sharers &= !(1u16 << owner);
            }
        }
        let mut invalidated: u16 = 0;
        {
            let en = self.levels[li].caches[g].entry_mut(idx);
            if write {
                let others = en.sharers & !(1u16 << core);
                en.sharers = 1 << core;
                en.dirty_in_l1 = true;
                en.owner = core as u8;
                invalidated = others | owner_bit;
            } else {
                if !is_instr {
                    en.sharers |= 1 << core;
                }
                if peer_dirty {
                    en.dirty_in_l1 = false;
                    en.owner = NO_OWNER;
                }
            }
        }
        if write {
            for n in self.levels[li].members(g) {
                if n != core && (invalidated >> n) & 1 == 1 {
                    self.cores.l1d[n].invalidate(line);
                }
            }
            if li > 0 {
                self.purge_inner_copies(core, line, li, invalidated);
            }
        }
        // Beyond this instance: claim ownership (write) or register the
        // sharer (read) at the outer levels, and cross the realm if the
        // chip has no shared root.
        let mut outer_charge = None;
        if write {
            outer_charge = self.claim_outward(core, line, li + 1);
            if let Some(acc) = self.cross_realm_write(core, line, t) {
                return acc;
            }
        } else if li + 1 < self.levels.len() {
            self.register_sharer_outward(core, line, li + 1, is_instr);
        }
        let ready_at = if peer_dirty {
            self.counters.l1_to_l1 += 1;
            t + self.p.l1_to_l1
        } else {
            if li == 0 {
                if is_instr {
                    self.counters.l2_hits_instr += 1;
                } else {
                    self.counters.l2_hits += 1;
                }
            }
            // A write that invalidated copies tracked at an outer level
            // pays that directory's consult instead of the local hit.
            let lat = outer_charge
                .map(|lo| self.levels[lo].latency)
                .unwrap_or(self.levels[li].latency);
            t + lat
        };
        Access {
            ready_at,
            class: MemClass::L2Hit,
        }
    }

    /// All on-chip levels missed: snoop the other nodes (if the chip has
    /// no shared root) or go straight to memory.
    fn serve_offchip(
        &mut self,
        core: usize,
        line: u64,
        write: bool,
        is_instr: bool,
        t: u64,
    ) -> Access {
        if !self.single_realm {
            let node = self.node(core);
            let mut remote_dirty = false;
            for li in 0..self.levels.len() {
                for g in 0..self.levels[li].caches.len() {
                    if self.node_of_group(li, g) == node {
                        continue;
                    }
                    if let Some(i) = self.levels[li].caches[g].peek(line) {
                        let e = self.levels[li].caches[g].entry(i);
                        if e.dirty || e.dirty_in_l1 {
                            remote_dirty = true;
                        }
                    }
                }
            }
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
            // Downgrade (read) or invalidate (write) the remote copies.
            self.scrub_foreign_nodes(core, line, write);
            Access {
                ready_at: t + lat,
                class,
            }
        } else {
            if is_instr {
                self.counters.mem_accesses_instr += 1;
            } else {
                self.counters.mem_accesses += 1;
            }
            Access {
                ready_at: t + self.p.mem_latency,
                class: MemClass::Mem,
            }
        }
    }

    /// Write-ownership walk from level `from` outward: at every
    /// directory level holding the line, invalidate the other member
    /// cores' copies and record this core as owner; at private levels on
    /// the path, mirror the dirtiness. Returns the outermost level where
    /// foreign copies had to be invalidated (the directory whose consult
    /// the write pays), if any.
    fn claim_outward(&mut self, core: usize, line: u64, from: usize) -> Option<usize> {
        let mut charge = None;
        for li in from..self.levels.len() {
            let g = self.levels[li].group(core);
            match self.levels[li].kind {
                LevelKind::Private => {
                    if let Some(i) = self.levels[li].caches[g].peek(line) {
                        self.levels[li].caches[g].entry_mut(i).dirty = true;
                    }
                }
                LevelKind::Island | LevelKind::Shared => {
                    let Some(idx) = self.levels[li].caches[g].peek(line) else {
                        continue;
                    };
                    let others;
                    {
                        let en = self.levels[li].caches[g].entry_mut(idx);
                        others = en.sharers & !(1u16 << core);
                        en.sharers = 1 << core;
                        en.dirty_in_l1 = true;
                        en.owner = core as u8;
                    }
                    if others != 0 {
                        for n in self.levels[li].members(g) {
                            if n != core && (others >> n) & 1 == 1 {
                                self.cores.l1d[n].invalidate(line);
                            }
                        }
                        if li > 0 {
                            self.purge_inner_copies(core, line, li, others);
                        }
                        charge = Some(li);
                    }
                }
            }
        }
        charge
    }

    /// Register `core` as a (clean) sharer at the outer directory levels
    /// so chip-level invalidations and back-invalidations can find its
    /// copy.
    fn register_sharer_outward(&mut self, core: usize, line: u64, from: usize, is_instr: bool) {
        if is_instr {
            return;
        }
        for li in from..self.levels.len() {
            if self.levels[li].kind == LevelKind::Private {
                continue;
            }
            let g = self.levels[li].group(core);
            if let Some(i) = self.levels[li].caches[g].peek(line) {
                self.levels[li].caches[g].entry_mut(i).sharers |= 1 << core;
            }
        }
    }

    /// A read served a line another core held dirty: the owner's L1 copy
    /// was downgraded, so every inner-level directory on the *owner's*
    /// path (below `li`, off this core's own path) that still records
    /// the L1 copy as dirty must be downgraded too — it keeps the data
    /// (now marked dirty at its level) but no longer points at an L1
    /// owner.
    fn downgrade_inner_owner(&mut self, core: usize, owner: usize, line: u64, li: usize) {
        for lj in 0..li {
            let go = self.levels[lj].group(owner);
            if go == self.levels[lj].group(core) {
                continue; // this core's own path instance was probed already
            }
            if let Some(i) = self.levels[lj].caches[go].peek(line) {
                let en = self.levels[lj].caches[go].entry_mut(i);
                if en.dirty_in_l1 && en.owner as usize == owner {
                    en.dirty_in_l1 = false;
                    en.owner = NO_OWNER;
                    en.dirty = true;
                }
            }
        }
    }

    /// Purge `line` from the inner-level instances (below `li`) of every
    /// core in `mask` that does not share those instances with `core`.
    fn purge_inner_copies(&mut self, core: usize, line: u64, li: usize, mask: u16) {
        for n in 0..self.cores.l1d.len() {
            if n == core || (mask >> n) & 1 == 0 {
                continue;
            }
            for lj in 0..li {
                let gn = self.levels[lj].group(n);
                if gn != self.levels[lj].group(core) {
                    self.levels[lj].caches[gn].invalidate(line);
                }
            }
        }
    }

    /// Any copy of `line` cached outside `core`'s node?
    fn foreign_copies_exist(&self, core: usize, line: u64) -> bool {
        let node = self.node(core);
        for li in 0..self.levels.len() {
            for g in 0..self.levels[li].caches.len() {
                if self.node_of_group(li, g) != node
                    && self.levels[li].caches[g].peek(line).is_some()
                {
                    return true;
                }
            }
        }
        false
    }

    /// Invalidate (write) or downgrade (read) every copy of `line` held
    /// by other nodes — caches at all levels plus their cores' L1s.
    fn scrub_foreign_nodes(&mut self, core: usize, line: u64, write: bool) {
        let node = self.node(core);
        for li in 0..self.levels.len() {
            for g in 0..self.levels[li].caches.len() {
                if self.node_of_group(li, g) == node {
                    continue;
                }
                if write {
                    self.levels[li].caches[g].invalidate(line);
                } else if let Some(i) = self.levels[li].caches[g].peek(line) {
                    let owner = {
                        let en = self.levels[li].caches[g].entry_mut(i);
                        let owner =
                            (en.dirty_in_l1 && en.owner != NO_OWNER).then_some(en.owner as usize);
                        en.dirty = false;
                        en.dirty_in_l1 = false;
                        en.owner = NO_OWNER;
                        owner
                    };
                    if let Some(o) = owner {
                        if let Some(j) = self.cores.l1d[o].peek(line) {
                            self.cores.l1d[o].entry_mut(j).dirty = false;
                        }
                    }
                }
            }
        }
        for n in 0..self.cores.l1d.len() {
            if self.node(n) == node {
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
    /// copies via the directories (on chip) or the snoop bus (across
    /// nodes). Replaces the `shared_upgrade`/`private_upgrade` pair.
    fn upgrade(&mut self, core: usize, line: u64, now: u64) -> Access {
        let charge = self.claim_outward(core, line, 0);
        if let Some(acc) = self.cross_realm_write(core, line, now) {
            return acc;
        }
        match charge {
            // Not tracked anywhere / sole sharer: silent upgrade.
            None => Access {
                ready_at: now,
                class: MemClass::L1,
            },
            Some(li) => {
                if li == 0 {
                    self.counters.l2_hits += 1;
                }
                self.counters.per_level[li].hits_data += 1;
                self.counters.per_level[li].service_cycles += self.levels[li].latency;
                Access {
                    ready_at: now + self.levels[li].latency,
                    class: MemClass::L2Hit,
                }
            }
        }
    }

    // ---------------------------------------------------- fills + evicts

    fn fill_l1i(&mut self, core: usize, line: u64) {
        let (_, evicted) = self.cores.l1i[core].insert(line);
        if let Some(ev) = evicted {
            self.drop_sharer(core, ev.line);
        }
    }

    /// Remove `core` from the line's sharer sets after an L1 eviction.
    fn drop_sharer(&mut self, core: usize, line: u64) {
        for li in 0..self.levels.len() {
            if self.levels[li].kind == LevelKind::Private {
                continue;
            }
            let g = self.levels[li].group(core);
            if let Some(idx) = self.levels[li].caches[g].peek(line) {
                self.levels[li].caches[g].entry_mut(idx).sharers &= !(1u16 << core);
            }
        }
    }

    /// An L1 evicted a dirty line: fold dirtiness back into the first
    /// level holding it, and clear the now-stale L1-ownership record at
    /// *every* directory level on the path — an outer L3 that kept
    /// pointing at the evicted L1 copy would charge phantom L1-to-L1
    /// transfers to later readers.
    fn writeback_from_l1(&mut self, core: usize, line: u64) {
        let mut folded = false;
        for li in 0..self.levels.len() {
            let g = self.levels[li].group(core);
            let Some(idx) = self.levels[li].caches[g].peek(line) else {
                continue;
            };
            let kind = self.levels[li].kind;
            let en = self.levels[li].caches[g].entry_mut(idx);
            match kind {
                LevelKind::Private => {
                    if !folded {
                        en.dirty = true;
                    }
                }
                LevelKind::Island | LevelKind::Shared => {
                    if en.dirty_in_l1 && en.owner as usize == core {
                        en.dirty_in_l1 = false;
                        en.owner = NO_OWNER;
                        en.dirty = true;
                    }
                }
            }
            folded = true;
        }
    }

    /// Inclusion maintenance after an eviction at level `li` instance
    /// `g`: purge the line from the covered inner caches and L1s, and
    /// fold surviving dirtiness into the next level out.
    fn handle_eviction(&mut self, li: usize, g: usize, origin: usize, ev: Evicted, prefetch: bool) {
        self.counters.per_level[li].evictions += 1;
        let mut dirtyish = ev.dirty || ev.dirty_in_l1;
        match (self.levels[li].kind, prefetch) {
            (LevelKind::Private, false) => {
                // Legacy demand path: the owning core's L1s only.
                if self.cores.l1d[origin].invalidate(ev.line) == Some(true) {
                    dirtyish = true;
                }
                self.cores.l1i[origin].invalidate(ev.line);
            }
            (LevelKind::Private, true) => {
                // Legacy prefetch path: the owning core's L1D, and the
                // instruction line purged opportunistically everywhere.
                if self.cores.l1d[origin].invalidate(ev.line) == Some(true) {
                    dirtyish = true;
                }
                for n in 0..self.cores.l1i.len() {
                    self.cores.l1i[n].invalidate(ev.line);
                }
            }
            (LevelKind::Island | LevelKind::Shared, _) => {
                for n in self.levels[li].members(g) {
                    if (ev.sharers >> n) & 1 == 1
                        && self.cores.l1d[n].invalidate(ev.line) == Some(true)
                    {
                        dirtyish = true;
                    }
                    // Instruction lines are not sharer-tracked; purge
                    // opportunistically.
                    self.cores.l1i[n].invalidate(ev.line);
                }
            }
        }
        // Purge the covered inner-level instances (multi-level only).
        for lj in 0..li {
            let per_inner = self.levels[li].cluster / self.levels[lj].cluster;
            let start = g * per_inner;
            for gj in start..start + per_inner {
                if self.levels[lj].caches[gj].invalidate(ev.line) == Some(true) {
                    dirtyish = true;
                }
            }
        }
        // Write the line back into the next level out (if any): the data
        // leaves this level but the chip may still hold it.
        if li + 1 < self.levels.len() {
            let go = (g * self.levels[li].cluster) / self.levels[li + 1].cluster;
            if let Some(idx) = self.levels[li + 1].caches[go].peek(ev.line) {
                let members = self.levels[li].members(g);
                let en = self.levels[li + 1].caches[go].entry_mut(idx);
                if dirtyish {
                    en.dirty = true;
                }
                if en.dirty_in_l1 && members.contains(&(en.owner as usize)) {
                    // The owner's L1 copy was just purged with the rest.
                    en.dirty_in_l1 = false;
                    en.owner = NO_OWNER;
                    en.dirty = true;
                }
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
        let mut t = now;
        let mut ready = None;
        for li in 0..self.levels.len() {
            let g = self.levels[li].group(core);
            // Prefetches ride the bank/bus port at every kind of level
            // (for private levels that is the chip-wide snoop port).
            t = self.claim_bank(li, g, line, t);
            if self.levels[li].caches[g].probe(line).is_some() {
                ready = Some(t + self.levels[li].latency);
                break;
            }
            let (_, ev) = self.levels[li].caches[g].insert(line);
            if let Some(ev) = ev {
                self.handle_eviction(li, g, core, ev, true);
            }
            t += self.levels[li].latency;
        }
        let ready = ready.unwrap_or(t + self.p.mem_latency);
        self.cores.streams[core].put(line, ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheGeom, CacheTopology, MachineConfig};

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
        cfg.topology.levels[0].banks = 1;
        cfg.topology.levels[0].bank_occupancy = 8;
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

    // ------------------------------------------------ topology walkers

    fn island_cfg(n_cores: usize, per_island: usize, l2_size: u64) -> MachineConfig {
        let mut cfg = MachineConfig::fat_cmp(n_cores, l2_size, 10);
        cfg.topology = CacheTopology::islands(per_island, CacheGeom::new(l2_size, 16, 10));
        cfg.stream_buf = 0;
        cfg.validate().expect("island config validates");
        cfg
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

    /// The shared two-level fixture: 4 cores in 2 islands with 1 MB L2s
    /// behind an 8 MB chip-shared L3.
    fn islands_l3_cfg() -> MachineConfig {
        let mut cfg = MachineConfig::fat_cmp(4, 1 << 20, 10);
        cfg.topology = CacheTopology::islands(2, CacheGeom::new(1 << 20, 16, 10))
            .with_l3(CacheGeom::new(8 << 20, 16, 24));
        cfg.stream_buf = 0;
        cfg.validate().expect("valid 2-level topology");
        cfg
    }

    #[test]
    fn shared_l3_keeps_cross_island_traffic_on_chip() {
        let mut m = MemSys::new(&islands_l3_cfg());
        let a = m.data_access(0, 100, false, 0);
        assert_eq!(a.class, MemClass::Mem);
        // The other island misses its own L2 but hits the shared L3.
        let b = m.data_access(2, 100, false, 10_000);
        assert_eq!(b.class, MemClass::L2Hit, "L3 hit is on-chip");
        assert_eq!(m.counters.per_level[1].hits_data, 1);
        assert_eq!(m.counters.per_level[0].misses_data, 2);
        assert_eq!(m.counters.coherence_transfers, 0, "single realm: no bus");
    }

    #[test]
    fn l3_write_invalidates_other_islands_through_directory() {
        let mut m = MemSys::new(&islands_l3_cfg());
        m.data_access(0, 100, false, 0); // island 0 reads
        m.data_access(2, 100, false, 1000); // island 1 reads (L3 hit)
        m.data_access(0, 100, true, 2000); // island 0 writes: L3 directory
        let a = m.data_access(2, 100, false, 3000);
        assert_eq!(
            a.class,
            MemClass::L2Hit,
            "island 1's copies must have been invalidated (refetched on chip)"
        );
    }

    /// Write hit at the L3 with a dirty peer owner must also purge the
    /// owner's *island L2* copy — otherwise the owner's island keeps
    /// serving a stale line as a local hit.
    #[test]
    fn l3_write_purges_dirty_owners_island_copy() {
        let mut m = MemSys::new(&islands_l3_cfg());
        m.data_access(2, 100, true, 0); // island 1 owns the line dirty
        m.data_access(0, 100, true, 1000); // island 0 writes via the L3
        let a = m.data_access(2, 100, false, 2000);
        assert_eq!(a.class, MemClass::L2Hit);
        assert_eq!(
            m.counters.per_level[1].hits_data, 2,
            "core 2 must refetch through the L3 directory, not hit a \
             stale island-L2 copy"
        );
    }

    /// A dirty L1 eviction must clear the ownership record at *every*
    /// directory level — a stale L3 owner would charge later readers a
    /// phantom L1-to-L1 transfer.
    #[test]
    fn dirty_l1_eviction_clears_outer_directory_owner() {
        let mut cfg = islands_l3_cfg();
        // Two-line L1D so a conflicting fill evicts the dirty line.
        cfg.l1d = CacheGeom::new(128, 1, 1);
        let mut m = MemSys::new(&cfg);
        m.data_access(0, 100, true, 0); // dirty in core 0's L1
        m.data_access(0, 102, false, 500); // same L1 set: evicts line 100
        let before = m.counters.l1_to_l1;
        let a = m.data_access(2, 100, false, 1000); // other island reads
        assert_eq!(a.class, MemClass::L2Hit);
        assert_eq!(
            m.counters.l1_to_l1, before,
            "no L1 copy exists any more; the read must be a plain hit"
        );
    }

    /// A cross-island read of a dirty line downgrades the owner's island
    /// directory too: a later read *within* the owner's island must not
    /// charge another L1-to-L1 transfer for an already-clean copy.
    #[test]
    fn cross_island_read_downgrades_owners_island_directory() {
        let mut m = MemSys::new(&islands_l3_cfg());
        m.data_access(2, 100, true, 0); // island 1, core 2 owns dirty
        m.data_access(0, 100, false, 1000); // island 0 reads via L3
        let before = m.counters.l1_to_l1;
        let a = m.data_access(3, 100, false, 2000); // island-1 sibling
        assert_eq!(a.class, MemClass::L2Hit);
        assert_eq!(
            m.counters.l1_to_l1, before,
            "core 2's copy is already clean; no transfer can happen"
        );
    }

    #[test]
    fn mshr_cap_delays_correlated_misses() {
        let mut cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        cfg.topology.levels[0].mshrs = 1;
        let mut m = MemSys::new(&cfg);
        // Lines 100 and 201 map to different banks (4-bank interleave),
        // so only the MSHR cap can serialize them.
        let a = m.data_access(0, 100, false, 0);
        let b = m.data_access(0, 201, false, 0);
        assert!(
            b.ready_at > a.ready_at,
            "second miss must wait for the single MSHR"
        );
        assert_eq!(m.counters.per_level[0].mshr_waits, 1);
        // An uncapped system overlaps both at the same cycle.
        let mut free = MemSys::new(&{
            let mut c = MachineConfig::fat_cmp(1, 1 << 20, 10);
            c.stream_buf = 0;
            c
        });
        let fa = free.data_access(0, 100, false, 0);
        let fb = free.data_access(0, 201, false, 0);
        assert_eq!(fa.ready_at, fb.ready_at);
    }
}
