//! Machine configuration: cache geometries, core kinds, L2 sharing.
//!
//! Defaults follow the paper's simulated systems (§3): four cores per chip,
//! identical memory subsystems for both camps, a shared on-chip L2 from
//! 1 MB to 26 MB for the CMP arrangement, private 4 MB L2s for the SMP
//! comparison, and UltraSPARC-flavoured core parameters (Table 1).
//!
//! Beyond the L1s sits one on-chip level, the L2 ([`LevelSpec`]): private
//! per core, shared by an *island* of adjacent cores, or shared by the
//! whole chip — the continuum between the paper's two fixed shapes (see
//! "OLTP on Hardware Islands", PAPERS.md).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::interconnect::Interconnect;

/// A machine description that cannot be simulated. Returned by
/// [`MachineConfig::validate`] and `MachineBuilder::build` so degenerate
/// configs fail at build time instead of panicking (division by zero in
/// the round-robin picker) or silently misbehaving (0-core machines that
/// "run" and report zeros) deep in the cycle loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The machine has no core slots at all.
    NoCores,
    /// `slots` disagrees with `n_cores`.
    SlotCountMismatch { slots: usize, n_cores: usize },
    /// A lean slot with zero hardware contexts can never issue.
    NoContexts { slot: usize },
    /// A slot with issue width 0 can never retire.
    ZeroWidth { slot: usize },
    /// A fat slot with an empty reorder-buffer window.
    ZeroWindow { slot: usize },
    /// A fat slot with no MSHRs cannot issue a single load.
    ZeroMshrs { slot: usize },
    /// Cache bank count must be a power of two (line-interleaved mapping);
    /// zero banks means no port at all.
    L2BanksNotPowerOfTwo { banks: usize },
    /// A cache smaller than one 64-byte line or with zero ways.
    BadCacheGeom { which: &'static str },
    /// An island L2 whose cluster size is zero or does not divide the core
    /// count (cores would be left without a cache instance).
    ClusterNotDivisible { cluster: usize, n_cores: usize },
    /// An L2 with zero access latency (a free cache breaks the stall
    /// accounting).
    ZeroLevelLatency,
    /// A shared or island L2 on more cores than one directory tracks:
    /// the sharer bitmap has one bit per core of an instance.
    TooManyCores { n_cores: usize },
}

/// Cores one L2 instance's directory can track: one bit each in the
/// `u16` sharer bitmap of [`crate::cache::Entry`]. `validate` bounds a
/// shared or island L2's whole core count by it.
const DIRECTORY_CORES: usize = u16::BITS as usize;

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::NoCores => write!(f, "machine has zero core slots"),
            ConfigError::SlotCountMismatch { slots, n_cores } => write!(
                f,
                "per-slot core list has {slots} entries but n_cores is {n_cores}"
            ),
            ConfigError::NoContexts { slot } => {
                write!(f, "slot {slot}: lean core with zero hardware contexts")
            }
            ConfigError::ZeroWidth { slot } => write!(f, "slot {slot}: issue width is zero"),
            ConfigError::ZeroWindow { slot } => {
                write!(f, "slot {slot}: fat core with an empty reorder buffer")
            }
            ConfigError::ZeroMshrs { slot } => write!(f, "slot {slot}: fat core with zero MSHRs"),
            ConfigError::L2BanksNotPowerOfTwo { banks } => {
                write!(f, "cache banks must be a power of two, got {banks}")
            }
            ConfigError::BadCacheGeom { which } => {
                write!(
                    f,
                    "{which}: cache needs at least one 64-byte line and one way"
                )
            }
            ConfigError::ClusterNotDivisible { cluster, n_cores } => write!(
                f,
                "l2: island size {cluster} does not divide {n_cores} cores"
            ),
            ConfigError::ZeroLevelLatency => write!(f, "l2: zero access latency"),
            ConfigError::TooManyCores { n_cores } => write!(
                f,
                "l2: a shared or island directory tracks at most {DIRECTORY_CORES} cores, got {n_cores}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Geometry + latency of one cache. Lines are fixed at 64 bytes system-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeom {
    pub size: u64,
    pub(crate) assoc: usize,
    /// Access latency in cycles (hit).
    pub latency: u64,
}

impl CacheGeom {
    pub fn new(size: u64, assoc: usize, latency: u64) -> Self {
        CacheGeom {
            size,
            assoc,
            latency,
        }
    }
}

/// Which cores share one instance of the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SharedBy {
    /// One instance per core — a private cache (the SMP node shape).
    Core,
    /// One instance per *island* of this many adjacent cores (the
    /// hardware-islands middle ground). `Cluster(1)` behaves exactly like
    /// [`SharedBy::Core`] and `Cluster(n_cores)` exactly like
    /// [`SharedBy::Chip`].
    Cluster(usize),
    /// One instance shared by every core on the chip (the CMP shape).
    Chip,
}

impl SharedBy {
    /// Cores per instance once the core count is known.
    pub fn cores_per_instance(self, n_cores: usize) -> usize {
        match self {
            SharedBy::Core => 1,
            SharedBy::Cluster(k) => k,
            SharedBy::Chip => n_cores.max(1),
        }
    }
}

/// The one on-chip cache level beyond the L1s — the L2 — and how its
/// instances are shared and banked. Inclusive of the L1s it serves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelSpec {
    pub geom: CacheGeom,
    pub shared_by: SharedBy,
    /// Independently accessed banks per shared/island instance (power of
    /// two, line-interleaved). For a private ([`SharedBy::Core`]) L2 this
    /// instead sizes the chip-wide port that instruction prefetches ride —
    /// demand accesses to a private L2 have a dedicated port and never
    /// queue.
    pub banks: usize,
}

impl LevelSpec {
    /// An L2 with the preset 4 banks.
    pub fn new(geom: CacheGeom, shared_by: SharedBy) -> Self {
        LevelSpec {
            geom,
            shared_by,
            banks: 4,
        }
    }
}

/// Core microarchitecture, per the paper's two camps (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreKind {
    /// Fat camp: wide-issue out-of-order, one or two hardware contexts
    /// (we model one), deep pipeline.
    Fat {
        /// Issue/retire width (paper: 4+).
        width: usize,
        /// Reorder-buffer capacity in instructions.
        rob: usize,
        /// Maximum outstanding data misses (memory-level parallelism cap).
        mshrs: usize,
    },
    /// Lean camp: narrow in-order, many hardware contexts, shallow
    /// pipeline (paper: Sun T1-style, 4 contexts per core).
    Lean {
        /// Issue width (paper: 1 or 2; we use 2).
        width: usize,
        /// Hardware contexts per core.
        contexts: usize,
    },
}

impl CoreKind {
    /// Paper-default fat core: 4-wide, 128-entry window, 8 MSHRs, 14-stage
    /// pipeline.
    pub fn fat() -> Self {
        CoreKind::Fat {
            width: 4,
            rob: 128,
            mshrs: 8,
        }
    }

    /// Paper-default lean core: 2-issue in-order, 4 contexts, 6-stage
    /// pipeline.
    pub fn lean() -> Self {
        CoreKind::Lean {
            width: 2,
            contexts: 4,
        }
    }

    pub(crate) fn contexts(&self) -> usize {
        match *self {
            CoreKind::Fat { .. } => 1,
            CoreKind::Lean { contexts, .. } => contexts,
        }
    }

    /// Pipeline depth — the branch misprediction penalty.
    pub(crate) fn pipeline_depth(&self) -> u64 {
        match self {
            CoreKind::Fat { .. } => 14,
            CoreKind::Lean { .. } => 6,
        }
    }
}

/// Full machine description.
///
/// `slots` lists one [`CoreKind`] per core, in core order (and
/// `n_cores == slots.len()`): the same kind throughout for the paper's
/// camps, a fat/lean mix for the asymmetric CMPs of the `fig_asym`
/// extension. Beyond the L1s sits one [`LevelSpec`], the L2. Start from
/// a preset ([`fat_cmp`](Self::fat_cmp), [`lean_cmp`](Self::lean_cmp),
/// `dbcmp_core::machines`), update fields, and hand the value to
/// `MachineBuilder::from_config`, which validates it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    pub name: String,
    pub n_cores: usize,
    /// The core kind of each slot, in slot order.
    pub slots: Vec<CoreKind>,
    pub l1i: CacheGeom,
    pub l1d: CacheGeom,
    /// The on-chip level beyond the L1s.
    pub l2: LevelSpec,
    /// Off-chip memory access latency, cycles.
    pub mem_latency: u64,
    /// On-chip dirty L1-to-L1 transfer latency (within a shared cache
    /// domain), cycles. The paper counts these as (fast) on-chip
    /// transfers alongside L2 hits.
    pub l1_to_l1: u64,
    /// Off-chip cache-to-cache dirty transfer latency (coherence miss
    /// between nodes), cycles.
    pub coherence_latency: u64,
    /// Instruction stream buffer entries per core (0 disables).
    pub stream_buf: usize,
    /// Store buffer entries per hardware context.
    pub store_buffer: usize,
    /// OS scheduling quantum in cycles (when software threads exceed
    /// hardware contexts).
    pub quantum: u64,
    /// Direct cost of a context switch, cycles.
    pub switch_penalty: u64,
    /// Cost model for `RemoteSend`/`RemoteRecv` trace events — the
    /// interconnect between engine instances of a shared-nothing
    /// deployment. Irrelevant (but harmless) for single-instance traces,
    /// which carry no remote events.
    #[serde(default)]
    pub interconnect: Interconnect,
}

impl MachineConfig {
    /// The paper's fat-camp CMP: `n_cores` 4-wide OoO cores sharing an L2
    /// of `l2_size` bytes with hit latency `l2_latency`.
    pub fn fat_cmp(n_cores: usize, l2_size: u64, l2_latency: u64) -> Self {
        MachineConfig {
            name: format!(
                "FC-CMP {n_cores}x (L2 {} MB, {} cyc)",
                l2_size >> 20,
                l2_latency
            ),
            n_cores,
            slots: vec![CoreKind::fat(); n_cores],
            l1i: CacheGeom::new(64 << 10, 2, 1),
            l1d: CacheGeom::new(64 << 10, 2, 1),
            l2: LevelSpec::new(CacheGeom::new(l2_size, 16, l2_latency), SharedBy::Chip),
            mem_latency: 400,
            l1_to_l1: l2_latency + 6,
            coherence_latency: 260,
            stream_buf: 8,
            store_buffer: 8,
            quantum: 300_000,
            switch_penalty: 3_000,
            interconnect: Interconnect::default(),
        }
    }

    /// The paper's lean-camp CMP: same memory system, lean cores.
    pub fn lean_cmp(n_cores: usize, l2_size: u64, l2_latency: u64) -> Self {
        let mut c = Self::fat_cmp(n_cores, l2_size, l2_latency);
        c.name = format!(
            "LC-CMP {n_cores}x (L2 {} MB, {} cyc)",
            l2_size >> 20,
            l2_latency
        );
        c.slots = vec![CoreKind::lean(); n_cores];
        c.store_buffer = 4;
        c
    }

    /// The paper's SMP baseline (§5.2): one core per node, private L2 per
    /// node, coherence over an off-chip interconnect.
    pub fn smp(n_nodes: usize, l2_size_per_node: u64, l2_latency: u64, core: CoreKind) -> Self {
        let mut c = Self::fat_cmp(n_nodes, l2_size_per_node, l2_latency);
        c.name = format!("SMP {n_nodes}x (private L2 {} MB)", l2_size_per_node >> 20);
        c.slots = vec![core; n_nodes];
        // Each node has its own L2 port; the single chip-wide bank only
        // carries prefetch traffic (see `LevelSpec::banks`).
        c.l2 = LevelSpec::new(
            CacheGeom::new(l2_size_per_node, 16, l2_latency),
            SharedBy::Core,
        );
        c.l2.banks = 1;
        c
    }

    /// Total hardware contexts across the machine.
    pub fn total_contexts(&self) -> usize {
        self.slots.iter().map(|k| k.contexts()).sum()
    }

    /// Check the config for degenerate parameters that would panic or
    /// silently misbehave in the cycle loop.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_cores == 0 {
            return Err(ConfigError::NoCores);
        }
        if self.slots.len() != self.n_cores {
            return Err(ConfigError::SlotCountMismatch {
                slots: self.slots.len(),
                n_cores: self.n_cores,
            });
        }
        for (slot, &kind) in self.slots.iter().enumerate() {
            match kind {
                CoreKind::Fat { width, rob, mshrs } => {
                    if width == 0 {
                        return Err(ConfigError::ZeroWidth { slot });
                    }
                    if rob == 0 {
                        return Err(ConfigError::ZeroWindow { slot });
                    }
                    if mshrs == 0 {
                        return Err(ConfigError::ZeroMshrs { slot });
                    }
                }
                CoreKind::Lean { width, contexts } => {
                    if width == 0 {
                        return Err(ConfigError::ZeroWidth { slot });
                    }
                    if contexts == 0 {
                        return Err(ConfigError::NoContexts { slot });
                    }
                }
            }
        }
        for (which, g) in [("l1i", self.l1i), ("l1d", self.l1d), ("l2", self.l2.geom)] {
            if g.size < 64 || g.assoc == 0 {
                return Err(ConfigError::BadCacheGeom { which });
            }
        }
        if self.l2.geom.latency == 0 {
            return Err(ConfigError::ZeroLevelLatency);
        }
        if !self.l2.banks.is_power_of_two() {
            return Err(ConfigError::L2BanksNotPowerOfTwo {
                banks: self.l2.banks,
            });
        }
        let n_cores = self.n_cores;
        let cluster = self.l2.shared_by.cores_per_instance(n_cores);
        if cluster == 0 || !n_cores.is_multiple_of(cluster) {
            return Err(ConfigError::ClusterNotDivisible { cluster, n_cores });
        }
        if cluster > 1 && n_cores > DIRECTORY_CORES {
            return Err(ConfigError::TooManyCores { n_cores });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_table1() {
        let fc = MachineConfig::fat_cmp(4, 16 << 20, 15);
        let lc = MachineConfig::lean_cmp(4, 16 << 20, 15);
        // FC: 1 context, wide issue; LC: many contexts, narrow issue.
        assert_eq!(fc.total_contexts(), 4);
        assert_eq!(lc.total_contexts(), 16);
        assert_eq!(fc.slots, [CoreKind::fat(); 4]);
        assert_eq!(lc.slots, [CoreKind::lean(); 4]);
        match fc.slots[0] {
            CoreKind::Fat { width, .. } => assert!(width >= 4),
            _ => panic!("fat preset must be fat"),
        }
        match lc.slots[0] {
            CoreKind::Lean { width, contexts } => {
                assert!(width <= 2);
                assert!(contexts >= 4);
            }
            _ => panic!("lean preset must be lean"),
        }
        // Identical memory subsystems (paper §3).
        assert_eq!(fc.l1d, lc.l1d);
        assert_eq!(fc.l2, lc.l2);
        assert_eq!(fc.mem_latency, lc.mem_latency);
        // Pipeline depths: deep vs shallow.
        assert!(fc.slots[0].pipeline_depth() > lc.slots[0].pipeline_depth());
    }

    #[test]
    fn smp_uses_private_l2() {
        // The CMP shape is chip-shared on the default 4-bank pool, the SMP
        // shape pins a single bus port.
        let fc = MachineConfig::fat_cmp(4, 8 << 20, 12);
        assert_eq!(fc.l2.shared_by, SharedBy::Chip);
        assert_eq!(fc.l2.geom, CacheGeom::new(8 << 20, 16, 12));
        assert_eq!(fc.l2.banks, 4);
        let smp = MachineConfig::smp(4, 4 << 20, 10, CoreKind::fat());
        assert_eq!(smp.l2.shared_by, SharedBy::Core);
        assert_eq!(smp.l2.geom.size, 4 << 20);
        assert_eq!(smp.l2.banks, 1);
    }

    #[test]
    fn topology_validation_rejects_degenerate_hierarchies() {
        let g = CacheGeom::new(4 << 20, 16, 10);
        let with_l2 = |l2: LevelSpec| MachineConfig {
            l2,
            ..MachineConfig::fat_cmp(4, 4 << 20, 10)
        };
        let islands = |k| with_l2(LevelSpec::new(g, SharedBy::Cluster(k)));
        for cluster in [3, 0, 8] {
            assert_eq!(
                islands(cluster).validate(),
                Err(ConfigError::ClusterNotDivisible {
                    cluster,
                    n_cores: 4
                })
            );
        }
        assert_eq!(
            with_l2(LevelSpec::new(
                CacheGeom::new(4 << 20, 16, 0),
                SharedBy::Chip
            ))
            .validate(),
            Err(ConfigError::ZeroLevelLatency)
        );
        assert_eq!(
            with_l2(LevelSpec::new(CacheGeom::new(32, 16, 10), SharedBy::Chip)).validate(),
            Err(ConfigError::BadCacheGeom { which: "l2" })
        );
        for k in [1, 2, 4] {
            assert_eq!(islands(k).validate(), Ok(()));
        }
    }

    #[test]
    fn shared_by_normalizes_cluster_extremes() {
        assert_eq!(SharedBy::Core.cores_per_instance(8), 1);
        assert_eq!(SharedBy::Cluster(4).cores_per_instance(8), 4);
        assert_eq!(SharedBy::Chip.cores_per_instance(8), 8);
        assert_eq!(SharedBy::Chip.cores_per_instance(1), 1);
    }
}
