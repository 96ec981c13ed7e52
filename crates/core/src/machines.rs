//! Machine presets for the paper's experiments, with L2 latencies from
//! the CACTI model (or pinned, for the fixed-latency sweeps of
//! Fig. 6). The island preset walks the continuum between the paper's
//! two fixed shapes: [`island_cmp`] re-partitions one total L2 capacity
//! from chip-shared to fully private.

use dbcmp_cacti::l2_latency_cycles;
use dbcmp_sim::{CacheGeom, CoreKind, LevelSpec, MachineConfig, SharedBy};

use crate::taxonomy::Camp;

/// How to derive the L2 hit latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Spec {
    /// Realistic latency from the CACTI model for the given size.
    Cacti,
    /// Pinned latency in cycles (the paper's "unrealistically fast"
    /// 4-cycle experiments).
    Fixed(u64),
}

impl L2Spec {
    pub(crate) fn latency(self, size: u64) -> u64 {
        match self {
            L2Spec::Cacti => l2_latency_cycles(size),
            L2Spec::Fixed(cyc) => cyc,
        }
    }
}

/// Fat-camp CMP preset.
pub fn fc_cmp(n_cores: usize, l2_size: u64, l2: L2Spec) -> MachineConfig {
    MachineConfig::fat_cmp(n_cores, l2_size, l2.latency(l2_size))
}

/// Lean-camp CMP preset.
pub fn lc_cmp(n_cores: usize, l2_size: u64, l2: L2Spec) -> MachineConfig {
    MachineConfig::lean_cmp(n_cores, l2_size, l2.latency(l2_size))
}

/// The §5.2 SMP baseline: one core per node, private L2s.
pub fn smp_baseline(n_nodes: usize, l2_per_node: u64, camp: Camp) -> MachineConfig {
    let core = match camp {
        Camp::Fat => CoreKind::fat(),
        Camp::Lean => CoreKind::lean(),
    };
    MachineConfig::smp(n_nodes, l2_per_node, l2_latency_cycles(l2_per_node), core)
}

/// Camp-selecting preset.
pub fn cmp_for(camp: Camp, n_cores: usize, l2_size: u64, l2: L2Spec) -> MachineConfig {
    match camp {
        Camp::Fat => fc_cmp(n_cores, l2_size, l2),
        Camp::Lean => lc_cmp(n_cores, l2_size, l2),
    }
}

/// Asymmetric CMP preset: `fat_slots` fat cores followed by `lean_slots`
/// lean cores sharing one L2 — the heterogeneous design point of Porobic
/// et al.'s hardware islands and the wimpy/brawny trade-off (PAPERS.md).
/// Slot count stands in for area (one slot = one core footprint); the L2
/// stays fixed across the `fig_asym` ratio sweep so only the core mix
/// moves. Pure-camp calls reduce exactly to [`fc_cmp`]/[`lc_cmp`]
/// (store-buffer depth follows the lean preset when no fat slot is
/// present; mixed machines keep the fat-camp depth for every context).
pub fn asym_cmp(fat_slots: usize, lean_slots: usize, l2_size: u64, l2: L2Spec) -> MachineConfig {
    let n = fat_slots + lean_slots;
    let mut c = fc_cmp(n, l2_size, l2);
    c.name = format!(
        "ASYM {fat_slots}F+{lean_slots}L (L2 {} MB, {} cyc)",
        l2_size >> 20,
        l2.latency(l2_size)
    );
    let mut slots = vec![CoreKind::fat(); fat_slots];
    slots.extend(std::iter::repeat_n(CoreKind::lean(), lean_slots));
    c.slots = slots;
    if fat_slots == 0 {
        // Match the lean-camp preset exactly at the pure-lean endpoint.
        c.store_buffer = 4;
    }
    c
}

/// Hardware-islands preset: `clusters` islands of `cores_per_cluster`
/// fat cores, the **fixed** `total_l2` capacity split evenly across the
/// islands, per-island latency from the CACTI model for the island's
/// share. The pure endpoints reduce numerically to the Fig. 7 presets:
/// one cluster of all cores is [`fc_cmp`] (chip-shared L2), and
/// one-core islands are [`smp_baseline`] (private L2s, off-chip
/// snooping). In between, islands keep their internal traffic on chip
/// and snoop each other off chip — the continuum of "OLTP on Hardware
/// Islands" (PAPERS.md). The chip's four L2 bank ports are split across
/// the islands (each island keeps at least one).
pub fn island_cmp(
    clusters: usize,
    cores_per_cluster: usize,
    total_l2: u64,
    l2: L2Spec,
) -> MachineConfig {
    let clusters = clusters.max(1);
    let n = clusters * cores_per_cluster;
    let per_island = total_l2 / clusters as u64;
    let lat = l2.latency(per_island);
    let mut c = MachineConfig::fat_cmp(n, per_island, lat);
    c.l2 = LevelSpec::new(
        CacheGeom::new(per_island, 16, lat),
        SharedBy::Cluster(cores_per_cluster),
    );
    c.l2.banks = (4 / clusters).max(1);
    c.name = format!(
        "ISLAND {clusters}x{cores_per_cluster} (L2 {} MB/island, {} cyc)",
        per_island >> 20,
        lat
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cacti_latency_exceeds_fixed_four() {
        let real = fc_cmp(4, 16 << 20, L2Spec::Cacti);
        let fast = fc_cmp(4, 16 << 20, L2Spec::Fixed(4));
        assert!(real.l2.geom.latency > fast.l2.geom.latency);
        assert_eq!(fast.l2.geom.latency, 4);
    }

    #[test]
    fn asym_preset_slots_and_pure_endpoints() {
        let mixed = asym_cmp(3, 1, 16 << 20, L2Spec::Cacti);
        assert_eq!(mixed.n_cores, 4);
        assert_eq!(mixed.slots.len(), 4);
        assert_eq!(mixed.total_contexts(), 3 + 4);
        mixed.validate().expect("asym preset must validate");

        // Pure endpoints equal the camp presets in everything but name.
        let fat = asym_cmp(4, 0, 16 << 20, L2Spec::Cacti);
        let mut fc = fc_cmp(4, 16 << 20, L2Spec::Cacti);
        fc.name = fat.name.clone();
        assert_eq!(fat, fc);
        let lean = asym_cmp(0, 4, 16 << 20, L2Spec::Cacti);
        let mut lc = lc_cmp(4, 16 << 20, L2Spec::Cacti);
        lc.name = lean.name.clone();
        assert_eq!(lean, lc);
    }

    #[test]
    fn camps_share_memory_system() {
        let f = cmp_for(Camp::Fat, 4, 8 << 20, L2Spec::Cacti);
        let l = cmp_for(Camp::Lean, 4, 8 << 20, L2Spec::Cacti);
        assert_eq!(f.l2.geom, l.l2.geom);
        assert_eq!(f.mem_latency, l.mem_latency);
    }

    /// The island preset's pure endpoints carry exactly the Fig. 7
    /// presets' parameters (everything but the name and the — behaviorally
    /// normalized — `SharedBy` spelling).
    #[test]
    fn island_endpoints_parameterize_like_fig7_presets() {
        let total = 16u64 << 20;
        // One island of four cores == the shared-L2 CMP.
        let shared = island_cmp(1, 4, total, L2Spec::Cacti);
        let fc = fc_cmp(4, total, L2Spec::Cacti);
        shared.validate().expect("valid");
        assert_eq!(shared.l2.geom, fc.l2.geom);
        assert_eq!(shared.l2.banks, 4);
        assert_eq!(shared.l1_to_l1, fc.l1_to_l1);
        assert_eq!(
            shared.l2.shared_by,
            SharedBy::Cluster(4),
            "spelled as a 4-core cluster, normalized to chip-shared"
        );
        // Four one-core islands == the SMP baseline at the same total.
        let private = island_cmp(4, 1, total, L2Spec::Cacti);
        let smp = smp_baseline(4, 4 << 20, Camp::Fat);
        private.validate().expect("valid");
        assert_eq!(private.l2.geom, smp.l2.geom);
        assert_eq!(private.l2.banks, 1);
        assert_eq!(private.l1_to_l1, smp.l1_to_l1);
        assert_eq!(private.coherence_latency, smp.coherence_latency);
        // The middle point: per-island capacity between the extremes.
        let mid = island_cmp(2, 2, total, L2Spec::Cacti);
        mid.validate().expect("valid");
        assert_eq!(mid.l2.geom.size, 8 << 20);
        assert_eq!(mid.l2.banks, 2);
    }
}
