//! Instruction code regions.
//!
//! A *code region* stands in for a body of DBMS code (the lock manager, the
//! B+Tree search routine, the scan inner loop, …). Each region has a byte
//! `footprint`; when a thread executes `Exec { region, instrs }` the
//! simulator walks that thread's private cursor through the region's
//! address range, wrapping at the end, fetching one 4-byte instruction per
//! retired instruction.
//!
//! The effect is that the L1-I working set of a workload is the sum of the
//! footprints of the regions it cycles through — several hundred KB for an
//! OLTP transaction path (≫ typical 64 KB L1-I caches, hence instruction
//! misses), and a few tens of KB for DSS scan loops (which fit).
//!
//! Regions also carry a branch-misprediction rate (mispredictions per 1000
//! instructions); the core models charge a pipeline-depth penalty per
//! misprediction into the "other stalls" bucket, mirroring the small
//! non-memory stall component of the paper's breakdowns.

/// Dense region identifier (max 1024 regions; fits the event encoding).
pub type RegionId = u16;

/// Instructions are fixed 4 bytes (UltraSPARC-style ISA, as in the paper's
/// simulated machines).
pub const INSTR_BYTES: u64 = 4;

/// Base of the instruction address space: bit 47 set, so I-addresses and
/// D-addresses never collide (data is capped at 2^46).
pub(crate) const CODE_BASE: u64 = 1 << 47;

/// One named region of simulated code.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeRegion {
    /// Dense registry index.
    pub id: RegionId,
    /// Subsystem name ("lock-manager", "exec-scan", …).
    pub(crate) name: &'static str,
    /// Base address in the instruction address space (page aligned).
    pub base: u64,
    /// Footprint in bytes (rounded up to a cache line).
    pub footprint: u64,
    /// Branch mispredictions per 1000 instructions executed in this region.
    pub(crate) mispred_per_kinstr: f64,
    /// `mispred_per_kinstr / 1000.0`, computed once here so the replay
    /// loop adds it per instruction instead of dividing per instruction.
    pub mispred_per_instr: f64,
}

/// Registry of code regions for one captured system. Region IDs are dense
/// indices into the registry, in creation order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodeRegions {
    regions: Vec<CodeRegion>,
}

impl CodeRegions {
    /// An empty registry.
    pub fn new() -> Self {
        CodeRegions {
            regions: Vec::new(),
        }
    }

    /// Register a region with the given byte `footprint` and misprediction
    /// rate. Footprints are rounded up to a whole cache line. Panics when
    /// the 10-bit region id space is exhausted.
    pub fn add(&mut self, name: &'static str, footprint: u64, mispred_per_kinstr: f64) -> RegionId {
        assert!(self.regions.len() < 1024, "region id space exhausted");
        let id = self.regions.len() as RegionId;
        let footprint = footprint.max(64).div_ceil(64) * 64;
        // Regions are placed on 4 KB boundaries with a guard page between
        // them so that prefetching past the end of one region never pulls
        // another region's lines.
        let base = match self.regions.last() {
            Some(prev) => (prev.base + prev.footprint + 8192).div_ceil(4096) * 4096,
            None => CODE_BASE,
        };
        self.regions.push(CodeRegion {
            id,
            name,
            base,
            footprint,
            mispred_per_kinstr,
            mispred_per_instr: mispred_per_kinstr / 1000.0,
        });
        id
    }

    /// Look up a region by id (panics on an unknown id — region ids come
    /// from this registry).
    #[inline]
    pub fn get(&self, id: RegionId) -> &CodeRegion {
        &self.regions[id as usize]
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Iterate over the registered regions in id order.
    pub fn iter(&self) -> impl Iterator<Item = &CodeRegion> {
        self.regions.iter()
    }

    /// Total instruction footprint over a set of regions — the L1-I working
    /// set of a workload that cycles through all of them.
    pub fn footprint_of(&self, ids: &[RegionId]) -> u64 {
        ids.iter().map(|&id| self.get(id).footprint).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_aligned() {
        let mut r = CodeRegions::new();
        let a = r.add("a", 1000, 2.0);
        let b = r.add("b", 64 * 1024, 5.0);
        let c = r.add("c", 1, 0.5);
        let (ra, rb, rc) = (r.get(a), r.get(b), r.get(c));
        assert_eq!(ra.base % 4096, 0);
        assert_eq!(rb.base % 4096, 0);
        assert!(ra.base + ra.footprint < rb.base, "guard gap required");
        assert!(rb.base + rb.footprint < rc.base);
        assert_eq!(ra.footprint, 1024); // rounded to lines
        assert_eq!(rc.footprint, 64); // minimum one line
        assert!(ra.base >= CODE_BASE);
    }

    #[test]
    fn footprint_sums() {
        let mut r = CodeRegions::new();
        let a = r.add("a", 4096, 1.0);
        let b = r.add("b", 8192, 1.0);
        assert_eq!(r.footprint_of(&[a, b]), 12288);
    }

    #[test]
    fn ids_are_dense() {
        let mut r = CodeRegions::new();
        for i in 0..10 {
            let id = r.add("x", 64, 0.0);
            assert_eq!(id as usize, i);
        }
        assert_eq!(r.len(), 10);
    }
}
