//! The analytic access-time/area model.
//!
//! Structure (a deliberately simplified CACTI):
//!
//! 1. The data array of `size` bytes is split into `nsub` square-ish
//!    subarrays. Within a subarray, delay is RC-limited: a row-decoder tree
//!    (log-depth in rows, FO4-scaled), a wordline RC proportional to the
//!    number of columns, and a bitline RC proportional to the number of
//!    rows.
//! 2. Subarrays hang off a repeated-wire H-tree; its length scales with the
//!    square root of total array area, and its delay with length. For
//!    multi-MB caches this term dominates — the physical reason the paper's
//!    large caches are slow.
//! 3. A fixed overhead covers tag match, way select, sense amps, output
//!    drivers and bus arbitration.
//!
//! The model searches over the number of subarrays (powers of two) and
//! reports the minimum-latency organization, like CACTI's Ndwl/Ndbl search.

/// Technology + calibration parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CactiModel {
    /// Feature size in nanometres (e.g. 65 for the paper era).
    pub(crate) tech_nm: f64,
    /// Core clock in GHz used to convert ns to cycles.
    pub(crate) clock_ghz: f64,
    /// SRAM cell area in F^2 (typical 6T cell ~146 F^2 including overheads).
    pub(crate) cell_area_f2: f64,
    /// Array area overhead factor (decoders, sense amps, wiring).
    pub(crate) area_overhead: f64,
    /// Repeated global wire delay, ps per mm (H-tree).
    pub(crate) wire_ps_per_mm: f64,
    /// Wordline RC per column, ps.
    pub(crate) wordline_ps_per_col: f64,
    /// Bitline RC per row, ps.
    pub(crate) bitline_ps_per_row: f64,
    /// Fixed overhead in FO4 delays (sense, tag compare, mux, drivers).
    pub(crate) fixed_fo4: f64,
    /// Extra pipeline overhead in cycles (arbitration, ECC, queuing-free
    /// bus crossing) — present in real products, absent from raw CACTI.
    pub(crate) pipeline_cycles: u64,
}

impl CactiModel {
    /// The 2006-era technology point used throughout the reproduction:
    /// 65 nm, 3 GHz.
    pub fn paper_era() -> Self {
        CactiModel {
            tech_nm: 65.0,
            clock_ghz: 3.0,
            cell_area_f2: 146.0,
            area_overhead: 1.4,
            wire_ps_per_mm: 310.0,
            wordline_ps_per_col: 0.18,
            bitline_ps_per_row: 0.28,
            fixed_fo4: 10.0,
            pipeline_cycles: 3,
        }
    }

    /// FO4 inverter delay at this node, in ps (≈0.36 ps per nm of feature
    /// size — the standard rule of thumb).
    pub(crate) fn fo4_ps(&self) -> f64 {
        0.36 * self.tech_nm
    }

    /// Evaluate the model for a cache organization, searching subarray
    /// splits for the fastest arrangement.
    pub fn evaluate(&self, org: CacheOrg) -> CactiResult {
        let bits = (org.size_bytes * 8) as f64;
        // Total silicon area from cell area + overhead.
        let f_mm = self.tech_nm * 1e-6; // feature size in mm
        let area_mm2 = bits * self.cell_area_f2 * f_mm * f_mm * self.area_overhead;

        // H-tree: from the cache port at an edge to the average bank and
        // back. Mean one-way distance ~ sqrt(area)/2.
        let htree_mm = area_mm2.sqrt() / 2.0;
        let t_htree = 2.0 * htree_mm * self.wire_ps_per_mm;

        let fo4 = self.fo4_ps();
        // The fastest split into 1, 2, 4, … 4096 subarrays of ≥ 4 Kbit.
        let t_array = (0..=12)
            .map(|k| 1u64 << k)
            .take_while(|&nsub| nsub * 4096 <= org.size_bytes * 8)
            .map(|nsub| {
                let sub_bits = bits / nsub as f64;
                // Square-ish subarray: rows x cols.
                let rows = sub_bits.sqrt().max(2.0);
                let cols = sub_bits / rows;
                let t_dec = fo4 * (2.0 + 0.5 * (nsub as f64).log2() + 0.8 * rows.log2());
                let t_word = cols * self.wordline_ps_per_col;
                let t_bit = rows * self.bitline_ps_per_row;
                t_dec + t_word + t_bit
            })
            .min_by(f64::total_cmp)
            .unwrap_or(fo4 * 4.0);

        let t_fixed = self.fixed_fo4 * fo4;
        let latency_ns = (t_array + t_htree + t_fixed) / 1000.0;
        let raw_cycles = (latency_ns * self.clock_ghz).ceil() as u64;
        let latency_cycles = (raw_cycles + self.pipeline_cycles).max(1);

        CactiResult {
            org,
            latency_ns,
            latency_cycles,
            area_mm2,
        }
    }

    /// Latency curve over a size sweep — the model line of Fig. 1b and the
    /// realistic-latency inputs of Fig. 6.
    pub fn sweep(&self, sizes: &[u64]) -> Vec<CactiResult> {
        sizes
            .iter()
            .map(|&s| self.evaluate(CacheOrg::l2(s)))
            .collect()
    }
}

/// Cache organization input to the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOrg {
    pub size_bytes: u64,
    pub(crate) block_bytes: u32,
    pub(crate) associativity: u32,
}

impl CacheOrg {
    /// Typical shared L2 organization used in the experiments.
    pub fn l2(size_bytes: u64) -> Self {
        CacheOrg {
            size_bytes,
            block_bytes: 64,
            associativity: 16,
        }
    }
}

/// Model output for one organization.
#[derive(Debug, Clone, PartialEq)]
pub struct CactiResult {
    pub org: CacheOrg,
    /// Raw physical access time.
    pub latency_ns: f64,
    /// Access latency in cycles at the model's clock (includes the product
    /// pipeline overhead).
    pub latency_cycles: u64,
    /// Estimated silicon area.
    pub area_mm2: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_scales_linearly_with_size() {
        let m = CactiModel::paper_era();
        let a1 = m.evaluate(CacheOrg::l2(1 << 20)).area_mm2;
        let a4 = m.evaluate(CacheOrg::l2(4 << 20)).area_mm2;
        let ratio = a4 / a1;
        assert!(
            (ratio - 4.0).abs() < 0.01,
            "area should scale ~4x, got {ratio}"
        );
    }

    #[test]
    fn wire_term_dominates_large_caches() {
        let m = CactiModel::paper_era();
        let r26 = m.evaluate(CacheOrg::l2(26 << 20));
        let r1 = m.evaluate(CacheOrg::l2(1 << 20));
        // sqrt(26) ≈ 5.1: the big cache must be several times slower in ns.
        assert!(
            r26.latency_ns > 2.0 * r1.latency_ns,
            "26 MB ({:.2} ns) should be >2x slower than 1 MB ({:.2} ns)",
            r26.latency_ns,
            r1.latency_ns
        );
    }

    #[test]
    fn faster_clock_means_more_cycles() {
        let mut m = CactiModel::paper_era();
        let slow = m.evaluate(CacheOrg::l2(8 << 20)).latency_cycles;
        m.clock_ghz = 5.0;
        let fast = m.evaluate(CacheOrg::l2(8 << 20)).latency_cycles;
        assert!(
            fast >= slow,
            "more cycles at higher clock: {slow} -> {fast}"
        );
    }

    #[test]
    fn sweep_matches_individual_evaluations() {
        let m = CactiModel::paper_era();
        let sizes = [1u64 << 20, 4 << 20, 16 << 20];
        let sweep = m.sweep(&sizes);
        for (r, &s) in sweep.iter().zip(&sizes) {
            assert_eq!(r.latency_cycles, m.evaluate(CacheOrg::l2(s)).latency_cycles);
        }
    }
}
