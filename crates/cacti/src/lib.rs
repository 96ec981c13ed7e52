//! CACTI-style analytic cache access-time and area model.
//!
//! The paper derives L2 hit latencies from CACTI 4.2 (Wilton & Jouppi) and
//! feeds them into its cache-size sweep (Fig. 6); it also plots two decades
//! of on-chip cache sizes and latencies (Fig. 1). This crate reproduces both
//! ingredients:
//!
//! * [`model`] — a simplified but physically grounded access-time model:
//!   RC-limited decoder/wordline/bitline delays inside subarrays, a
//!   repeated-wire H-tree to reach banks (the dominant term for multi-MB
//!   caches — delay grows with the square root of area), a fixed
//!   sense/tag/arbitration overhead, and a search over subarray
//!   organizations, mirroring CACTI's structure.
//! * [`historic`] — the processor cache-size/latency history behind Fig. 1.
//!
//! The model is calibrated to paper-era (90/65 nm, 2-4 GHz) design points:
//! tens-of-KB L1s at 1-3 cycles, 1 MB L2 at ~6-8 cycles, and a 26 MB L2 at
//! ~20+ cycles — the regime in which the paper's "large caches get slow"
//! argument lives. As the paper itself notes, raw CACTI times are *lower*
//! than shipping products achieve, so treat the output as optimistic.

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]
pub mod historic;
pub mod model;

pub use historic::{
    historic_latencies, historic_sizes, l3_anchors, l3_latency_anchor_cycles, CachePoint,
};
pub use model::{CacheOrg, CactiModel, CactiResult};

/// Convenience: realistic L2 hit latency in cycles for a cache of
/// `size_bytes` at the default paper-era technology point (65 nm, 3 GHz,
/// 16-way, 64 B lines).
pub fn l2_latency_cycles(size_bytes: u64) -> u64 {
    CactiModel::paper_era()
        .evaluate(CacheOrg::l2(size_bytes))
        .latency_cycles
}

/// Convenience: L1 hit latency in cycles at the same technology point.
pub fn l1_latency_cycles(size_bytes: u64) -> u64 {
    CactiModel::paper_era()
        .evaluate(CacheOrg::l1(size_bytes))
        .latency_cycles
}

/// Convenience: realistic L3 hit latency in cycles for an L3-class cache
/// of `size_bytes` at the default technology point. The model's uncore
/// overhead is calibrated against the empirical
/// [`l3_latency_anchor_cycles`] interpolation over the 2007-2010
/// anchors; the island/L3 machine presets derive their outer-level
/// latencies here instead of pinning constants by hand.
pub fn l3_latency_cycles(size_bytes: u64) -> u64 {
    CactiModel::paper_era()
        .evaluate(CacheOrg::l3(size_bytes))
        .latency_cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_era_design_points() {
        // L1s are small and fast.
        let l1 = l1_latency_cycles(64 * 1024);
        assert!(
            (1..=4).contains(&l1),
            "64 KB L1 should be 1-4 cycles, got {l1}"
        );

        // The paper's fixed-latency experiments call 4 cycles "unrealistically
        // low" for multi-MB L2s; the model must agree.
        let l2_1m = l2_latency_cycles(1 << 20);
        assert!(
            l2_1m > 4,
            "1 MB realistic latency must exceed 4 cycles, got {l2_1m}"
        );

        // Fig. 1b regime: ~14+ cycles by the mid-2000s for big caches and
        // 20+ at 26 MB.
        let l2_16m = l2_latency_cycles(16 << 20);
        let l2_26m = l2_latency_cycles(26 << 20);
        assert!(
            (12..=20).contains(&l2_16m),
            "16 MB should be ~12-20 cycles, got {l2_16m}"
        );
        assert!(
            (17..=28).contains(&l2_26m),
            "26 MB should be ~17-28 cycles, got {l2_26m}"
        );
    }

    /// Pins the exact L3 latencies the island/L3 machine presets derive
    /// from the model (instead of hand-pinned constants) — and checks
    /// the model tracks the empirical 2007-2010 anchors it was
    /// calibrated against.
    #[test]
    fn l3_lookup_pinned_values_and_anchor_agreement() {
        // The values `dbcmp_core::machines` presets consume.
        assert_eq!(l3_latency_cycles(8 << 20), 38);
        assert_eq!(l3_latency_cycles(16 << 20), 47);
        assert_eq!(l3_latency_cycles(26 << 20), 56);
        assert_eq!(l3_latency_cycles(32 << 20), 60);
        // An L3 is always slower than an L2 of the same capacity (uncore
        // crossing + serialized access)…
        for mb in [4u64, 8, 16, 26] {
            assert!(l3_latency_cycles(mb << 20) > l2_latency_cycles(mb << 20));
        }
        // …and the model lands within 20% of every measured anchor.
        for p in l3_anchors() {
            let size = p.on_chip_kb << 10;
            let model = l3_latency_cycles(size) as f64;
            let anchor = p.hit_latency_cycles.unwrap() as f64;
            assert!(
                (model - anchor).abs() / anchor <= 0.20,
                "{}: model {model} vs anchor {anchor}",
                p.processor
            );
        }
    }

    #[test]
    fn latency_monotone_in_size() {
        let sizes = [
            256 << 10,
            1 << 20,
            2 << 20,
            4 << 20,
            8 << 20,
            16 << 20,
            26 << 20,
        ];
        let lats: Vec<u64> = sizes.iter().map(|&s| l2_latency_cycles(s)).collect();
        for w in lats.windows(2) {
            assert!(
                w[0] <= w[1],
                "latency must be non-decreasing in size: {lats:?}"
            );
        }
        assert!(
            lats[0] < *lats.last().unwrap(),
            "latency must grow across the sweep"
        );
    }
}
