//! CACTI-style analytic cache access-time and area model.
//!
//! The paper derives L2 hit latencies from CACTI 4.2 (Wilton & Jouppi) and
//! feeds them into its cache-size sweep (Fig. 6); it also plots two decades
//! of on-chip cache sizes and latencies (Fig. 1). This crate reproduces both
//! ingredients:
//!
//! * `model` — a simplified but physically grounded access-time model:
//!   RC-limited decoder/wordline/bitline delays inside subarrays, a
//!   repeated-wire H-tree to reach banks (the dominant term for multi-MB
//!   caches — delay grows with the square root of area), a fixed
//!   sense/tag/arbitration overhead, and a search over subarray
//!   organizations, mirroring CACTI's structure.
//! * `historic` — the processor cache-size/latency history behind Fig. 1.
//!
//! The model is calibrated to paper-era (90/65 nm, 2-4 GHz) L2 design
//! points: 1 MB at ~6-8 cycles and 26 MB at ~20+ cycles — the regime in which the paper's "large caches get slow"
//! argument lives. As the paper itself notes, raw CACTI times are *lower*
//! than shipping products achieve, so treat the output as optimistic.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(clippy::allow_attributes_without_reason)]
mod historic;
mod model;

pub use historic::{historic_latencies, historic_sizes, CachePoint};
pub use model::{CacheOrg, CactiModel, CactiResult};

/// Convenience: realistic L2 hit latency in cycles for a cache of
/// `size_bytes` at the default paper-era technology point (65 nm, 3 GHz,
/// 16-way, 64 B lines).
pub fn l2_latency_cycles(size_bytes: u64) -> u64 {
    CactiModel::paper_era()
        .evaluate(CacheOrg::l2(size_bytes))
        .latency_cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_era_design_points() {
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
