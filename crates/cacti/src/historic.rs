//! Historic on-chip cache data behind the paper's Fig. 1.
//!
//! Fig. 1a plots total on-chip cache capacity per processor generation on a
//! log scale, 1990-2010; Fig. 1b plots L2/last-level hit latency in cycles.
//! The paper's headline examples: Pentium III (1995-era core) at 4 cycles
//! vs IBM Power5 (2004) at 14; 16 MB on Xeon 7100 (2006) and 24 MB on the
//! dual-core Itanium (2005).
//!
//! Figures are approximate by nature (vendor documentation rounds, and
//! latency depends on clock domain); they are data *about* the trend, and
//! the trend is what Fig. 1 communicates.

/// One processor data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePoint {
    pub year: u32,
    pub processor: &'static str,
    /// Total on-chip cache in KB (all levels integrated on the die).
    pub on_chip_kb: u64,
    /// Last-level on-chip hit latency in cycles, if documented.
    pub hit_latency_cycles: Option<u32>,
}

/// Fig. 1a: on-chip cache size per processor, 1989-2006.
pub fn historic_sizes() -> &'static [CachePoint] {
    const POINTS: &[CachePoint] = &[
        CachePoint {
            year: 1989,
            processor: "Intel 486",
            on_chip_kb: 8,
            hit_latency_cycles: None,
        },
        CachePoint {
            year: 1993,
            processor: "Intel Pentium",
            on_chip_kb: 16,
            hit_latency_cycles: None,
        },
        CachePoint {
            year: 1995,
            processor: "Intel Pentium Pro",
            on_chip_kb: 16,
            hit_latency_cycles: Some(4),
        },
        CachePoint {
            year: 1997,
            processor: "Intel Pentium II",
            on_chip_kb: 32,
            hit_latency_cycles: Some(4),
        },
        CachePoint {
            year: 1999,
            processor: "Intel Pentium III (Coppermine)",
            on_chip_kb: 256 + 32,
            hit_latency_cycles: Some(4),
        },
        CachePoint {
            year: 2000,
            processor: "IBM Power4",
            on_chip_kb: 1440 + 96,
            hit_latency_cycles: Some(12),
        },
        CachePoint {
            year: 2001,
            processor: "Intel Pentium 4 (Willamette)",
            on_chip_kb: 256 + 8,
            hit_latency_cycles: Some(7),
        },
        CachePoint {
            year: 2002,
            processor: "Intel Itanium 2 (McKinley)",
            on_chip_kb: 3 * 1024 + 256 + 32,
            hit_latency_cycles: Some(5),
        },
        CachePoint {
            year: 2003,
            processor: "Intel Pentium M (Banias)",
            on_chip_kb: 1024 + 64,
            hit_latency_cycles: Some(9),
        },
        CachePoint {
            year: 2004,
            processor: "IBM Power5",
            on_chip_kb: 1920 + 96,
            hit_latency_cycles: Some(14),
        },
        CachePoint {
            year: 2005,
            processor: "Intel Itanium 2 (9M)",
            on_chip_kb: 9 * 1024 + 256,
            hit_latency_cycles: Some(14),
        },
        CachePoint {
            year: 2005,
            processor: "Sun UltraSPARC T1",
            on_chip_kb: 3 * 1024 + 8 * 24,
            hit_latency_cycles: Some(21),
        },
        CachePoint {
            year: 2006,
            processor: "Intel Xeon 7100 (Tulsa)",
            on_chip_kb: 16 * 1024 + 2 * 1024 + 2 * 96,
            hit_latency_cycles: None,
        },
        CachePoint {
            year: 2006,
            processor: "Dual-Core Itanium (Montecito)",
            on_chip_kb: 24 * 1024 + 2 * (1024 + 256) + 2 * 32,
            hit_latency_cycles: Some(14),
        },
        CachePoint {
            year: 2006,
            processor: "Intel Core 2 Duo (Conroe)",
            on_chip_kb: 4 * 1024 + 2 * 64,
            hit_latency_cycles: Some(14),
        },
    ];
    POINTS
}

/// Fig. 1b: the subset with documented hit latencies, in year order.
pub fn historic_latencies() -> Vec<CachePoint> {
    let mut v: Vec<CachePoint> = historic_sizes()
        .iter()
        .copied()
        .filter(|p| p.hit_latency_cycles.is_some())
        .collect();
    v.sort_by_key(|p| p.year);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_grow_exponentially() {
        let pts = historic_sizes();
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        // Fig. 1a spans 8 KB to tens of MB: three-plus orders of magnitude.
        assert!(last.on_chip_kb / first.on_chip_kb > 500);
    }

    #[test]
    fn latencies_trend_upwards() {
        let pts = historic_latencies();
        let early: Vec<_> = pts.iter().filter(|p| p.year < 2000).collect();
        let late: Vec<_> = pts.iter().filter(|p| p.year >= 2004).collect();
        let avg = |v: &[&CachePoint]| {
            v.iter()
                .map(|p| p.hit_latency_cycles.unwrap() as f64)
                .sum::<f64>()
                / v.len() as f64
        };
        // The paper quotes a >3-fold latency increase over the decade.
        assert!(
            avg(&late) >= 3.0 * avg(&early),
            "late {:?} early {:?}",
            avg(&late),
            avg(&early)
        );
    }

    #[test]
    fn points_are_year_sorted_in_latency_view() {
        let pts = historic_latencies();
        for w in pts.windows(2) {
            assert!(w[0].year <= w[1].year);
        }
    }
}
