//! Order statistics over a run's repetitions.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the benchmark
//! driver uses to judge run-to-run spread — the two must agree on what
//! "the distance between the quartiles" means.

/// Median / quartiles / range of one metric's per-repetition samples.
/// With fewer than 21 samples no tail percentile is claimed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples` (at least one).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&v);
        Summary {
            median,
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    /// A value measured once per run (counters, probes, `peak_rss_mb`).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0 — exact counters).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of unsorted samples (at least one).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// `(q1, median, q3)` of **sorted** data, Python's exclusive method. One
/// sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: the clamp can push j past i*m/4 on tiny samples.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn single_sample_and_spread() {
        let s = Summary::single(7.0);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
