//! Workload randomness: seeded RNG plus TPC-C's NURand.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for a (workload, client) pair.
pub(crate) fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// TPC-C NURand(A, x, y): non-uniform random over `[x, y]`, skewed so a
/// subset of values is hot (spec clause 2.1.6). `c` is the per-run
/// constant.
pub(crate) fn nurand(rng: &mut StdRng, a: u64, c: u64, x: u64, y: u64) -> u64 {
    let r1 = rng.gen_range(0..=a);
    let r2 = rng.gen_range(x..=y);
    (((r1 | r2) + c) % (y - x + 1)) + x
}

/// Uniform inclusive helper.
pub(crate) fn uniform(rng: &mut StdRng, x: u64, y: u64) -> u64 {
    rng.gen_range(x..=y)
}

/// TPC-C last-name generator: concatenated syllables indexed by a 0-999
/// number.
pub(crate) fn last_name(num: u64) -> String {
    const SYL: [&str; 10] = [
        "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
    ];
    let n = num % 1000;
    format!(
        "{}{}{}",
        SYL[(n / 100) as usize],
        SYL[((n / 10) % 10) as usize],
        SYL[(n % 10) as usize]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nurand_stays_in_range() {
        let mut rng = client_rng(42, 0);
        for _ in 0..10_000 {
            let v = nurand(&mut rng, 255, 123, 1, 3000);
            assert!((1..=3000).contains(&v));
        }
    }

    #[test]
    fn nurand_is_skewed() {
        // The OR in NURand concentrates probability on bit-dense values:
        // the hottest single value must be several times more frequent
        // than the uniform expectation.
        let mut rng = client_rng(7, 1);
        let n = 60_000usize;
        let mut freq = vec![0u32; 3001];
        for _ in 0..n {
            freq[nurand(&mut rng, 255, 0, 1, 3000) as usize] += 1;
        }
        let max = *freq.iter().max().unwrap() as f64;
        let mean = n as f64 / 3000.0;
        assert!(
            max > 4.0 * mean,
            "NURand must have hot values: max={max} mean={mean}"
        );
    }

    #[test]
    fn last_names_match_spec_examples() {
        assert_eq!(last_name(0), "BARBARBAR");
        assert_eq!(last_name(999), "EINGEINGEING");
        assert_eq!(last_name(371), "PRICALLYOUGHT");
    }

    #[test]
    fn client_rngs_differ_but_are_deterministic() {
        let a1: u64 = client_rng(1, 0).gen();
        let a2: u64 = client_rng(1, 0).gen();
        let b: u64 = client_rng(1, 1).gen();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }
}
