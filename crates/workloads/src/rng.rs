//! Workload randomness: seeded RNG plus TPC-C's NURand.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for a (workload, client) pair.
pub(crate) fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Salt for the per-transaction parameter streams, keeping them disjoint
/// from the per-client streams drawn from the same capture seed.
const TXN_SALT: u64 = 0x7C9A_11E5_D3B0_77AA;

/// The private parameter stream of `client`'s `attempt`-th transaction.
/// A client owns 1024 consecutive streams; one attempt more would be
/// handed the next client's first, so that fails loudly instead.
pub(crate) fn txn_rng(seed: u64, client: usize, attempt: usize) -> StdRng {
    assert!(
        attempt < 1024,
        "client {client}: attempt {attempt} would alias the next client's parameter streams"
    );
    client_rng(seed ^ TXN_SALT, client * 1024 + attempt)
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

    /// Two adjacent clients' 2 × 1024 per-transaction streams are all
    /// distinct, and attempt 1024 — which used to be handed the next
    /// client's attempt 0 — is refused.
    #[test]
    fn txn_streams_do_not_alias_across_clients() {
        let firsts: std::collections::BTreeSet<u64> = (0..2)
            .flat_map(|client| (0..1024).map(move |attempt| (client, attempt)))
            .map(|(client, attempt)| txn_rng(0xD3B, client, attempt).gen())
            .collect();
        assert_eq!(firsts.len(), 2 * 1024);
        assert_eq!(txn_rng(0xD3B, 1, 0), client_rng(0xD3B ^ TXN_SALT, 1024));
        assert!(std::panic::catch_unwind(|| txn_rng(0xD3B, 0, 1024)).is_err());
    }
}
