//! Distributed hash joins: how rows move between engine instances.
//!
//! A network-partitioned join runs the ordinary [`HashJoin`] on every
//! instance, over rows that first crossed an *exchange*: each instance
//! hash-partitions its fragment's rows by join key and ships every row
//! whose key hashes to another instance (or broadcasts a small build
//! side to every instance). The exchange itself — routing charges, tuple
//! (de)serialization, and the `RemoteSend`/`RemoteRecv` traffic priced
//! by the simulator's interconnect model — is driven by the capture
//! layer (`workloads::exchange`), which then feeds each instance's
//! post-exchange rows to a [`HashJoin`] through [`Rows`] sources. This
//! module holds the two things both sides must agree on: the strategy
//! enum and the routing function.
//!
//! [`HashJoin`]: crate::exec::HashJoin
//! [`Rows`]: crate::exec::Rows

use crate::exec::hash_join::key_hash;
use crate::types::Value;

/// How a distributed join moves rows between instances. Chosen per join
/// by the capture layer's dispatch rule (`exchange_rows` in
/// `workloads::exchange`) and counted by the distributed capture
/// (`tpch::dist`) — both are wildcard-free matches, so the build fails
/// until a new variant is handled in each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeStrategy {
    /// Ship the whole (small) build side to every instance; probe rows
    /// stay where they are. Pays `(n-1) x build bytes`, nothing on the
    /// probe side.
    Broadcast,
    /// Hash-partition both sides by join key; every row whose key
    /// hashes to another instance is shipped. Pays roughly
    /// `(n-1)/n` of both sides' bytes.
    Shuffle,
}

/// The destination instance for a join key in an `n`-instance shuffle:
/// the hash [`BuildTable`](crate::exec::BuildTable) places buckets by,
/// reduced mod `n` — so rows that collide in a bucket also land on the
/// same instance.
pub fn partition_of(key: &Value, n: usize) -> usize {
    (key_hash(key) % (n.max(1) as u64)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::hash_join::bucket_addr;

    /// Keys that share a bucket also share a shuffle destination: the
    /// instance-routing hash is the bucket hash reduced mod n.
    #[test]
    fn partition_follows_bucket_hash() {
        for n in [1usize, 2, 3, 4, 7] {
            for v in [
                Value::Int(42),
                Value::Date(177),
                Value::Str("BRAND#13".into()),
                Value::Null,
            ] {
                let p = partition_of(&v, n);
                assert!(p < n.max(1));
                // Same mixing as bucket_addr: bucket index mod n agrees
                // when n divides the bucket count.
                let buckets = 64u64;
                let line = (bucket_addr(0, buckets, &v) / 64) % buckets;
                if buckets.is_multiple_of(n as u64) {
                    assert_eq!(p as u64, line % (n as u64));
                }
            }
        }
    }
}
