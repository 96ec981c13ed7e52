//! Per-core lock partitions with message-passing lock requests.
//!
//! Lock state is sharded into `n` partitions, each a private [`LockMgr`]
//! owned by one core. A transaction's *home* partition is fixed by its id
//! (round-robin client placement); any request whose key hashes to a
//! different partition is a message to the owning core — traced as a
//! `RemoteSend`/`RemoteRecv` round trip (request + reply) so replay prices
//! the hop on the deployment's interconnect, exactly like the
//! shared-nothing two-phase-commit messages of PR 7. Releases are
//! fire-and-forget: a single `RemoteSend` with no reply wait.
//!
//! **Deadlock freedom.** A transaction may *wait* for a lock only while
//! the requested resource `(partition, key)` is strictly greater than
//! every resource it already holds — the classic resource-ordering
//! discipline, here with partition id as the major axis so multi-partition
//! transactions acquire partitions in ascending order. Out-of-order
//! conflicting requests are refused no-wait
//! ([`EngineError::LockConflict`]) and surface to the scheduler as
//! conflict retries ([`CcStats::fallback_conflicts`]). Every waits-for
//! edge therefore points at a strictly larger resource, so the global
//! graph is acyclic: [`ConcurrencyControl::has_deadlock`] is structurally
//! `false` and no transaction is ever chosen as a victim.

use dbcmp_trace::AddressSpace;

use std::collections::{BTreeMap, BTreeSet};

use crate::cc::{CcBackend, CcStats, ConcurrencyControl};
use crate::error::Result;
use crate::lockmgr::{lock_hash, Grant, LockMgr, LockMode};
use crate::tctx::{TraceCtx, MSG_HEADER_BYTES};
use crate::txn::TxnId;

/// Lock state sharded into per-core partitions (see module docs).
#[derive(Debug)]
pub struct PartitionedPerCore {
    parts: Vec<LockMgr>,
    /// Resources `(partition, key)` each live transaction holds or is
    /// parked on — the resource-ordering ledger.
    held: BTreeMap<TxnId, BTreeSet<(usize, u64)>>,
    /// Remote messages, their bytes and fallback conflicts (the rest stay
    /// zero: the partitions count those).
    stats: CcStats,
}

impl PartitionedPerCore {
    /// A partitioned backend with `n_parts` per-core lock partitions
    /// (rounded up to a power of two) carved from `total_buckets` lock
    /// buckets.
    pub fn new(space: &AddressSpace, n_parts: usize, total_buckets: usize) -> Self {
        let n = n_parts.next_power_of_two().max(1);
        let per = (total_buckets / n).max(64);
        PartitionedPerCore {
            parts: (0..n).map(|_| LockMgr::new(space, per)).collect(),
            held: BTreeMap::new(),
            stats: CcStats::default(),
        }
    }

    /// Which partition owns `key`: the top bits of the lock hash, so the
    /// partition is independent of the per-partition bucket index.
    #[inline]
    fn partition_of(&self, key: u64) -> usize {
        ((lock_hash(key) >> 59) as usize) & (self.parts.len() - 1)
    }

    /// A transaction's home partition: round-robin by id, modeling the
    /// client's executing core.
    #[inline]
    fn home(&self, txn: TxnId) -> usize {
        (txn as usize) & (self.parts.len() - 1)
    }

    /// Trace the request/reply round trip to a remote partition.
    fn hop_round_trip(&mut self, txn: TxnId, part: usize, tc: &mut TraceCtx) {
        if part != self.home(txn) {
            self.stats.remote_msgs += 2;
            self.stats.remote_bytes += 2 * MSG_HEADER_BYTES as u64;
            tc.remote_send(MSG_HEADER_BYTES);
            tc.remote_recv(MSG_HEADER_BYTES);
        }
    }

    /// Trace a fire-and-forget message to a remote partition (release).
    fn hop_one_way(&mut self, txn: TxnId, part: usize, tc: &mut TraceCtx) {
        if part != self.home(txn) {
            self.stats.remote_msgs += 1;
            self.stats.remote_bytes += MSG_HEADER_BYTES as u64;
            tc.remote_send(MSG_HEADER_BYTES);
        }
    }

    /// May `txn` park waiting for `res`? Only if `res` is strictly above
    /// everything it currently holds (resource-ordering discipline).
    fn may_wait(&self, txn: TxnId, res: (usize, u64)) -> bool {
        self.held
            .get(&txn)
            .is_none_or(|s| s.iter().all(|&h| h < res))
    }
}

impl ConcurrencyControl for PartitionedPerCore {
    fn backend(&self) -> CcBackend {
        CcBackend::PartitionedPerCore
    }

    fn acquire(&mut self, txn: TxnId, key: u64, mode: LockMode, tc: &mut TraceCtx) -> Result<bool> {
        let p = self.partition_of(key);
        self.hop_round_trip(txn, p, tc);
        let granted = self.parts[p].acquire(txn, key, mode, tc)?;
        self.held.entry(txn).or_default().insert((p, key));
        Ok(granted)
    }

    fn acquire_wait(
        &mut self,
        txn: TxnId,
        key: u64,
        mode: LockMode,
        tc: &mut TraceCtx,
    ) -> Result<Grant> {
        let p = self.partition_of(key);
        let res = (p, key);
        self.hop_round_trip(txn, p, tc);
        if self.parts[p].parked_on(txn) == Some(key) {
            // Retry of the request this txn parked on: the queued path
            // claims the parked grant (or stays parked).
            return self.parts[p].acquire_wait(txn, key, mode, tc);
        }
        let already = self.held.get(&txn).is_some_and(|s| s.contains(&res));
        if !already && self.may_wait(txn, res) {
            // In-order request: the full queued discipline applies. Record
            // the resource on Wait too — the txn owns its queue slot and
            // will hold the lock when granted. (A Deadlock error is
            // unreachable: ordering forbids cycles.)
            let g = self.parts[p].acquire_wait(txn, key, mode, tc)?;
            self.held.entry(txn).or_default().insert(res);
            Ok(g)
        } else {
            // Re-acquire/upgrade of a held resource, or an out-of-order
            // request: no-wait only. Conflicts are immediate retries.
            match self.parts[p].acquire(txn, key, mode, tc) {
                Ok(true) => {
                    self.held.entry(txn).or_default().insert(res);
                    Ok(Grant::Acquired)
                }
                Ok(false) => Ok(Grant::Held),
                Err(e) => {
                    self.stats.fallback_conflicts += 1;
                    Err(e)
                }
            }
        }
    }

    fn release(&mut self, txn: TxnId, key: u64, tc: &mut TraceCtx) {
        let p = self.partition_of(key);
        self.hop_one_way(txn, p, tc);
        self.parts[p].release(txn, key, tc);
        if let Some(s) = self.held.get_mut(&txn) {
            s.remove(&(p, key));
        }
    }

    fn finish(&mut self, txn: TxnId, _tc: &mut TraceCtx) {
        self.held.remove(&txn);
    }

    fn cancel_wait(&mut self, txn: TxnId, tc: &mut TraceCtx) {
        for p in &mut self.parts {
            p.cancel_wait(txn, tc);
        }
    }

    fn drain_woken(&mut self) -> Vec<TxnId> {
        // Partition order, then decision order within a partition —
        // deterministic for the round-robin scheduler.
        self.parts
            .iter_mut()
            .flat_map(LockMgr::drain_woken)
            .collect()
    }

    fn set_contention(&mut self, extra: u32) {
        for p in &mut self.parts {
            p.set_contention(extra);
        }
    }

    fn live_locks(&self) -> usize {
        self.parts.iter().map(LockMgr::live_locks).sum()
    }

    fn waiting_count(&self) -> usize {
        self.parts.iter().map(LockMgr::waiting_count).sum()
    }

    fn wait_graph(&self) -> Vec<(TxnId, Vec<TxnId>)> {
        let mut g: Vec<(TxnId, Vec<TxnId>)> =
            self.parts.iter().flat_map(LockMgr::wait_graph).collect();
        g.sort_unstable_by_key(|&(t, _)| t);
        g
    }

    /// The messaging counters are this backend's; acquires, waits and
    /// deadlock victims are its partitions'.
    fn stats(&self) -> CcStats {
        let mut s = self.stats;
        for p in self.parts.iter().map(LockMgr::stats) {
            s.acquires += p.acquires;
            s.waits += p.waits;
            s.deadlocks += p.deadlocks;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::EngineRegions;
    use crate::error::EngineError;
    use dbcmp_trace::CodeRegions;
    use LockMode::{Exclusive as X, Shared as S};

    fn setup() -> (PartitionedPerCore, TraceCtx) {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let space = AddressSpace::new();
        (PartitionedPerCore::new(&space, 4, 4096), TraceCtx::null(er))
    }

    /// Two keys in different partitions, requested by two txns in opposite
    /// orders: the classic deadlock shape. The resource-ordering rule
    /// turns one side into an immediate conflict instead of a cycle.
    #[test]
    fn opposite_order_requests_cannot_cycle() {
        let (mut cc, mut tc) = setup();
        // Find two keys living in different partitions.
        let (k_lo, k_hi) = {
            let mut lo = None;
            let mut found = None;
            for k in 0..64u64 {
                let p = cc.partition_of(k);
                match lo {
                    None => lo = Some((p, k)),
                    Some((p0, k0)) if p != p0 => {
                        let (a, b) = if (p0, k0) < (p, k) { (k0, k) } else { (k, k0) };
                        found = Some((a, b));
                        break;
                    }
                    _ => {}
                }
            }
            found.expect("4 partitions must split 64 keys")
        };
        cc.acquire_wait(1, k_lo, X, &mut tc).unwrap();
        cc.acquire_wait(2, k_hi, X, &mut tc).unwrap();
        // Txn 1 requests upward: allowed to park.
        assert_eq!(cc.acquire_wait(1, k_hi, X, &mut tc).unwrap(), Grant::Wait);
        // Txn 2 requests downward: refused no-wait, never enqueued.
        assert!(matches!(
            cc.acquire_wait(2, k_lo, X, &mut tc),
            Err(EngineError::LockConflict { .. })
        ));
        assert!(!cc.has_deadlock());
        assert_eq!(cc.stats().deadlocks, 0);
        assert_eq!(cc.stats().fallback_conflicts, 1);
        // Txn 2 aborts (conflict retry): its release unblocks txn 1.
        cc.release(2, k_hi, &mut tc);
        cc.finish(2, &mut tc);
        assert_eq!(cc.drain_woken(), vec![1]);
        assert_eq!(
            cc.acquire_wait(1, k_hi, X, &mut tc).unwrap(),
            Grant::WaitGranted
        );
        cc.release(1, k_lo, &mut tc);
        cc.release(1, k_hi, &mut tc);
        cc.finish(1, &mut tc);
        assert_eq!(cc.live_locks(), 0);
        assert_eq!(cc.waiting_count(), 0);
    }

    #[test]
    fn remote_requests_are_priced_as_messages() {
        let (mut cc, mut tc) = setup();
        // Txn 0's home is partition 0; pick a key owned by a remote
        // partition and a key owned by the home partition.
        let remote_key = (0..256u64)
            .find(|&k| cc.partition_of(k) != cc.home(8))
            .expect("some key is remote");
        let home_key = (0..256u64)
            .find(|&k| cc.partition_of(k) == cc.home(8))
            .expect("some key is home");
        cc.acquire_wait(8, home_key, S, &mut tc).unwrap();
        assert_eq!(cc.stats().remote_msgs, 0, "home requests are local");
        cc.acquire_wait(8, remote_key, S, &mut tc).unwrap();
        assert_eq!(cc.stats().remote_msgs, 2, "request + reply");
        assert_eq!(cc.stats().remote_bytes, 2 * MSG_HEADER_BYTES as u64);
        cc.release(8, remote_key, &mut tc);
        assert_eq!(cc.stats().remote_msgs, 3, "release is fire-and-forget");
        cc.release(8, home_key, &mut tc);
        cc.finish(8, &mut tc);
        assert_eq!(cc.live_locks(), 0);
    }

    #[test]
    fn reacquire_of_held_key_stays_held() {
        let (mut cc, mut tc) = setup();
        assert_eq!(cc.acquire_wait(3, 7, X, &mut tc).unwrap(), Grant::Acquired);
        // Held resource: served no-wait, reported Held (no re-record).
        assert_eq!(cc.acquire_wait(3, 7, S, &mut tc).unwrap(), Grant::Held);
        cc.release(3, 7, &mut tc);
        cc.finish(3, &mut tc);
        assert_eq!(cc.live_locks(), 0);
    }
}
