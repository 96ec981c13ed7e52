//! Calvin-style deterministic pre-ordered locking.
//!
//! Transactions *declare* their full read/write set right after `begin`
//! (derived by dry-running the transaction body on a clone of its
//! parameter stream under a recording handle — see `rwset` in
//! `dbcmp-workloads`) and are granted all declared locks in
//! strict FIFO declare order before they execute. Because begins are
//! monotone and each client declares immediately after its begin under the
//! round-robin scheduler, declare order tracks global transaction order —
//! the scheme the deterministic-database literature uses to make lock
//! acquisition conflict-serializable without deadlock detection.
//!
//! **Zero deadlock aborts, structurally.** Two invariants make cycles
//! impossible:
//!
//! 1. A declaring transaction holds nothing but keys granted by its own
//!    in-flight declaration, and a declared key is granted only when the
//!    FIFO queue for that key is empty — so a later declarer can never
//!    overtake an earlier one on a contended key.
//! 2. Executing transactions never wait: a lock request outside the
//!    declared set (a derivation miss — a phantom row appearing between
//!    derivation and execution) is served *no-wait* and a conflict comes
//!    back as [`EngineError::LockConflict`], which the scheduler retries
//!    as a conflict abort ([`CcStats::fallback_conflicts`]).
//!
//! The price of ordering shows up as [`CcStats::ordering_waits`]: parked
//! declarations waiting for earlier transactions to finish. Honesty
//! caveats (also in DESIGN.md §8): read/write sets are *derived* from the
//! parameter streams, not declared by the application, and there is no
//! speculative or re-execution machinery — misses abort-and-retry.

use dbcmp_trace::AddressSpace;

use std::collections::BTreeMap;

use crate::cc::{CcBackend, CcStats, ConcurrencyControl};
use crate::costs::instr;
use crate::error::{EngineError, Result};
use crate::lockmgr::{Admit, Grant, LockMode, LockTable};
use crate::tctx::TraceCtx;
use crate::txn::TxnId;

/// A transaction's declared set: key → (declared mode, granted yet?).
type DeclaredSet = BTreeMap<u64, (LockMode, bool)>;

/// The declared keys not granted yet, ascending.
fn pending(ds: &DeclaredSet) -> impl Iterator<Item = u64> + '_ {
    ds.iter().filter(|(_, &(_, g))| !g).map(|(&k, _)| k)
}

/// Deterministic pre-ordered execution over declared read/write sets
/// (see module docs): the crate's `LockTable`, where declarations queue,
/// plus each transaction's declared set.
#[derive(Debug)]
pub struct DeterministicOrdered {
    table: LockTable,
    declared: BTreeMap<TxnId, DeclaredSet>,
    woken: Vec<TxnId>,
    stats: CcStats,
}

impl DeterministicOrdered {
    /// An ordered backend with `n_buckets` (rounded up to a power of two)
    /// simulated ordering-table buckets.
    pub fn new(space: &AddressSpace, n_buckets: usize) -> Self {
        DeterministicOrdered {
            table: LockTable::new(space, n_buckets),
            declared: BTreeMap::new(),
            woken: Vec::new(),
            stats: CcStats::default(),
        }
    }

    /// Mark `key` granted in the declared set of each transaction the
    /// table just granted it to, and wake those whose set is now complete.
    fn record_grants(&mut self, key: u64, granted: Vec<(TxnId, bool)>) {
        for (t, _) in granted {
            let Some(ds) = self.declared.get_mut(&t) else {
                continue;
            };
            if let Some((_, g @ false)) = ds.get_mut(&key) {
                *g = true;
                if pending(ds).next().is_none() {
                    self.woken.push(t);
                }
            }
        }
    }

    /// Shared acquire path: declared-set probe first, then the no-wait
    /// fallback for keys outside the declared set.
    fn acquire_inner(
        &mut self,
        txn: TxnId,
        key: u64,
        mode: LockMode,
        tc: &mut TraceCtx,
    ) -> Result<Grant> {
        self.table.charge_acquire(key, tc);

        let slot = self.declared.get_mut(&txn).and_then(|ds| ds.get_mut(&key));
        let admit = match slot.as_deref() {
            // The key was not declared (derivation miss): no-wait.
            None => self.table.admit(txn, key, mode, false),
            // Execution before the set completed cannot happen (declare
            // parks until the set is granted); treat a stray probe as a
            // conflict rather than corrupting state.
            Some(&(_, false)) => Admit::Conflict,
            // Derivation under-declared: upgrade in place when sole
            // holder with nobody queued, else conflict (no waiting at
            // execution time).
            Some(&(LockMode::Shared, true)) if mode == LockMode::Exclusive => {
                if self.table.queue_is_empty(key) {
                    self.table.admit(txn, key, mode, false)
                } else {
                    Admit::Conflict
                }
            }
            Some(&(_, true)) => Admit::Held,
        };
        match admit {
            Admit::Held => Ok(Grant::Held),
            Admit::Wrote(g) => {
                // Only a declared upgrade has a slot to update here.
                if let Some(slot) = slot {
                    *slot = (LockMode::Exclusive, true);
                }
                self.table.write_line(key, tc);
                Ok(g)
            }
            Admit::Queued | Admit::Conflict => {
                self.stats.fallback_conflicts += 1;
                Err(EngineError::LockConflict { key })
            }
        }
    }
}

impl ConcurrencyControl for DeterministicOrdered {
    fn backend(&self) -> CcBackend {
        CcBackend::DeterministicOrdered
    }

    fn acquire(&mut self, txn: TxnId, key: u64, mode: LockMode, tc: &mut TraceCtx) -> Result<bool> {
        self.stats.acquires += 1;
        Ok(self.acquire_inner(txn, key, mode, tc)? == Grant::Acquired)
    }

    fn acquire_wait(
        &mut self,
        txn: TxnId,
        key: u64,
        mode: LockMode,
        tc: &mut TraceCtx,
    ) -> Result<Grant> {
        self.stats.acquires += 1;
        self.acquire_inner(txn, key, mode, tc)
    }

    fn declare(&mut self, txn: TxnId, keys: &[(u64, LockMode)], tc: &mut TraceCtx) -> Result<()> {
        if let Some(ds) = self.declared.get(&txn) {
            // Retry after a wake: idempotent — report completion state.
            let Some(key) = pending(ds).next() else {
                tc.charge(tc.r.lock_mgr, instr::LOCK_WAKE);
                tc.wake();
                return Ok(());
            };
            // Spurious retry while still pending: park again.
            tc.block();
            return Err(EngineError::LockWait { key });
        }

        // Merge duplicate declarations (Exclusive dominates Shared); the
        // BTreeMap makes enqueue order deterministic (ascending key).
        let mut ds = DeclaredSet::new();
        for &(k, m) in keys {
            let slot = ds.entry(k).or_insert((m, false));
            if m == LockMode::Exclusive {
                slot.0 = LockMode::Exclusive;
            }
        }
        for (&k, (m, granted)) in &mut ds {
            tc.charge(tc.r.lock_mgr, instr::LOCK_ENQUEUE + self.table.contention);
            tc.store(self.table.bucket_addr(k), 16);
            // Strict FIFO: a declarer holds nothing yet, so it is granted
            // only a fresh key or a join of a waiter-free shared crowd, and
            // otherwise queues behind the earlier declarers.
            *granted = self.table.admit(txn, k, *m, true) != Admit::Queued;
        }
        tc.fence();
        let first = pending(&ds).next();
        self.declared.insert(txn, ds);
        let Some(key) = first else {
            return Ok(());
        };
        self.stats.ordering_waits += 1;
        tc.block();
        Err(EngineError::LockWait { key })
    }

    fn release(&mut self, txn: TxnId, key: u64, tc: &mut TraceCtx) {
        let granted = self.table.release(txn, key, tc);
        self.record_grants(key, granted);
    }

    fn finish(&mut self, txn: TxnId, tc: &mut TraceCtx) {
        let Some(ds) = self.declared.remove(&txn) else {
            return;
        };
        for (k, (_, granted)) in ds {
            if granted {
                self.release(txn, k, tc);
            } else {
                // Defensive: a never-granted declaration (abort while
                // parked without cancel_wait) leaves the queue.
                let granted = self.table.dequeue(txn, k, tc);
                self.record_grants(k, granted);
            }
        }
    }

    fn cancel_wait(&mut self, txn: TxnId, tc: &mut TraceCtx) {
        let Some(ds) = self.declared.get_mut(&txn) else {
            return;
        };
        let keys: Vec<u64> = pending(ds).collect();
        ds.retain(|_, &mut (_, granted)| granted);
        for k in keys {
            tc.store(self.table.bucket_addr(k), 16);
            let granted = self.table.dequeue(txn, k, tc);
            self.record_grants(k, granted);
        }
    }

    fn drain_woken(&mut self) -> Vec<TxnId> {
        std::mem::take(&mut self.woken)
    }

    fn set_contention(&mut self, extra: u32) {
        self.table.contention = extra;
    }

    fn live_locks(&self) -> usize {
        self.table.len()
    }

    fn waiting_count(&self) -> usize {
        self.declared
            .values()
            .filter(|ds| pending(ds).next().is_some())
            .count()
    }

    fn wait_graph(&self) -> Vec<(TxnId, Vec<TxnId>)> {
        let parked = self
            .declared
            .iter()
            .filter(|(_, ds)| pending(ds).next().is_some());
        let graph = parked.map(|(&t, ds)| {
            let mut targets: Vec<TxnId> = pending(ds)
                .flat_map(|k| self.table.blockers(t, k))
                .collect();
            targets.sort_unstable();
            targets.dedup();
            (t, targets)
        });
        graph.collect()
    }

    fn stats(&self) -> CcStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::EngineRegions;
    use dbcmp_trace::CodeRegions;
    use LockMode::{Exclusive as X, Shared as S};

    fn setup() -> (DeterministicOrdered, TraceCtx) {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let space = AddressSpace::new();
        (DeterministicOrdered::new(&space, 1024), TraceCtx::null(er))
    }

    #[test]
    fn uncontended_declare_grants_immediately() {
        let (mut cc, mut tc) = setup();
        cc.declare(1, &[(10, S), (20, X)], &mut tc).unwrap();
        assert_eq!(cc.live_locks(), 2);
        // Execution probes on declared keys report Held (backend-owned).
        assert_eq!(cc.acquire_wait(1, 10, S, &mut tc).unwrap(), Grant::Held);
        assert_eq!(cc.acquire_wait(1, 20, X, &mut tc).unwrap(), Grant::Held);
        cc.finish(1, &mut tc);
        assert_eq!(cc.live_locks(), 0, "finish releases the declared set");
    }

    #[test]
    fn conflicting_declare_parks_in_fifo_order_and_wakes() {
        let (mut cc, mut tc) = setup();
        cc.declare(1, &[(5, X)], &mut tc).unwrap();
        // Txn 2 declares the same key: parks on the ordering queue.
        assert!(matches!(
            cc.declare(2, &[(5, X), (6, S)], &mut tc),
            Err(EngineError::LockWait { key: 5 })
        ));
        assert_eq!(cc.waiting_count(), 1);
        assert_eq!(cc.stats().ordering_waits, 1);
        // Retry while still parked stays parked.
        assert!(matches!(
            cc.declare(2, &[(5, X), (6, S)], &mut tc),
            Err(EngineError::LockWait { .. })
        ));
        // Txn 1 finishes → txn 2's whole set completes → it is woken.
        cc.finish(1, &mut tc);
        assert_eq!(cc.drain_woken(), vec![2]);
        cc.declare(2, &[(5, X), (6, S)], &mut tc).unwrap();
        cc.finish(2, &mut tc);
        assert_eq!(cc.live_locks(), 0);
        assert_eq!(cc.stats().deadlocks, 0);
    }

    #[test]
    fn later_declarer_cannot_overtake_a_queued_one() {
        let (mut cc, mut tc) = setup();
        cc.declare(1, &[(7, S)], &mut tc).unwrap();
        // Txn 2 wants X: queues behind the S holder.
        assert!(cc.declare(2, &[(7, X)], &mut tc).is_err());
        // Txn 3 wants S — compatible with the holder, but FIFO says no.
        assert!(cc.declare(3, &[(7, S)], &mut tc).is_err());
        cc.finish(1, &mut tc);
        assert_eq!(cc.drain_woken(), vec![2], "strict declare order");
        cc.declare(2, &[(7, X)], &mut tc).unwrap();
        cc.finish(2, &mut tc);
        assert_eq!(cc.drain_woken(), vec![3]);
        cc.declare(3, &[(7, S)], &mut tc).unwrap();
        cc.finish(3, &mut tc);
        assert_eq!(cc.live_locks(), 0);
    }

    #[test]
    fn undeclared_conflict_is_nowait_never_deadlock() {
        let (mut cc, mut tc) = setup();
        cc.declare(1, &[(30, X)], &mut tc).unwrap();
        // Txn 2 executes with an empty declaration and hits 30: immediate
        // conflict, no parking, no cycle.
        cc.declare(2, &[], &mut tc).unwrap();
        assert!(matches!(
            cc.acquire_wait(2, 30, X, &mut tc),
            Err(EngineError::LockConflict { key: 30 })
        ));
        assert_eq!(cc.stats().fallback_conflicts, 1);
        assert!(!cc.has_deadlock());
        // A free undeclared key is granted and recorded by the caller.
        assert_eq!(cc.acquire_wait(2, 31, X, &mut tc).unwrap(), Grant::Acquired);
        cc.release(2, 31, &mut tc);
        cc.finish(2, &mut tc);
        cc.finish(1, &mut tc);
        assert_eq!(cc.live_locks(), 0);
    }

    #[test]
    fn cancel_wait_leaves_queue_and_unblocks() {
        let (mut cc, mut tc) = setup();
        cc.declare(1, &[(9, X)], &mut tc).unwrap();
        assert!(cc.declare(2, &[(9, S)], &mut tc).is_err());
        assert!(cc.declare(3, &[(9, S)], &mut tc).is_err());
        // Txn 2 aborts while parked.
        cc.cancel_wait(2, &mut tc);
        cc.finish(2, &mut tc);
        assert_eq!(cc.waiting_count(), 1);
        cc.finish(1, &mut tc);
        assert_eq!(cc.drain_woken(), vec![3]);
        cc.declare(3, &[(9, S)], &mut tc).unwrap();
        cc.finish(3, &mut tc);
        assert_eq!(cc.live_locks(), 0);
    }

    #[test]
    fn underdeclared_upgrade_by_sole_holder_succeeds() {
        let (mut cc, mut tc) = setup();
        cc.declare(4, &[(11, S)], &mut tc).unwrap();
        assert_eq!(cc.acquire_wait(4, 11, X, &mut tc).unwrap(), Grant::Held);
        cc.finish(4, &mut tc);
        assert_eq!(cc.live_locks(), 0);
    }
}
