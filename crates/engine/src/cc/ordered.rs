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

use std::collections::{BTreeMap, VecDeque};

use crate::cc::{CcBackend, CcStats, ConcurrencyControl};
use crate::costs::instr;
use crate::error::{EngineError, Result};
use crate::lockmgr::{Grant, LockMode};
use crate::tctx::TraceCtx;
use crate::txn::TxnId;

#[derive(Debug)]
struct OEntry {
    mode: LockMode,
    holders: Vec<TxnId>,
    /// FIFO ordering queue: declared requests waiting for the key.
    waiters: VecDeque<(TxnId, LockMode)>,
}

#[derive(Debug)]
struct DeclaredSet {
    /// key → (declared mode, granted yet?).
    keys: BTreeMap<u64, (LockMode, bool)>,
    /// Declared keys not yet granted.
    pending: usize,
}

/// Deterministic pre-ordered execution over declared read/write sets
/// (see module docs).
#[derive(Debug)]
pub struct DeterministicOrdered {
    table: BTreeMap<u64, OEntry>,
    declared: BTreeMap<TxnId, DeclaredSet>,
    /// Simulated base address of the ordering table; bucket i lives at
    /// `addr + i*64` (same footprint discipline as the lock table).
    addr: u64,
    mask: u64,
    contention: u32,
    woken: Vec<TxnId>,
    stats: CcStats,
}

impl DeterministicOrdered {
    /// An ordered backend with `n_buckets` (rounded up to a power of two)
    /// simulated ordering-table buckets.
    pub fn new(space: &AddressSpace, n_buckets: usize) -> Self {
        let n = n_buckets.next_power_of_two().max(64);
        DeterministicOrdered {
            table: BTreeMap::new(),
            declared: BTreeMap::new(),
            addr: space.alloc("cc-ordered-table", n as u64 * 64),
            mask: (n - 1) as u64,
            contention: 0,
            woken: Vec::new(),
            stats: CcStats::default(),
        }
    }

    #[inline]
    fn bucket_addr(&self, key: u64) -> u64 {
        self.addr + ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.mask) * 64
    }

    /// FIFO grant pass over `key` after holders changed: grant queued
    /// declarations from the front while compatible, and wake any
    /// transaction whose declared set just completed.
    fn grant_pass(&mut self, key: u64, tc: &mut TraceCtx) {
        let addr = self.bucket_addr(key);
        let DeterministicOrdered {
            table,
            declared,
            woken,
            ..
        } = self;
        let Some(e) = table.get_mut(&key) else {
            return;
        };
        let mut granted_any = false;
        while let Some(&(t, m)) = e.waiters.front() {
            let can = e.holders.is_empty() || (m == LockMode::Shared && e.mode == LockMode::Shared);
            if !can {
                break;
            }
            e.waiters.pop_front();
            if e.holders.is_empty() {
                e.mode = m;
            }
            e.holders.push(t);
            granted_any = true;
            if let Some(ds) = declared.get_mut(&t) {
                if let Some(slot) = ds.keys.get_mut(&key) {
                    if !slot.1 {
                        slot.1 = true;
                        ds.pending -= 1;
                        if ds.pending == 0 {
                            woken.push(t);
                        }
                    }
                }
            }
        }
        if granted_any {
            tc.store(addr, 16);
            tc.fence();
        }
        if e.holders.is_empty() && e.waiters.is_empty() {
            table.remove(&key);
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
        let addr = self.bucket_addr(key);
        tc.charge(tc.r.lock_mgr, instr::LOCK_ACQUIRE + self.contention);
        tc.load_dep(addr, 16);

        if let Some(ds) = self.declared.get_mut(&txn) {
            if let Some(&(dmode, granted)) = ds.keys.get(&key) {
                if !granted {
                    // Execution before the set completed cannot happen
                    // (declare parks until pending == 0); treat a stray
                    // probe as a conflict rather than corrupting state.
                    self.stats.fallback_conflicts += 1;
                    return Err(EngineError::LockConflict { key });
                }
                match (mode, dmode) {
                    (LockMode::Shared, _) | (LockMode::Exclusive, LockMode::Exclusive) => {
                        return Ok(Grant::Held);
                    }
                    (LockMode::Exclusive, LockMode::Shared) => {
                        // Derivation under-declared: upgrade in place when
                        // sole holder, else conflict (no waiting at
                        // execution time).
                        let Some(e) = self.table.get_mut(&key) else {
                            self.stats.fallback_conflicts += 1;
                            return Err(EngineError::LockConflict { key });
                        };
                        if e.holders == [txn] && e.waiters.is_empty() {
                            e.mode = LockMode::Exclusive;
                            ds.keys.insert(key, (LockMode::Exclusive, true));
                            tc.store(addr, 16);
                            tc.fence();
                            return Ok(Grant::Held);
                        }
                        self.stats.fallback_conflicts += 1;
                        return Err(EngineError::LockConflict { key });
                    }
                }
            }
        }

        // Fallback: the key was not declared (derivation miss). No-wait.
        let Some(e) = self.table.get_mut(&key) else {
            self.table.insert(
                key,
                OEntry {
                    mode,
                    holders: vec![txn],
                    waiters: VecDeque::new(),
                },
            );
            tc.store(addr, 16);
            tc.fence();
            return Ok(Grant::Acquired);
        };
        let holds = e.holders.contains(&txn);
        match (mode, e.mode) {
            (LockMode::Shared, _) if holds => Ok(Grant::Held),
            (LockMode::Exclusive, LockMode::Exclusive) if holds => Ok(Grant::Held),
            (LockMode::Exclusive, LockMode::Shared) if holds && e.holders.len() == 1 => {
                e.mode = LockMode::Exclusive;
                tc.store(addr, 16);
                tc.fence();
                Ok(Grant::Held)
            }
            (LockMode::Shared, LockMode::Shared)
                if e.waiters.is_empty() && !e.holders.is_empty() =>
            {
                e.holders.push(txn);
                tc.store(addr, 16);
                tc.fence();
                Ok(Grant::Acquired)
            }
            _ => {
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
        match self.acquire_inner(txn, key, mode, tc)? {
            Grant::Acquired => Ok(true),
            _ => Ok(false),
        }
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
            return if ds.pending == 0 {
                tc.charge(tc.r.lock_mgr, instr::LOCK_WAKE);
                tc.wake();
                Ok(())
            } else {
                // Spurious retry while still pending: park again.
                let key = ds
                    .keys
                    .iter()
                    .find(|(_, &(_, g))| !g)
                    .map(|(&k, _)| k)
                    .unwrap_or_default();
                tc.block();
                Err(EngineError::LockWait { key })
            };
        }

        // Merge duplicate declarations (Exclusive dominates Shared); the
        // BTreeMap makes enqueue order deterministic (ascending key).
        let mut merged: BTreeMap<u64, LockMode> = BTreeMap::new();
        for &(k, m) in keys {
            let slot = merged.entry(k).or_insert(m);
            if m == LockMode::Exclusive {
                *slot = LockMode::Exclusive;
            }
        }
        let mut ds = DeclaredSet {
            keys: BTreeMap::new(),
            pending: 0,
        };
        for (&k, &m) in &merged {
            tc.charge(tc.r.lock_mgr, instr::LOCK_ENQUEUE + self.contention);
            tc.store(self.bucket_addr(k), 16);
            let granted = match self.table.get_mut(&k) {
                None => {
                    self.table.insert(
                        k,
                        OEntry {
                            mode: m,
                            holders: vec![txn],
                            waiters: VecDeque::new(),
                        },
                    );
                    true
                }
                Some(e) => {
                    // Strict FIFO: join only a waiter-free shared crowd.
                    if e.waiters.is_empty()
                        && m == LockMode::Shared
                        && e.mode == LockMode::Shared
                        && !e.holders.is_empty()
                    {
                        e.holders.push(txn);
                        true
                    } else {
                        e.waiters.push_back((txn, m));
                        false
                    }
                }
            };
            if !granted {
                ds.pending += 1;
            }
            ds.keys.insert(k, (m, granted));
        }
        tc.fence();
        let first_pending = ds.keys.iter().find(|(_, &(_, g))| !g).map(|(&k, _)| k);
        let complete = ds.pending == 0;
        self.declared.insert(txn, ds);
        if complete {
            Ok(())
        } else {
            self.stats.ordering_waits += 1;
            tc.block();
            Err(EngineError::LockWait {
                key: first_pending.unwrap_or_default(),
            })
        }
    }

    fn release(&mut self, txn: TxnId, key: u64, tc: &mut TraceCtx) {
        tc.charge(tc.r.lock_mgr, instr::LOCK_RELEASE + self.contention);
        tc.store(self.bucket_addr(key), 16);
        if let Some(e) = self.table.get_mut(&key) {
            e.holders.retain(|&t| t != txn);
            self.grant_pass(key, tc);
        }
    }

    fn finish(&mut self, txn: TxnId, tc: &mut TraceCtx) {
        let Some(ds) = self.declared.remove(&txn) else {
            return;
        };
        for (&k, &(_, granted)) in &ds.keys {
            if granted {
                self.release(txn, k, tc);
            } else if let Some(e) = self.table.get_mut(&k) {
                // Defensive: a never-granted declaration (abort while
                // parked without cancel_wait) leaves the queue.
                e.waiters.retain(|&(t, _)| t != txn);
                self.grant_pass(k, tc);
            }
        }
    }

    fn cancel_wait(&mut self, txn: TxnId, tc: &mut TraceCtx) {
        let pending_keys: Vec<u64> = match self.declared.get(&txn) {
            Some(ds) if ds.pending > 0 => ds
                .keys
                .iter()
                .filter(|(_, &(_, g))| !g)
                .map(|(&k, _)| k)
                .collect(),
            _ => return,
        };
        for k in &pending_keys {
            if let Some(e) = self.table.get_mut(k) {
                e.waiters.retain(|&(t, _)| t != txn);
                tc.store(self.bucket_addr(*k), 16);
                self.grant_pass(*k, tc);
            }
        }
        if let Some(ds) = self.declared.get_mut(&txn) {
            for k in &pending_keys {
                ds.keys.remove(k);
            }
            ds.pending = 0;
        }
    }

    fn drain_woken(&mut self) -> Vec<TxnId> {
        std::mem::take(&mut self.woken)
    }

    fn set_contention(&mut self, extra: u32) {
        self.contention = extra;
    }

    fn live_locks(&self) -> usize {
        self.table.len()
    }

    fn waiting_count(&self) -> usize {
        self.declared.values().filter(|ds| ds.pending > 0).count()
    }

    fn wait_graph(&self) -> Vec<(TxnId, Vec<TxnId>)> {
        let mut g = Vec::new();
        for (&t, ds) in &self.declared {
            if ds.pending == 0 {
                continue;
            }
            let mut targets: Vec<TxnId> = Vec::new();
            for (&k, &(_, granted)) in &ds.keys {
                if granted {
                    continue;
                }
                let Some(e) = self.table.get(&k) else {
                    continue;
                };
                targets.extend(e.holders.iter().copied().filter(|&h| h != t));
                for &(w, _) in &e.waiters {
                    if w == t {
                        break;
                    }
                    targets.push(w);
                }
            }
            targets.sort_unstable();
            targets.dedup();
            g.push((t, targets));
        }
        g
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

    fn setup() -> (DeterministicOrdered, TraceCtx) {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let space = AddressSpace::new();
        (DeterministicOrdered::new(&space, 1024), TraceCtx::null(er))
    }

    #[test]
    fn uncontended_declare_grants_immediately() {
        let (mut cc, mut tc) = setup();
        cc.declare(
            1,
            &[(10, LockMode::Shared), (20, LockMode::Exclusive)],
            &mut tc,
        )
        .unwrap();
        assert_eq!(cc.live_locks(), 2);
        // Execution probes on declared keys report Held (backend-owned).
        assert_eq!(
            cc.acquire_wait(1, 10, LockMode::Shared, &mut tc).unwrap(),
            Grant::Held
        );
        assert_eq!(
            cc.acquire_wait(1, 20, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Held
        );
        cc.finish(1, &mut tc);
        assert_eq!(cc.live_locks(), 0, "finish releases the declared set");
    }

    #[test]
    fn conflicting_declare_parks_in_fifo_order_and_wakes() {
        let (mut cc, mut tc) = setup();
        cc.declare(1, &[(5, LockMode::Exclusive)], &mut tc).unwrap();
        // Txn 2 declares the same key: parks on the ordering queue.
        assert!(matches!(
            cc.declare(
                2,
                &[(5, LockMode::Exclusive), (6, LockMode::Shared)],
                &mut tc
            ),
            Err(EngineError::LockWait { key: 5 })
        ));
        assert_eq!(cc.waiting_count(), 1);
        assert_eq!(cc.stats().ordering_waits, 1);
        // Retry while still parked stays parked.
        assert!(matches!(
            cc.declare(
                2,
                &[(5, LockMode::Exclusive), (6, LockMode::Shared)],
                &mut tc
            ),
            Err(EngineError::LockWait { .. })
        ));
        // Txn 1 finishes → txn 2's whole set completes → it is woken.
        cc.finish(1, &mut tc);
        assert_eq!(cc.drain_woken(), vec![2]);
        cc.declare(
            2,
            &[(5, LockMode::Exclusive), (6, LockMode::Shared)],
            &mut tc,
        )
        .unwrap();
        cc.finish(2, &mut tc);
        assert_eq!(cc.live_locks(), 0);
        assert_eq!(cc.stats().deadlocks, 0);
    }

    #[test]
    fn later_declarer_cannot_overtake_a_queued_one() {
        let (mut cc, mut tc) = setup();
        cc.declare(1, &[(7, LockMode::Shared)], &mut tc).unwrap();
        // Txn 2 wants X: queues behind the S holder.
        assert!(cc.declare(2, &[(7, LockMode::Exclusive)], &mut tc).is_err());
        // Txn 3 wants S — compatible with the holder, but FIFO says no.
        assert!(cc.declare(3, &[(7, LockMode::Shared)], &mut tc).is_err());
        cc.finish(1, &mut tc);
        assert_eq!(cc.drain_woken(), vec![2], "strict declare order");
        cc.declare(2, &[(7, LockMode::Exclusive)], &mut tc).unwrap();
        cc.finish(2, &mut tc);
        assert_eq!(cc.drain_woken(), vec![3]);
        cc.declare(3, &[(7, LockMode::Shared)], &mut tc).unwrap();
        cc.finish(3, &mut tc);
        assert_eq!(cc.live_locks(), 0);
    }

    #[test]
    fn undeclared_conflict_is_nowait_never_deadlock() {
        let (mut cc, mut tc) = setup();
        cc.declare(1, &[(30, LockMode::Exclusive)], &mut tc)
            .unwrap();
        // Txn 2 executes with an empty declaration and hits 30: immediate
        // conflict, no parking, no cycle.
        cc.declare(2, &[], &mut tc).unwrap();
        assert!(matches!(
            cc.acquire_wait(2, 30, LockMode::Exclusive, &mut tc),
            Err(EngineError::LockConflict { key: 30 })
        ));
        assert_eq!(cc.stats().fallback_conflicts, 1);
        assert!(!cc.has_deadlock());
        // A free undeclared key is granted and recorded by the caller.
        assert_eq!(
            cc.acquire_wait(2, 31, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Acquired
        );
        cc.release(2, 31, &mut tc);
        cc.finish(2, &mut tc);
        cc.finish(1, &mut tc);
        assert_eq!(cc.live_locks(), 0);
    }

    #[test]
    fn cancel_wait_leaves_queue_and_unblocks() {
        let (mut cc, mut tc) = setup();
        cc.declare(1, &[(9, LockMode::Exclusive)], &mut tc).unwrap();
        assert!(cc.declare(2, &[(9, LockMode::Shared)], &mut tc).is_err());
        assert!(cc.declare(3, &[(9, LockMode::Shared)], &mut tc).is_err());
        // Txn 2 aborts while parked.
        cc.cancel_wait(2, &mut tc);
        cc.finish(2, &mut tc);
        assert_eq!(cc.waiting_count(), 1);
        cc.finish(1, &mut tc);
        assert_eq!(cc.drain_woken(), vec![3]);
        cc.declare(3, &[(9, LockMode::Shared)], &mut tc).unwrap();
        cc.finish(3, &mut tc);
        assert_eq!(cc.live_locks(), 0);
    }

    #[test]
    fn underdeclared_upgrade_by_sole_holder_succeeds() {
        let (mut cc, mut tc) = setup();
        cc.declare(4, &[(11, LockMode::Shared)], &mut tc).unwrap();
        assert_eq!(
            cc.acquire_wait(4, 11, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Held
        );
        cc.finish(4, &mut tc);
        assert_eq!(cc.live_locks(), 0);
    }
}
