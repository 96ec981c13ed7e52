//! Row-level two-phase-locking lock manager with wait queues: the
//! [`CcBackend::Centralized2PL`] backend itself, and each partition of
//! [`PartitionedPerCore`](crate::cc::PartitionedPerCore).
//!
//! **Simulated footprint:** a hash table of lock buckets, each exactly one
//! 64 B cache line that every acquire and release of a key hashing to it
//! touches. Lock words are *the* shared-write hot spots of an OLTP engine:
//! every transaction from every client writes them, which is what turns
//! into coherence traffic on an SMP and into shared-L2/L1-to-L1 transfers
//! on a CMP (paper §5.2, Fig. 7).
//!
//! **Host storage:** live locks only, one ordered map from key to entry;
//! the bucket count sizes nothing on the host.
//!
//! Two disciplines coexist:
//!
//! * **No-wait** ([`ConcurrencyControl::acquire`]): conflicts surface immediately as
//!   [`EngineError::LockConflict`]. The engine uses it for one thing, the
//!   fresh-RID acquire of a row insert — a transaction's or a
//!   [`Loader`](crate::Loader)'s — because a lock on a slot nobody else
//!   has seen cannot meaningfully wait. (The partitioned backend also
//!   routes requests here that its resource ordering forbids to block.)
//! * **Queued** ([`ConcurrencyControl::acquire_wait`]): conflicting requests park on a
//!   FIFO wait queue per lock. Releases grant from the front (shared
//!   requests join in batches; upgrades jump the queue when the upgrader is
//!   the sole holder). Each enqueue updates a waits-for graph and runs
//!   cycle detection; on a cycle the *youngest* transaction (largest id) is
//!   the victim — either the requester itself (it gets
//!   [`EngineError::Deadlock`] straight back) or a parked waiter (it is
//!   dequeued, marked, and receives the error when its scheduler slot
//!   retries the acquire).
//!
//! Grant decisions made while the winner is parked are recorded so the
//! winner's retry returns the right bookkeeping result (`WaitGranted` /
//! `WaitUpgraded`), and [`ConcurrencyControl::drain_woken`] hands the
//! scheduler the transactions it must resume, in grant order
//! (determinism).

#[allow(
    clippy::disallowed_types,
    reason = "every map below is keyed lookup only; wake order comes from the `woken` Vec and wait_graph sorts before iterating"
)]
use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::cc::{CcBackend, CcStats, ConcurrencyControl};
use crate::costs::instr;
use crate::error::{EngineError, Result};
use crate::tctx::TraceCtx;
use crate::txn::TxnId;
use dbcmp_trace::AddressSpace;

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Read lock: compatible with other shared holders.
    Shared,
    /// Write lock: exclusive against every other holder.
    Exclusive,
}

/// Outcome of a queued acquire ([`ConcurrencyControl::acquire_wait`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// Newly granted now — the caller records the lock for release.
    Acquired,
    /// Already held in a compatible (or upgraded-in-place) mode — nothing
    /// to record.
    Held,
    /// Enqueued — the caller must park and retry the same acquire when the
    /// scheduler wakes it.
    Wait,
    /// Granted while the caller was parked — the caller records the lock
    /// for release and resumes.
    WaitGranted,
    /// An upgrade granted while the caller was parked — the lock was
    /// already recorded at its original Shared acquisition.
    WaitUpgraded,
}

#[derive(Debug)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    /// An upgrade waiter already holds the lock Shared and sits at the
    /// queue front until it is the sole holder.
    upgrade: bool,
}

#[derive(Debug)]
struct LockEntry {
    mode: LockMode,
    holders: Vec<TxnId>,
    waiters: VecDeque<Waiter>,
}

/// The lock table.
#[derive(Debug)]
pub struct LockMgr {
    /// Live locks by key (each entry has a holder or a waiter).
    table: BTreeMap<u64, LockEntry>,
    /// Simulated base address; bucket i lives at `addr + i*64`.
    addr: u64,
    mask: u64,
    /// Extra instructions charged per acquire/release, modelling
    /// latch/CAS contention among the clients sharing this engine
    /// (see [`instr::LOCK_CONTEND`]). Zero by default: captures are
    /// byte-identical unless a deployment opts in.
    contention: u32,
    /// txn → key it is parked on (each txn waits on at most one key).
    #[allow(
        clippy::disallowed_types,
        reason = "per-txn lookups only; see the note on the `HashMap` import"
    )]
    waiting: HashMap<TxnId, u64>,
    /// Grants decided while the winner was parked: txn → (key, upgrade).
    #[allow(
        clippy::disallowed_types,
        reason = "per-txn lookups only; see the note on the `HashMap` import"
    )]
    granted: HashMap<TxnId, (u64, bool)>,
    /// Deadlock victims to notify at their next acquire: txn → key.
    #[allow(
        clippy::disallowed_types,
        reason = "per-txn lookups only; see the note on the `HashMap` import"
    )]
    victims: HashMap<TxnId, u64>,
    /// Wake notifications (grants + victims) since the last drain, in
    /// decision order.
    woken: Vec<TxnId>,
    /// Acquires, waits and deadlock victims (the rest stay zero).
    stats: CcStats,
}

impl LockMgr {
    /// `n_buckets` simulated bucket lines, rounded up to a power of two.
    #[allow(
        clippy::disallowed_types,
        reason = "keyed-lookup maps, justified at their declarations"
    )]
    pub fn new(space: &AddressSpace, n_buckets: usize) -> Self {
        let n = n_buckets.next_power_of_two().max(64);
        LockMgr {
            table: BTreeMap::new(),
            addr: space.alloc("lock-table", n as u64 * 64),
            mask: (n - 1) as u64,
            contention: 0,
            waiting: HashMap::new(),
            granted: HashMap::new(),
            victims: HashMap::new(),
            woken: Vec::new(),
            stats: CcStats::default(),
        }
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> u64 {
        // Multiplicative hash, then mask.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.mask
    }

    #[inline]
    fn bucket_addr(&self, key: u64) -> u64 {
        self.addr + self.bucket_of(key) * 64
    }

    fn acquire_inner(
        &mut self,
        txn: TxnId,
        key: u64,
        mode: LockMode,
        wait: bool,
        tc: &mut TraceCtx,
    ) -> Result<Grant> {
        let addr = self.bucket_addr(key);
        tc.charge(tc.r.lock_mgr, instr::LOCK_ACQUIRE + self.contention);
        // The bucket header is a dependent load; the grant writes it.
        tc.load_dep(addr, 16);

        if wait {
            // Victim notification takes priority: the txn was chosen while
            // parked and must abort.
            if self.victims.remove(&txn).is_some() {
                tc.charge(tc.r.lock_mgr, instr::LOCK_WAKE);
                tc.wake();
                return Err(EngineError::Deadlock { key });
            }
            // Grant decided while parked: the lock is already held; report
            // it so the caller's bookkeeping catches up.
            if let Some((gkey, upgrade)) = self.granted.remove(&txn) {
                debug_assert_eq!(gkey, key, "parked grant must match the retried key");
                tc.charge(tc.r.lock_mgr, instr::LOCK_WAKE);
                tc.wake();
                return Ok(if upgrade {
                    Grant::WaitUpgraded
                } else {
                    Grant::WaitGranted
                });
            }
        }

        if let Some(e) = self.table.get_mut(&key) {
            let holds = e.holders.contains(&txn);
            match (mode, e.mode) {
                // Re-acquire in same-or-weaker mode.
                (LockMode::Shared, _) if holds => return Ok(Grant::Held),
                (LockMode::Exclusive, LockMode::Exclusive) if holds => return Ok(Grant::Held),
                // Upgrade by the sole holder.
                (LockMode::Exclusive, LockMode::Shared) if holds && e.holders.len() == 1 => {
                    e.mode = LockMode::Exclusive;
                    tc.store(addr, 16);
                    tc.fence();
                    return Ok(Grant::Held);
                }
                // Shared join on a shared lock (FIFO: not past waiters).
                (LockMode::Shared, LockMode::Shared) if e.waiters.is_empty() => {
                    e.holders.push(txn);
                    tc.store(addr, 16);
                    tc.fence();
                    return Ok(Grant::Acquired);
                }
                _ => {
                    if !wait {
                        return Err(EngineError::LockConflict { key });
                    }
                    // Enqueue: upgrades go to the front (they already hold
                    // the lock and everyone behind them needs it free).
                    let w = Waiter {
                        txn,
                        mode,
                        upgrade: holds,
                    };
                    if holds {
                        e.waiters.push_front(w);
                    } else {
                        e.waiters.push_back(w);
                    }
                    self.waiting.insert(txn, key);
                    tc.charge(tc.r.lock_mgr, instr::LOCK_ENQUEUE);
                    tc.store(addr, 16);
                    tc.fence();
                    return self.resolve_deadlocks(txn, key, tc);
                }
            }
        }
        let entry = LockEntry {
            mode,
            holders: vec![txn],
            waiters: VecDeque::new(),
        };
        self.table.insert(key, entry);
        tc.store(addr, 16);
        tc.fence();
        Ok(Grant::Acquired)
    }

    /// After enqueuing `txn` on `key`: hunt waits-for cycles; abort the
    /// youngest member of each until none remain that involve `txn`.
    /// Break every waits-for cycle through `txn`, choosing victims until
    /// the graph is acyclic or `txn` itself dies.
    ///
    /// **Victim rule (pinned):** the victim is the cycle member with the
    /// numerically largest [`TxnId`]. Ids are handed out by a monotone
    /// counter and never reused, so "largest id" is exactly "youngest
    /// transaction" — the least-work-lost heuristic — and, because ids
    /// are unique, the `max` is a total order with no tie to break:
    /// two captures of the same schedule always kill the same victim.
    /// Replay determinism depends on this; do not swap in a
    /// fewest-locks/least-undo heuristic without versioning the captures
    /// (see `victim_is_the_largest_txn_id_deterministically`).
    fn resolve_deadlocks(&mut self, txn: TxnId, key: u64, tc: &mut TraceCtx) -> Result<Grant> {
        loop {
            let Some(cycle) = self.find_cycle(txn) else {
                tc.block();
                return Ok(Grant::Wait);
            };
            tc.charge(
                tc.r.lock_mgr,
                instr::DEADLOCK_SCAN * cycle.len().max(1) as u32,
            );
            #[expect(
                clippy::expect_used,
                reason = "find_cycle returned Some, so the Vec has at least one member"
            )]
            let victim = *cycle.iter().max().expect("cycle is nonempty");
            if victim == txn {
                self.remove_waiter(txn, tc);
                return Err(EngineError::Deadlock { key });
            }
            // A parked waiter dies: dequeue it now (so grants can flow) and
            // notify it through the scheduler; its held locks release when
            // the transaction aborts.
            #[expect(
                clippy::expect_used,
                reason = "the cycle was built from `waiting` edges this same pass, with no mutation in between"
            )]
            let vkey = self
                .waiting
                .get(&victim)
                .copied()
                .expect("cycle members are waiters");
            self.remove_waiter(victim, tc);
            self.victims.insert(victim, vkey);
            self.woken.push(victim);
        }
    }

    /// Drop `txn` from `key`'s wait queue and re-run the grant pass (its
    /// departure may unblock the queue).
    fn remove_waiter(&mut self, txn: TxnId, tc: &mut TraceCtx) {
        let Some(key) = self.waiting.remove(&txn) else {
            return;
        };
        let addr = self.bucket_addr(key);
        if let Some(e) = self.table.get_mut(&key) {
            e.waiters.retain(|w| w.txn != txn);
            tc.store(addr, 16);
            self.grant_pass(key, tc);
        }
    }

    /// FIFO grant pass over `key`'s entry: grant from the front while
    /// compatible, recording parked grants; drop the entry when fully
    /// drained.
    fn grant_pass(&mut self, key: u64, tc: &mut TraceCtx) {
        let addr = self.bucket_addr(key);
        let LockMgr {
            table,
            waiting,
            granted,
            woken,
            ..
        } = self;
        let Some(e) = table.get_mut(&key) else {
            return;
        };
        let mut granted_any = false;
        while let Some(w) = e.waiters.front() {
            let can = if e.holders.is_empty() {
                true
            } else if w.upgrade {
                e.holders.len() == 1 && e.holders[0] == w.txn
            } else {
                w.mode == LockMode::Shared && e.mode == LockMode::Shared
            };
            if !can {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "the `while let Some` guard above proved the queue non-empty"
            )]
            let w = e.waiters.pop_front().expect("front exists");
            if w.upgrade {
                e.mode = LockMode::Exclusive;
            } else {
                if e.holders.is_empty() {
                    e.mode = w.mode;
                }
                e.holders.push(w.txn);
            }
            waiting.remove(&w.txn);
            granted.insert(w.txn, (key, w.upgrade));
            woken.push(w.txn);
            granted_any = true;
        }
        let drained = e.holders.is_empty() && e.waiters.is_empty();
        if granted_any {
            tc.store(addr, 16);
            tc.fence();
        }
        if drained {
            table.remove(&key);
        }
    }

    // ---- waits-for graph ----

    /// Who `t` waits on: the holders of its awaited lock plus the waiters
    /// queued ahead of it (FIFO: they are granted first). Empty if `t` is
    /// not waiting.
    fn wait_targets(&self, t: TxnId) -> Vec<TxnId> {
        let Some(&key) = self.waiting.get(&t) else {
            return Vec::new();
        };
        let Some(e) = self.table.get(&key) else {
            return Vec::new();
        };
        let mut out: Vec<TxnId> = e.holders.iter().copied().filter(|&h| h != t).collect();
        for w in &e.waiters {
            if w.txn == t {
                break;
            }
            out.push(w.txn);
        }
        out
    }

    /// A waits-for cycle through `start`, if any (the members, in path
    /// order).
    fn find_cycle(&self, start: TxnId) -> Option<Vec<TxnId>> {
        fn dfs(
            lm: &LockMgr,
            start: TxnId,
            cur: TxnId,
            path: &mut Vec<TxnId>,
            visited: &mut Vec<TxnId>,
        ) -> bool {
            for nxt in lm.wait_targets(cur) {
                if nxt == start {
                    return true;
                }
                if !visited.contains(&nxt) {
                    visited.push(nxt);
                    path.push(nxt);
                    if dfs(lm, start, nxt, path, visited) {
                        return true;
                    }
                    path.pop();
                }
            }
            false
        }
        let mut path = vec![start];
        let mut visited = vec![start];
        if dfs(self, start, start, &mut path, &mut visited) {
            Some(path)
        } else {
            None
        }
    }

    /// Snapshot of every live entry: (key, mode, holders, queued waiters),
    /// in bucket order, keys ascending within a bucket (tests).
    pub fn snapshot(&self) -> Vec<(u64, LockMode, Vec<TxnId>, Vec<TxnId>)> {
        let mut out: Vec<_> = self
            .table
            .iter()
            .map(|(&key, e)| {
                let waiters = e.waiters.iter().map(|w| w.txn).collect();
                (key, e.mode, e.holders.clone(), waiters)
            })
            .collect();
        out.sort_by_key(|e| self.bucket_of(e.0));
        out
    }
}

impl ConcurrencyControl for LockMgr {
    fn backend(&self) -> CcBackend {
        CcBackend::Centralized2PL
    }

    /// Acquire `key` in `mode` for `txn`, no-wait: conflicts return
    /// [`EngineError::LockConflict`] immediately. Re-acquisition and S→X
    /// upgrade by a sole holder succeed. Returns `true` if the lock is
    /// newly granted (the caller records it for release).
    fn acquire(&mut self, txn: TxnId, key: u64, mode: LockMode, tc: &mut TraceCtx) -> Result<bool> {
        self.stats.acquires += 1;
        match self.acquire_inner(txn, key, mode, false, tc)? {
            Grant::Acquired => Ok(true),
            Grant::Held => Ok(false),
            // Unreachable in no-wait mode.
            g => unreachable!("no-wait acquire returned {g:?}"),
        }
    }

    /// Acquire `key` in `mode` for `txn` under the queued discipline; see
    /// the module docs for the [`Grant`] protocol.
    fn acquire_wait(
        &mut self,
        txn: TxnId,
        key: u64,
        mode: LockMode,
        tc: &mut TraceCtx,
    ) -> Result<Grant> {
        self.stats.acquires += 1;
        let res = self.acquire_inner(txn, key, mode, true, tc);
        match res {
            Ok(Grant::Wait) => self.stats.waits += 1,
            Err(EngineError::Deadlock { .. }) => self.stats.deadlocks += 1,
            _ => {}
        }
        res
    }

    /// Release one lock held by `txn`.
    fn release(&mut self, txn: TxnId, key: u64, tc: &mut TraceCtx) {
        tc.charge(tc.r.lock_mgr, instr::LOCK_RELEASE + self.contention);
        tc.store(self.bucket_addr(key), 16);
        if let Some(e) = self.table.get_mut(&key) {
            e.holders.retain(|&t| t != txn);
            self.grant_pass(key, tc);
        }
    }

    /// Abort-path cleanup: drop `txn`'s waiter entry (if any), any
    /// unclaimed parked grant, and any pending victim mark. Returns lock
    /// table state to what release() expects.
    fn cancel_wait(&mut self, txn: TxnId, tc: &mut TraceCtx) {
        self.victims.remove(&txn);
        if self.waiting.contains_key(&txn) {
            self.remove_waiter(txn, tc);
        }
        if let Some((key, upgrade)) = self.granted.remove(&txn) {
            // Granted while parked but never observed by the owner: for a
            // fresh grant the holder entry must go (the owner never
            // recorded it, so release() will not); an upgrade reverts on
            // the ordinary release of the originally-recorded lock.
            if !upgrade {
                self.release(txn, key, tc);
            }
        }
    }

    /// Transactions to resume since the last call: lock grants and victim
    /// notifications, in decision order.
    fn drain_woken(&mut self) -> Vec<TxnId> {
        std::mem::take(&mut self.woken)
    }

    /// Set the contention surcharge charged on every acquire/release
    /// (extra lock-manager instructions per operation). The policy that
    /// derives it from a sharer count lives on
    /// [`Database::set_lock_sharers`](crate::Database::set_lock_sharers).
    fn set_contention(&mut self, extra: u32) {
        self.contention = extra;
    }

    fn live_locks(&self) -> usize {
        self.table.len()
    }

    fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    fn wait_graph(&self) -> Vec<(TxnId, Vec<TxnId>)> {
        let mut waiters: Vec<TxnId> = self.waiting.keys().copied().collect();
        waiters.sort_unstable();
        waiters
            .into_iter()
            .map(|t| (t, self.wait_targets(t)))
            .collect()
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

    fn setup() -> (LockMgr, TraceCtx) {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let space = AddressSpace::new();
        (LockMgr::new(&space, 1024), TraceCtx::null(er))
    }

    #[test]
    fn shared_locks_coexist_exclusive_conflicts() {
        let (mut lm, mut tc) = setup();
        assert!(lm.acquire(1, 42, LockMode::Shared, &mut tc).unwrap());
        assert!(lm.acquire(2, 42, LockMode::Shared, &mut tc).unwrap());
        assert!(matches!(
            lm.acquire(3, 42, LockMode::Exclusive, &mut tc),
            Err(EngineError::LockConflict { key: 42 })
        ));
    }

    #[test]
    fn exclusive_blocks_shared() {
        let (mut lm, mut tc) = setup();
        lm.acquire(1, 7, LockMode::Exclusive, &mut tc).unwrap();
        assert!(lm.acquire(2, 7, LockMode::Shared, &mut tc).is_err());
        assert!(lm.acquire(2, 7, LockMode::Exclusive, &mut tc).is_err());
    }

    #[test]
    fn reacquire_is_idempotent() {
        let (mut lm, mut tc) = setup();
        assert!(lm.acquire(1, 7, LockMode::Exclusive, &mut tc).unwrap());
        assert!(!lm.acquire(1, 7, LockMode::Exclusive, &mut tc).unwrap());
        assert!(!lm.acquire(1, 7, LockMode::Shared, &mut tc).unwrap());
        assert_eq!(lm.live_locks(), 1);
    }

    #[test]
    fn upgrade_sole_holder_succeeds_shared_blocks() {
        let (mut lm, mut tc) = setup();
        lm.acquire(1, 9, LockMode::Shared, &mut tc).unwrap();
        assert!(!lm.acquire(1, 9, LockMode::Exclusive, &mut tc).unwrap());
        // Now X-held; another S fails.
        assert!(lm.acquire(2, 9, LockMode::Shared, &mut tc).is_err());

        // Upgrade with two sharers fails.
        lm.acquire(1, 10, LockMode::Shared, &mut tc).unwrap();
        lm.acquire(2, 10, LockMode::Shared, &mut tc).unwrap();
        assert!(lm.acquire(1, 10, LockMode::Exclusive, &mut tc).is_err());
    }

    #[test]
    fn release_frees_the_lock() {
        let (mut lm, mut tc) = setup();
        lm.acquire(1, 5, LockMode::Exclusive, &mut tc).unwrap();
        lm.release(1, 5, &mut tc);
        assert_eq!(lm.live_locks(), 0);
        assert!(lm.acquire(2, 5, LockMode::Exclusive, &mut tc).unwrap());
    }

    #[test]
    fn distinct_keys_do_not_conflict() {
        let (mut lm, mut tc) = setup();
        for k in 0..100 {
            assert!(lm
                .acquire(k % 5, 1000 + k, LockMode::Exclusive, &mut tc)
                .unwrap());
        }
        assert_eq!(lm.live_locks(), 100);
    }

    // ---- queued discipline ----

    #[test]
    fn conflicting_request_queues_and_is_granted_fifo() {
        let (mut lm, mut tc) = setup();
        assert_eq!(
            lm.acquire_wait(1, 5, LockMode::Exclusive, &mut tc).unwrap(),
            Grant::Acquired
        );
        assert_eq!(
            lm.acquire_wait(2, 5, LockMode::Exclusive, &mut tc).unwrap(),
            Grant::Wait
        );
        assert_eq!(
            lm.acquire_wait(3, 5, LockMode::Exclusive, &mut tc).unwrap(),
            Grant::Wait
        );
        assert_eq!(lm.waiting_count(), 2);
        assert!(lm.drain_woken().is_empty());

        lm.release(1, 5, &mut tc);
        // FIFO: txn 2 first.
        assert_eq!(lm.drain_woken(), vec![2]);
        assert_eq!(
            lm.acquire_wait(2, 5, LockMode::Exclusive, &mut tc).unwrap(),
            Grant::WaitGranted
        );
        lm.release(2, 5, &mut tc);
        assert_eq!(lm.drain_woken(), vec![3]);
        assert_eq!(
            lm.acquire_wait(3, 5, LockMode::Exclusive, &mut tc).unwrap(),
            Grant::WaitGranted
        );
        lm.release(3, 5, &mut tc);
        assert_eq!(lm.live_locks(), 0);
        assert_eq!(lm.waiting_count(), 0);
    }

    #[test]
    fn shared_waiters_granted_in_a_batch() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 8, LockMode::Exclusive, &mut tc).unwrap();
        assert_eq!(
            lm.acquire_wait(2, 8, LockMode::Shared, &mut tc).unwrap(),
            Grant::Wait
        );
        assert_eq!(
            lm.acquire_wait(3, 8, LockMode::Shared, &mut tc).unwrap(),
            Grant::Wait
        );
        lm.release(1, 8, &mut tc);
        assert_eq!(lm.drain_woken(), vec![2, 3]);
        assert_eq!(
            lm.acquire_wait(2, 8, LockMode::Shared, &mut tc).unwrap(),
            Grant::WaitGranted
        );
        assert_eq!(
            lm.acquire_wait(3, 8, LockMode::Shared, &mut tc).unwrap(),
            Grant::WaitGranted
        );
    }

    #[test]
    fn shared_join_does_not_jump_the_queue() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 9, LockMode::Shared, &mut tc).unwrap();
        // X waiter queues.
        assert_eq!(
            lm.acquire_wait(2, 9, LockMode::Exclusive, &mut tc).unwrap(),
            Grant::Wait
        );
        // A later S request must not starve the X waiter.
        assert_eq!(
            lm.acquire_wait(3, 9, LockMode::Shared, &mut tc).unwrap(),
            Grant::Wait
        );
        lm.release(1, 9, &mut tc);
        assert_eq!(lm.drain_woken(), vec![2]);
    }

    #[test]
    fn two_txn_cycle_aborts_the_youngest() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 100, LockMode::Exclusive, &mut tc)
            .unwrap();
        lm.acquire_wait(2, 200, LockMode::Exclusive, &mut tc)
            .unwrap();
        // Older txn 1 parks on 200.
        assert_eq!(
            lm.acquire_wait(1, 200, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Wait
        );
        // Younger txn 2 closes the cycle → it is the victim, immediately.
        assert!(matches!(
            lm.acquire_wait(2, 100, LockMode::Exclusive, &mut tc),
            Err(EngineError::Deadlock { key: 100 })
        ));
        assert!(!lm.has_deadlock(), "resolution leaves the graph acyclic");
        // Victim aborts: releases its held lock; survivor is granted.
        lm.release(2, 200, &mut tc);
        assert_eq!(lm.drain_woken(), vec![1]);
        assert_eq!(
            lm.acquire_wait(1, 200, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::WaitGranted
        );
        lm.release(1, 100, &mut tc);
        lm.release(1, 200, &mut tc);
        assert_eq!(lm.live_locks(), 0);
        assert_eq!(lm.waiting_count(), 0);
    }

    #[test]
    fn victim_is_the_largest_txn_id_deterministically() {
        // Pins the victim rule: largest TxnId in the cycle dies, no
        // matter which member's request closes the cycle or in which
        // order locks were taken. A three-member cycle 5→9→7→5 (waits-for
        // edges) must always kill 9.
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(5, 100, LockMode::Exclusive, &mut tc)
            .unwrap();
        lm.acquire_wait(9, 200, LockMode::Exclusive, &mut tc)
            .unwrap();
        lm.acquire_wait(7, 300, LockMode::Exclusive, &mut tc)
            .unwrap();
        // 5 waits on 9's lock, 9 waits on 7's lock.
        assert_eq!(
            lm.acquire_wait(5, 200, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Wait
        );
        assert_eq!(
            lm.acquire_wait(9, 300, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Wait
        );
        // 7 closes the cycle. It is NOT the youngest: 9 is, and 9 is a
        // parked bystander — it must still be the one chosen.
        assert_eq!(
            lm.acquire_wait(7, 100, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Wait,
            "the requester survives; the youngest parked member dies"
        );
        assert!(!lm.has_deadlock());
        // The victim notification reached 9 through the wake channel.
        assert_eq!(lm.drain_woken(), vec![9]);
        // 9's retry of its parked request reports the deadlock.
        assert!(matches!(
            lm.acquire_wait(9, 300, LockMode::Exclusive, &mut tc),
            Err(EngineError::Deadlock { .. })
        ));
        // 9 aborts; the survivors drain in grant order and finish.
        lm.release(9, 200, &mut tc);
        assert_eq!(lm.drain_woken(), vec![5]);
        for (t, keys) in [(5u64, [100u64, 200]), (7, [300, 100])] {
            for k in keys {
                lm.release(t, k, &mut tc);
            }
        }
        assert_eq!(lm.drain_woken(), vec![7]);
        assert_eq!(lm.waiting_count(), 0);
    }

    #[test]
    fn parked_victim_is_woken_and_notified() {
        let (mut lm, mut tc) = setup();
        // Younger txn 2 parks first; older txn 1 then closes the cycle, so
        // the victim is the *parked* waiter, not the requester.
        lm.acquire_wait(1, 100, LockMode::Exclusive, &mut tc)
            .unwrap();
        lm.acquire_wait(2, 200, LockMode::Exclusive, &mut tc)
            .unwrap();
        assert_eq!(
            lm.acquire_wait(2, 100, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Wait
        );
        // Requester 1 parks (victim is 2, woken for notification).
        assert_eq!(
            lm.acquire_wait(1, 200, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Wait
        );
        assert_eq!(lm.drain_woken(), vec![2]);
        assert!(matches!(
            lm.acquire_wait(2, 100, LockMode::Exclusive, &mut tc),
            Err(EngineError::Deadlock { .. })
        ));
        // Victim aborts → survivor granted.
        lm.release(2, 200, &mut tc);
        assert_eq!(lm.drain_woken(), vec![1]);
        assert_eq!(
            lm.acquire_wait(1, 200, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::WaitGranted
        );
    }

    #[test]
    fn upgrade_waits_for_other_sharers_then_wins() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 4, LockMode::Shared, &mut tc).unwrap();
        lm.acquire_wait(2, 4, LockMode::Shared, &mut tc).unwrap();
        // Sole-holder condition fails → upgrade parks at the queue front.
        assert_eq!(
            lm.acquire_wait(1, 4, LockMode::Exclusive, &mut tc).unwrap(),
            Grant::Wait
        );
        lm.release(2, 4, &mut tc);
        assert_eq!(lm.drain_woken(), vec![1]);
        assert_eq!(
            lm.acquire_wait(1, 4, LockMode::Exclusive, &mut tc).unwrap(),
            Grant::WaitUpgraded
        );
        let snap = lm.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1, LockMode::Exclusive);
        assert_eq!(snap[0].2, vec![1]);
    }

    #[test]
    fn cancel_wait_unblocks_the_queue() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 6, LockMode::Shared, &mut tc).unwrap();
        lm.acquire_wait(2, 6, LockMode::Exclusive, &mut tc).unwrap();
        assert_eq!(
            lm.acquire_wait(3, 6, LockMode::Shared, &mut tc).unwrap(),
            Grant::Wait
        );
        // Txn 2 gives up its wait: the S waiter behind it can now join.
        lm.cancel_wait(2, &mut tc);
        assert_eq!(lm.drain_woken(), vec![3]);
        assert_eq!(
            lm.acquire_wait(3, 6, LockMode::Shared, &mut tc).unwrap(),
            Grant::WaitGranted
        );
        assert_eq!(lm.waiting_count(), 0);
    }

    #[test]
    fn counters_track_waits_and_deadlocks() {
        let (mut lm, mut tc) = setup();
        assert_eq!(
            lm.acquire_wait(1, 10, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Acquired
        );
        assert_eq!(
            lm.acquire_wait(2, 20, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Acquired
        );
        // 1 parks on 20; 2 closes the cycle on 10 and is the victim.
        assert_eq!(
            lm.acquire_wait(1, 20, LockMode::Exclusive, &mut tc)
                .unwrap(),
            Grant::Wait
        );
        assert!(matches!(
            lm.acquire_wait(2, 10, LockMode::Exclusive, &mut tc),
            Err(EngineError::Deadlock { .. })
        ));
        let s = lm.stats();
        assert_eq!(s.acquires, 4);
        assert_eq!(s.waits, 1);
        assert_eq!(s.deadlocks, 1);
        assert_eq!(s.ordering_waits, 0);
        assert_eq!(s.remote_msgs, 0);
    }

    #[test]
    fn declare_is_a_no_op() {
        let (mut lm, mut tc) = setup();
        lm.declare(7, &[(1, LockMode::Exclusive)], &mut tc).unwrap();
        assert_eq!(lm.live_locks(), 0);
        lm.finish(7, &mut tc);
    }

    #[test]
    fn cancel_wait_returns_unclaimed_parked_grant() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 3, LockMode::Exclusive, &mut tc).unwrap();
        lm.acquire_wait(2, 3, LockMode::Exclusive, &mut tc).unwrap();
        lm.release(1, 3, &mut tc);
        assert_eq!(lm.drain_woken(), vec![2]);
        // Txn 2 aborts before its retry observes the grant.
        lm.cancel_wait(2, &mut tc);
        assert_eq!(lm.live_locks(), 0, "unclaimed grant must not leak");
    }
}
