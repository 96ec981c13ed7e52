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
//! **Host storage:** live locks only, one hash map from key to entry under
//! a fixed, seedless mixer (looked up by key only; the one pass over it,
//! [`LockMgr::snapshot`], sorts by bucket and key); the bucket count sizes
//! nothing on the host, and a released entry's holder and waiter buffers
//! serve the next fresh entry, so a lock cycle allocates nothing. That
//! map, the bucket lines, the compatibility matrix and the FIFO grant pass
//! are the crate's one `LockTable`, which
//! [`DeterministicOrdered`](crate::cc::DeterministicOrdered) queues its
//! declarations in too.
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
//!   the sole holder). Each enqueue runs cycle detection on the waits-for
//!   graph; on a cycle the *youngest* transaction (largest id) is
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

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

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

/// The multiplicative lock hash: bits 32.. pick a table's bucket, the top
/// bits a [`PartitionedPerCore`](crate::cc::PartitionedPerCore) partition,
/// so the two choices are independent.
#[inline]
pub(crate) fn lock_hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[derive(Debug)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    /// An upgrade waiter already holds the lock Shared and sits at the
    /// queue front until it is the sole holder.
    upgrade: bool,
}

impl Waiter {
    /// May this request, at the queue front, be granted while `holders`
    /// hold the lock in `mode`? An empty lock always; an upgrade once its
    /// requester is the sole holder; a shared request joins shared holders.
    fn grantable(&self, holders: &[TxnId], mode: LockMode) -> bool {
        holders.is_empty()
            || if self.upgrade {
                holders == [self.txn]
            } else {
                self.mode == LockMode::Shared && mode == LockMode::Shared
            }
    }
}

#[derive(Debug)]
struct LockEntry {
    mode: LockMode,
    holders: Vec<TxnId>,
    waiters: VecDeque<Waiter>,
}

/// Hashes a `u64` lock key by splitmix64's finaliser, so every key bit
/// reaches both the bits a hash table indexes by and the bits it tags
/// with. It takes no seed: the map's layout is the same in every run.
#[derive(Debug, Default)]
struct KeyMix(u64);

impl Hasher for KeyMix {
    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

#[allow(
    clippy::disallowed_types,
    reason = "looked up by key only, under a fixed seedless hasher; the one pass over it, `LockTable::snapshot`, sorts by (bucket, key)"
)]
type Entries = std::collections::HashMap<u64, LockEntry, BuildHasherDefault<KeyMix>>;

/// What [`LockTable::admit`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Granted by writing the bucket line: a fresh entry or a shared join
    /// ([`Grant::Acquired`]), or the sole holder's upgrade ([`Grant::Held`]).
    Wrote(Grant),
    /// Already held in a covering mode; nothing changed.
    Held,
    /// Incompatible, and queued as asked.
    Queued,
    /// Incompatible; nothing changed.
    Conflict,
}

/// The lock table every backend keeps its locks in: live entries by key,
/// each with its holders and FIFO wait queue, on simulated bucket lines.
/// It decides grants; what a grant *means* (a parked transaction to
/// resume, a declared set one key closer to complete) is its caller's. It
/// emits only what every caller emits the same way: a release's charge
/// and store, and the store and fence after a grant pass that granted.
#[derive(Debug)]
pub(crate) struct LockTable {
    /// Live locks by key (each entry has a holder or a waiter).
    entries: Entries,
    /// Released entries, emptied, whose buffers the next fresh entry takes.
    free: Vec<LockEntry>,
    /// Simulated base address; bucket i lives at `addr + i*64`.
    addr: u64,
    mask: u64,
    /// Extra instructions charged per acquire/release, modelling
    /// latch/CAS contention among the clients sharing this engine
    /// (see [`instr::LOCK_CONTEND`]). Zero by default: captures are
    /// byte-identical unless a deployment opts in.
    pub(crate) contention: u32,
}

impl LockTable {
    /// `n_buckets` simulated bucket lines, rounded up to a power of two.
    pub(crate) fn new(space: &AddressSpace, n_buckets: usize) -> Self {
        let n = n_buckets.next_power_of_two().max(64);
        LockTable {
            entries: Entries::default(),
            free: Vec::new(),
            addr: space.alloc(n as u64 * 64),
            mask: (n - 1) as u64,
            contention: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> u64 {
        (lock_hash(key) >> 32) & self.mask
    }

    /// The simulated address of `key`'s bucket line.
    #[inline]
    pub(crate) fn bucket_addr(&self, key: u64) -> u64 {
        self.addr + self.bucket_of(key) * 64
    }

    /// Record a write of `key`'s bucket line: the store, then the fence
    /// that publishes it.
    pub(crate) fn write_line(&self, key: u64, tc: &mut TraceCtx) {
        tc.store(self.bucket_addr(key), 16);
        tc.fence();
    }

    /// The compatibility matrix: a fresh entry, re-acquire in the same or
    /// a weaker mode, upgrade by the sole holder, or a shared join while
    /// nobody queues (FIFO: never past a waiter). Anything else conflicts,
    /// and with `queue` the request joins the wait queue — an upgrade at
    /// the front, since it already holds the lock and everyone behind it
    /// needs the lock free.
    pub(crate) fn admit(&mut self, txn: TxnId, key: u64, mode: LockMode, queue: bool) -> Admit {
        let e = match self.entries.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(slot) => {
                let mut e = self.free.pop().unwrap_or_else(|| LockEntry {
                    mode,
                    holders: Vec::new(),
                    waiters: VecDeque::new(),
                });
                e.mode = mode;
                e.holders.push(txn);
                slot.insert(e);
                return Admit::Wrote(Grant::Acquired);
            }
        };
        let holds = e.holders.contains(&txn);
        let w = Waiter {
            txn,
            mode,
            upgrade: holds,
        };
        match (mode, e.mode) {
            (LockMode::Shared, _) | (LockMode::Exclusive, LockMode::Exclusive) if holds => {
                Admit::Held
            }
            (LockMode::Exclusive, LockMode::Shared) if holds && e.holders.len() == 1 => {
                e.mode = LockMode::Exclusive;
                Admit::Wrote(Grant::Held)
            }
            (LockMode::Shared, LockMode::Shared) if e.waiters.is_empty() => {
                e.holders.push(txn);
                Admit::Wrote(Grant::Acquired)
            }
            _ if !queue => Admit::Conflict,
            _ if holds => {
                e.waiters.push_front(w);
                Admit::Queued
            }
            _ => {
                e.waiters.push_back(w);
                Admit::Queued
            }
        }
    }

    /// True if nobody queues for `key`.
    pub(crate) fn queue_is_empty(&self, key: u64) -> bool {
        self.entries.get(&key).is_none_or(|e| e.waiters.is_empty())
    }

    /// Release `txn`'s hold on `key` and run the grant pass: the charge
    /// and bucket store of a release, whether or not the entry is live.
    pub(crate) fn release(
        &mut self,
        txn: TxnId,
        key: u64,
        tc: &mut TraceCtx,
    ) -> Vec<(TxnId, bool)> {
        tc.charge(tc.r.lock_mgr, instr::LOCK_RELEASE + self.contention);
        tc.store(self.bucket_addr(key), 16);
        self.grant_pass(key, tc, |e| e.holders.retain(|&t| t != txn))
    }

    /// Drop `txn`'s queued request on `key` and run the grant pass (its
    /// departure may unblock the queue).
    pub(crate) fn dequeue(
        &mut self,
        txn: TxnId,
        key: u64,
        tc: &mut TraceCtx,
    ) -> Vec<(TxnId, bool)> {
        self.grant_pass(key, tc, |e| e.waiters.retain(|w| w.txn != txn))
    }

    /// FIFO grant pass over `key`'s entry, after `depart` takes a holder
    /// or waiter off it: grant from the front while the front request is
    /// grantable, and drop the entry once it has neither holder nor
    /// waiter. Returns `(txn, upgrade)` for each grant, in grant order.
    fn grant_pass(
        &mut self,
        key: u64,
        tc: &mut TraceCtx,
        depart: impl FnOnce(&mut LockEntry),
    ) -> Vec<(TxnId, bool)> {
        let mut granted = Vec::new();
        let Entry::Occupied(mut slot) = self.entries.entry(key) else {
            return granted;
        };
        let e = slot.get_mut();
        depart(e);
        while let Some(w) = e.waiters.pop_front_if(|w| w.grantable(&e.holders, e.mode)) {
            if w.upgrade {
                e.mode = LockMode::Exclusive;
            } else {
                if e.holders.is_empty() {
                    e.mode = w.mode;
                }
                e.holders.push(w.txn);
            }
            granted.push((w.txn, w.upgrade));
        }
        if e.holders.is_empty() && e.waiters.is_empty() {
            self.free.push(slot.remove());
        }
        if !granted.is_empty() {
            self.write_line(key, tc);
        }
        granted
    }

    /// Who a waiter `t` on `key` waits for: the holders, in holder order,
    /// then the waiters queued ahead of it (FIFO: they are granted first).
    pub(crate) fn blockers(&self, t: TxnId, key: u64) -> impl Iterator<Item = TxnId> + '_ {
        let e = self.entries.get(&key);
        let holders = e.into_iter().flat_map(|e| e.holders.iter().copied());
        let ahead = e.into_iter().flat_map(|e| e.waiters.iter().map(|w| w.txn));
        holders
            .filter(move |&h| h != t)
            .chain(ahead.take_while(move |&w| w != t))
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Every live entry: (key, mode, holders, queued waiters), in bucket
    /// order, keys ascending within a bucket.
    pub(crate) fn snapshot(&self) -> Vec<(u64, LockMode, Vec<TxnId>, Vec<TxnId>)> {
        let mut out: Vec<_> = self
            .entries
            .iter()
            .map(|(&key, e)| {
                let waiters = e.waiters.iter().map(|w| w.txn).collect();
                (key, e.mode, e.holders.clone(), waiters)
            })
            .collect();
        out.sort_unstable_by_key(|e| (self.bucket_of(e.0), e.0));
        out
    }
}

/// The first waits-for cycle through `start`, searched depth first with
/// each transaction's targets in the order `targets` lists them (so that
/// order decides which cycle is found first). Returns the cycle's length
/// and its victim, the largest id on it.
pub(crate) fn find_cycle(
    start: TxnId,
    targets: impl Fn(TxnId) -> Vec<TxnId>,
) -> Option<(usize, TxnId)> {
    fn dfs(
        targets: &impl Fn(TxnId) -> Vec<TxnId>,
        start: TxnId,
        cur: TxnId,
        path: &mut Vec<TxnId>,
        visited: &mut Vec<TxnId>,
    ) -> bool {
        for nxt in targets(cur) {
            if nxt == start {
                return true;
            }
            if !visited.contains(&nxt) {
                visited.push(nxt);
                path.push(nxt);
                if dfs(targets, start, nxt, path, visited) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }
    let mut path = vec![start];
    let found = dfs(&targets, start, start, &mut path, &mut vec![start]);
    found.then(|| (path.len(), path.iter().fold(start, |v, &t| v.max(t))))
}

/// Where a parked transaction stands until its retry observes the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnLock {
    /// Parked on the key's wait queue.
    Waiting(u64),
    /// Granted the key while parked; `true` for an upgrade.
    Granted(u64, bool),
    /// Chosen as a deadlock victim while parked on the key.
    Victim(u64),
}

/// The lock manager: a `LockTable`, where each parked transaction stands,
/// and the deadlock search.
#[derive(Debug)]
pub struct LockMgr {
    table: LockTable,
    /// Parked transactions, each with what its retry has yet to observe.
    txns: BTreeMap<TxnId, TxnLock>,
    /// Wake notifications (grants + victims) since the last drain, in
    /// decision order.
    woken: Vec<TxnId>,
    /// Acquires, waits and deadlock victims (the rest stay zero).
    stats: CcStats,
}

impl LockMgr {
    /// `n_buckets` simulated bucket lines, rounded up to a power of two.
    pub fn new(space: &AddressSpace, n_buckets: usize) -> Self {
        LockMgr {
            table: LockTable::new(space, n_buckets),
            txns: BTreeMap::new(),
            woken: Vec::new(),
            stats: CcStats::default(),
        }
    }

    /// The key `txn` parked on, until its retry observes the outcome.
    pub(crate) fn parked_on(&self, txn: TxnId) -> Option<u64> {
        self.txns.get(&txn).map(|&s| match s {
            TxnLock::Waiting(k) | TxnLock::Granted(k, _) | TxnLock::Victim(k) => k,
        })
    }

    /// Parked transactions still waiting, and the key each waits on.
    fn waiting(&self) -> impl Iterator<Item = (TxnId, u64)> + '_ {
        self.txns.iter().filter_map(|(&t, &s)| match s {
            TxnLock::Waiting(k) => Some((t, k)),
            TxnLock::Granted(..) | TxnLock::Victim(_) => None,
        })
    }

    fn acquire_inner(
        &mut self,
        txn: TxnId,
        key: u64,
        mode: LockMode,
        wait: bool,
        tc: &mut TraceCtx,
    ) -> Result<Grant> {
        tc.charge(tc.r.lock_mgr, instr::LOCK_ACQUIRE + self.table.contention);
        // The bucket header is a dependent load; the grant writes it.
        tc.load_dep(self.table.bucket_addr(key), 16);

        if wait {
            // The outcome of the parked request: a victim must abort, a
            // grant lets the caller's bookkeeping catch up.
            let outcome = match self.txns.get(&txn) {
                Some(TxnLock::Victim(_)) => Some(Err(EngineError::Deadlock { key })),
                Some(&TxnLock::Granted(gkey, upgrade)) => {
                    debug_assert_eq!(gkey, key, "parked grant must match the retried key");
                    Some(Ok(if upgrade {
                        Grant::WaitUpgraded
                    } else {
                        Grant::WaitGranted
                    }))
                }
                Some(TxnLock::Waiting(_)) | None => None,
            };
            if let Some(outcome) = outcome {
                self.txns.remove(&txn);
                tc.charge(tc.r.lock_mgr, instr::LOCK_WAKE);
                tc.wake();
                return outcome;
            }
        }

        match self.table.admit(txn, key, mode, wait) {
            Admit::Held => Ok(Grant::Held),
            Admit::Wrote(g) => {
                self.table.write_line(key, tc);
                Ok(g)
            }
            Admit::Conflict => Err(EngineError::LockConflict { key }),
            Admit::Queued => {
                self.txns.insert(txn, TxnLock::Waiting(key));
                tc.charge(tc.r.lock_mgr, instr::LOCK_ENQUEUE);
                self.table.write_line(key, tc);
                self.resolve_deadlocks(txn, key, tc)
            }
        }
    }

    /// After enqueuing `txn` on `key`: break every waits-for cycle through
    /// `txn`, choosing victims until the graph is acyclic or `txn` itself
    /// dies.
    ///
    /// **Victim rule (pinned):** the victim is the largest [`TxnId`] on
    /// the first cycle the search finds. Ids are handed out by a monotone
    /// counter and never reused, so "largest id" is exactly "youngest
    /// transaction" — the least-work-lost heuristic — and, because ids
    /// are unique, the `max` is a total order with no tie to break:
    /// two captures of the same schedule always kill the same victim.
    /// Replay determinism depends on this; do not swap in a
    /// fewest-locks/least-undo heuristic without versioning the captures
    /// (see `victim_is_the_largest_txn_id_deterministically`).
    fn resolve_deadlocks(&mut self, txn: TxnId, key: u64, tc: &mut TraceCtx) -> Result<Grant> {
        while let Some((len, victim)) = find_cycle(txn, |t| self.wait_targets(t)) {
            tc.charge(tc.r.lock_mgr, instr::DEADLOCK_SCAN * len as u32);
            // Only a waiter has waits-for edges, so every cycle member is
            // one.
            let Some(&TxnLock::Waiting(vkey)) = self.txns.get(&victim) else {
                break;
            };
            self.dequeue(victim, vkey, tc);
            if victim == txn {
                self.txns.remove(&txn);
                return Err(EngineError::Deadlock { key });
            }
            // A parked waiter dies: dequeued now (so grants can flow), it
            // learns its fate from the scheduler's wake; its held locks
            // release when the transaction aborts.
            self.txns.insert(victim, TxnLock::Victim(vkey));
            self.woken.push(victim);
        }
        tc.block();
        Ok(Grant::Wait)
    }

    /// Take `txn`'s request off `key`'s wait queue: the bucket store, then
    /// the grant pass its departure may unblock.
    fn dequeue(&mut self, txn: TxnId, key: u64, tc: &mut TraceCtx) {
        tc.store(self.table.bucket_addr(key), 16);
        let granted = self.table.dequeue(txn, key, tc);
        self.record_grants(key, granted);
    }

    /// Note grants made while their winners were parked, and wake them.
    fn record_grants(&mut self, key: u64, granted: Vec<(TxnId, bool)>) {
        for (t, upgrade) in granted {
            self.txns.insert(t, TxnLock::Granted(key, upgrade));
            self.woken.push(t);
        }
    }

    /// Who `t` waits on ([`LockTable::blockers`] of its awaited key).
    /// Empty if `t` is not waiting.
    fn wait_targets(&self, t: TxnId) -> Vec<TxnId> {
        match self.txns.get(&t) {
            Some(&TxnLock::Waiting(key)) => self.table.blockers(t, key).collect(),
            Some(TxnLock::Granted(..) | TxnLock::Victim(_)) | None => Vec::new(),
        }
    }

    /// Snapshot of every live entry: (key, mode, holders, queued waiters),
    /// in bucket order, keys ascending within a bucket (tests).
    pub fn snapshot(&self) -> Vec<(u64, LockMode, Vec<TxnId>, Vec<TxnId>)> {
        self.table.snapshot()
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
        Ok(self.acquire_inner(txn, key, mode, false, tc)? == Grant::Acquired)
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
        let granted = self.table.release(txn, key, tc);
        self.record_grants(key, granted);
    }

    /// Abort-path cleanup: drop `txn`'s waiter entry (if any), any
    /// unclaimed parked grant, and any pending victim mark. Returns lock
    /// table state to what release() expects.
    fn cancel_wait(&mut self, txn: TxnId, tc: &mut TraceCtx) {
        match self.txns.remove(&txn) {
            Some(TxnLock::Waiting(key)) => self.dequeue(txn, key, tc),
            // Granted while parked but never observed by the owner: for a
            // fresh grant the holder entry must go (the owner never
            // recorded it, so release() will not); an upgrade reverts on
            // the ordinary release of the originally-recorded lock.
            Some(TxnLock::Granted(key, false)) => self.release(txn, key, tc),
            Some(TxnLock::Granted(_, true) | TxnLock::Victim(_)) | None => {}
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
        self.table.contention = extra;
    }

    fn live_locks(&self) -> usize {
        self.table.len()
    }

    fn waiting_count(&self) -> usize {
        self.waiting().count()
    }

    fn wait_graph(&self) -> Vec<(TxnId, Vec<TxnId>)> {
        let graph = self
            .waiting()
            .map(|(t, key)| (t, self.table.blockers(t, key).collect()));
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

    fn setup() -> (LockMgr, TraceCtx) {
        let mut r = CodeRegions::new();
        let er = EngineRegions::register(&mut r);
        let space = AddressSpace::new();
        (LockMgr::new(&space, 1024), TraceCtx::null(er))
    }

    #[test]
    fn shared_locks_coexist_exclusive_conflicts() {
        let (mut lm, mut tc) = setup();
        assert!(lm.acquire(1, 42, S, &mut tc).unwrap());
        assert!(lm.acquire(2, 42, S, &mut tc).unwrap());
        assert!(matches!(
            lm.acquire(3, 42, X, &mut tc),
            Err(EngineError::LockConflict { key: 42 })
        ));
    }

    #[test]
    fn exclusive_blocks_shared() {
        let (mut lm, mut tc) = setup();
        lm.acquire(1, 7, X, &mut tc).unwrap();
        assert!(lm.acquire(2, 7, S, &mut tc).is_err());
        assert!(lm.acquire(2, 7, X, &mut tc).is_err());
    }

    #[test]
    fn reacquire_is_idempotent() {
        let (mut lm, mut tc) = setup();
        assert!(lm.acquire(1, 7, X, &mut tc).unwrap());
        assert!(!lm.acquire(1, 7, X, &mut tc).unwrap());
        assert!(!lm.acquire(1, 7, S, &mut tc).unwrap());
        assert_eq!(lm.live_locks(), 1);
    }

    #[test]
    fn upgrade_sole_holder_succeeds_shared_blocks() {
        let (mut lm, mut tc) = setup();
        lm.acquire(1, 9, S, &mut tc).unwrap();
        assert!(!lm.acquire(1, 9, X, &mut tc).unwrap());
        // Now X-held; another S fails.
        assert!(lm.acquire(2, 9, S, &mut tc).is_err());

        // Upgrade with two sharers fails.
        lm.acquire(1, 10, S, &mut tc).unwrap();
        lm.acquire(2, 10, S, &mut tc).unwrap();
        assert!(lm.acquire(1, 10, X, &mut tc).is_err());
    }

    #[test]
    fn release_frees_the_lock() {
        let (mut lm, mut tc) = setup();
        lm.acquire(1, 5, X, &mut tc).unwrap();
        lm.release(1, 5, &mut tc);
        assert_eq!(lm.live_locks(), 0);
        assert!(lm.acquire(2, 5, X, &mut tc).unwrap());
    }

    #[test]
    fn distinct_keys_do_not_conflict() {
        let (mut lm, mut tc) = setup();
        for k in 0..100 {
            assert!(lm.acquire(k % 5, 1000 + k, X, &mut tc).unwrap());
        }
        assert_eq!(lm.live_locks(), 100);
    }

    // ---- queued discipline ----

    #[test]
    fn conflicting_request_queues_and_is_granted_fifo() {
        let (mut lm, mut tc) = setup();
        assert_eq!(lm.acquire_wait(1, 5, X, &mut tc).unwrap(), Grant::Acquired);
        assert_eq!(lm.acquire_wait(2, 5, X, &mut tc).unwrap(), Grant::Wait);
        assert_eq!(lm.acquire_wait(3, 5, X, &mut tc).unwrap(), Grant::Wait);
        assert_eq!(lm.waiting_count(), 2);
        assert!(lm.drain_woken().is_empty());

        lm.release(1, 5, &mut tc);
        // FIFO: txn 2 first.
        assert_eq!(lm.drain_woken(), vec![2]);
        assert_eq!(
            lm.acquire_wait(2, 5, X, &mut tc).unwrap(),
            Grant::WaitGranted
        );
        lm.release(2, 5, &mut tc);
        assert_eq!(lm.drain_woken(), vec![3]);
        assert_eq!(
            lm.acquire_wait(3, 5, X, &mut tc).unwrap(),
            Grant::WaitGranted
        );
        lm.release(3, 5, &mut tc);
        assert_eq!(lm.live_locks(), 0);
        assert_eq!(lm.waiting_count(), 0);
    }

    #[test]
    fn shared_waiters_granted_in_a_batch() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 8, X, &mut tc).unwrap();
        assert_eq!(lm.acquire_wait(2, 8, S, &mut tc).unwrap(), Grant::Wait);
        assert_eq!(lm.acquire_wait(3, 8, S, &mut tc).unwrap(), Grant::Wait);
        lm.release(1, 8, &mut tc);
        assert_eq!(lm.drain_woken(), vec![2, 3]);
        assert_eq!(
            lm.acquire_wait(2, 8, S, &mut tc).unwrap(),
            Grant::WaitGranted
        );
        assert_eq!(
            lm.acquire_wait(3, 8, S, &mut tc).unwrap(),
            Grant::WaitGranted
        );
    }

    #[test]
    fn shared_join_does_not_jump_the_queue() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 9, S, &mut tc).unwrap();
        // X waiter queues.
        assert_eq!(lm.acquire_wait(2, 9, X, &mut tc).unwrap(), Grant::Wait);
        // A later S request must not starve the X waiter.
        assert_eq!(lm.acquire_wait(3, 9, S, &mut tc).unwrap(), Grant::Wait);
        lm.release(1, 9, &mut tc);
        assert_eq!(lm.drain_woken(), vec![2]);
    }

    #[test]
    fn two_txn_cycle_aborts_the_youngest() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 100, X, &mut tc).unwrap();
        lm.acquire_wait(2, 200, X, &mut tc).unwrap();
        // Older txn 1 parks on 200.
        assert_eq!(lm.acquire_wait(1, 200, X, &mut tc).unwrap(), Grant::Wait);
        // Younger txn 2 closes the cycle → it is the victim, immediately.
        assert!(matches!(
            lm.acquire_wait(2, 100, X, &mut tc),
            Err(EngineError::Deadlock { key: 100 })
        ));
        assert!(!lm.has_deadlock(), "resolution leaves the graph acyclic");
        // Victim aborts: releases its held lock; survivor is granted.
        lm.release(2, 200, &mut tc);
        assert_eq!(lm.drain_woken(), vec![1]);
        assert_eq!(
            lm.acquire_wait(1, 200, X, &mut tc).unwrap(),
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
        lm.acquire_wait(5, 100, X, &mut tc).unwrap();
        lm.acquire_wait(9, 200, X, &mut tc).unwrap();
        lm.acquire_wait(7, 300, X, &mut tc).unwrap();
        // 5 waits on 9's lock, 9 waits on 7's lock.
        assert_eq!(lm.acquire_wait(5, 200, X, &mut tc).unwrap(), Grant::Wait);
        assert_eq!(lm.acquire_wait(9, 300, X, &mut tc).unwrap(), Grant::Wait);
        // 7 closes the cycle. It is NOT the youngest: 9 is, and 9 is a
        // parked bystander — it must still be the one chosen.
        assert_eq!(
            lm.acquire_wait(7, 100, X, &mut tc).unwrap(),
            Grant::Wait,
            "the requester survives; the youngest parked member dies"
        );
        assert!(!lm.has_deadlock());
        // The victim notification reached 9 through the wake channel.
        assert_eq!(lm.drain_woken(), vec![9]);
        // 9's retry of its parked request reports the deadlock.
        assert!(matches!(
            lm.acquire_wait(9, 300, X, &mut tc),
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
        lm.acquire_wait(1, 100, X, &mut tc).unwrap();
        lm.acquire_wait(2, 200, X, &mut tc).unwrap();
        assert_eq!(lm.acquire_wait(2, 100, X, &mut tc).unwrap(), Grant::Wait);
        // Requester 1 parks (victim is 2, woken for notification).
        assert_eq!(lm.acquire_wait(1, 200, X, &mut tc).unwrap(), Grant::Wait);
        assert_eq!(lm.drain_woken(), vec![2]);
        assert!(matches!(
            lm.acquire_wait(2, 100, X, &mut tc),
            Err(EngineError::Deadlock { .. })
        ));
        // Victim aborts → survivor granted.
        lm.release(2, 200, &mut tc);
        assert_eq!(lm.drain_woken(), vec![1]);
        assert_eq!(
            lm.acquire_wait(1, 200, X, &mut tc).unwrap(),
            Grant::WaitGranted
        );
    }

    #[test]
    fn upgrade_waits_for_other_sharers_then_wins() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 4, S, &mut tc).unwrap();
        lm.acquire_wait(2, 4, S, &mut tc).unwrap();
        // Sole-holder condition fails → upgrade parks at the queue front.
        assert_eq!(lm.acquire_wait(1, 4, X, &mut tc).unwrap(), Grant::Wait);
        lm.release(2, 4, &mut tc);
        assert_eq!(lm.drain_woken(), vec![1]);
        assert_eq!(
            lm.acquire_wait(1, 4, X, &mut tc).unwrap(),
            Grant::WaitUpgraded
        );
        let snap = lm.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1, X);
        assert_eq!(snap[0].2, vec![1]);
    }

    #[test]
    fn cancel_wait_unblocks_the_queue() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 6, S, &mut tc).unwrap();
        lm.acquire_wait(2, 6, X, &mut tc).unwrap();
        assert_eq!(lm.acquire_wait(3, 6, S, &mut tc).unwrap(), Grant::Wait);
        // Txn 2 gives up its wait: the S waiter behind it can now join.
        lm.cancel_wait(2, &mut tc);
        assert_eq!(lm.drain_woken(), vec![3]);
        assert_eq!(
            lm.acquire_wait(3, 6, S, &mut tc).unwrap(),
            Grant::WaitGranted
        );
        assert_eq!(lm.waiting_count(), 0);
    }

    #[test]
    fn counters_track_waits_and_deadlocks() {
        let (mut lm, mut tc) = setup();
        assert_eq!(lm.acquire_wait(1, 10, X, &mut tc).unwrap(), Grant::Acquired);
        assert_eq!(lm.acquire_wait(2, 20, X, &mut tc).unwrap(), Grant::Acquired);
        // 1 parks on 20; 2 closes the cycle on 10 and is the victim.
        assert_eq!(lm.acquire_wait(1, 20, X, &mut tc).unwrap(), Grant::Wait);
        assert!(matches!(
            lm.acquire_wait(2, 10, X, &mut tc),
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
        lm.declare(7, &[(1, X)], &mut tc).unwrap();
        assert_eq!(lm.live_locks(), 0);
        lm.finish(7, &mut tc);
    }

    #[test]
    fn cancel_wait_returns_unclaimed_parked_grant() {
        let (mut lm, mut tc) = setup();
        lm.acquire_wait(1, 3, X, &mut tc).unwrap();
        lm.acquire_wait(2, 3, X, &mut tc).unwrap();
        lm.release(1, 3, &mut tc);
        assert_eq!(lm.drain_woken(), vec![2]);
        // Txn 2 aborts before its retry observes the grant.
        lm.cancel_wait(2, &mut tc);
        assert_eq!(lm.live_locks(), 0, "unclaimed grant must not leak");
    }
}
