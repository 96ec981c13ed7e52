//! Pluggable concurrency-control backends.
//!
//! [`Database`](crate::Database) acquires, releases and drains lock wakes
//! through the [`ConcurrencyControl`] trait, which turns the lock manager
//! into a *backend seam*: the paper's `fig_cc` sweep keeps the
//! memory-system axis (SMP vs CMP vs islands) but can now unfreeze the
//! software axis too. Three backends ship:
//!
//! * [`CcBackend::Centralized2PL`] — the wait-queue lock manager
//!   [`LockMgr`](crate::lockmgr::LockMgr) itself.
//! * [`PartitionedPerCore`] — lock state sharded into per-core partitions;
//!   a lock request whose partition is not the requester's home core is a
//!   message to the owning core, traced as `RemoteSend`/`RemoteRecv`
//!   markers so replay prices the hop on the interconnect. Waits are only
//!   permitted in ascending `(partition, key)` order, which makes the
//!   backend deadlock-free by construction; out-of-order conflicts surface
//!   as immediate [`EngineError::LockConflict`](crate::EngineError) retries.
//! * [`DeterministicOrdered`] — a Calvin-style scheme: each transaction
//!   *declares* its (derived) read/write set up front and is granted all
//!   locks in strict FIFO declare order before it executes. Deadlock
//!   aborts are structurally zero; the cost appears as ordering-queue
//!   waits before execution, and derivation misses (phantoms) fall back to
//!   no-wait acquires that abort-and-retry rather than block.
//!
//! Every backend keeps per-backend [`CcStats`] counters on the host side —
//! counters never touch the trace, so enabling them cannot perturb
//! captures.

use crate::error::Result;
use crate::lockmgr::{find_cycle, Grant, LockMode};
use crate::tctx::TraceCtx;
use crate::txn::TxnId;

mod ordered;
mod partitioned;

pub use ordered::DeterministicOrdered;
pub use partitioned::PartitionedPerCore;

/// Which concurrency-control backend a [`Database`](crate::Database) runs.
///
/// Adding a variant here is a cross-cutting change: the interleaved
/// scheduler's block-classification dispatch (`count_block`) and the
/// figure label table (`cc_backend_label`) are wildcard-free matches, so
/// the build fails until both handle it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcBackend {
    /// One shared wait-queue lock manager,
    /// [`LockMgr`](crate::lockmgr::LockMgr) (the seed's 2PL discipline).
    #[default]
    Centralized2PL,
    /// Per-core lock partitions with message-passing requests.
    PartitionedPerCore,
    /// Calvin-style pre-ordered execution over declared read/write sets.
    DeterministicOrdered,
}

/// Host-side counters a backend accumulates across a capture. These are
/// bookkeeping only — they are never charged to the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcStats {
    /// Lock acquire calls (both disciplines, all paths).
    pub acquires: u64,
    /// Requests parked on a lock wait queue (execution-time blocking).
    pub waits: u64,
    /// Transactions parked waiting for their declared set to be granted
    /// in order (DeterministicOrdered only).
    pub ordering_waits: u64,
    /// Deadlock-victim notifications handed out. Structurally zero for
    /// PartitionedPerCore and DeterministicOrdered.
    pub deadlocks: u64,
    /// Cross-partition lock messages sent (PartitionedPerCore only).
    pub remote_msgs: u64,
    /// Bytes carried by those messages.
    pub remote_bytes: u64,
    /// Conflicts the backend's discipline forced into immediate no-wait
    /// failures (out-of-partition-order requests, derivation misses) —
    /// the scheduler retries these as conflict aborts.
    pub fallback_conflicts: u64,
}

/// The concurrency-control seam [`Database`](crate::Database) dispatches
/// through. Implementations own all lock state; the database only tracks
/// which keys each transaction *recorded* for release (keys a backend
/// granted as [`Grant::Acquired`] / [`Grant::WaitGranted`] or `true` from
/// [`ConcurrencyControl::acquire`]). Locks a backend grants internally
/// (declared sets) are its own to release in
/// [`ConcurrencyControl::finish`].
pub trait ConcurrencyControl: Send + Sync {
    /// Which backend this is (drives scheduler dispatch and figure labels).
    fn backend(&self) -> CcBackend;

    /// No-wait acquire: conflicts surface immediately as
    /// [`EngineError::LockConflict`](crate::EngineError). Returns `true`
    /// if newly granted (the caller records the key for release).
    fn acquire(&mut self, txn: TxnId, key: u64, mode: LockMode, tc: &mut TraceCtx) -> Result<bool>;

    /// Queued acquire — the discipline every row lock uses; see [`Grant`]
    /// for the park/retry protocol. Backends that refuse to
    /// block (out-of-order partitioned requests, ordered-backend
    /// derivation misses) return
    /// [`EngineError::LockConflict`](crate::EngineError) instead of
    /// [`Grant::Wait`].
    fn acquire_wait(
        &mut self,
        txn: TxnId,
        key: u64,
        mode: LockMode,
        tc: &mut TraceCtx,
    ) -> Result<Grant>;

    /// Declare the transaction's derived read/write set before execution.
    /// Backends that do not pre-order ignore the declaration. The ordered
    /// backend enqueues every key FIFO and parks the caller
    /// ([`EngineError::LockWait`](crate::EngineError)) until the whole set
    /// is granted; the call must be retried verbatim after a wake and is
    /// idempotent across retries.
    fn declare(
        &mut self,
        _txn: TxnId,
        _keys: &[(u64, LockMode)],
        _tc: &mut TraceCtx,
    ) -> Result<()> {
        Ok(())
    }

    /// Release one key previously recorded by the caller.
    fn release(&mut self, txn: TxnId, key: u64, tc: &mut TraceCtx);

    /// The X lock on the row a [`Loader`](crate::Loader) just placed, in
    /// place of [`acquire`](Self::acquire) in [`LockMode::Exclusive`].
    /// Returns `true` if newly granted; the loader then ends it with
    /// [`load_release`](Self::load_release) once the row is in. Defaults
    /// to that `acquire`.
    fn load_acquire(&mut self, txn: TxnId, key: u64, tc: &mut TraceCtx) -> Result<bool> {
        self.acquire(txn, key, LockMode::Exclusive, tc)
    }

    /// Ends a lock [`load_acquire`](Self::load_acquire) granted, in place
    /// of [`release`](Self::release). Defaults to that `release`.
    fn load_release(&mut self, txn: TxnId, key: u64, tc: &mut TraceCtx) {
        self.release(txn, key, tc);
    }

    /// End-of-transaction hook, called after the caller released its
    /// recorded keys (commit and abort paths both). Backends release any
    /// internally-held state here (granted declared locks, held-set
    /// bookkeeping). A no-op for the centralized backend.
    fn finish(&mut self, _txn: TxnId, _tc: &mut TraceCtx) {}

    /// Abort-path cleanup while possibly parked: drop wait-queue entries,
    /// unclaimed parked grants and victim marks for `txn`.
    fn cancel_wait(&mut self, txn: TxnId, tc: &mut TraceCtx);

    /// Transactions to resume since the last call (grants completing, and
    /// for the centralized backend victim notifications), in decision
    /// order.
    fn drain_woken(&mut self) -> Vec<TxnId>;

    /// Extra instructions charged per acquire/release, modeling
    /// latch/CAS contention among clients sharing the engine (see
    /// [`Database::set_lock_sharers`](crate::Database::set_lock_sharers)).
    fn set_contention(&mut self, extra: u32);

    /// Live lock entries across all backend state (diagnostics/tests).
    fn live_locks(&self) -> usize;

    /// Transactions currently parked (wait queues + ordering queues).
    fn waiting_count(&self) -> usize;

    /// The waits-for graph, sorted by waiter id (diagnostics and the
    /// acyclicity property tests).
    fn wait_graph(&self) -> Vec<(TxnId, Vec<TxnId>)>;

    /// True if the waits-for graph contains a cycle. Must always be
    /// `false` for the deadlock-free backends.
    fn has_deadlock(&self) -> bool {
        graph_has_cycle(&self.wait_graph())
    }

    /// Snapshot of the backend's counters.
    fn stats(&self) -> CcStats;
}

/// Cycle check over an explicit waits-for graph.
fn graph_has_cycle(graph: &[(TxnId, Vec<TxnId>)]) -> bool {
    let targets = |t: TxnId| {
        graph
            .iter()
            .find(|&&(w, _)| w == t)
            .map(|(_, ts)| ts.clone())
            .unwrap_or_default()
    };
    graph.iter().any(|&(t, _)| find_cycle(t, targets).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_cycle_detection() {
        assert!(!graph_has_cycle(&[]));
        assert!(!graph_has_cycle(&[(1, vec![2]), (2, vec![])]));
        assert!(graph_has_cycle(&[(1, vec![2]), (2, vec![1])]));
        assert!(graph_has_cycle(&[(1, vec![2]), (2, vec![3]), (3, vec![1])]));
        // Edges to non-waiting txns (no node entry) are fine.
        assert!(!graph_has_cycle(&[(5, vec![9]), (6, vec![9, 5])]));
    }

    #[test]
    fn backend_default_is_centralized() {
        assert_eq!(CcBackend::default(), CcBackend::Centralized2PL);
    }
}
