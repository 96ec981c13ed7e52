//! How one engine operation is driven.
//!
//! Workload drivers (the TPC-C transactions in [`crate::tpcc::txns`]) are
//! generic over [`EngineOps`] so the *same* transaction code runs under
//! three handles, which differ in one decision — what happens between
//! asking for an engine operation and getting its result:
//!
//! * **call it** — directly against [`Database`]: the shared-nothing
//!   deployment capture ([`crate::deploy`]), where every operation
//!   completes immediately and the caller drives the transaction with
//!   [`now`];
//! * **call it, then maybe suspend** — a scheduler-mediated handle
//!   ([`crate::interleave`]'s `ClientDb`) that serializes many client
//!   sessions onto one shared [`Database`] in deterministic round-robin
//!   slices, suspending a session whenever its slice is used up or the
//!   lock manager returns
//!   [`EngineError::LockWait`](dbcmp_engine::EngineError::LockWait), and
//!   retrying the operation once the lock is granted (the sequential
//!   capture is this handle with slices that never run out); and
//! * **record it instead** — [`crate::rwset`]'s `Recon`, under which a
//!   body run leaves the database untouched and yields the read/write set
//!   the deterministic-ordered backend declares before the real run.
//!
//! The first two make that decision in [`EngineOps::op`], the trait's one
//! required method, and take every named operation as written once on top
//! of it; the third overrides the named row and index operations and
//! refuses `op`, because nothing it does may reach the database.

use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use dbcmp_engine::catalog::{IndexId, TableId};
use dbcmp_engine::heap::Rid;
use dbcmp_engine::lockmgr::LockMode;
use dbcmp_engine::txn::Txn;
use dbcmp_engine::{Database, Result, Row, TraceCtx, Value};

/// The engine operations a transaction driver needs. See module docs.
#[allow(
    async_fn_in_trait,
    reason = "sessions are polled on the thread that created them, so the futures need no `Send` bound"
)]
pub(crate) trait EngineOps {
    /// Drive one engine operation `f` to completion and return its result.
    ///
    /// `f` must be effect-free before its lock acquisition (as
    /// [`Database`]'s `read`, `update`, `delete` and `declare` are): a
    /// handle may re-invoke it verbatim after a lock wait, so any work
    /// preceding the lock acquisition would be duplicated.
    async fn op<R>(
        &mut self,
        tc: &mut TraceCtx,
        f: impl FnMut(&mut Database, &mut TraceCtx) -> Result<R>,
    ) -> Result<R>;

    /// Per-statement session/dispatch overhead.
    async fn statement_overhead(&mut self, tc: &mut TraceCtx) {
        self.op(tc, |db, tc| {
            Database::statement_overhead(db, tc);
            Ok(())
        })
        .await
        .expect("statement_overhead is infallible")
    }

    /// Open a transaction.
    async fn begin(&mut self, tc: &mut TraceCtx) -> Txn {
        self.op(tc, |db, tc| Ok(db.begin(tc)))
            .await
            .expect("begin is infallible")
    }

    /// Declare the transaction's derived read/write set before its first
    /// data access. A no-op on every backend except
    /// [`DeterministicOrdered`](dbcmp_engine::cc::DeterministicOrdered),
    /// which parks the caller until the whole set is granted in declare
    /// order; its declare is retry-idempotent, so re-invocation after a
    /// wake (like any other lock-waiting operation) is exactly the claim
    /// protocol it expects.
    async fn declare(
        &mut self,
        txn: &mut Txn,
        keys: &[(u64, LockMode)],
        tc: &mut TraceCtx,
    ) -> Result<()> {
        self.op(tc, |db, tc| db.declare(txn, keys, tc)).await
    }

    /// Commit: WAL force + release locks.
    async fn commit(&mut self, txn: Txn, tc: &mut TraceCtx) -> Result<()> {
        let mut slot = Some(txn);
        self.op(tc, |db, tc| {
            db.commit(slot.take().expect("commit runs once"), tc)
        })
        .await
    }

    /// Roll back: undo in reverse + release locks.
    async fn abort(&mut self, txn: Txn, tc: &mut TraceCtx) {
        let mut slot = Some(txn);
        self.op(tc, |db, tc| {
            db.abort(slot.take().expect("abort runs once"), tc);
            Ok(())
        })
        .await
        .expect("abort is infallible")
    }

    /// Insert a row (X-lock, WAL, indexes, undo).
    async fn insert(
        &mut self,
        txn: &mut Txn,
        table: TableId,
        row: &[Value],
        tc: &mut TraceCtx,
    ) -> Result<Rid> {
        self.op(tc, |db, tc| db.insert(txn, table, row, tc)).await
    }

    /// Read a row under an S (or X, `for_update`) lock.
    async fn read(
        &mut self,
        txn: &mut Txn,
        table: TableId,
        rid: Rid,
        for_update: bool,
        tc: &mut TraceCtx,
    ) -> Result<Row> {
        self.op(tc, |db, tc| db.read(txn, table, rid, for_update, tc))
            .await
    }

    /// Update a row in place (X lock, before-image undo, WAL).
    async fn update(
        &mut self,
        txn: &mut Txn,
        table: TableId,
        rid: Rid,
        row: &[Value],
        tc: &mut TraceCtx,
    ) -> Result<()> {
        self.op(tc, |db, tc| db.update(txn, table, rid, row, tc))
            .await
    }

    /// Delete a row (X lock, image + index-key undo, WAL).
    async fn delete(
        &mut self,
        txn: &mut Txn,
        table: TableId,
        rid: Rid,
        tc: &mut TraceCtx,
    ) -> Result<()> {
        self.op(tc, |db, tc| db.delete(txn, table, rid, tc)).await
    }

    /// Point lookup through an index (no row lock — index reads are
    /// latch-only, as in the era's engines).
    async fn index_get(&mut self, index: IndexId, key: u64, tc: &mut TraceCtx) -> Option<Rid> {
        self.op(tc, |db, tc| Ok(Database::index_get(db, index, key, tc)))
            .await
            .expect("index_get is infallible")
    }

    /// Inclusive range through an index.
    async fn index_range(
        &mut self,
        index: IndexId,
        lo: u64,
        hi: u64,
        tc: &mut TraceCtx,
    ) -> Vec<(u64, Rid)> {
        self.op(tc, |db, tc| {
            Ok(Database::index_range(db, index, lo, hi, tc))
        })
        .await
        .expect("index_range is infallible")
    }
}

/// Directly against the database, every operation completes immediately.
impl EngineOps for Database {
    async fn op<R>(
        &mut self,
        tc: &mut TraceCtx,
        mut f: impl FnMut(&mut Database, &mut TraceCtx) -> Result<R>,
    ) -> Result<R> {
        f(self, tc)
    }
}

/// Run a transaction driven directly against a [`Database`] (or any handle
/// whose [`op`](EngineOps::op) never suspends) to completion, here and
/// now. Panics if it suspends: only a scheduler may poll a session twice.
pub(crate) fn now<T>(fut: impl Future<Output = T>) -> T {
    match pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("a directly driven transaction suspended"),
    }
}
