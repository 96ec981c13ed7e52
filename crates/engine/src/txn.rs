//! Transactions: 2PL lock ownership + undo records.
//!
//! The [`Txn`] handle accumulates the locks it holds and the undo records
//! needed to roll back. The [`Database`](crate::db::Database) applies undo
//! in reverse order on abort and releases all locks at commit/abort
//! (strict two-phase locking). A [`Loader`](crate::db::Loader) carries a
//! `Txn` too, for its id and its begin/commit bookkeeping, and leaves both
//! lists empty: a load releases each row lock with its statement and keeps
//! no undo.

use crate::heap::Rid;
use crate::lockmgr::LockMode;

/// Transaction identifier.
pub type TxnId = u64;

/// How to reverse one statement.
#[derive(Debug, Clone)]
pub(crate) enum UndoRec {
    /// Reverse an insert: delete the row and the index entries it added.
    Insert {
        /// Table the row was inserted into.
        table: usize,
        /// Row id assigned at insert.
        rid: Rid,
        /// `(index, key)` pairs to remove.
        index_keys: Vec<(usize, u64)>,
    },
    /// Reverse an update: restore the before-image.
    Update {
        /// Table holding the row.
        table: usize,
        /// Row id of the updated row.
        rid: Rid,
        /// Encoded row image before the update.
        before: Vec<u8>,
    },
    /// Reverse a delete: restore the image at its original RID and
    /// re-add its index entries.
    Delete {
        /// Table the row was deleted from.
        table: usize,
        /// Row id the row occupied.
        rid: Rid,
        /// Encoded row image before the delete.
        before: Vec<u8>,
        /// `(index, key)` pairs to restore.
        index_keys: Vec<(usize, u64)>,
    },
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnState {
    /// Open and executing statements.
    Active,
    /// Successfully committed (locks released).
    Committed,
    /// Rolled back (undo applied, locks released).
    Aborted,
}

/// A transaction handle. Created by `Database::begin`, consumed by
/// `Database::commit` / `Database::abort`.
#[derive(Debug)]
pub struct Txn {
    /// Monotonic transaction id (also the deadlock-victim age order).
    pub id: TxnId,
    pub(crate) locks: Vec<(u64, LockMode)>,
    pub(crate) undo: Vec<UndoRec>,
    /// Current lifecycle state.
    pub(crate) state: TxnState,
}

impl Txn {
    /// An open transaction holding nothing. `Database::begin` is how a
    /// transaction a database knows about starts; a handle made here is
    /// *detached* — for a driver that needs a `&mut Txn` to pass along but
    /// never hands it to a database (read/write-set reconnaissance in
    /// `dbcmp-workloads`).
    pub fn new(id: TxnId) -> Self {
        Txn {
            id,
            locks: Vec::new(),
            undo: Vec::new(),
            state: TxnState::Active,
        }
    }

    /// Whether the transaction is still open.
    pub(crate) fn is_active(&self) -> bool {
        self.state == TxnState::Active
    }

    /// The `(lock_key, mode)` pairs this transaction recorded, in
    /// acquisition order — ground truth for the read/write-set coverage
    /// tests in `dbcmp-workloads`. Upgrades do not re-record a key, so a
    /// pair may understate the final mode (never the key set).
    pub fn held_locks(&self) -> &[(u64, LockMode)] {
        &self.locks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_txn_is_active_and_empty() {
        let t = Txn::new(7);
        assert!(t.is_active());
        assert!(t.held_locks().is_empty());
        assert!(t.undo.is_empty());
    }
}
