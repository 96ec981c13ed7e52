//! Engine error type.

use std::fmt;

/// Errors surfaced by the storage engine and executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A lock could not be granted because a live transaction holds a
    /// conflicting mode — the requester should abort and retry. Raised by
    /// the acquires that never queue: an insert's fresh-RID lock and the
    /// partitioned/ordered backends' out-of-order fallbacks.
    LockConflict {
        /// Lock key that conflicted.
        key: u64,
    },
    /// The requester was enqueued behind conflicting holders: it must
    /// yield to the scheduler and retry the same operation once woken.
    /// Not an abort.
    LockWait {
        /// Lock key being waited on.
        key: u64,
    },
    /// The requester was chosen as the deadlock victim (youngest
    /// transaction on the waits-for cycle): it must abort; the survivors'
    /// waits then resolve.
    Deadlock {
        /// Lock key whose wait closed the cycle.
        key: u64,
    },
    /// The referenced table/index/row does not exist.
    NotFound(String),
    /// A page had no room and the tuple cannot move (updates that grow
    /// beyond page capacity).
    PageFull,
    /// A unique index rejected a duplicate key.
    DuplicateKey(u64),
    /// Schema/row mismatch (wrong arity or column type).
    TypeMismatch {
        /// Expected type or shape.
        expected: &'static str,
        /// What was supplied.
        got: &'static str,
    },
    /// Operation attempted on a finished transaction.
    TxnClosed,
    /// A [`Loader`](crate::db::Loader) was opened while transactions hold
    /// or await locks: a load keeps no undo, so it runs only when nothing
    /// can conflict with it.
    LoadNotExclusive {
        /// Lock-table entries live at the attempt.
        live_locks: usize,
        /// Transactions parked on wait or ordering queues.
        waiters: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::LockConflict { key } => write!(f, "lock conflict on key {key:#x}"),
            EngineError::LockWait { key } => write!(f, "lock wait on key {key:#x}"),
            EngineError::Deadlock { key } => {
                write!(f, "deadlock victim while waiting on key {key:#x}")
            }
            EngineError::NotFound(what) => write!(f, "not found: {what}"),
            EngineError::PageFull => write!(f, "page full"),
            EngineError::DuplicateKey(k) => write!(f, "duplicate key {k:#x}"),
            EngineError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            EngineError::TxnClosed => write!(f, "transaction already finished"),
            EngineError::LoadNotExclusive {
                live_locks,
                waiters,
            } => write!(
                f,
                "load needs the database to itself: {live_locks} live locks, {waiters} waiters"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Engine result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(EngineError::LockConflict { key: 0xAB }
            .to_string()
            .contains("0xab"));
        assert!(EngineError::NotFound("t".into()).to_string().contains('t'));
        assert_eq!(EngineError::PageFull.to_string(), "page full");
        assert!(EngineError::LockWait { key: 0xCD }
            .to_string()
            .contains("0xcd"));
        assert!(EngineError::Deadlock { key: 0xEF }
            .to_string()
            .contains("victim"));
        let e = EngineError::LoadNotExclusive {
            live_locks: 3,
            waiters: 1,
        };
        assert!(e.to_string().contains("3 live locks, 1 waiters"));
    }
}
