//! `dbcmp-engine` — a from-scratch, in-memory relational row-store.
//!
//! This is the reproduction's stand-in for the paper's "commercial DBMS":
//! a storage manager with slotted pages and a buffer-pool indirection, a
//! B+Tree index, a row-level two-phase-locking lock manager, WAL-lite
//! logging, transactions with undo, and a Volcano-style (open/next/close)
//! query executor — the architecture of the row-store engines of the
//! paper's era.
//!
//! Every operation is *instrumented*: data-structure accesses go through a
//! [`TraceCtx`], recording loads/stores against a simulated address space
//! and charging instructions to named code regions (see [`costs`]). The
//! captured traces carry exactly the properties the paper's
//! characterization depends on:
//!
//! * B+Tree descents and hash-chain walks emit *dependent* loads
//!   (serialized on an out-of-order core);
//! * the OLTP code path cycles through ~300 KB of code regions (lock
//!   manager, WAL, buffer pool, …) while DSS scan loops stay within a few
//!   tens of KB — the paper's instruction-footprint contrast;
//! * lock-table buckets, B+Tree roots and hot rows are shared addresses
//!   across client traces — the raw material for coherence traffic (SMP)
//!   vs shared-L2 hits (CMP).
//!
//! Concurrency model: statements execute one at a time, but *which*
//! transaction runs next is the caller's choice — the workloads' client
//! scheduler advances many open transactions in round-robin slices.
//! Conflicting row-lock requests park on FIFO wait queues ([`lockmgr`]),
//! waits-for cycles abort the youngest transaction, and blocked/woken
//! sessions are recorded in the trace. The sequential capture is that
//! scheduler with whole-session grants: it never has two live
//! transactions, so it never parks and its trace carries no such events.
//! Abort with undo and lock release at commit are real, so any
//! interleaving behaves correctly.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]
#![warn(missing_docs)]

mod btree;
pub mod catalog;
pub mod cc;
pub mod costs;
pub mod db;
mod error;
pub mod exec;
pub mod heap;
pub mod lockmgr;
pub mod page;
mod schema;
mod tctx;
pub mod txn;
mod types;
mod wal;

pub use cc::{CcBackend, CcStats, ConcurrencyControl};
pub use costs::EngineRegions;
pub use db::{Database, Loader};
pub use error::{EngineError, Result};
pub use schema::Schema;
pub use tctx::{TraceCtx, MSG_HEADER_BYTES};
pub use types::{ColType, Columns, Row, TupleRef, Value};
