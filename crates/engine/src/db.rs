//! The database façade: tables + indexes + locks + log + transactions.
//!
//! OLTP code paths go through this API (locking, logging, undo); read-only
//! DSS queries go through the Volcano executor in [`crate::exec`], which
//! scans tables without row locks (degree-2 isolation for reporting
//! queries, as engines of the era did). Populating a database goes
//! through a [`Loader`]: the same row inserts, without the lock list and
//! undo log a transaction of that size would carry to its commit.

use std::sync::Arc;

use dbcmp_trace::{AddressSpace, CodeRegions};

use crate::btree::BTree;
use crate::catalog::{Catalog, IndexId, TableId};
use crate::cc::{CcBackend, CcStats, ConcurrencyControl, DeterministicOrdered, PartitionedPerCore};
use crate::costs::{instr, EngineRegions};
use crate::error::{EngineError, Result};
use crate::heap::{HeapTable, Rid};
use crate::lockmgr::{Grant, LockMgr, LockMode};
use crate::schema::Schema;
use crate::tctx::TraceCtx;
use crate::txn::{Txn, TxnId, TxnState, UndoRec};
use crate::types::{Columns, Row, Value};
use crate::wal::{Wal, WalRecord};

/// Simulated lock-table buckets, for every backend: one 64 B line each
/// (4 MiB of simulated address space; the partitioned backend splits it
/// across its partitions). The count sizes only that address window —
/// lock tables store live entries only, so no host structure depends on it.
const LOCK_TABLE_BUCKETS: usize = 64 * 1024;

/// Key-extraction function for an index: row + rid → packed u64 key. The
/// row is a materialised one on insert and delete, and the tuple's page
/// image when [`Database::create_index`] indexes the rows already there,
/// so a key function decodes only the columns it reads.
pub type KeyFn = Box<dyn Fn(&dyn Columns, Rid) -> u64 + Send + Sync>;

/// The whole database instance.
pub struct Database {
    /// Simulated data address space shared by every structure.
    pub space: Arc<AddressSpace>,
    regions: CodeRegions,
    /// Engine code-region ids (copied into every [`TraceCtx`]).
    pub er: EngineRegions,
    catalog: Catalog,
    heaps: Vec<HeapTable>,
    indexes: Vec<BTree>,
    index_table: Vec<TableId>,
    key_fns: Vec<KeyFn>,
    cc: Box<dyn ConcurrencyControl>,
    wal: Wal,
    next_txn: u64,
}

impl Database {
    /// An empty database with fresh address space and region table.
    pub fn new() -> Self {
        Self::with_space(Arc::new(AddressSpace::new()))
    }

    /// An empty database over a caller-provided address space —
    /// shared-nothing deployments give each engine instance its own
    /// [`AddressSpace::partition`] window so instances never alias.
    pub fn with_space(space: Arc<AddressSpace>) -> Self {
        let mut regions = CodeRegions::new();
        let er = EngineRegions::register(&mut regions);
        Database {
            catalog: Catalog::new(&space),
            cc: Box::new(LockMgr::new(&space, LOCK_TABLE_BUCKETS)),
            wal: Wal::new(&space),
            heaps: Vec::new(),
            indexes: Vec::new(),
            index_table: Vec::new(),
            key_fns: Vec::new(),
            next_txn: 1,
            regions,
            er,
            space,
        }
    }

    /// The master code-region table (for building trace bundles).
    pub fn regions(&self) -> &CodeRegions {
        &self.regions
    }

    /// A fresh recording trace context for a client session.
    pub fn trace_ctx(&self) -> TraceCtx {
        TraceCtx::recording(self.er)
    }

    /// A counting-only context for native runs.
    pub fn null_ctx(&self) -> TraceCtx {
        TraceCtx::null(self.er)
    }

    /// Select the concurrency-control backend (see [`CcBackend`]).
    ///
    /// Call before opening any transactions: switching backends builds a
    /// fresh lock table, abandoning in-flight lock state. Selecting the
    /// backend that is already active is a no-op, so the default
    /// [`CcBackend::Centralized2PL`] path allocates nothing new and stays
    /// byte-identical to pre-trait captures.
    pub fn set_cc_backend(&mut self, backend: CcBackend) {
        if backend == self.cc.backend() {
            return;
        }
        self.cc = match backend {
            CcBackend::Centralized2PL => Box::new(LockMgr::new(&self.space, LOCK_TABLE_BUCKETS)),
            CcBackend::PartitionedPerCore => {
                // One partition per base-config core (the paper's 4-core
                // machines), carved from the same total bucket budget.
                Box::new(PartitionedPerCore::new(&self.space, 4, LOCK_TABLE_BUCKETS))
            }
            CcBackend::DeterministicOrdered => {
                Box::new(DeterministicOrdered::new(&self.space, LOCK_TABLE_BUCKETS))
            }
        };
    }

    /// The backend's accumulated host-side counters.
    pub fn cc_stats(&self) -> CcStats {
        self.cc.stats()
    }

    /// Declare `txn`'s derived read/write set to the backend (a no-op for
    /// backends that do not pre-order). The ordered backend parks the
    /// caller with [`EngineError::LockWait`] until the whole set is
    /// granted in declare order; retry the call verbatim after a wake.
    pub fn declare(
        &mut self,
        txn: &Txn,
        keys: &[(u64, LockMode)],
        tc: &mut TraceCtx,
    ) -> Result<()> {
        self.cc.declare(txn.id, keys, tc)
    }

    /// Declare how many clients share this engine instance, turning on
    /// the lock-table contention surcharge: every lock acquire/release
    /// charges `LOCK_CONTEND · (sharers − 1)` extra lock-manager
    /// instructions — the CAS-retry/latch-backoff work that grows with
    /// the thread count contending on one lock table (the Shore-MT-style
    /// lock-manager bottleneck the Islands literature measures). The
    /// default (no call, or `sharers <= 1`) charges nothing, so existing
    /// captures are byte-identical.
    pub fn set_lock_sharers(&mut self, sharers: u32) {
        self.cc
            .set_contention(instr::LOCK_CONTEND * sharers.saturating_sub(1));
    }

    /// Transactions granted a queued lock (or chosen as deadlock victims)
    /// since the last call — the interleaved scheduler resumes them.
    pub fn drain_woken(&mut self) -> Vec<TxnId> {
        self.cc.drain_woken()
    }

    /// Live lock-table entries (diagnostics/tests).
    pub fn live_locks(&self) -> usize {
        self.cc.live_locks()
    }

    /// Transactions parked on lock wait queues (diagnostics/tests).
    pub fn lock_waiters(&self) -> usize {
        self.cc.waiting_count()
    }

    // ---- DDL ----

    /// Create a table with the given row layout.
    pub fn create_table(&mut self, name: &'static str, schema: Schema) -> TableId {
        let id = self.catalog.add_table(name);
        self.heaps.push(HeapTable::new(schema, &self.space));
        debug_assert_eq!(self.heaps.len() - 1, id);
        id
    }

    /// Create an index over `table` with `key_fn`; existing rows are
    /// indexed immediately, each key read off the tuple's page image.
    ///
    /// Two rows with one key are [`EngineError::DuplicateKey`]: `key_fn`
    /// is wrong for the table. The index is then not created, but the
    /// simulated address space keeps the nodes the build allocated.
    pub fn create_index(&mut self, table: TableId, key_fn: KeyFn) -> Result<IndexId> {
        let id = self.indexes.len();
        let mut tree = BTree::new(&self.space);
        let mut tc = self.null_ctx();
        for rid in self.heaps[table].rids() {
            if let Some(tuple) = self.heaps[table].read_at(rid, &mut tc) {
                tree.insert(key_fn(&tuple, rid), rid.pack(), &self.space, &mut tc)?;
            }
        }
        self.indexes.push(tree);
        self.index_table.push(table);
        self.key_fns.push(key_fn);
        self.catalog.add_index(table, id);
        Ok(id)
    }

    /// Traced catalog lookup by table name.
    pub fn table_id(&self, name: &str, tc: &mut TraceCtx) -> Option<TableId> {
        self.catalog.lookup(name, tc)
    }

    /// The heap behind a table handle.
    pub fn table(&self, id: TableId) -> &HeapTable {
        &self.heaps[id]
    }

    /// The B+Tree behind an index handle.
    #[allow(
        clippy::should_implement_trait,
        reason = "accessor by id, not ops::Index"
    )]
    pub fn index(&self, id: IndexId) -> &BTree {
        &self.indexes[id]
    }

    /// Number of tables.
    pub fn n_tables(&self) -> usize {
        self.heaps.len()
    }

    /// `(records, bytes)` appended to the WAL so far.
    pub fn wal_stats(&self) -> (u64, u64) {
        (self.wal.records(), self.wal.bytes_written())
    }

    /// FNV-1a digest of everything a capture can observe of the database:
    /// every heap page (address, image, slot directory), every index
    /// node, the WAL and backend counters, the bytes allocated, the live
    /// lock entries and waiters, and the next transaction id. Two ways of
    /// building a database are interchangeable when this agrees
    /// (diagnostics/tests).
    pub fn state_digest(&self) -> u64 {
        let mut d = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| d = (d ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        for heap in &self.heaps {
            heap.digest(&mut word);
        }
        for (tree, &table) in self.indexes.iter().zip(&self.index_table) {
            word(table as u64);
            tree.digest(&mut word);
        }
        let (cc, (records, bytes)) = (self.cc.stats(), self.wal_stats());
        [
            records,
            bytes,
            cc.acquires,
            cc.waits,
            cc.ordering_waits,
            cc.deadlocks,
            cc.remote_msgs,
            cc.remote_bytes,
            cc.fallback_conflicts,
            self.space.allocated(),
            self.live_locks() as u64,
            self.lock_waiters() as u64,
            self.next_txn,
        ]
        .into_iter()
        .for_each(&mut word);
        d
    }

    // ---- Transactions ----

    /// Open a transaction (monotone id; traced begin bookkeeping).
    pub fn begin(&mut self, tc: &mut TraceCtx) -> Txn {
        tc.charge(tc.r.txn_mgr, instr::TXN_BEGIN);
        let id = self.next_txn;
        self.next_txn += 1;
        Txn::new(id)
    }

    /// Commit: WAL commit record + fence, then release every lock.
    pub fn commit(&mut self, mut txn: Txn, tc: &mut TraceCtx) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnClosed);
        }
        tc.charge(tc.r.txn_mgr, instr::TXN_COMMIT);
        self.wal.commit(tc);
        for (key, _) in txn.locks.drain(..) {
            self.cc.release(txn.id, key, tc);
        }
        self.cc.finish(txn.id, tc);
        txn.state = TxnState::Committed;
        Ok(())
    }

    /// Roll back: apply undo in reverse, then release locks.
    pub fn abort(&mut self, mut txn: Txn, tc: &mut TraceCtx) {
        tc.charge(
            tc.r.txn_mgr,
            instr::TXN_ABORT_BASE + instr::TXN_UNDO_PER_REC * txn.undo.len() as u32,
        );
        // Abort may arrive while the txn is queued on (or was granted but
        // never observed) a lock wait — clear that state first.
        self.cc.cancel_wait(txn.id, tc);
        let undo: Vec<UndoRec> = txn.undo.drain(..).rev().collect();
        for rec in undo {
            match rec {
                UndoRec::Insert {
                    table,
                    rid,
                    index_keys,
                } => {
                    for (idx, key) in index_keys {
                        self.indexes[idx].remove(key, tc);
                    }
                    let _ = self.heaps[table].delete(rid, tc);
                }
                UndoRec::Update { table, rid, before } => {
                    let _ = self.heaps[table].update_bytes(rid, &before, tc);
                }
                UndoRec::Delete {
                    table,
                    rid,
                    before,
                    index_keys,
                } => {
                    if self.heaps[table].restore_bytes(rid, &before, tc).is_ok() {
                        for (idx, key) in index_keys {
                            let _ = self.indexes[idx].insert(key, rid.pack(), &self.space, tc);
                        }
                    }
                }
            }
        }
        self.wal.append(WalRecord::Abort, tc);
        for (key, _) in txn.locks.drain(..) {
            self.cc.release(txn.id, key, tc);
        }
        self.cc.finish(txn.id, tc);
        txn.state = TxnState::Aborted;
    }

    /// Open an exclusive load (see [`Loader`]). The `&mut` borrow keeps
    /// every other statement out while it lasts; a transaction that took
    /// locks *before* it is refused here with
    /// [`EngineError::LoadNotExclusive`], because a load keeps no undo and
    /// so must never meet a conflict.
    pub fn loader<'a>(&'a mut self, tc: &'a mut TraceCtx) -> Result<Loader<'a>> {
        let (live_locks, waiters) = (self.live_locks(), self.lock_waiters());
        if live_locks != 0 || waiters != 0 {
            return Err(EngineError::LoadNotExclusive {
                live_locks,
                waiters,
            });
        }
        let txn = self.begin(tc);
        Ok(Loader { db: self, tc, txn })
    }

    /// Row-lock key: table discriminator in the high bits, RID below.
    /// Public so read/write-set derivation (`rwset` in `dbcmp-workloads`,
    /// which dry-runs the transaction body) names the keys the engine's
    /// own lock calls will use.
    pub fn lock_key(table: TableId, rid: Rid) -> u64 {
        ((table as u64) << 52) | rid.pack()
    }

    /// Lock-free row fetch — what a `read` is during read/write-set
    /// derivation (`rwset` in `dbcmp-workloads`): returns the heap row
    /// without taking a lock or touching transaction state. Derivation
    /// runs under a null trace context, so these probes never enter
    /// captures; the values read are
    /// advisory (a concurrent writer may change them before the declared
    /// locks are granted — the ordered backend's no-wait fallback absorbs
    /// such misses).
    pub fn peek(&self, table: TableId, rid: Rid, tc: &mut TraceCtx) -> Result<Row> {
        self.heaps[table].get(rid, tc)
    }

    /// Take a row lock. A conflict parks the request on the key's FIFO
    /// wait queue: the caller receives [`EngineError::LockWait`] and must
    /// retry the same operation once [`Database::drain_woken`] names it;
    /// a waits-for cycle aborts the youngest transaction on it with
    /// [`EngineError::Deadlock`]. With one live transaction (sequential
    /// capture) nothing ever conflicts, so nothing ever parks.
    fn lock(
        &mut self,
        txn: &mut Txn,
        table: TableId,
        rid: Rid,
        mode: LockMode,
        tc: &mut TraceCtx,
    ) -> Result<()> {
        let key = Self::lock_key(table, rid);
        match self.cc.acquire_wait(txn.id, key, mode, tc)? {
            Grant::Acquired | Grant::WaitGranted => txn.locks.push((key, mode)),
            Grant::Held | Grant::WaitUpgraded => {}
            Grant::Wait => return Err(EngineError::LockWait { key }),
        }
        Ok(())
    }

    // ---- DML (transactional) ----

    /// Insert a row: X-lock, WAL, heap, all indexes, undo record.
    pub fn insert(
        &mut self,
        txn: &mut Txn,
        table: TableId,
        row: &[Value],
        tc: &mut TraceCtx,
    ) -> Result<Rid> {
        if !txn.is_active() {
            return Err(EngineError::TxnClosed);
        }
        let Txn {
            id, locks, undo, ..
        } = txn;
        self.insert_row(*id, table, row, tc, |step| match step {
            // The undo record goes in *before* anything that can fail, so
            // an abort after a partial insert (lock conflict, duplicate
            // index key) removes the heap row and exactly the index
            // entries added so far.
            RowStep::Placed(rid) => undo.push(UndoRec::Insert {
                table,
                rid,
                index_keys: Vec::new(),
            }),
            RowStep::Locked(key) => locks.push((key, LockMode::Exclusive)),
            RowStep::Indexed(idx, ikey) => {
                if let Some(UndoRec::Insert { index_keys, .. }) = undo.last_mut() {
                    index_keys.push((idx, ikey));
                }
            }
        })
    }

    /// One row into the kept state, for transaction `id`: heap slot,
    /// X lock on the fresh RID, WAL record, then every index of the table
    /// — the one copy of that sequence, under [`Database::insert`] and
    /// [`Loader::insert`] alike. Each step is reported to `did` as it
    /// completes, so a failure part-way leaves the caller knowing exactly
    /// what happened before it.
    fn insert_row(
        &mut self,
        id: TxnId,
        table: TableId,
        row: &[Value],
        tc: &mut TraceCtx,
        mut did: impl FnMut(RowStep),
    ) -> Result<Rid> {
        let rid = self.heaps[table].insert(row, &self.space, tc)?;
        did(RowStep::Placed(rid));
        // Fresh-RID locks conflict only if a deleter still holds the slot's
        // lock; never worth queueing on, so this one acquire is no-wait.
        let key = Self::lock_key(table, rid);
        if self.cc.acquire(id, key, LockMode::Exclusive, tc)? {
            did(RowStep::Locked(key));
        }
        let bytes = self.heaps[table].schema.row_width() as u32;
        self.wal.append(WalRecord::Insert { bytes }, tc);
        for &idx in &self.catalog.table(table).indexes {
            let ikey = (self.key_fns[idx])(&row, rid);
            self.indexes[idx].insert(ikey, rid.pack(), &self.space, tc)?;
            did(RowStep::Indexed(idx, ikey));
        }
        Ok(rid)
    }

    /// Read a row under an S (or X, `for_update`) lock.
    pub fn read(
        &mut self,
        txn: &mut Txn,
        table: TableId,
        rid: Rid,
        for_update: bool,
        tc: &mut TraceCtx,
    ) -> Result<Row> {
        if !txn.is_active() {
            return Err(EngineError::TxnClosed);
        }
        let mode = if for_update {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        self.lock(txn, table, rid, mode, tc)?;
        self.heaps[table].get(rid, tc)
    }

    /// Update a row in place (X lock, before-image undo, WAL).
    pub fn update(
        &mut self,
        txn: &mut Txn,
        table: TableId,
        rid: Rid,
        row: &[Value],
        tc: &mut TraceCtx,
    ) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnClosed);
        }
        self.lock(txn, table, rid, LockMode::Exclusive, tc)?;
        let before = self.heaps[table].get_bytes(rid, tc)?;
        self.wal.append(
            WalRecord::Update {
                bytes: before.len() as u32,
            },
            tc,
        );
        self.heaps[table].update(rid, row, tc)?;
        txn.undo.push(UndoRec::Update { table, rid, before });
        Ok(())
    }

    /// Delete a row (X lock, image + index-key undo, WAL).
    pub fn delete(
        &mut self,
        txn: &mut Txn,
        table: TableId,
        rid: Rid,
        tc: &mut TraceCtx,
    ) -> Result<()> {
        if !txn.is_active() {
            return Err(EngineError::TxnClosed);
        }
        self.lock(txn, table, rid, LockMode::Exclusive, tc)?;
        let before = self.heaps[table].get_bytes(rid, tc)?;
        let row = self.heaps[table].get(rid, tc)?;
        let mut index_keys = Vec::new();
        for &idx in &self.catalog.table(table).indexes {
            let key = (self.key_fns[idx])(&row, rid);
            self.indexes[idx].remove(key, tc);
            index_keys.push((idx, key));
        }
        self.wal.append(
            WalRecord::Delete {
                bytes: before.len() as u32,
            },
            tc,
        );
        self.heaps[table].delete(rid, tc)?;
        txn.undo.push(UndoRec::Delete {
            table,
            rid,
            before,
            index_keys,
        });
        Ok(())
    }

    // ---- Index access ----

    /// Point lookup through an index.
    pub fn index_get(&self, index: IndexId, key: u64, tc: &mut TraceCtx) -> Option<Rid> {
        self.indexes[index].get(key, tc).map(Rid::unpack)
    }

    /// Inclusive range through an index.
    pub fn index_range(
        &self,
        index: IndexId,
        lo: u64,
        hi: u64,
        tc: &mut TraceCtx,
    ) -> Vec<(u64, Rid)> {
        self.indexes[index]
            .range(lo, hi, tc)
            .into_iter()
            .map(|(k, v)| (k, Rid::unpack(v)))
            .collect()
    }

    /// Table of an index.
    pub fn index_table(&self, index: IndexId) -> TableId {
        self.index_table[index]
    }

    /// Statement entry point: the client/session layer cost (dispatch,
    /// plan-cache lookup) charged once per statement.
    pub fn statement_overhead(&self, tc: &mut TraceCtx) {
        tc.charge(tc.r.client, instr::CLIENT_DISPATCH);
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

/// A step of [`Database::insert_row`], reported as it completes. What must
/// be remembered differs by caller: a transaction keeps all three until
/// its end (to undo, to release); a load keeps only the lock, and only
/// until the row is in.
enum RowStep {
    /// The row has its heap slot.
    Placed(Rid),
    /// The X lock under this key was newly granted.
    Locked(u64),
    /// The row was entered in this index under this key.
    Indexed(IndexId, u64),
}

/// An exclusive bulk load: one transaction's worth of inserts that holds
/// each row lock only until the row is in, and keeps no undo.
///
/// Everything the database *keeps* of an insert is what
/// [`Database::insert`] leaves — heap slot, address-space allocations in
/// the same order, WAL records, one transaction id, one counted lock
/// acquire and release per row, index entries, and the commit record at
/// [`Loader::finish`] — so a load is indistinguishable afterwards from one
/// committed transaction that inserted the same rows. What it skips is
/// what only that transaction's *end* would use: the lock table never
/// holds more than one entry, and there is no lock list or undo log to
/// grow, so `finish` has nothing to drain.
///
/// There is no abort. An `Err` from [`Loader::insert`] before the row is
/// placed (a row that does not fit the schema) changes nothing and the
/// load may go on; one after it (a duplicate key in an index created
/// before the load) leaves that row in the heap and the WAL with no record
/// to take it back by — the database is then only fit to be dropped. A
/// caller that needs to survive such a row inserts through a transaction.
/// Dropping the loader without `finish` leaves the load without its
/// commit record.
pub struct Loader<'a> {
    db: &'a mut Database,
    tc: &'a mut TraceCtx,
    /// Supplies the id and the begin/commit bookkeeping; its lock list
    /// and undo log stay empty.
    txn: Txn,
}

impl Loader<'_> {
    /// Insert a row (see the type docs for what an `Err` leaves behind).
    pub fn insert(&mut self, table: TableId, row: &[Value]) -> Result<Rid> {
        let mut locked = None;
        let inserted = self
            .db
            .insert_row(self.txn.id, table, row, self.tc, |step| {
                if let RowStep::Locked(key) = step {
                    locked = Some(key);
                }
            });
        if let Some(key) = locked {
            self.db.cc.release(self.txn.id, key, self.tc);
        }
        inserted
    }

    /// End the load: WAL commit record and fence.
    pub fn finish(self) -> Result<()> {
        self.db.commit(self.txn, self.tc)
    }
}

#[cfg(test)]
#[allow(
    clippy::inconsistent_digit_grouping,
    reason = "money literals: dollars_cents"
)]
mod tests {
    use super::*;
    use crate::types::ColType;

    fn accounts_db() -> (Database, TableId, IndexId) {
        let mut db = Database::new();
        let t = db.create_table(
            "accounts",
            Schema::new(vec![("id", ColType::Int), ("balance", ColType::Decimal)]),
        );
        let idx = db
            .create_index(t, Box::new(|row, _| row.col(0).as_i64().unwrap() as u64))
            .unwrap();
        (db, t, idx)
    }

    #[test]
    fn insert_commit_read_back() {
        let (mut db, t, idx) = accounts_db();
        let mut tc = db.null_ctx();
        let mut txn = db.begin(&mut tc);
        let rid = db
            .insert(
                &mut txn,
                t,
                &[Value::Int(1), Value::Decimal(100_00)],
                &mut tc,
            )
            .unwrap();
        db.commit(txn, &mut tc).unwrap();

        let found = db.index_get(idx, 1, &mut tc).unwrap();
        assert_eq!(found, rid);
        let mut txn2 = db.begin(&mut tc);
        let row = db.read(&mut txn2, t, rid, false, &mut tc).unwrap();
        assert_eq!(row, vec![Value::Int(1), Value::Decimal(100_00)]);
        db.commit(txn2, &mut tc).unwrap();
    }

    #[test]
    fn abort_rolls_back_insert_update_delete() {
        let (mut db, t, idx) = accounts_db();
        let mut tc = db.null_ctx();

        // Committed base row.
        let mut setup = db.begin(&mut tc);
        let rid = db
            .insert(
                &mut setup,
                t,
                &[Value::Int(1), Value::Decimal(500)],
                &mut tc,
            )
            .unwrap();
        db.commit(setup, &mut tc).unwrap();

        // A txn that inserts, updates the base row, deletes it — then aborts.
        let mut txn = db.begin(&mut tc);
        db.insert(&mut txn, t, &[Value::Int(2), Value::Decimal(7)], &mut tc)
            .unwrap();
        db.update(
            &mut txn,
            t,
            rid,
            &[Value::Int(1), Value::Decimal(999)],
            &mut tc,
        )
        .unwrap();
        db.delete(&mut txn, t, rid, &mut tc).unwrap();
        db.abort(txn, &mut tc);

        // Base row restored (possibly at a new RID via the index).
        let rid_after = db.index_get(idx, 1, &mut tc).expect("row must be back");
        let mut check = db.begin(&mut tc);
        let row = db.read(&mut check, t, rid_after, false, &mut tc).unwrap();
        assert_eq!(row, vec![Value::Int(1), Value::Decimal(500)]);
        db.commit(check, &mut tc).unwrap();
        // Inserted row is gone.
        assert!(db.index_get(idx, 2, &mut tc).is_none());
        assert_eq!(db.table(t).n_rows(), 1);
    }

    /// A parked waiter that gives up: its abort leaves the wait queue, so
    /// the holder's commit wakes nobody and the row is free afterwards.
    #[test]
    fn two_pl_conflict_surfaces() {
        let (mut db, t, _) = accounts_db();
        let mut tc = db.null_ctx();
        let mut setup = db.begin(&mut tc);
        let rid = db
            .insert(&mut setup, t, &[Value::Int(1), Value::Decimal(0)], &mut tc)
            .unwrap();
        db.commit(setup, &mut tc).unwrap();

        let mut a = db.begin(&mut tc);
        let mut b = db.begin(&mut tc);
        db.read(&mut a, t, rid, true, &mut tc).unwrap(); // A holds X
        let r = db.read(&mut b, t, rid, false, &mut tc); // B wants S
        assert!(matches!(r, Err(EngineError::LockWait { .. })));
        db.abort(b, &mut tc);
        assert_eq!(db.lock_waiters(), 0, "abort leaves the wait queue");
        db.commit(a, &mut tc).unwrap();
        assert!(db.drain_woken().is_empty(), "nobody is left to wake");

        // After A commits, a new txn succeeds.
        let mut c = db.begin(&mut tc);
        assert!(db.read(&mut c, t, rid, false, &mut tc).is_ok());
        db.commit(c, &mut tc).unwrap();
        assert_eq!(db.live_locks(), 0);
    }

    #[test]
    fn queued_conflict_waits_then_grants() {
        let (mut db, t, _) = accounts_db();
        let mut tc = db.null_ctx();
        let mut setup = db.begin(&mut tc);
        let rid = db
            .insert(&mut setup, t, &[Value::Int(1), Value::Decimal(0)], &mut tc)
            .unwrap();
        db.commit(setup, &mut tc).unwrap();

        let mut a = db.begin(&mut tc);
        let mut b = db.begin(&mut tc);
        db.read(&mut a, t, rid, true, &mut tc).unwrap(); // A holds X
        let r = db.read(&mut b, t, rid, false, &mut tc); // B parks
        assert!(matches!(r, Err(EngineError::LockWait { .. })));
        assert_eq!(db.lock_waiters(), 1);

        db.commit(a, &mut tc).unwrap();
        assert_eq!(db.drain_woken(), vec![b.id]);
        // B's retry of the same read now succeeds.
        assert!(db.read(&mut b, t, rid, false, &mut tc).is_ok());
        db.commit(b, &mut tc).unwrap();
        assert_eq!(db.live_locks(), 0);
    }

    /// The guaranteed two-client cycle: A locks k1 then wants k2, B locks
    /// k2 then wants k1. Exactly one victim (the youngest, B) aborts, the
    /// survivor commits, and the lock table drains.
    #[test]
    fn two_client_cycle_resolves_with_one_victim() {
        let (mut db, t, _) = accounts_db();
        let mut tc = db.null_ctx();
        let mut setup = db.begin(&mut tc);
        let k1 = db
            .insert(&mut setup, t, &[Value::Int(1), Value::Decimal(0)], &mut tc)
            .unwrap();
        let k2 = db
            .insert(&mut setup, t, &[Value::Int(2), Value::Decimal(0)], &mut tc)
            .unwrap();
        db.commit(setup, &mut tc).unwrap();

        let mut a = db.begin(&mut tc);
        let mut b = db.begin(&mut tc);
        db.read(&mut a, t, k1, true, &mut tc).unwrap(); // A: X(k1)
        db.read(&mut b, t, k2, true, &mut tc).unwrap(); // B: X(k2)
        assert!(matches!(
            db.read(&mut a, t, k2, true, &mut tc), // A parks on k2
            Err(EngineError::LockWait { .. })
        ));
        // B closes the cycle; B is youngest → immediate victim.
        let r = db.read(&mut b, t, k1, true, &mut tc);
        assert!(matches!(r, Err(EngineError::Deadlock { .. })));
        db.abort(b, &mut tc);

        // The survivor was granted k2 by the abort and commits.
        assert_eq!(db.drain_woken(), vec![a.id]);
        db.read(&mut a, t, k2, true, &mut tc).unwrap();
        db.commit(a, &mut tc).unwrap();
        assert_eq!(db.live_locks(), 0, "lock table must drain");
        assert_eq!(db.lock_waiters(), 0);
    }

    /// Same cycle, opposite closing order: the victim is the *parked*
    /// younger transaction, which learns of its fate on its retry.
    #[test]
    fn parked_younger_txn_is_the_victim() {
        let (mut db, t, _) = accounts_db();
        let mut tc = db.null_ctx();
        let mut setup = db.begin(&mut tc);
        let k1 = db
            .insert(&mut setup, t, &[Value::Int(1), Value::Decimal(0)], &mut tc)
            .unwrap();
        let k2 = db
            .insert(&mut setup, t, &[Value::Int(2), Value::Decimal(0)], &mut tc)
            .unwrap();
        db.commit(setup, &mut tc).unwrap();

        let mut a = db.begin(&mut tc); // older
        let mut b = db.begin(&mut tc); // younger
        db.read(&mut a, t, k1, true, &mut tc).unwrap();
        db.read(&mut b, t, k2, true, &mut tc).unwrap();
        // Younger B parks first.
        assert!(matches!(
            db.read(&mut b, t, k1, true, &mut tc),
            Err(EngineError::LockWait { .. })
        ));
        // Older A closes the cycle: A parks, B is chosen victim and woken.
        assert!(matches!(
            db.read(&mut a, t, k2, true, &mut tc),
            Err(EngineError::LockWait { .. })
        ));
        assert_eq!(db.drain_woken(), vec![b.id]);
        assert!(matches!(
            db.read(&mut b, t, k1, true, &mut tc),
            Err(EngineError::Deadlock { .. })
        ));
        db.abort(b, &mut tc);
        assert_eq!(db.drain_woken(), vec![a.id]);
        db.read(&mut a, t, k2, true, &mut tc).unwrap();
        db.commit(a, &mut tc).unwrap();
        assert_eq!(db.live_locks(), 0);
    }

    #[test]
    fn closed_txn_rejected() {
        let (mut db, t, _) = accounts_db();
        let mut tc = db.null_ctx();
        let mut txn = db.begin(&mut tc);
        let rid = db
            .insert(&mut txn, t, &[Value::Int(1), Value::Decimal(0)], &mut tc)
            .unwrap();
        txn.state = TxnState::Committed; // simulate misuse
        assert!(matches!(
            db.read(&mut txn, t, rid, false, &mut tc),
            Err(EngineError::TxnClosed)
        ));
    }

    #[test]
    fn index_range_after_inserts() {
        let (mut db, t, idx) = accounts_db();
        let mut tc = db.null_ctx();
        let mut txn = db.begin(&mut tc);
        for i in 0..100 {
            db.insert(
                &mut txn,
                t,
                &[Value::Int(i), Value::Decimal(i * 10)],
                &mut tc,
            )
            .unwrap();
        }
        db.commit(txn, &mut tc).unwrap();
        let r = db.index_range(idx, 10, 19, &mut tc);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, 10);
        assert_eq!(r[9].0, 19);
    }

    #[test]
    fn wal_accumulates() {
        let (mut db, t, _) = accounts_db();
        let mut tc = db.null_ctx();
        let mut txn = db.begin(&mut tc);
        db.insert(&mut txn, t, &[Value::Int(1), Value::Decimal(0)], &mut tc)
            .unwrap();
        db.commit(txn, &mut tc).unwrap();
        let (records, bytes) = db.wal_stats();
        assert_eq!(records, 2); // insert + commit
        assert!(bytes > 0);
    }

    #[test]
    fn loader_is_refused_while_a_transaction_holds_a_lock() {
        let (mut db, t, _) = accounts_db();
        let mut tc = db.null_ctx();
        let mut holder = db.begin(&mut tc);
        db.insert(&mut holder, t, &[Value::Int(1), Value::Decimal(0)], &mut tc)
            .unwrap();
        assert_eq!(
            db.loader(&mut tc).err(),
            Some(EngineError::LoadNotExclusive {
                live_locks: 1,
                waiters: 0
            })
        );
        // The refusal took nothing: the holder's commit still gets the
        // next record, and the loader the next transaction id.
        db.commit(holder, &mut tc).unwrap();
        let load = db.loader(&mut tc).unwrap();
        assert_eq!(load.txn.id, 2);
        load.finish().unwrap();
    }

    #[test]
    fn loader_insert_maintains_indexes_created_before_the_load() {
        let (mut db, t, idx) = accounts_db();
        let mut tc = db.null_ctx();
        let mut load = db.loader(&mut tc).unwrap();
        let rids: Vec<Rid> = (0..200)
            .map(|i| {
                load.insert(t, &[Value::Int(i), Value::Decimal(i * 10)])
                    .unwrap()
            })
            .collect();
        load.finish().unwrap();
        assert!(db.index(idx).height() > 1, "200 keys split the root");
        for (i, rid) in rids.into_iter().enumerate() {
            assert_eq!(db.index_get(idx, i as u64, &mut tc), Some(rid));
        }
        assert_eq!(db.wal_stats().0, 201); // 200 inserts + commit
    }

    /// No abort path: the refused row stays in the heap, out of the
    /// index — but its lock does not outlive the statement.
    #[test]
    fn loader_duplicate_key_is_an_error_that_leaves_no_lock() {
        let (mut db, t, idx) = accounts_db();
        let mut tc = db.null_ctx();
        let mut load = db.loader(&mut tc).unwrap();
        let first = load.insert(t, &[Value::Int(7), Value::Decimal(1)]).unwrap();
        assert_eq!(
            load.insert(t, &[Value::Int(7), Value::Decimal(2)]),
            Err(EngineError::DuplicateKey(7))
        );
        assert_eq!(load.db.live_locks(), 0);
        // A row that does not fit the schema fails before anything moves.
        assert!(matches!(
            load.insert(t, &[Value::Int(8)]),
            Err(EngineError::TypeMismatch { .. })
        ));
        load.finish().unwrap();
        assert_eq!(db.index_get(idx, 7, &mut tc), Some(first));
        assert_eq!(db.table(t).n_rows(), 2);
    }

    fn col_type(code: u8) -> ColType {
        match code {
            0 => ColType::Int,
            1 => ColType::Decimal,
            2 => ColType::Date,
            // Wide enough that a few dozen rows spill to a second page.
            _ => ColType::Str(120),
        }
    }

    fn value(ty: ColType, v: i64) -> Value {
        match ty {
            ColType::Int => Value::Int(v),
            ColType::Decimal => Value::Decimal(!v),
            ColType::Date => Value::Date(v as u32),
            ColType::Str(_) => Value::Str(format!("row {v}")),
        }
    }

    /// The tables of `schemas` (column-type codes), under `backend`, with
    /// an index on each `indexed` table — all before any row exists.
    fn empty_db(backend: CcBackend, schemas: &[Vec<u8>], indexed: &[bool]) -> Database {
        const TABLES: [&str; 3] = ["t0", "t1", "t2"];
        const COLS: [&str; 4] = ["c0", "c1", "c2", "c3"];
        let mut db = Database::new();
        db.set_cc_backend(backend);
        for (t, codes) in schemas.iter().enumerate() {
            let cols = codes.iter().zip(COLS).map(|(&c, name)| (name, col_type(c)));
            db.create_table(TABLES[t], Schema::new(cols.collect()));
            if indexed[t] {
                // Unique whatever the rows hold, and scattered, so inserts
                // land mid-leaf and splits interleave with heap pages.
                let key =
                    |_: &dyn Columns, rid: Rid| rid.pack().wrapping_mul(0x9E37_79B9_7F4A_7C15);
                db.create_index(t, Box::new(key)).unwrap();
            }
        }
        db
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A load is one committed transaction to everything that can be
        /// observed afterwards, under every backend — and at no point
        /// during it does the lock table hold an entry.
        #[test]
        fn a_load_is_one_committed_transaction(
            backend in 0usize..3,
            schemas in prop::collection::vec(prop::collection::vec(0u8..4, 1..5), 2..4),
            indexed in prop::collection::vec(any::<bool>(), 3),
            draws in prop::collection::vec((0usize..3, any::<i64>()), 0..300),
        ) {
            let backend = [
                CcBackend::Centralized2PL,
                CcBackend::PartitionedPerCore,
                CcBackend::DeterministicOrdered,
            ][backend];
            let rows: Vec<(TableId, Row)> = draws
                .into_iter()
                .map(|(t, v)| {
                    let t = t % schemas.len();
                    (t, schemas[t].iter().map(|&c| value(col_type(c), v)).collect())
                })
                .collect();

            let mut a = empty_db(backend, &schemas, &indexed);
            let mut tca = a.null_ctx();
            let mut txn = a.begin(&mut tca);
            for (t, row) in &rows {
                a.insert(&mut txn, *t, row, &mut tca).unwrap();
            }
            prop_assert_eq!(a.live_locks(), rows.len());
            a.commit(txn, &mut tca).unwrap();

            let mut b = empty_db(backend, &schemas, &indexed);
            let mut tcb = b.null_ctx();
            let mut load = b.loader(&mut tcb).unwrap();
            for (t, row) in &rows {
                load.insert(*t, row).unwrap();
                prop_assert_eq!(load.db.live_locks(), 0);
            }
            load.finish().unwrap();

            prop_assert_eq!(a.state_digest(), b.state_digest());
            prop_assert_eq!(tca.instrs(), tcb.instrs(), "same work charged");
            prop_assert_eq!(a.begin(&mut tca).id, b.begin(&mut tcb).id);
        }
    }
}
