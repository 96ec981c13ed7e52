//! The database façade: tables + indexes + locks + log + transactions.
//!
//! OLTP code paths go through this API (locking, logging, undo); read-only
//! DSS queries go through the Volcano executor in [`crate::exec`], which
//! scans tables without row locks (degree-2 isolation for reporting
//! queries, as engines of the era did).

use std::sync::Arc;

use dbcmp_trace::{AddressSpace, CodeRegions};

use crate::btree::{BTree, Cursor};
use crate::catalog::{Catalog, IndexId, TableId};
use crate::cc::{
    CcBackend, CcStats, Centralized2PL, ConcurrencyControl, DeterministicOrdered,
    PartitionedPerCore,
};
use crate::costs::{instr, EngineRegions};
use crate::error::{EngineError, Result};
use crate::heap::{HeapTable, Rid};
use crate::lockmgr::{Grant, LockMode};
use crate::schema::Schema;
use crate::tctx::TraceCtx;
use crate::txn::{Txn, TxnState, UndoRec};
use crate::types::{Row, Value};
use crate::wal::{Wal, WalRecord};

/// Key-extraction function for an index: row + rid → packed u64 key.
pub type KeyFn = Box<dyn Fn(&[Value], Rid) -> u64 + Send + Sync>;

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
            cc: Box::new(Centralized2PL::new(&space, 64 * 1024)),
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
            CcBackend::Centralized2PL => Box::new(Centralized2PL::new(&self.space, 64 * 1024)),
            CcBackend::PartitionedPerCore => {
                // One partition per base-config core (the paper's 4-core
                // machines), carved from the same total bucket budget.
                Box::new(PartitionedPerCore::new(&self.space, 4, 64 * 1024))
            }
            CcBackend::DeterministicOrdered => {
                Box::new(DeterministicOrdered::new(&self.space, 64 * 1024))
            }
        };
    }

    /// The active concurrency-control backend.
    pub fn cc_backend(&self) -> CcBackend {
        self.cc.backend()
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
    pub fn drain_woken(&mut self) -> Vec<crate::txn::TxnId> {
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
        self.heaps.push(HeapTable::new(schema, &self.space, name));
        debug_assert_eq!(self.heaps.len() - 1, id);
        id
    }

    /// Create an index over `table` with `key_fn`; existing rows are
    /// indexed immediately.
    pub fn create_index(&mut self, table: TableId, key_fn: KeyFn) -> IndexId {
        let id = self.indexes.len();
        let mut tree = BTree::new(&self.space);
        let mut tc = self.null_ctx();
        let rids: Vec<Rid> = self.heaps[table].rids().collect();
        for rid in rids {
            if let Some(row) = self.heaps[table].read_at(rid, &mut tc) {
                let key = key_fn(&row, rid);
                tree.insert(key, rid.pack(), &self.space, &mut tc)
                    // lint:allow(panic): a duplicate key here means the caller's key_fn is wrong for this table — a programming error at schema-definition time, not a runtime condition
                    .expect("index build: duplicate key");
            }
        }
        self.indexes.push(tree);
        self.index_table.push(table);
        self.key_fns.push(key_fn);
        self.catalog.add_index(table, id);
        id
    }

    /// Traced catalog lookup by table name.
    pub fn table_id(&self, name: &str, tc: &mut TraceCtx) -> Option<TableId> {
        self.catalog.lookup(name, tc)
    }

    /// The heap behind a table handle.
    pub fn table(&self, id: TableId) -> &HeapTable {
        &self.heaps[id]
    }

    #[allow(clippy::should_implement_trait)] // accessor by id, not ops::Index
    /// The B+Tree behind an index handle.
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

    /// Row-lock key: table discriminator in the high bits, RID below.
    /// Public so read/write-set derivation (`rwset` in `dbcmp-workloads`)
    /// can name the same keys the engine's own lock calls will use.
    pub fn lock_key(table: TableId, rid: Rid) -> u64 {
        ((table as u64) << 52) | rid.pack()
    }

    /// Lock-free row fetch for read/write-set derivation (`rwset` in
    /// `dbcmp-workloads`): returns the heap row without taking a lock or
    /// touching transaction state. Derivation runs under a null trace
    /// context, so these probes never enter captures; the values read are
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
        let rid = self.heaps[table].insert(row, &self.space, tc)?;
        // Undo record goes in *before* anything that can fail, so an abort
        // after a partial insert (lock conflict, duplicate index key)
        // removes the heap row and exactly the index entries added so far.
        txn.undo.push(UndoRec::Insert {
            table,
            rid,
            index_keys: Vec::new(),
        });
        // Fresh-RID locks conflict only if a deleter still holds the slot's
        // lock; never worth queueing on, so this one acquire is no-wait.
        let key = Self::lock_key(table, rid);
        if self.cc.acquire(txn.id, key, LockMode::Exclusive, tc)? {
            txn.locks.push((key, LockMode::Exclusive));
        }
        let bytes = self.heaps[table].schema.row_width() as u32;
        self.wal.append(WalRecord::Insert { bytes }, tc);
        for &idx in &self.catalog.table(table).indexes {
            let ikey = (self.key_fns[idx])(row, rid);
            self.indexes[idx].insert(ikey, rid.pack(), &self.space, tc)?;
            if let Some(UndoRec::Insert { index_keys, .. }) = txn.undo.last_mut() {
                index_keys.push((idx, ikey));
            }
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

    /// Open a cursor on an index (executor use).
    pub fn index_cursor(&self, index: IndexId, lo: u64, hi: u64, tc: &mut TraceCtx) -> Cursor {
        self.indexes[index].cursor(lo, hi, tc)
    }

    /// Advance an index cursor, returning the next `(key, rid)`.
    pub fn index_cursor_next(
        &self,
        index: IndexId,
        cur: &mut Cursor,
        tc: &mut TraceCtx,
    ) -> Option<(u64, Rid)> {
        self.indexes[index]
            .cursor_next(cur, tc)
            .map(|(k, v)| (k, Rid::unpack(v)))
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

#[cfg(test)]
#[allow(clippy::inconsistent_digit_grouping)] // money literals: dollars_cents
mod tests {
    use super::*;
    use crate::types::ColType;

    fn accounts_db() -> (Database, TableId, IndexId) {
        let mut db = Database::new();
        let t = db.create_table(
            "accounts",
            Schema::new(vec![("id", ColType::Int), ("balance", ColType::Decimal)]),
        );
        let idx = db.create_index(t, Box::new(|row, _| row[0].as_i64().unwrap() as u64));
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
}
