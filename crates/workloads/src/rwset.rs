//! Read/write-set derivation for the deterministic-ordered backend.
//!
//! Calvin-class schedulers need each transaction's lock set *before* it
//! executes. TPC-C transactions are parameterized by random draws, so the
//! set is derivable — and it is derived by running the transaction itself:
//! [`rw_set`] drives the same body [`run_txn_cfg_declared`] will execute
//! (`tpcc::txns::run_body`, the one kind → body table) against a **clone**
//! of the transaction's rng, under the third [`EngineOps`] handle. Where
//! `Database` calls an engine operation and the interleaved scheduler's
//! `ClientDb` calls it and then maybe suspends, `Recon` *records it
//! instead*: a `read` notes `(`[`Database::lock_key`]`, S|X)` and answers
//! from [`Database::peek`] (a lock-free advisory read, so the body can
//! branch on Delivery's customer id or StockLevel's order horizon), an
//! `update`/`delete` notes X and changes nothing, an `insert` is dropped,
//! and index probes go straight to the shared `&Database`. The real body
//! then consumes the original stream and lands on the same rows. There is
//! no second copy of TPC-C to keep aligned with the first.
//!
//! Honesty caveats, stated once here and again in DESIGN.md §8:
//!
//! * **Derived, not declared.** A real Calvin deployment receives the
//!   read/write set from the client or a reconnaissance phase. Here the
//!   derivation *is* the reconnaissance phase, and it runs under a null
//!   trace context: the replayed traces do not pay for reconnaissance.
//!   The ordering-queue waits and the declare-time lock charges are
//!   traced.
//! * **Phantoms fall back.** Between derivation and execution another
//!   transaction can commit state the derivation's probes depended on
//!   (a fresher "most recent order", a delivered new_order row). The body
//!   then touches rows outside its declared set; the ordered backend
//!   serves those with no-wait acquires that abort-and-retry
//!   ([`CcStats::fallback_conflicts`](dbcmp_engine::CcStats)) rather than
//!   block, preserving deadlock freedom.
//!
//! [`run_txn_cfg_declared`]: crate::tpcc::txns::run_txn_cfg_declared

use dbcmp_engine::catalog::{IndexId, TableId};
use dbcmp_engine::heap::Rid;
use dbcmp_engine::lockmgr::LockMode::{self, Exclusive, Shared};
use dbcmp_engine::txn::{Txn, TxnId};
use dbcmp_engine::{Database, Result, Row, TraceCtx, Value};
use rand::rngs::StdRng;

use crate::ops::{now, EngineOps};
use crate::tpcc::txns::{run_body, TxnCfg, TxnKind};
use crate::tpcc::TpccDb;

/// The recording handle: a transaction body run against it touches
/// nothing and leaves behind the `(lock_key, mode)` pairs it would have
/// locked, in first-touch order (irrelevant to the ordered backend, which
/// merges the declaration into a keyed table before granting).
struct Recon<'a> {
    db: &'a Database,
    keys: Vec<(u64, LockMode)>,
}

impl Recon<'_> {
    /// Note one row lock, upgrading S to X when a row is named twice (a
    /// read-for-update's own update; hot NewOrder item pools hitting the
    /// same stock row in several lines).
    fn add(&mut self, table: TableId, rid: Rid, mode: LockMode) {
        let key = Database::lock_key(table, rid);
        match self.keys.iter_mut().find(|e| e.0 == key) {
            Some(e) if mode == Exclusive => e.1 = Exclusive,
            Some(_) => {}
            None => self.keys.push((key, mode)),
        }
    }
}

impl EngineOps for Recon<'_> {
    /// Nothing may reach the database during reconnaissance — least of all
    /// `Database::begin`, whose consumed transaction id would move every
    /// capture. Every operation a body uses is overridden below; one that
    /// is not lands here.
    async fn op<R>(
        &mut self,
        _tc: &mut TraceCtx,
        _f: impl FnMut(&mut Database, &mut TraceCtx) -> Result<R>,
    ) -> Result<R> {
        panic!("Recon::op: a transaction body reached the database during reconnaissance")
    }

    /// Fresh-RID locks are granted no-wait and cannot conflict, so an
    /// insert declares nothing; no body reads the `Rid` it gets back.
    async fn insert(
        &mut self,
        _: &mut Txn,
        _: TableId,
        _: &[Value],
        _: &mut TraceCtx,
    ) -> Result<Rid> {
        Ok(Rid { page: 0, slot: 0 })
    }

    async fn read(
        &mut self,
        _: &mut Txn,
        table: TableId,
        rid: Rid,
        for_update: bool,
        tc: &mut TraceCtx,
    ) -> Result<Row> {
        let mode = if for_update { Exclusive } else { Shared };
        self.add(table, rid, mode);
        self.db.peek(table, rid, tc)
    }

    async fn update(
        &mut self,
        _: &mut Txn,
        table: TableId,
        rid: Rid,
        _: &[Value],
        _: &mut TraceCtx,
    ) -> Result<()> {
        self.add(table, rid, Exclusive);
        Ok(())
    }

    async fn delete(
        &mut self,
        _: &mut Txn,
        table: TableId,
        rid: Rid,
        _: &mut TraceCtx,
    ) -> Result<()> {
        self.add(table, rid, Exclusive);
        Ok(())
    }

    async fn index_get(&mut self, index: IndexId, key: u64, tc: &mut TraceCtx) -> Option<Rid> {
        self.db.index_get(index, key, tc)
    }

    async fn index_range(
        &mut self,
        index: IndexId,
        lo: u64,
        hi: u64,
        tc: &mut TraceCtx,
    ) -> Vec<(u64, Rid)> {
        self.db.index_range(index, lo, hi, tc)
    }
}

/// Derive the read/write set `kind` will lock when run with this `cfg`
/// and an rng stream equal to `rng`'s current state. Pass a **clone** of
/// the transaction's rng: derivation consumes the draws itself.
///
/// Freshly inserted rows (order lines, history) are absent — the engine
/// grants fresh-RID locks no-wait and they cannot conflict.
pub(crate) fn rw_set(
    db: &Database,
    h: &TpccDb,
    kind: TxnKind,
    cfg: TxnCfg,
    mut rng: StdRng,
) -> Vec<(u64, LockMode)> {
    let mut recon = Recon {
        db,
        keys: Vec::new(),
    };
    // The body wants a `&mut Txn`; this one belongs to no database.
    let mut txn = Txn::new(TxnId::MAX);
    let mut tc = db.null_ctx();
    // `Err` is a row that vanished between the index probe and the peek:
    // the keys gathered so far are the declaration, and the real body
    // fails (and is retried) or falls back at the same place.
    let _ = now(run_body(
        &mut recon, h, &mut txn, kind, cfg, &mut rng, &mut tc,
    ));
    recon.keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{client_rng, uniform};
    use crate::tpcc::txns::{run_txn_cfg, TxnOutcome};
    use crate::tpcc::{build_tpcc, TpccScale};
    use dbcmp_engine::EngineError;
    use dbcmp_trace::Fnv;
    use std::collections::BTreeSet;
    use std::future::Future;
    use std::pin::pin;
    use std::task::{Context, Waker};

    const KINDS: [TxnKind; 5] = [
        TxnKind::NewOrder,
        TxnKind::Payment,
        TxnKind::OrderStatus,
        TxnKind::Delivery,
        TxnKind::StockLevel,
    ];

    /// The contended capture's hot targeting: warehouse 1, 8-item pool.
    fn hot_cfg() -> TxnCfg {
        TxnCfg {
            item_pool: Some(8),
            ..TxnCfg::home(1)
        }
    }

    /// The ground truth: run the body for real and record what it locked.
    fn actual_locks(
        db: &mut Database,
        h: &TpccDb,
        kind: TxnKind,
        cfg: TxnCfg,
        rng: StdRng,
    ) -> Vec<(u64, LockMode)> {
        // Capture the lock set at commit time by running the transaction
        // and reading `txn.locks` through a shim.
        struct Shim<'a> {
            db: &'a mut Database,
            locks: Vec<(u64, LockMode)>,
            insert_keys: Vec<u64>,
        }
        impl EngineOps for Shim<'_> {
            async fn op<R>(
                &mut self,
                tc: &mut TraceCtx,
                mut f: impl FnMut(&mut Database, &mut TraceCtx) -> Result<R>,
            ) -> Result<R> {
                f(self.db, tc)
            }
            async fn commit(&mut self, txn: Txn, tc: &mut TraceCtx) -> Result<()> {
                self.locks = txn.held_locks().to_vec();
                self.db.commit(txn, tc)
            }
            async fn abort(&mut self, txn: Txn, tc: &mut TraceCtx) {
                self.locks = txn.held_locks().to_vec();
                self.db.abort(txn, tc);
            }
            async fn insert(
                &mut self,
                txn: &mut Txn,
                table: TableId,
                row: &[Value],
                tc: &mut TraceCtx,
            ) -> Result<Rid> {
                let rid = self.db.insert(txn, table, row, tc)?;
                self.insert_keys.push(Database::lock_key(table, rid));
                Ok(rid)
            }
        }
        let mut shim = Shim {
            db,
            locks: Vec::new(),
            insert_keys: Vec::new(),
        };
        let mut tc = shim.db.null_ctx();
        let mut body_rng = rng;
        match now(run_txn_cfg(&mut shim, h, kind, cfg, &mut body_rng, &mut tc)) {
            Ok(TxnOutcome::Committed | TxnOutcome::Aborted) => {}
            Err(EngineError::LockConflict { .. }) => {}
            Err(e) => panic!("unexpected error deriving ground truth: {e}"),
        }
        let inserts = shim.insert_keys;
        shim.locks
            .into_iter()
            .filter(|(k, _)| !inserts.contains(k))
            .collect()
    }

    /// On an otherwise idle database the derived set names exactly the
    /// pre-existing rows the body locks, in the order it locks them, at a
    /// mode at least as strong — across all five kinds and many parameter
    /// draws. True by construction: both run the same statements.
    #[test]
    fn derived_set_covers_actual_locks_when_idle() {
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 0xA11CE);
        let mut checked = 0usize;
        for round in 0..12u64 {
            for (ki, &kind) in KINDS.iter().enumerate() {
                let rng = client_rng(0xBEEF ^ round, ki);
                let cfg = TxnCfg::home(1 + (round % h.scale.warehouses));
                let derived = rw_set(&db, &h, kind, cfg, rng.clone());
                // Fresh-RID inserts were filtered out of `actual`.
                let actual = actual_locks(&mut db, &h, kind, cfg, rng);
                let keys = |set: &[(u64, LockMode)]| set.iter().map(|e| e.0).collect::<Vec<_>>();
                assert_eq!(
                    keys(&derived),
                    keys(&actual),
                    "{kind:?} round {round}: derived and locked keys differ"
                );
                // `held_locks` does not re-record an upgrade, so the actual
                // mode may understate; the derived one never may.
                for ((key, declared), (_, locked)) in derived.iter().zip(&actual) {
                    assert!(
                        *declared == LockMode::Exclusive || declared == locked,
                        "{kind:?} round {round}: {key:#x} declared {declared:?}, locked {locked:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "the check must actually bite: {checked}");
    }

    /// Derivation never locks anything and never perturbs the database.
    #[test]
    fn derivation_is_side_effect_free() {
        let (db, h) = build_tpcc(TpccScale::tiny(), 5);
        let before = (db.live_locks(), db.state_digest());
        for i in 0..64usize {
            let cfg = match i % 2 {
                0 => TxnCfg::home(1),
                _ => hot_cfg(),
            };
            assert!(!rw_set(&db, &h, KINDS[i % 5], cfg, client_rng(9, i)).is_empty());
        }
        assert_eq!((db.live_locks(), db.state_digest()), before);
        assert_eq!(db.lock_waiters(), 0);
    }

    /// A NewOrder stopped mid-body — X locks held on its district and
    /// stock rows, `next_o_id` bumped, some of its order lines inserted
    /// and none committed — is what a concurrent client's reconnaissance
    /// meets. Every kind still derives a set from that state.
    #[test]
    fn derivation_meets_a_half_done_new_order() {
        /// Runs `left` engine operations, then never completes another.
        struct StopAfter<'a> {
            db: &'a mut Database,
            left: usize,
        }
        impl EngineOps for StopAfter<'_> {
            async fn op<R>(
                &mut self,
                tc: &mut TraceCtx,
                mut f: impl FnMut(&mut Database, &mut TraceCtx) -> Result<R>,
            ) -> Result<R> {
                if self.left == 0 {
                    std::future::pending::<()>().await;
                }
                self.left -= 1;
                f(self.db, tc)
            }
        }
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 0xA11CE);
        let lines = db.table(h.order_line).n_rows();
        {
            // overhead + begin + 7 header ops + two whole lines (6 ops
            // each) + the third line up to its stock update.
            let mut stopped = StopAfter {
                db: &mut db,
                left: 2 + 7 + 2 * 6 + 5,
            };
            let (mut rng, mut tc) = (client_rng(1, 0), stopped.db.null_ctx());
            let body = run_txn_cfg(
                &mut stopped,
                &h,
                TxnKind::NewOrder,
                hot_cfg(),
                &mut rng,
                &mut tc,
            );
            let polled = pin!(body).poll(&mut Context::from_waker(Waker::noop()));
            assert!(polled.is_pending(), "the NewOrder must stop mid-body");
        }
        assert!(
            db.live_locks() >= 4,
            "district + three stock rows stay X-locked"
        );
        assert_eq!(db.table(h.order_line).n_rows(), lines + 2);
        let stopped = db.state_digest();
        for (ki, &kind) in KINDS.iter().enumerate() {
            // A body that picks a district draws it first, so these seeds
            // reach every district, the stopped NewOrder's included.
            let mut districts = BTreeSet::new();
            for seed in 2..10 {
                let rng = client_rng(seed, ki);
                districts.insert(uniform(&mut rng.clone(), 1, h.scale.districts_per_wh));
                let set = rw_set(&db, &h, kind, hot_cfg(), rng);
                assert!(!set.is_empty(), "{kind:?} seed {seed}");
            }
            assert_eq!(districts.len() as u64, h.scale.districts_per_wh, "{kind:?}");
        }
        assert_eq!(db.state_digest(), stopped);
    }

    /// FNV-1a over `rw_set`'s `(key, mode)` sequence — 5 kinds × 12 rounds
    /// × {home, hot, remote-warehouse} targeting on the tiny scale, the
    /// database evolving between rounds (each round's home-cfg
    /// transactions then run for real). Recorded at `71688d9`, where the
    /// set came from five hand-written mirrors of the transaction bodies.
    #[test]
    fn rw_set_digest_is_pinned() {
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 0xA11CE);
        let mut d = Fnv::new();
        let mut word = |w: u64| d.word(w);
        let mut tc = db.null_ctx();
        for round in 0..12u64 {
            let home = TxnCfg::home(1 + (round % h.scale.warehouses));
            let hot = TxnCfg {
                w_home: 1,
                item_pool: Some(8),
                ..home
            };
            let remote = TxnCfg {
                remote_wh: Some(1 + ((round + 1) % h.scale.warehouses)),
                ..home
            };
            for (ki, &kind) in KINDS.iter().enumerate() {
                let rng = client_rng(0xD16E57 ^ round, ki);
                for cfg in [home, hot, remote] {
                    let set = rw_set(&db, &h, kind, cfg, rng.clone());
                    word(set.len() as u64);
                    for (key, mode) in set {
                        word(key);
                        word(u64::from(mode == LockMode::Exclusive));
                    }
                }
                now(run_txn_cfg(
                    &mut db,
                    &h,
                    kind,
                    home,
                    &mut rng.clone(),
                    &mut tc,
                ))
                .unwrap();
            }
        }
        assert_eq!(d.finish(), 0x2e7e_8d75_3cb4_9322, "rw_set digest moved");
    }
}
