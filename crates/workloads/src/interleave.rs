//! Interleaved multi-client OLTP capture: real 2PL contention.
//!
//! Sequential capture runs each client to completion before the next one
//! starts, so no two transactions are ever live at once and cross-client
//! lock contention cannot happen. This module replaces that loop with a
//! **deterministic round-robin scheduler**: every client is a resumable
//! transaction generator (an OS thread parked on a rendezvous channel) and
//! the scheduler advances exactly one client by `slice_ops` engine
//! operations at a time against the *same* [`Database`]. Transactions from
//! different clients are therefore live simultaneously; conflicting row
//! locks queue, blocked clients park until the lock manager grants them, and waits-for cycles abort a victim — the
//! blocking, waking, and deadlock behaviour of a real 2PL server, recorded
//! into the per-client traces as [`Block`](dbcmp_trace::Event::Block) /
//! [`Wake`](dbcmp_trace::Event::Wake) events.
//!
//! **Determinism.** Only the scheduled client ever touches the database
//! (strict baton handoff over rendezvous channels), the round-robin order
//! is fixed, per-client RNGs are seeded from `(seed, client)`, and the
//! lock manager's grant/victim decisions depend only on the operation
//! order. Two captures with the same [`InterleaveOptions`] produce
//! byte-identical trace bundles, and `clients == 1` reproduces the
//! sequential capture exactly.
//!
//! **Contention knob.** `hot_pct` percent of each client's transactions
//! are redirected at warehouse 1 / district 1 and draw NewOrder items from
//! a small hot pool (`hot_items`), concentrating X locks on a few rows —
//! the skew axis the `fig_contention` sweep turns.

// Hash collections here are audited per-site with lint:allow(hash-order)
// annotations (rule D1); the file-level clippy opt-out avoids repeating
// an attribute at every justified site.
#![allow(clippy::disallowed_types)]

// lint:allow(hash-order): the only HashMap here (txn -> client owner) is get/insert only, never iterated
use std::collections::HashMap;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;

use dbcmp_engine::lockmgr::LockMode;
use dbcmp_engine::txn::TxnId;
use dbcmp_engine::{
    CcBackend, CcStats, Database, EngineError, EngineOps, EngineRegions, Result, TraceCtx,
};
use dbcmp_trace::{ThreadTrace, TraceBundle};

use crate::deploy::TXN_SALT;
use crate::rng::client_rng;
use crate::rwset::rw_set;
use crate::tpcc::txns::{draw_kind, run_txn_cfg, run_txn_cfg_declared, TxnCfg, TxnOutcome};
use crate::tpcc::TpccDb;
use rand::Rng;

/// Parameters of an interleaved capture.
#[derive(Debug, Clone, Copy)]
pub struct InterleaveOptions {
    /// Concurrent client sessions.
    pub clients: usize,
    /// Committed-or-rolled-back transactions per client.
    pub units_per_client: usize,
    /// RNG seed (per-client RNGs derive from it).
    pub seed: u64,
    /// Engine operations a client executes per scheduler grant (the
    /// interleaving quantum; 1 = finest).
    pub slice_ops: usize,
    /// Percent (0..=100) of transactions redirected at the hot warehouse/
    /// district with a shrunken item pool.
    pub hot_pct: u8,
    /// Size of the hot NewOrder item pool.
    pub hot_items: u64,
    /// Concurrency-control backend the shared engine runs (see
    /// [`CcBackend`]). The default [`CcBackend::Centralized2PL`] keeps
    /// captures byte-identical to the pre-backend scheduler.
    ///
    /// The backend also fixes where transaction parameters are drawn
    /// from: [`CcBackend::DeterministicOrdered`] derives each attempt's
    /// read/write set by replaying its parameter draws, so there every
    /// attempt gets a private stream; the other backends draw everything
    /// from the per-client stream. Captures under the ordered backend
    /// therefore run different transactions than the other two at the
    /// same seed (DESIGN.md §8).
    pub backend: CcBackend,
}

impl InterleaveOptions {
    /// Plain interleaving, no added skew.
    pub fn new(clients: usize, units_per_client: usize, seed: u64) -> Self {
        InterleaveOptions {
            clients,
            units_per_client,
            seed,
            slice_ops: 1,
            hot_pct: 0,
            hot_items: 8,
            backend: CcBackend::Centralized2PL,
        }
    }

    /// Interleaving with `hot_pct`% of transactions aimed at the hot rows.
    pub fn contended(clients: usize, units_per_client: usize, seed: u64, hot_pct: u8) -> Self {
        InterleaveOptions {
            hot_pct: hot_pct.min(100),
            ..Self::new(clients, units_per_client, seed)
        }
    }

    /// The same capture driven by a different concurrency-control
    /// backend.
    pub fn with_backend(mut self, backend: CcBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// What the contention machinery actually did during a capture.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Committed transactions.
    pub commits: u64,
    /// TPC-C deliberate rollbacks (count as completed units).
    pub rollbacks: u64,
    /// Times a client parked on a lock wait queue.
    pub lock_waits: u64,
    /// Times a client parked waiting for its declared read/write set to
    /// be granted in declare order (deterministic-ordered backend only).
    pub ordering_waits: u64,
    /// Transactions aborted as deadlock victims (and retried).
    pub deadlock_aborts: u64,
    /// Retries for other transient conflicts (no-wait insert conflicts,
    /// concurrently-deleted RIDs).
    pub conflict_retries: u64,
    /// Units abandoned when a client hit its retry guard — nonzero means
    /// the capture is *truncated* and its numbers undercount the workload.
    pub starved_units: u64,
}

/// Result of an interleaved capture: the bundle, the contention counters,
/// and the database back (post-capture invariants are testable).
pub struct InterleavedCapture {
    pub bundle: TraceBundle,
    pub stats: ContentionStats,
    /// The backend's own counters (acquires, remote lock messages,
    /// fallback conflicts, …) accumulated over the capture.
    pub cc: CcStats,
    pub db: Database,
}

/// One client's slice of the contention counters.
#[derive(Debug, Clone, Copy, Default)]
struct ClientStats {
    commits: u64,
    rollbacks: u64,
    deadlock_aborts: u64,
    conflict_retries: u64,
    starved_units: u64,
}

/// Client → scheduler messages. Exactly one per baton grant.
enum Report {
    /// Slice quota exhausted (or a unit finished); still runnable.
    Progress { woken: Vec<TxnId> },
    /// Parked on a lock wait; resume only after a wake notification.
    Blocked { txn: TxnId, woken: Vec<TxnId> },
    /// All units complete; the thread is exiting.
    Finished { woken: Vec<TxnId> },
}

/// A scheduler-mediated handle onto the shared [`Database`], implementing
/// [`EngineOps`] so the unmodified TPC-C transaction code drives it. Every
/// engine operation is a potential yield point; a [`EngineError::LockWait`]
/// parks the client and retries the same operation once granted.
struct ClientDb {
    db: Arc<Mutex<Database>>,
    client: usize,
    slice_ops: usize,
    /// Operations left in the current grant; 0 = must await the baton.
    budget: usize,
    /// Holding the baton right now.
    turn: bool,
    cur_txn: Option<TxnId>,
    /// Wake notifications observed mid-slice, carried into the next report.
    carry: Vec<TxnId>,
    go_rx: Receiver<()>,
    report_tx: Sender<(usize, Report)>,
}

impl ClientDb {
    fn await_turn(&mut self) {
        self.go_rx.recv().expect("scheduler grants until Finished");
        self.turn = true;
        self.budget = self.slice_ops.max(1);
    }

    fn send(&mut self, report: Report) {
        self.turn = false;
        self.report_tx
            .send((self.client, report))
            .expect("scheduler outlives clients");
    }

    /// Run one engine operation under the baton protocol. `f` must be
    /// effect-free before its lock acquisition: it is re-invoked verbatim
    /// after a lock wait.
    fn op<R>(
        &mut self,
        tc: &mut TraceCtx,
        mut f: impl FnMut(&mut Database, &mut TraceCtx) -> Result<R>,
    ) -> Result<R> {
        loop {
            if !self.turn || self.budget == 0 {
                self.await_turn();
            }
            let (res, mut woken) = {
                let mut db = self.db.lock().expect("database mutex");
                let res = f(&mut db, tc);
                (res, db.drain_woken())
            };
            self.budget -= 1;
            let mut notify = std::mem::take(&mut self.carry);
            notify.append(&mut woken);
            match res {
                Err(EngineError::LockWait { .. }) => {
                    let txn = self.cur_txn.expect("lock waits happen inside a txn");
                    self.send(Report::Blocked { txn, woken: notify });
                    // Next grant means we were woken: retry the operation.
                }
                res => {
                    if self.budget == 0 {
                        self.send(Report::Progress { woken: notify });
                    } else {
                        self.carry = notify;
                    }
                    return res;
                }
            }
        }
    }

    /// Announce completion (consumes the handle).
    fn finish(mut self) {
        if !self.turn {
            self.await_turn();
        }
        let woken = std::mem::take(&mut self.carry);
        self.send(Report::Finished { woken });
    }
}

impl EngineOps for ClientDb {
    fn statement_overhead(&mut self, tc: &mut TraceCtx) {
        let _ = self.op(tc, |db, tc| {
            db.statement_overhead(tc);
            Ok(())
        });
    }

    fn begin(&mut self, tc: &mut TraceCtx) -> dbcmp_engine::txn::Txn {
        let txn = self
            .op(tc, |db, tc| Ok(db.begin(tc)))
            .expect("begin is infallible");
        self.cur_txn = Some(txn.id);
        txn
    }

    fn declare(
        &mut self,
        txn: &mut dbcmp_engine::txn::Txn,
        keys: &[(u64, LockMode)],
        tc: &mut TraceCtx,
    ) -> Result<()> {
        // Parks like any lock-waiting operation; the ordered backend's
        // declare is retry-idempotent, so re-invocation after a wake is
        // exactly the claim protocol it expects.
        self.op(tc, |db, tc| db.declare(txn, keys, tc))
    }

    fn commit(&mut self, txn: dbcmp_engine::txn::Txn, tc: &mut TraceCtx) -> Result<()> {
        let mut slot = Some(txn);
        let res = self.op(tc, move |db, tc| {
            db.commit(slot.take().expect("commit runs once"), tc)
        });
        self.cur_txn = None;
        res
    }

    fn abort(&mut self, txn: dbcmp_engine::txn::Txn, tc: &mut TraceCtx) {
        let mut slot = Some(txn);
        let _ = self.op(tc, move |db, tc| {
            db.abort(slot.take().expect("abort runs once"), tc);
            Ok(())
        });
        self.cur_txn = None;
    }

    fn insert(
        &mut self,
        txn: &mut dbcmp_engine::txn::Txn,
        table: usize,
        row: &[dbcmp_engine::Value],
        tc: &mut TraceCtx,
    ) -> Result<dbcmp_engine::heap::Rid> {
        self.op(tc, |db, tc| db.insert(txn, table, row, tc))
    }

    fn read(
        &mut self,
        txn: &mut dbcmp_engine::txn::Txn,
        table: usize,
        rid: dbcmp_engine::heap::Rid,
        for_update: bool,
        tc: &mut TraceCtx,
    ) -> Result<dbcmp_engine::Row> {
        self.op(tc, |db, tc| db.read(txn, table, rid, for_update, tc))
    }

    fn update(
        &mut self,
        txn: &mut dbcmp_engine::txn::Txn,
        table: usize,
        rid: dbcmp_engine::heap::Rid,
        row: &[dbcmp_engine::Value],
        tc: &mut TraceCtx,
    ) -> Result<()> {
        self.op(tc, |db, tc| db.update(txn, table, rid, row, tc))
    }

    fn delete(
        &mut self,
        txn: &mut dbcmp_engine::txn::Txn,
        table: usize,
        rid: dbcmp_engine::heap::Rid,
        tc: &mut TraceCtx,
    ) -> Result<()> {
        self.op(tc, |db, tc| db.delete(txn, table, rid, tc))
    }

    fn index_get(
        &mut self,
        index: usize,
        key: u64,
        tc: &mut TraceCtx,
    ) -> Option<dbcmp_engine::heap::Rid> {
        self.op(tc, |db, tc| Ok(db.index_get(index, key, tc)))
            .expect("index_get is infallible")
    }

    fn index_range(
        &mut self,
        index: usize,
        lo: u64,
        hi: u64,
        tc: &mut TraceCtx,
    ) -> Vec<(u64, dbcmp_engine::heap::Rid)> {
        self.op(tc, |db, tc| Ok(db.index_range(index, lo, hi, tc)))
            .expect("index_range is infallible")
    }
}

fn client_thread(
    client: usize,
    db: Arc<Mutex<Database>>,
    h: TpccDb,
    opt: InterleaveOptions,
    er: EngineRegions,
    go_rx: Receiver<()>,
    report_tx: Sender<(usize, Report)>,
) -> (ThreadTrace, ClientStats) {
    let mut tc = TraceCtx::recording(er);
    let mut rng = client_rng(opt.seed, client);
    let w_home = (client as u64 % h.scale.warehouses) + 1;
    let mut cdb = ClientDb {
        db,
        client,
        slice_ops: opt.slice_ops,
        budget: 0,
        turn: false,
        cur_txn: None,
        carry: Vec::new(),
        go_rx,
        report_tx,
    };
    let mut stats = ClientStats::default();
    let mut done = 0;
    let mut guard = 0;
    // The guard bounds deadlock-retry livelock; 20x mirrors the sequential
    // capture's insurance margin with headroom for victim retries.
    while done < opt.units_per_client && guard < opt.units_per_client * 20 {
        guard += 1;
        let kind = draw_kind(&mut rng);
        let hot = opt.hot_pct > 0 && rng.gen_range(0..100u32) < opt.hot_pct as u32;
        let cfg = if hot {
            // Hot transactions pile onto warehouse 1 (its row and its
            // stock pool) but keep the district draw uniform: a pinned
            // district would serialize NewOrders at the district X lock
            // *before* stock locking — lots of waits, never a cycle.
            // Uniform districts let concurrent NewOrders reach the hot
            // stock rows together and lock them in opposite orders.
            TxnCfg {
                w_home: 1,
                district: None,
                item_pool: Some(opt.hot_items.max(1)),
                remote_wh: None,
            }
        } else {
            TxnCfg::home(w_home)
        };
        let res = if opt.backend == CcBackend::DeterministicOrdered {
            // A private parameter stream per attempt (kind and hot roll
            // stay on the client stream, as in the deployment capture),
            // because the backend needs the attempt's draws twice.
            let mut trng = client_rng(opt.seed ^ TXN_SALT, client * 1024 + guard);
            // Reconnaissance: derive the read/write set against the
            // database state this client observes under the baton, then
            // declare it right after begin. One budgeted (untraced)
            // scheduler op, so the probe sees the same deterministic
            // state every run.
            let keys = cdb
                .op(&mut tc, |db, _| Ok(rw_set(db, &h, kind, cfg, trng.clone())))
                .expect("derivation is infallible");
            run_txn_cfg_declared(&mut cdb, &h, kind, cfg, &mut trng, &mut tc, Some(&keys))
        } else {
            run_txn_cfg(&mut cdb, &h, kind, cfg, &mut rng, &mut tc)
        };
        match res {
            Ok(TxnOutcome::Committed) => {
                done += 1;
                stats.commits += 1;
            }
            Ok(TxnOutcome::Aborted) => {
                done += 1;
                stats.rollbacks += 1;
            }
            Err(EngineError::Deadlock { .. }) => stats.deadlock_aborts += 1,
            // Concurrency artifacts a retry resolves: a no-wait insert
            // conflict, or a RID that a concurrent client deleted between
            // index probe and access (e.g. two Deliveries racing for the
            // same new_order row).
            Err(EngineError::LockConflict { .. }) | Err(EngineError::NotFound(_)) => {
                stats.conflict_retries += 1
            }
            // Anything else is an engine bug — fail the capture loudly
            // rather than retrying it into a silently empty bundle.
            Err(e) => panic!("client {client}: unexpected engine error in {kind:?}: {e}"),
        }
    }
    // A guard exit means some units never completed — record it so
    // truncated captures are detectable downstream.
    stats.starved_units += (opt.units_per_client - done) as u64;
    cdb.finish();
    (tc.finish(), stats)
}

/// Capture an OLTP (TPC-C mix) workload with `opt.clients` interleaved
/// sessions against one shared database. See the module docs for the
/// scheduling and determinism contract.
/// Attribute one client park to the right [`ContentionStats`] counter
/// for the active backend: the centralized and partitioned backends park
/// clients on lock wait queues at execution time, the ordered backend
/// parks them on the declare-order queue before execution.
///
/// Exhaustive over [`CcBackend`] by design — the dbcmp-lint X2 rule
/// rejects builds where a backend variant is missing here.
fn count_block(backend: CcBackend, stats: &mut ContentionStats) {
    match backend {
        CcBackend::Centralized2PL => stats.lock_waits += 1,
        CcBackend::PartitionedPerCore => stats.lock_waits += 1,
        CcBackend::DeterministicOrdered => stats.ordering_waits += 1,
    }
}

pub fn capture_oltp_interleaved(
    mut db: Database,
    h: &TpccDb,
    opt: InterleaveOptions,
) -> InterleavedCapture {
    assert!(opt.clients >= 1, "need at least one client");
    db.set_cc_backend(opt.backend);
    let er = db.er;
    let shared = Arc::new(Mutex::new(db));
    let (report_tx, report_rx) = channel::<(usize, Report)>();

    let mut gos: Vec<SyncSender<()>> = Vec::with_capacity(opt.clients);
    let mut handles = Vec::with_capacity(opt.clients);
    for client in 0..opt.clients {
        let (go_tx, go_rx) = sync_channel::<()>(1);
        gos.push(go_tx);
        let db = Arc::clone(&shared);
        let h = h.clone();
        let tx = report_tx.clone();
        handles.push(thread::spawn(move || {
            client_thread(client, db, h, opt, er, go_rx, tx)
        }));
    }
    drop(report_tx);

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        Runnable,
        Blocked,
        Done,
    }
    let n = opt.clients;
    let mut state = vec![State::Runnable; n];
    // lint:allow(hash-order): keyed wakeup lookup only; scheduling order comes from the round-robin scan over `state`
    let mut owner: HashMap<TxnId, usize> = HashMap::new();
    let mut stats = ContentionStats::default();
    let mut rr = 0usize;
    let mut finished = 0usize;

    // lint:allow(hash-order): `woken` (lock-manager grant order) drives iteration; the map is probed per key
    let wake = |state: &mut [State], owner: &HashMap<TxnId, usize>, woken: &[TxnId]| {
        for t in woken {
            if let Some(&c) = owner.get(t) {
                if state[c] == State::Blocked {
                    state[c] = State::Runnable;
                }
            }
        }
    };

    while finished < n {
        let Some(c) = (0..n)
            .map(|i| (rr + i) % n)
            .find(|&i| state[i] == State::Runnable)
        else {
            // Unreachable if the lock manager is correct: every parked
            // client awaits a grant or a victim notification, both of
            // which wake it. Fail loudly rather than hang CI.
            panic!("interleaved capture stalled: states {state:?}");
        };
        rr = (c + 1) % n;
        gos[c].send(()).expect("client thread alive");
        let (from, report) = report_rx.recv().expect("client reports each grant");
        debug_assert_eq!(from, c, "strict baton alternation");
        match report {
            Report::Progress { woken } => wake(&mut state, &owner, &woken),
            Report::Blocked { txn, woken } => {
                owner.insert(txn, from);
                state[from] = State::Blocked;
                count_block(opt.backend, &mut stats);
                wake(&mut state, &owner, &woken);
            }
            Report::Finished { woken } => {
                state[from] = State::Done;
                finished += 1;
                wake(&mut state, &owner, &woken);
            }
        }
    }

    let mut threads = Vec::with_capacity(n);
    for hdl in handles {
        let (trace, cs) = hdl.join().expect("client thread joins");
        stats.commits += cs.commits;
        stats.rollbacks += cs.rollbacks;
        stats.deadlock_aborts += cs.deadlock_aborts;
        stats.conflict_retries += cs.conflict_retries;
        stats.starved_units += cs.starved_units;
        threads.push(trace);
    }
    let db = Arc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("all client threads joined"))
        .into_inner()
        .expect("database mutex");
    let cc = db.cc_stats();
    InterleavedCapture {
        bundle: TraceBundle::new(db.regions().clone(), threads),
        stats,
        cc,
        db,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture_oltp, CaptureOptions};
    use crate::tpcc::{build_tpcc, TpccScale};
    use dbcmp_trace::TraceSummary;

    fn summary(b: &TraceBundle) -> TraceSummary {
        TraceSummary::compute(&b.regions, &b.threads)
    }

    #[test]
    fn single_client_reproduces_sequential_capture_exactly() {
        let (mut db1, h1) = build_tpcc(TpccScale::tiny(), 41);
        let seq = capture_oltp(&mut db1, &h1, CaptureOptions::new(1, 6, 41));

        let (db2, h2) = build_tpcc(TpccScale::tiny(), 41);
        let il = capture_oltp_interleaved(db2, &h2, InterleaveOptions::new(1, 6, 41));

        assert_eq!(seq.threads.len(), il.bundle.threads.len());
        assert_eq!(
            seq.threads[0].packed_events(),
            il.bundle.threads[0].packed_events(),
            "clients=1 must be event-identical to the sequential capture"
        );
        assert_eq!(il.stats.lock_waits, 0);
        assert_eq!(il.stats.deadlock_aborts, 0);
    }

    #[test]
    fn same_seed_gives_byte_identical_bundles() {
        let run = || {
            let (db, h) = build_tpcc(TpccScale::tiny(), 42);
            capture_oltp_interleaved(db, &h, InterleaveOptions::contended(4, 5, 42, 80))
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats, "contention counters must reproduce");
        assert_eq!(a.bundle.threads.len(), b.bundle.threads.len());
        for (ta, tb) in a.bundle.threads.iter().zip(&b.bundle.threads) {
            assert_eq!(
                ta.packed_events(),
                tb.packed_events(),
                "traces must be byte-identical"
            );
        }
        assert_eq!(summary(&a.bundle), summary(&b.bundle));
    }

    #[test]
    fn hot_skew_produces_waits_and_deadlocks() {
        let (db, h) = build_tpcc(TpccScale::tiny(), 7);
        let il = capture_oltp_interleaved(db, &h, InterleaveOptions::contended(6, 8, 7, 90));
        assert!(
            il.stats.lock_waits > 0,
            "hot skew must produce lock waits: {:?}",
            il.stats
        );
        assert!(
            il.stats.deadlock_aborts > 0,
            "hot skew must force at least one deadlock victim: {:?}",
            il.stats
        );
        // Blocking is recorded in the traces themselves.
        let s = summary(&il.bundle);
        assert_eq!(s.blocks, il.stats.lock_waits);
        assert!(s.wakes > 0);
        // The server recovered fully: no lock residue, clients completed.
        assert_eq!(il.db.live_locks(), 0, "lock table must drain");
        assert_eq!(il.db.lock_waiters(), 0);
        assert_eq!(il.stats.commits + il.stats.rollbacks, 6 * 8);
        assert_eq!(il.stats.starved_units, 0, "no client may be starved out");
    }

    #[test]
    fn partitioned_backend_is_deadlock_free_with_remote_lock_traffic() {
        let (db, h) = build_tpcc(TpccScale::tiny(), 7);
        let opt =
            InterleaveOptions::contended(6, 8, 7, 90).with_backend(CcBackend::PartitionedPerCore);
        let il = capture_oltp_interleaved(db, &h, opt);
        assert_eq!(
            il.stats.deadlock_aborts, 0,
            "resource-ordered partitions cannot cycle: {:?}",
            il.stats
        );
        assert_eq!(il.cc.deadlocks, 0);
        assert!(
            il.cc.remote_msgs > 0,
            "cross-partition requests must be priced as messages: {:?}",
            il.cc
        );
        assert_eq!(il.cc.remote_msgs * 32, il.cc.remote_bytes);
        // Out-of-order conflicts surface as retried no-wait failures.
        assert!(il.cc.fallback_conflicts > 0 || il.stats.lock_waits > 0);
        let s = summary(&il.bundle);
        assert!(s.remote_sends > 0, "hops must reach the traces");
        // Acquires are round trips (request + grant); releases are fire-
        // and-forget one-way messages, so sends strictly dominate recvs.
        assert!(s.remote_sends > s.remote_recvs && s.remote_recvs > 0);
        assert_eq!(il.db.live_locks(), 0, "partitions must drain");
        assert_eq!(il.stats.commits + il.stats.rollbacks, 6 * 8);
        assert_eq!(il.stats.starved_units, 0);
    }

    #[test]
    fn ordered_backend_has_zero_deadlock_aborts_under_skew() {
        let (db, h) = build_tpcc(TpccScale::tiny(), 7);
        let opt =
            InterleaveOptions::contended(6, 8, 7, 90).with_backend(CcBackend::DeterministicOrdered);
        let il = capture_oltp_interleaved(db, &h, opt);
        assert_eq!(
            il.stats.deadlock_aborts, 0,
            "declare-order grants cannot cycle: {:?}",
            il.stats
        );
        assert_eq!(il.cc.deadlocks, 0);
        assert!(
            il.stats.ordering_waits > 0,
            "contention must show up as ordering-queue waits: {:?}",
            il.stats
        );
        assert_eq!(il.stats.lock_waits, 0, "ordered never parks at exec time");
        let s = summary(&il.bundle);
        assert_eq!(s.blocks, il.stats.ordering_waits);
        assert_eq!(il.db.live_locks(), 0, "ordered lock table must drain");
        assert_eq!(il.db.lock_waiters(), 0);
        assert_eq!(il.stats.commits + il.stats.rollbacks, 6 * 8);
        assert_eq!(il.stats.starved_units, 0, "FIFO grants must not starve");
    }

    #[test]
    fn backend_captures_are_deterministic() {
        for backend in [
            CcBackend::Centralized2PL,
            CcBackend::PartitionedPerCore,
            CcBackend::DeterministicOrdered,
        ] {
            let run = || {
                let (db, h) = build_tpcc(TpccScale::tiny(), 42);
                let opt = InterleaveOptions::contended(4, 5, 42, 80).with_backend(backend);
                capture_oltp_interleaved(db, &h, opt)
            };
            let a = run();
            let b = run();
            assert_eq!(a.stats, b.stats, "{backend:?} counters must reproduce");
            assert_eq!(a.cc, b.cc, "{backend:?} backend counters must reproduce");
            for (ta, tb) in a.bundle.threads.iter().zip(&b.bundle.threads) {
                assert_eq!(
                    ta.packed_events(),
                    tb.packed_events(),
                    "{backend:?} traces must be byte-identical"
                );
            }
        }
    }

    #[test]
    fn uncontended_multi_client_capture_mostly_flows() {
        let (db, h) = build_tpcc(TpccScale::tiny(), 43);
        let il = capture_oltp_interleaved(db, &h, InterleaveOptions::new(3, 5, 43));
        assert_eq!(il.bundle.threads.len(), 3);
        for t in &il.bundle.threads {
            assert!(t.units() >= 5, "each client completes its units");
        }
        assert_eq!(il.db.live_locks(), 0);
    }
}
