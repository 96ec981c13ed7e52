//! The OLTP client driver: many clients, one server, real 2PL contention.
//!
//! Every OLTP capture against one database runs here, through a
//! **deterministic round-robin scheduler**: every client is a resumable
//! transaction generator (a future that suspends inside an engine
//! operation, see [`crate::ops`]) and the scheduler — a poll loop on the
//! calling thread, no OS threads behind it — advances exactly one client
//! by `slice_ops` engine operations at a time against the *same*
//! [`Database`]. Transactions from different clients are therefore live
//! simultaneously; conflicting row locks queue, blocked clients park until
//! the lock manager grants them, and waits-for cycles abort a victim — the
//! blocking, waking, and deadlock behaviour of a real 2PL server, recorded
//! into the per-client traces as [`Block`](dbcmp_trace::Event::Block) /
//! [`Wake`](dbcmp_trace::Event::Wake) events.
//!
//! **Determinism.** Only the client being polled ever touches the database
//! (being polled *is* holding the baton, and a client that panics unwinds
//! through the poll into the caller), the round-robin order is fixed,
//! per-client RNGs are seeded from `(seed, client)`, and the
//! lock manager's grant/victim decisions depend only on the operation
//! order. Two captures with the same [`InterleaveOptions`] produce
//! byte-identical trace bundles.
//!
//! **The sequential capture.** With `slice_ops = usize::MAX` a grant ends
//! only when the client parks or finishes its session. Client 0 then runs
//! its whole session before client 1 starts, one transaction is live at a
//! time, and nothing ever parks: that is
//! [`capture_oltp`](crate::capture::capture_oltp), the capture the paper
//! figures replay.
//!
//! **Contention knob.** `hot_pct` percent of each client's transactions
//! are redirected at warehouse 1 / district 1 and draw NewOrder items from
//! a small hot pool (`hot_items`), concentrating X locks on a few rows —
//! the skew axis the `fig_cc` sweep turns.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::task::{Context, Poll, Waker};

use dbcmp_engine::txn::{Txn, TxnId};
use dbcmp_engine::{CcBackend, CcStats, Database, EngineError, EngineRegions, Result, TraceCtx};
use dbcmp_trace::{ThreadTrace, TraceBundle};

use crate::ops::EngineOps;
use crate::rng::{client_rng, txn_rng};
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
    /// interleaving quantum; 1 = finest). `usize::MAX` means whole-session
    /// grants: a grant ends only at a lock wait or at the end of the
    /// client's session, so clients run one after another (the sequential
    /// [`capture_oltp`](crate::capture::capture_oltp)).
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
    /// read/write set by dry-running its body, which consumes the draws
    /// once more, so there every attempt gets a private stream
    /// (`rng::txn_rng`); the other backends draw everything
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

impl std::ops::AddAssign for ContentionStats {
    fn add_assign(&mut self, o: Self) {
        self.commits += o.commits;
        self.rollbacks += o.rollbacks;
        self.lock_waits += o.lock_waits;
        self.ordering_waits += o.ordering_waits;
        self.deadlock_aborts += o.deadlock_aborts;
        self.conflict_retries += o.conflict_retries;
        self.starved_units += o.starved_units;
    }
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

/// Client → scheduler messages. Exactly one per grant that ends with the
/// client suspended (a grant that ends with it finished is `Poll::Ready`).
enum Report {
    /// Slice quota exhausted; still runnable.
    Progress { woken: Vec<TxnId> },
    /// Parked on a lock wait; resume only after a wake notification.
    Blocked { txn: TxnId, woken: Vec<TxnId> },
}

/// A scheduler-mediated handle onto the shared [`Database`], implementing
/// [`EngineOps`] so the unmodified TPC-C transaction code drives it. Every
/// engine operation is a potential yield point; a [`EngineError::LockWait`]
/// parks the client and retries the same operation once granted.
struct ClientDb<'a> {
    db: &'a RefCell<&'a mut Database>,
    /// Where a suspending client leaves its report for the scheduler.
    report: &'a Cell<Option<Report>>,
    slice_ops: usize,
    /// Operations left in the current grant; 0 = must hand the baton back.
    budget: usize,
    cur_txn: Option<TxnId>,
    /// Wake notifications observed mid-slice, carried into the next report.
    carry: Vec<TxnId>,
}

impl ClientDb<'_> {
    /// End this grant with `report`; returns at the start of the next one.
    async fn suspend(&mut self, report: Report) {
        self.report.set(Some(report));
        // Hand the baton back: `Pending` once, `Ready` at the next grant.
        let mut granted = false;
        poll_fn(|_| match std::mem::replace(&mut granted, true) {
            true => Poll::Ready(()),
            false => Poll::Pending,
        })
        .await;
        self.budget = self.slice_ops;
    }
}

impl EngineOps for ClientDb<'_> {
    /// Run one engine operation under the baton protocol.
    async fn op<R>(
        &mut self,
        tc: &mut TraceCtx,
        mut f: impl FnMut(&mut Database, &mut TraceCtx) -> Result<R>,
    ) -> Result<R> {
        loop {
            let (res, mut woken) = {
                let mut db = self.db.borrow_mut();
                let res = f(&mut db, tc);
                (res, db.drain_woken())
            };
            self.budget -= 1;
            let mut notify = std::mem::take(&mut self.carry);
            notify.append(&mut woken);
            match res {
                Err(EngineError::LockWait { .. }) => {
                    let txn = self.cur_txn.expect("lock waits happen inside a txn");
                    self.suspend(Report::Blocked { txn, woken: notify }).await;
                    // Next grant means we were woken: retry the operation.
                }
                res => {
                    if self.budget == 0 {
                        self.suspend(Report::Progress { woken: notify }).await;
                    } else {
                        self.carry = notify;
                    }
                    return res;
                }
            }
        }
    }

    /// Remembers the id a later lock wait reports under.
    async fn begin(&mut self, tc: &mut TraceCtx) -> Txn {
        let txn = self
            .op(tc, |db, tc| Ok(db.begin(tc)))
            .await
            .expect("begin is infallible");
        self.cur_txn = Some(txn.id);
        txn
    }
}

/// One client's whole session. Completes with its trace, its share of the
/// contention counters, and the wake notifications it had not yet reported.
async fn client_session<'a>(
    client: usize,
    db: &'a RefCell<&'a mut Database>,
    report: &'a Cell<Option<Report>>,
    h: &TpccDb,
    opt: InterleaveOptions,
    er: EngineRegions,
) -> (ThreadTrace, ContentionStats, Vec<TxnId>) {
    let mut tc = TraceCtx::recording(er);
    let mut rng = client_rng(opt.seed, client);
    let w_home = (client as u64 % h.scale.warehouses) + 1;
    let slice_ops = opt.slice_ops.max(1);
    let mut cdb = ClientDb {
        db,
        report,
        slice_ops,
        // The first poll is the first grant.
        budget: slice_ops,
        cur_txn: None,
        carry: Vec::new(),
    };
    let mut stats = ContentionStats::default();
    let mut done = 0;
    let mut guard = 0;
    // The guard bounds deadlock-retry livelock at 20 attempts per unit.
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
            let mut trng = txn_rng(opt.seed, client, guard);
            // Reconnaissance: derive the read/write set against the
            // database state this client observes under the baton, then
            // declare it right after begin. One budgeted (untraced)
            // scheduler op, so the probe sees the same deterministic
            // state every run.
            let keys = cdb
                .op(&mut tc, |db, _| Ok(rw_set(db, h, kind, cfg, trng.clone())))
                .await
                .expect("derivation is infallible");
            run_txn_cfg_declared(&mut cdb, h, kind, cfg, &mut trng, &mut tc, Some(&keys)).await
        } else {
            run_txn_cfg(&mut cdb, h, kind, cfg, &mut rng, &mut tc).await
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
    (tc.finish(), stats, cdb.carry)
}

/// Attribute one client park to the right [`ContentionStats`] counter
/// for the active backend: the centralized and partitioned backends park
/// clients on lock wait queues at execution time, the ordered backend
/// parks them on the declare-order queue before execution.
///
/// Exhaustive over [`CcBackend`] by design: a missing variant fails the
/// build (E0004) and a `_ =>` arm fails clippy.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn count_block(backend: CcBackend, stats: &mut ContentionStats) {
    match backend {
        CcBackend::Centralized2PL => stats.lock_waits += 1,
        CcBackend::PartitionedPerCore => stats.lock_waits += 1,
        CcBackend::DeterministicOrdered => stats.ordering_waits += 1,
    }
}

/// Capture an OLTP (TPC-C mix) workload with `opt.clients` interleaved
/// sessions against one shared database. See the module docs for the
/// scheduling and determinism contract.
pub fn capture_oltp_interleaved(
    mut db: Database,
    h: &TpccDb,
    opt: InterleaveOptions,
) -> InterleavedCapture {
    assert!(opt.clients >= 1, "need at least one client");
    db.set_cc_backend(opt.backend);
    let (bundle, stats) = interleave(&mut db, h, opt);
    InterleavedCapture {
        bundle,
        stats,
        cc: db.cc_stats(),
        db,
    }
}

/// The scheduler: run `opt.clients` sessions against `db`, `opt.slice_ops`
/// engine operations per grant. `db` already runs `opt.backend`.
pub(crate) fn interleave(
    db: &mut Database,
    h: &TpccDb,
    opt: InterleaveOptions,
) -> (TraceBundle, ContentionStats) {
    let er = db.er;
    let n = opt.clients;
    let shared = RefCell::new(db);
    let report = Cell::new(None);
    let mut sessions: Vec<_> = (0..n)
        .map(|client| Box::pin(client_session(client, &shared, &report, h, opt, er)))
        .collect();

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        Runnable,
        /// Parked until the lock manager wakes this transaction.
        Blocked(TxnId),
        Done,
    }
    let mut state = vec![State::Runnable; n];
    let mut threads = vec![ThreadTrace::default(); n];
    let mut stats = ContentionStats::default();
    let mut rr = 0usize;
    let mut finished = 0usize;

    let mut cx = Context::from_waker(Waker::noop());
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
        // One grant: the client runs until it suspends or finishes.
        let woken = match sessions[c].as_mut().poll(&mut cx) {
            Poll::Ready((trace, client_stats, woken)) => {
                state[c] = State::Done;
                finished += 1;
                threads[c] = trace;
                stats += client_stats;
                woken
            }
            Poll::Pending => match report.take().expect("a suspended client filed a report") {
                Report::Progress { woken } => woken,
                Report::Blocked { txn, woken } => {
                    state[c] = State::Blocked(txn);
                    count_block(opt.backend, &mut stats);
                    woken
                }
            },
        };
        // In lock-manager grant order. A wake naming a transaction no
        // client is parked under (it is already runnable) changes nothing.
        for t in woken {
            if let Some(w) = state.iter().position(|&s| s == State::Blocked(t)) {
                state[w] = State::Runnable;
            }
        }
    }

    drop(sessions);
    let regions = shared.borrow().regions().clone();
    (TraceBundle::new(regions, threads), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::{build_tpcc, TpccScale};
    use dbcmp_trace::{Fnv, TraceSummary};

    fn summary(b: &TraceBundle) -> TraceSummary {
        TraceSummary::compute(&b.regions, &b.threads)
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

    /// FNV-1a, as `bench_pipeline` digests a capture: every packed event
    /// of every thread with thread boundaries, then the counters.
    fn digest(il: &InterleavedCapture) -> (usize, u64) {
        let mut d = Fnv::new();
        let mut word = |w: u64| d.word(w);
        let mut events = 0;
        for t in &il.bundle.threads {
            word(t.len() as u64);
            events += t.len();
            t.iter().for_each(|e| word(e.pack().0));
        }
        let s = il.stats;
        [
            s.commits,
            s.rollbacks,
            s.lock_waits,
            s.ordering_waits,
            s.deadlock_aborts,
            s.conflict_retries,
            s.starved_units,
        ]
        .into_iter()
        .for_each(&mut word);
        (events, d.finish())
    }

    /// `(backend, hot_pct, slice_ops, events, digest)` at the quick
    /// contended scale (tiny TPC-C, 8 clients x 10 units, seed 0xC1D7, 8
    /// hot items), recorded at the last commit whose clients were OS
    /// threads parked on rendezvous channels (PR 16). Where a client
    /// yields decides which grant an operation lands in, hence the
    /// interleaving, hence every event after it: these rows hold only if
    /// the yield points are exactly where that scheduler had them.
    #[test]
    fn captures_match_the_threaded_scheduler_at_every_slice_ops() {
        use CcBackend::{Centralized2PL, DeterministicOrdered, PartitionedPerCore};
        const ROWS: [(CcBackend, u8, usize, usize, u64); 18] = [
            (Centralized2PL, 0, 1, 74805, 0xf3c610f81015fd27),
            (Centralized2PL, 0, 3, 74813, 0x82317ce2b0ca8389),
            (Centralized2PL, 0, 256, 73341, 0xfafb17aef5633de3),
            (Centralized2PL, 90, 1, 67427, 0x6f01c5c1fd552619),
            (Centralized2PL, 90, 3, 67419, 0x5f06c7e76d0db8a1),
            (Centralized2PL, 90, 256, 61636, 0x818356a692cb97ee),
            (PartitionedPerCore, 0, 1, 90641, 0x5659e53091b74701),
            (PartitionedPerCore, 0, 3, 81374, 0xe8a0090a13fc6264),
            (PartitionedPerCore, 0, 256, 80234, 0xf78a069f4cb19e13),
            (PartitionedPerCore, 90, 1, 66754, 0xb54274afa6f6a364),
            (PartitionedPerCore, 90, 3, 63316, 0x7ffa0c7445c9ec08),
            (PartitionedPerCore, 90, 256, 67475, 0xb28da47a937d72c9),
            (DeterministicOrdered, 0, 1, 48482, 0x0675af901b69e5ae),
            (DeterministicOrdered, 0, 3, 48482, 0xa5e1cdc2e1240756),
            (DeterministicOrdered, 0, 256, 48345, 0x7cc6fedd4490d68e),
            (DeterministicOrdered, 90, 1, 46909, 0xe6e31a288c23bc2b),
            (DeterministicOrdered, 90, 3, 46909, 0xe0d21b3dd2259b6b),
            (DeterministicOrdered, 90, 256, 48072, 0x88f2c360d9af0078),
        ];
        for (backend, hot_pct, slice_ops, events, want) in ROWS {
            let (db, h) = build_tpcc(TpccScale::tiny(), 0xC1D7);
            let opt = InterleaveOptions {
                slice_ops,
                ..InterleaveOptions::contended(8, 10, 0xC1D7, hot_pct).with_backend(backend)
            };
            assert_eq!(
                digest(&capture_oltp_interleaved(db, &h, opt)),
                (events, want),
                "{backend:?}, {hot_pct}% hot, slice_ops {slice_ops}"
            );
        }
    }

    /// With thread-per-client sessions this capture never returned: the
    /// scheduler waited for a report the dead client would never send,
    /// on a channel its parked siblings kept open.
    #[test]
    #[should_panic(expected = "warehouse")]
    fn a_panicking_client_fails_the_capture_instead_of_hanging_it() {
        let (db, mut h) = build_tpcc(TpccScale::tiny(), 1);
        // Client 1 is homed at warehouse 2 of 99; tiny() built one.
        h.scale.warehouses = 99;
        capture_oltp_interleaved(db, &h, InterleaveOptions::new(3, 2, 1));
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
        assert_eq!(s.counts.blocks, il.stats.lock_waits);
        assert!(s.counts.wakes > 0);
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
        assert!(s.counts.remote_sends > 0, "hops must reach the traces");
        // Acquires are round trips (request + grant); releases are fire-
        // and-forget one-way messages, so sends strictly dominate recvs.
        assert!(s.counts.remote_sends > s.counts.remote_recvs && s.counts.remote_recvs > 0);
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
        assert_eq!(s.counts.blocks, il.stats.ordering_waits);
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
            assert!(t.counts().units >= 5, "each client completes its units");
        }
        assert_eq!(il.db.live_locks(), 0);
    }
}
