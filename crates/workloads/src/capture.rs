//! Trace capture: run client sessions against the engine and bundle the
//! per-client traces for the simulator.
//!
//! The OLTP capture here is *sequential*: clients execute one after
//! another, so no two transactions are ever concurrently live. Shared
//! structures (lock table, WAL head, B+Tree roots, hot rows) still carry
//! the same simulated addresses in every client's trace, preserving
//! cross-client sharing for the simulator — but lock *contention* never
//! happens here. It is the interleaved scheduler of `interleave`
//! with whole-session grants; a finer grant quantum there gives real 2PL
//! waits, deadlocks, and a contention knob.

use std::sync::Mutex;

use dbcmp_engine::Database;
use dbcmp_trace::{ScratchArena, ThreadTrace, TraceBundle};

use crate::interleave::{interleave, ContentionStats, InterleaveOptions};
use crate::rng::client_rng;
use crate::tpcc::TpccDb;
use crate::tpch::queries::build_query;
use crate::tpch::{QueryKind, TpchDb};

/// Simulated scratch reserved per DSS client for operator state (sort
/// buffers, hash tables). Simulated bytes cost nothing real, so this is
/// deliberately generous — exhaustion panics rather than falling back to
/// the shared allocator (which would break parallel determinism).
pub(crate) const DSS_SCRATCH_BYTES: u64 = 1 << 30;

/// Capture parameters.
#[derive(Debug, Clone, Copy)]
pub struct CaptureOptions {
    /// Number of client sessions (paper: 64 OLTP / 16 DSS saturated; 1
    /// unsaturated).
    pub(crate) clients: usize,
    /// Work units (transactions or queries) per client.
    pub(crate) units_per_client: usize,
    /// RNG seed.
    pub(crate) seed: u64,
}

impl CaptureOptions {
    pub fn new(clients: usize, units_per_client: usize, seed: u64) -> Self {
        CaptureOptions {
            clients,
            units_per_client,
            seed,
        }
    }
}

/// Capture an OLTP (TPC-C mix) workload: one trace per client terminal.
///
/// This is the interleaved scheduler (`interleave`) with
/// whole-session grants (`slice_ops = usize::MAX`): each client runs all
/// its transactions before the next client starts, against the same
/// evolving database (B+Tree splits, `d_next_o_id` draws), so the capture
/// is one serial schedule in which later clients observe earlier
/// clients' committed state.
pub fn capture_oltp(db: &mut Database, h: &TpccDb, opt: CaptureOptions) -> TraceBundle {
    let opt = InterleaveOptions {
        slice_ops: usize::MAX,
        ..InterleaveOptions::new(opt.clients, opt.units_per_client, opt.seed)
    };
    let (bundle, stats) = interleave(db, h, opt);
    // One transaction is live at a time, so nothing can park, conflict or
    // retry: anything but every unit completing first time is a bug, and
    // the bundle would silently differ. A TPC-C rollback completes its unit.
    let first_time = ContentionStats {
        commits: stats.commits,
        rollbacks: stats.rollbacks,
        ..ContentionStats::default()
    };
    assert_eq!(stats, first_time, "sequential capture retried or parked");
    bundle
}

/// Capture a DSS workload: each client runs `units_per_client` queries
/// drawn round-robin from `mix` with random predicates (paper §3: 16
/// clients, four queries, random predicates).
///
/// Clients run **in parallel** across up to `available_parallelism`
/// threads, and the result is byte-identical to a sequential capture:
/// DSS queries only read the frozen database, and the one mutation they
/// used to perform — operator scratch allocation from the shared bump
/// pointer — is removed by pre-carving a private [`ScratchArena`] per
/// client, in client order, before any worker starts. Each client's
/// trace then depends only on its own rng and arena. The identity is
/// pinned by `parallel_dss_capture_matches_sequential` below.
pub fn capture_dss(
    db: &mut Database,
    h: &TpchDb,
    mix: &[QueryKind],
    opt: CaptureOptions,
) -> TraceBundle {
    capture_dss_workers(db, h, mix, opt, available_workers())
}

/// [`capture_dss`] with an explicit worker count (`workers <= 1` runs
/// sequentially on the calling thread). Output is identical for every
/// worker count, which the tests pin (parallel ≡ sequential).
pub(crate) fn capture_dss_workers(
    db: &mut Database,
    h: &TpchDb,
    mix: &[QueryKind],
    opt: CaptureOptions,
    workers: usize,
) -> TraceBundle {
    let db: &Database = db;
    // Carve every client's scratch before spawning anything: the shared
    // bump pointer advances in client order, so arena bases are
    // independent of worker scheduling.
    let arenas: Vec<ScratchArena> = (0..opt.clients)
        .map(|_| db.space.reserve_arena(DSS_SCRATCH_BYTES))
        .collect();
    let threads = par_map_ordered(arenas, workers, |client, arena| {
        run_dss_client(db, h, mix, opt, client, arena)
    });
    TraceBundle::new(db.regions().clone(), threads)
}

/// One worker per available CPU, the default of every entry point that
/// takes `workers` ([`par_map_ordered`] caps it at the item count).
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `f(index, item)` over `items` on up to `workers` threads, results in
/// input order. Workers claim items one at a time from a shared cursor,
/// so a slow item holds up only the worker running it; `workers <= 1`
/// runs inline on the calling thread. Every capture entry point that
/// takes `workers`, and every `Sweep` in `dbcmp-core`, funnels through
/// here, and each passes an `f` whose result depends only on its own
/// item — which is what makes their output independent of the worker
/// count and of which worker claims what.
pub fn par_map_ordered<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let cursor = Mutex::new(items.into_iter().enumerate());
    let claim = || cursor.lock().expect("capture cursor poisoned").next();
    let (f, claim) = (&f, &claim);
    let mut mapped: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    std::iter::from_fn(claim)
                        .map(|(i, item)| (i, f(i, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("capture worker panicked"))
            .collect()
    });
    mapped.sort_by_key(|&(i, _)| i);
    mapped.into_iter().map(|(_, r)| r).collect()
}

/// Run one DSS client session to completion (shared read-only database,
/// private rng and scratch arena). Each unit is statement overhead, plan
/// build (consuming the unit's predicate draws from the rng), execution
/// and unit end.
fn run_dss_client(
    db: &Database,
    h: &TpchDb,
    mix: &[QueryKind],
    opt: CaptureOptions,
    client: usize,
    arena: ScratchArena,
) -> ThreadTrace {
    let mut rng = client_rng(opt.seed ^ 0xD55, client);
    let mut tc = db.trace_ctx();
    tc.set_scratch(arena);
    for unit in 0..opt.units_per_client {
        let kind = mix[(client + unit) % mix.len()];
        db.statement_overhead(&mut tc);
        let mut plan = build_query(kind, h, &mut rng);
        let n = dbcmp_engine::exec::run_count(plan.as_mut(), db, &mut tc).expect("query execution");
        // Queries must produce output at capture scales; a zero-row
        // result usually means a broken predicate draw.
        debug_assert!(n > 0 || kind == QueryKind::Q16, "{kind:?} returned no rows");
        tc.unit_end();
    }
    tc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::{build_tpcc, TpccScale};
    use crate::tpch::{build_tpch, TpchScale};
    use dbcmp_trace::TraceSummary;

    #[test]
    fn oltp_capture_produces_per_client_traces() {
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 31);
        let bundle = capture_oltp(&mut db, &h, CaptureOptions::new(4, 5, 31));
        assert_eq!(bundle.threads.len(), 4);
        for t in &bundle.threads {
            assert!(t.counts().units >= 5, "each client must complete its units");
            assert!(
                t.instrs() > 10_000,
                "transactions are tens of kilo-instructions"
            );
        }
    }

    /// What lets the one (queued) lock discipline serve this driver too:
    /// with one transaction live at a time no request ever parks, so the
    /// traces carry no `Block`/`Wake` and the lock table ends empty.
    #[test]
    fn sequential_capture_never_parks_and_drains_the_lock_table() {
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 36);
        let bundle = capture_oltp(&mut db, &h, CaptureOptions::new(3, 6, 36));
        let s = TraceSummary::compute(&bundle.regions, &bundle.threads);
        assert_eq!((s.counts.blocks, s.counts.wakes), (0, 0));
        assert_eq!(s.counts.units, 3 * 6, "every unit completes first time");
        assert_eq!(db.live_locks(), 0);
        assert_eq!(db.lock_waiters(), 0);
        assert_eq!(db.cc_stats().waits, 0);
    }

    #[test]
    fn dss_capture_produces_query_traces() {
        let (mut db, h) = build_tpch(TpchScale::tiny(), 32);
        let bundle = capture_dss(&mut db, &h, &QueryKind::ALL, CaptureOptions::new(2, 4, 32));
        assert_eq!(bundle.threads.len(), 2);
        for t in &bundle.threads {
            assert_eq!(t.counts().units, 4);
            assert!(t.instrs() > 50_000, "queries scan thousands of tuples");
        }
    }

    /// Parallel DSS capture is byte-identical to the sequential capture,
    /// event for event, thanks to pre-carved scratch arenas: worker count
    /// and claim order must never leak into the traces. The scan mix's
    /// query costs differ tenfold and the join mix's fourfold, so which
    /// worker claims which client varies from run to run.
    #[test]
    fn parallel_dss_capture_matches_sequential() {
        let cases: [(&[QueryKind], CaptureOptions); 2] = [
            (&QueryKind::ALL, CaptureOptions::new(5, 3, 35)),
            (&QueryKind::JOINS, CaptureOptions::new(5, 1, 35)),
        ];
        for (mix, opt) in cases {
            let run = |workers| {
                let (mut db, h) = build_tpch(TpchScale::tiny(), 35);
                capture_dss_workers(&mut db, &h, mix, opt, workers)
            };
            let seq = run(1);
            for workers in [2, 3, 16] {
                let par = run(workers);
                assert_eq!(seq.threads.len(), par.threads.len());
                for (i, (a, b)) in seq.threads.iter().zip(&par.threads).enumerate() {
                    assert_eq!(
                        a.packed_events(),
                        b.packed_events(),
                        "{mix:?}: client {i} trace diverged between workers=1 and workers={workers}"
                    );
                }
                assert_eq!(
                    TraceSummary::compute(&seq.regions, &seq.threads),
                    TraceSummary::compute(&par.regions, &par.threads),
                );
            }
        }
    }

    /// Items are claimed, not dealt out in advance: while item 0 blocks
    /// until item 2 has run, the other worker must get to item 2. (Dealt
    /// round-robin, item 2 would wait behind item 0 on the same worker.)
    #[test]
    fn par_map_ordered_lets_an_idle_worker_claim_the_next_item() {
        use std::sync::mpsc;
        use std::time::Duration;

        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let out = par_map_ordered(vec![10, 11, 12], 2, |i, item| match i {
            0 => rx
                .lock()
                .expect("one waiter")
                .recv_timeout(Duration::from_secs(10))
                .map_or(-1, |()| item),
            2 => {
                tx.send(()).expect("item 0 is waiting");
                item
            }
            _ => item,
        });
        assert_eq!(out, vec![10, 11, 12], "item 0 timed out waiting for item 2");
    }

    #[test]
    fn oltp_and_dss_have_contrasting_shapes() {
        // The microarchitectural contrast the paper rests on: OLTP has a
        // much higher dependent-load fraction than scan-dominated DSS.
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 33);
        let oltp = capture_oltp(&mut db, &h, CaptureOptions::new(2, 10, 33));
        let so = TraceSummary::compute(&oltp.regions, &oltp.threads);

        let (mut db2, h2) = build_tpch(TpchScale::tiny(), 33);
        let dss = capture_dss(
            &mut db2,
            &h2,
            &[QueryKind::Q1, QueryKind::Q6],
            CaptureOptions::new(2, 2, 33),
        );
        let sd = TraceSummary::compute(&dss.regions, &dss.threads);

        assert!(
            so.dep_load_fraction() > 1.5 * sd.dep_load_fraction(),
            "OLTP dep-load fraction {:.3} must exceed DSS {:.3}",
            so.dep_load_fraction(),
            sd.dep_load_fraction()
        );
    }

    #[test]
    fn shared_addresses_across_clients() {
        // Lock table / tree roots must appear in multiple clients' traces.
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 34);
        let bundle = capture_oltp(&mut db, &h, CaptureOptions::new(2, 8, 34));
        let lines = |t: &dbcmp_trace::ThreadTrace| {
            #[allow(
                clippy::disallowed_types,
                reason = "test-local set/map; its order never reaches a trace or result"
            )]
            let mut s = std::collections::HashSet::new();
            for e in t.iter() {
                match e {
                    dbcmp_trace::Event::Load { addr, .. }
                    | dbcmp_trace::Event::Store { addr, .. } => {
                        s.insert(addr >> 6);
                    }
                    _ => {}
                }
            }
            s
        };
        let a = lines(&bundle.threads[0]);
        let b = lines(&bundle.threads[1]);
        let shared = a.intersection(&b).count();
        assert!(
            shared > 100,
            "clients must share hundreds of hot lines (lock table, roots): {shared}"
        );
    }
}
