//! Distributed DSS capture: Q3/Q5 over N shared-nothing engine
//! instances with exchange operators between them.
//!
//! Each instance holds one range fragment of the TPC-H tables
//! ([`build_tpch_range`]) in its own [`AddressSpace::partition`]
//! window. A query unit runs as a choreography across the instances'
//! capture contexts:
//!
//! 1. every instance scans + filters its own fragments (compute stays
//!    where the data is);
//! 2. the exchange ([`crate::exchange`]) picks broadcast or shuffle per
//!    join from the *global* post-filter build size and ships rows as
//!    `RemoteSend`/`RemoteRecv` traffic;
//! 3. each instance joins its post-exchange share (an ordinary
//!    [`HashJoin`] over [`Rows`] sources) and partially aggregates it;
//! 4. partials ship to the client's home instance, which merges and
//!    sorts them.
//!
//! At `instances = 1` the driver bypasses all of this: the (then
//! monolithic) fragment is captured by
//! [`crate::capture::capture_dss_workers`] itself, so the 1-instance
//! distributed capture is the single-instance `dss_joins` capture,
//! which `tests/validation.rs` pins.
//!
//! Honesty caveats (DESIGN.md §9): phases are sequential — no overlap
//! of compute with shipping; and the exchange does not exploit
//! co-location (both sides re-route by hash even where the range owner
//! already holds the key), the plain Rödiger-style baseline.
//!
//! The bundle layout is `deploy`'s: one [`TraceBundle`] per instance,
//! holding its home clients' traces in client order plus (for n > 1)
//! the instance's service trace last. Fragment *builds* parallelize
//! across workers (each into its private window). For n > 1 the capture
//! itself is sequential in global client order, because every unit
//! drives every instance's service context; at n = 1 the clients run
//! in parallel as in [`crate::capture::capture_dss_workers`]. Either
//! way worker count never leaks into the traces.

use std::sync::Arc;

use dbcmp_engine::exec::sort::SortKey;
use dbcmp_engine::exec::{
    run_to_vec, AggFunc, AggSpec, ExchangeStrategy, HashAggregate, HashJoin, JoinKind, Pred, Rows,
    Scalar, Sort,
};
use dbcmp_engine::{Database, Row, TraceCtx};
use dbcmp_trace::{AddressSpace, ThreadTrace, TraceBundle};
use rand::rngs::StdRng;

use crate::capture::{capture_dss_workers, par_map_ordered, CaptureOptions, DSS_SCRATCH_BYTES};
use crate::exchange::{
    choose_strategy, exchange_rows, rows_bytes, ship_rows, ExchangeBufs, ExchangeTraffic,
};
use crate::rng::client_rng;
use crate::tpch::queries::{join_query, scan, PipelineSpec};
use crate::tpch::{build_tpch_range, QueryKind, TpchDb, TpchScale};

/// Distributed capture parameters.
#[derive(Debug, Clone, Copy)]
pub struct DistOptions {
    /// Clients / units / seed, exactly as the single-instance capture.
    pub capture: CaptureOptions,
    /// Engine instances the tables are range-partitioned across.
    pub instances: usize,
}

/// What the exchange did during a distributed capture.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Joins exchanged by hash repartitioning.
    pub shuffles: u64,
    /// Joins whose build side was broadcast instead.
    pub broadcasts: u64,
    /// Interconnect traffic across all exchanges and partial-merge
    /// ships.
    pub traffic: ExchangeTraffic,
    /// Query units completed.
    pub units: u64,
}

/// A distributed DSS capture: one bundle per instance plus exchange
/// statistics.
pub struct DistCapture {
    /// Per-instance trace bundles (home clients in client order, then
    /// the instance's service thread when `instances > 1`).
    pub bundles: Vec<TraceBundle>,
    pub stats: DistStats,
}

/// Capture a distributed DSS workload (join mix only) across
/// `opt.instances` engine instances. Worker count defaults to the
/// available parallelism; see [`capture_dss_dist_workers`].
pub fn capture_dss_dist(scale: TpchScale, mix: &[QueryKind], opt: DistOptions) -> DistCapture {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    capture_dss_dist_workers(scale, mix, opt, workers)
}

/// [`capture_dss_dist`] with an explicit worker count. Workers
/// parallelize the per-instance fragment *builds* (each into its private
/// address window) and, at `instances = 1`, the clients of
/// [`crate::capture::capture_dss_workers`]; for n > 1 the capture runs
/// sequentially in global client order. The output is identical for
/// every worker count — `tests/validation.rs` pins this.
pub fn capture_dss_dist_workers(
    scale: TpchScale,
    mix: &[QueryKind],
    opt: DistOptions,
    workers: usize,
) -> DistCapture {
    let n = opt.instances;
    assert!(n >= 1, "at least one instance");
    assert!(
        mix.iter()
            .all(|k| matches!(k, QueryKind::Q3 | QueryKind::Q5)),
        "distributed DSS supports the join mix (Q3/Q5) only"
    );
    let seed = opt.capture.seed;

    // Reserve every instance's window up front, then build fragments —
    // claimed by workers; windows are private so build order between
    // instances cannot matter.
    let spaces: Vec<Arc<AddressSpace>> = (0..n)
        .map(|p| Arc::new(AddressSpace::partition(p).unwrap_or_else(|e| panic!("window {p}: {e}"))))
        .collect();
    let (mut dbs, hs): (Vec<Database>, Vec<TpchDb>) =
        par_map_ordered(spaces.clone(), workers, |p, space| {
            build_tpch_range(scale, seed, p, n, space)
        })
        .into_iter()
        .unzip();
    // `build_tpch_range` creates the tables in one order, so every
    // fragment's handles are the same ids: a unit's statement, built
    // once from its home fragment's handles, names the same tables on
    // every instance.
    assert!(hs.iter().all(|h| *h == hs[0]), "fragment table ids differ");
    if n == 1 {
        // The degenerate case IS the single-instance capture.
        let bundle = capture_dss_workers(&mut dbs[0], &hs[0], mix, opt.capture, workers);
        let units = (opt.capture.clients * opt.capture.units_per_client) as u64;
        return DistCapture {
            bundles: vec![bundle],
            stats: DistStats {
                units,
                ..DistStats::default()
            },
        };
    }

    // Fixed allocation order after the fragments: exchange buffers,
    // client scratch arenas in global client order, then per-instance
    // service arenas — independent of worker scheduling.
    let mut bufs = ExchangeBufs::reserve(&spaces);
    let mut client_tcs: Vec<TraceCtx> = (0..opt.capture.clients)
        .map(|client| {
            let home = client % n;
            let mut tc = dbs[home].trace_ctx();
            tc.set_scratch(spaces[home].reserve_arena("dss-scratch", DSS_SCRATCH_BYTES));
            tc
        })
        .collect();
    let mut service_tcs: Vec<TraceCtx> = (0..n)
        .map(|p| {
            let mut tc = dbs[p].trace_ctx();
            tc.set_scratch(spaces[p].reserve_arena("dss-scratch", DSS_SCRATCH_BYTES));
            tc
        })
        .collect();

    // Sequential capture in global client order.
    let mut stats = DistStats::default();
    for client in 0..opt.capture.clients {
        let mut rng = client_rng(seed ^ 0xD55, client);
        let home = client % n;
        for unit in 0..opt.capture.units_per_client {
            let kind = mix[(client + unit) % mix.len()];
            run_dist_unit(
                &dbs,
                &hs[home],
                kind,
                &mut rng,
                &mut client_tcs[client],
                &mut service_tcs,
                home,
                &mut bufs,
                &mut stats,
            );
            stats.units += 1;
        }
    }

    // One bundle per instance: home clients in client order, service
    // thread last.
    let mut threads: Vec<Vec<ThreadTrace>> = Vec::new();
    threads.resize_with(n, Vec::new);
    for (client, tc) in client_tcs.into_iter().enumerate() {
        threads[client % n].push(tc.finish());
    }
    for (p, tc) in service_tcs.into_iter().enumerate() {
        threads[p].push(tc.finish());
    }
    let bundles = threads
        .into_iter()
        .enumerate()
        .map(|(p, t)| TraceBundle::new(dbs[p].regions().clone(), t))
        .collect();
    DistCapture { bundles, stats }
}

/// Run one distributed query unit. `client_tc` doubles as instance
/// `home`'s context for this unit (the client session lives there);
/// `service_tcs[p]` covers every other instance's share.
#[allow(
    clippy::too_many_arguments,
    reason = "one unit's per-instance databases, contexts and exchange buffers, each borrowed separately"
)]
fn run_dist_unit(
    dbs: &[Database],
    h: &TpchDb,
    kind: QueryKind,
    rng: &mut StdRng,
    client_tc: &mut TraceCtx,
    service_tcs: &mut [TraceCtx],
    home: usize,
    bufs: &mut ExchangeBufs,
    stats: &mut DistStats,
) {
    dbs[home].statement_overhead(client_tc);
    let mut refs: Vec<&mut TraceCtx> = service_tcs.iter_mut().collect();
    refs[home] = client_tc;
    let (spec, order) = join_query(kind, h, rng);
    let merged = dist_query(dbs, &mut refs, bufs, stats, home, &spec, order);
    debug_assert!(
        !merged.is_empty(),
        "{kind:?}: no groups — broken predicate draw?"
    );
    // Close the choreography: every service instance fences so its next
    // unit's traffic cannot reorder past this one's.
    for (p, tc) in refs.iter_mut().enumerate() {
        if p != home {
            tc.fence();
        }
    }
    refs[home].unit_end();
}

/// Scan `table` filtered by `pred` on every instance's fragment,
/// returning the per-instance row sets.
fn frag_scan(
    dbs: &[Database],
    refs: &mut [&mut TraceCtx],
    table: usize,
    pred: &Pred,
) -> Vec<Vec<Row>> {
    (0..dbs.len())
        .map(|p| {
            let mut plan = scan(table, pred.clone());
            run_to_vec(plan.as_mut(), &dbs[p], refs[p]).expect("fragment scan")
        })
        .collect()
}

/// Run one join statement across the instances, split scan → exchange
/// → join → partial aggregate → merge: for each join of the chain, scan
/// its build side on every fragment (and, for the first join only, then
/// the probe table), exchange, and join each instance's share; then
/// merge at `home`. Returns the merged rows in `order`.
fn dist_query(
    dbs: &[Database],
    refs: &mut [&mut TraceCtx],
    bufs: &mut ExchangeBufs,
    stats: &mut DistStats,
    home: usize,
    spec: &PipelineSpec,
    order: Vec<SortKey>,
) -> Vec<Row> {
    let mut joined: Option<Vec<Vec<Row>>> = None;
    for j in &spec.joins {
        let build = frag_scan(dbs, refs, j.build_table, &j.build_pred);
        let probe = match joined {
            Some(rows) => rows,
            None => frag_scan(dbs, refs, spec.table, &spec.pred),
        };
        joined = Some(dist_join(
            dbs,
            refs,
            bufs,
            stats,
            build,
            j.build_key,
            probe,
            j.probe_key,
        ));
    }
    let joined = joined.expect("a join statement joins at least once");
    merge_at_home(dbs, refs, bufs, stats, joined, spec, home, order)
}

/// One distributed join: choose the exchange strategy from the global
/// post-filter build size, exchange, then join each instance's share.
/// Returns the per-instance join outputs (probe ++ build columns).
///
/// The strategy tally is exhaustive over [`ExchangeStrategy`] by design:
/// a missing variant fails the build and a `_ =>` arm fails clippy.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
#[allow(
    clippy::too_many_arguments,
    reason = "one join's two sides (rows + key column each) plus the per-unit borrows run_dist_unit holds"
)]
fn dist_join(
    dbs: &[Database],
    refs: &mut [&mut TraceCtx],
    bufs: &mut ExchangeBufs,
    stats: &mut DistStats,
    build_frags: Vec<Vec<Row>>,
    build_key: usize,
    probe_frags: Vec<Vec<Row>>,
    probe_key: usize,
) -> Vec<Vec<Row>> {
    let build_bytes: u64 = build_frags.iter().map(|f| rows_bytes(f)).sum();
    let strategy = choose_strategy(dbs.len(), build_bytes);
    match strategy {
        ExchangeStrategy::Local => {}
        ExchangeStrategy::Broadcast => stats.broadcasts += 1,
        ExchangeStrategy::Shuffle => stats.shuffles += 1,
    }
    let (builds, probes, traffic) = exchange_rows(
        strategy,
        bufs,
        refs,
        build_frags,
        build_key,
        probe_frags,
        probe_key,
    );
    stats.traffic.merge(&traffic);
    builds
        .into_iter()
        .zip(probes)
        .enumerate()
        .map(|(p, (b, pr))| {
            // `Rows` charges nothing: the rows' production was paid at
            // the fragment scans and their shipping at the exchange.
            let mut join = HashJoin::new(
                Box::new(Rows::new(b)),
                build_key,
                Box::new(Rows::new(pr)),
                probe_key,
                JoinKind::Inner,
            );
            run_to_vec(&mut join, &dbs[p], refs[p]).expect("distributed join")
        })
        .collect()
}

/// Partially aggregate each instance's join output by `spec`'s groups
/// and aggregates, ship the partials to `home`, and merge and sort them
/// there. The merge re-groups on the partials' group columns and sums
/// each partial SUM.
#[allow(
    clippy::too_many_arguments,
    reason = "the statement and its order plus the per-unit borrows run_dist_unit holds"
)]
fn merge_at_home(
    dbs: &[Database],
    refs: &mut [&mut TraceCtx],
    bufs: &mut ExchangeBufs,
    stats: &mut DistStats,
    joined: Vec<Vec<Row>>,
    spec: &PipelineSpec,
    home: usize,
    order: Vec<SortKey>,
) -> Vec<Row> {
    debug_assert!(
        spec.aggs.iter().all(|a| a.func == AggFunc::Sum),
        "the merge sums partial aggregates, so every aggregate is a SUM"
    );
    let partials: Vec<Vec<Row>> = joined
        .into_iter()
        .enumerate()
        .map(|(p, rows)| {
            let mut plan = HashAggregate::new(
                Box::new(Rows::new(rows)),
                spec.group_cols.clone(),
                spec.aggs.clone(),
            );
            run_to_vec(&mut plan, &dbs[p], refs[p]).expect("partial aggregate")
        })
        .collect();
    let mut all = Vec::new();
    for (p, rows) in partials.iter().enumerate() {
        ship_rows(&mut stats.traffic, bufs, refs, p, home, rows, &mut all);
    }
    let n_groups = spec.group_cols.len();
    let sums = (n_groups..n_groups + spec.aggs.len())
        .map(|c| AggSpec::sum(Scalar::Col(c)))
        .collect();
    let mut merged = Sort::new(
        Box::new(HashAggregate::new(
            Box::new(Rows::new(all)),
            (0..n_groups).collect(),
            sums,
        )),
        order,
    );
    run_to_vec(&mut merged, &dbs[home], refs[home]).expect("coordinator merge")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::queries::build_query;
    use crate::tpch::{build_tpch, tpch_rng};

    /// The distributed Q3/Q5 answers equal the single-instance executor
    /// plans' answers (Q5's through its index join) on the same predicate
    /// draws, with the tables split across three instances.
    #[test]
    fn distributed_answers_match_single_instance() {
        let scale = TpchScale::tiny();
        let seed = 0xD157;
        let (db, h) = build_tpch(scale, seed);
        let n = 3;
        let spaces: Vec<_> = (0..n)
            .map(|p| Arc::new(AddressSpace::partition(p).unwrap()))
            .collect();
        let (dbs, hs): (Vec<_>, Vec<_>) = (0..n)
            .map(|p| build_tpch_range(scale, seed, p, n, spaces[p].clone()))
            .unzip();
        let mut bufs = ExchangeBufs::reserve(&spaces);
        let mut ctxs: Vec<_> = dbs.iter().map(|d| d.trace_ctx()).collect();
        let mut refs: Vec<&mut TraceCtx> = ctxs.iter_mut().collect();
        let mut stats = DistStats::default();
        for kind in QueryKind::JOINS {
            let mut plan = build_query(kind, &h, &mut tpch_rng(seed, 0));
            let mut expect = run_to_vec(plan.as_mut(), &db, &mut db.null_ctx()).expect("reference");
            let (spec, order) = join_query(kind, &hs[0], &mut tpch_rng(seed, 0));
            let mut got = dist_query(&dbs, &mut refs, &mut bufs, &mut stats, 0, &spec, order);
            expect.sort();
            got.sort();
            assert_eq!(got, expect, "{kind:?} distributed answer diverged");
        }
    }

    /// Bundle layout and traffic invariants of the full driver.
    #[test]
    fn dist_capture_layout_and_traffic() {
        let opt = DistOptions {
            capture: CaptureOptions::new(4, 2, 0xD158),
            instances: 2,
        };
        let cap = capture_dss_dist_workers(TpchScale::tiny(), &QueryKind::JOINS, opt, 1);
        assert_eq!(cap.bundles.len(), 2);
        // 2 home clients + 1 service thread per instance.
        for b in &cap.bundles {
            assert_eq!(b.threads.len(), 3);
        }
        assert_eq!(cap.stats.units, 8);
        assert!(cap.stats.traffic.messages > 0, "n=2 must exchange");
        assert_eq!(cap.stats.traffic.sent_bytes, cap.stats.traffic.recv_bytes);
        // Trace-level conservation across the deployment.
        let all: Vec<&ThreadTrace> = cap.bundles.iter().flat_map(|b| &b.threads).collect();
        let sends: u64 = all.iter().map(|t| t.remote_sends()).sum();
        let recvs: u64 = all.iter().map(|t| t.remote_recvs()).sum();
        assert_eq!(sends, recvs);
        assert_eq!(sends, cap.stats.traffic.messages);

        // n = 1: no exchange machinery at all.
        let solo = capture_dss_dist_workers(
            TpchScale::tiny(),
            &QueryKind::JOINS,
            DistOptions {
                capture: CaptureOptions::new(2, 2, 0xD158),
                instances: 1,
            },
            1,
        );
        assert_eq!(solo.bundles.len(), 1);
        assert_eq!(solo.bundles[0].threads.len(), 2, "no service thread at n=1");
        assert_eq!(solo.stats.traffic, ExchangeTraffic::default());
    }
}
