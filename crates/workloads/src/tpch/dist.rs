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
//! At `instances = 1` the driver bypasses all of this and runs
//! [`crate::capture::capture_dss`]'s own unit routine over the (then
//! monolithic) fragment — the 1-instance distributed capture is
//! event-identical to the single-instance `dss_joins` capture by
//! construction, which `tests/validation.rs` pins.
//!
//! Honesty caveats (DESIGN.md §9): phases are sequential — no overlap
//! of compute with shipping; and the exchange does not exploit
//! co-location (both sides re-route by hash even where the range owner
//! already holds the key), the plain Rödiger-style baseline.
//!
//! The bundle layout is `deploy`'s: one [`TraceBundle`] per instance,
//! holding its home clients' traces in client order plus (for n > 1)
//! the instance's service trace last. Fragment *builds* parallelize
//! across workers (each into its private window); the capture itself is
//! sequential in global client order, so worker count never leaks into
//! the traces.

use std::sync::Arc;

use dbcmp_engine::exec::sort::SortKey;
use dbcmp_engine::exec::{
    run_count, run_to_vec, AggSpec, CmpOp, Filter, HashAggregate, HashJoin, JoinKind, Pred, Rows,
    Scalar, SeqScan, Sort,
};
use dbcmp_engine::{Database, Row, TraceCtx, Value};
use dbcmp_trace::{AddressSpace, ThreadTrace, TraceBundle};
use rand::rngs::StdRng;
use rand::Rng;

use crate::capture::{par_map_ordered, run_dss_unit, CaptureOptions, DSS_SCRATCH_BYTES};
use crate::exchange::{
    choose_strategy, exchange_rows, rows_bytes, ship_rows, ExchangeBufs, ExchangeTraffic,
};
use crate::rng::client_rng;
use crate::tpch::queries::revenue_at;
use crate::tpch::{build_tpch_range, QueryKind, TpchDb, TpchScale, MAX_DATE};
use dbcmp_engine::exec::ExchangeStrategy;

// lineitem columns (see super::queries).
const L_ORDERKEY: usize = 0;
const L_SUPPKEY: usize = 2;
const L_SHIP: usize = 10;

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
/// parallelize the per-instance fragment *builds* only (each into its
/// private address window); the capture itself always runs sequentially
/// in global client order, so the output is identical for every worker
/// count — `tests/validation.rs` pins this.
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
    // striped across workers; windows are private so build order
    // between instances cannot matter.
    let spaces: Vec<Arc<AddressSpace>> = (0..n)
        .map(|p| Arc::new(AddressSpace::partition(p).unwrap_or_else(|e| panic!("window {p}: {e}"))))
        .collect();
    let (dbs, hs): (Vec<Database>, Vec<TpchDb>) =
        par_map_ordered(spaces.clone(), workers, |p, space| {
            build_tpch_range(scale, seed, p, n, space)
        })
        .into_iter()
        .unzip();

    // Fixed allocation order after the fragments: exchange buffers
    // (n > 1 only), client scratch arenas in global client order, then
    // per-instance service arenas — independent of worker scheduling.
    let mut bufs = (n > 1).then(|| ExchangeBufs::reserve(&spaces));
    let mut client_tcs: Vec<TraceCtx> = (0..opt.capture.clients)
        .map(|client| {
            let home = client % n;
            let mut tc = dbs[home].trace_ctx();
            tc.set_scratch(spaces[home].reserve_arena("dss-scratch", DSS_SCRATCH_BYTES));
            tc
        })
        .collect();
    let mut service_tcs: Vec<TraceCtx> = if n > 1 {
        (0..n)
            .map(|p| {
                let mut tc = dbs[p].trace_ctx();
                tc.set_scratch(spaces[p].reserve_arena("dss-scratch", DSS_SCRATCH_BYTES));
                tc
            })
            .collect()
    } else {
        Vec::new()
    };

    // Sequential capture in global client order.
    let mut stats = DistStats::default();
    for client in 0..opt.capture.clients {
        let mut rng = client_rng(seed ^ 0xD55, client);
        let home = client % n;
        for unit in 0..opt.capture.units_per_client {
            let kind = mix[(client + unit) % mix.len()];
            if n == 1 {
                // The degenerate case IS the single-instance capture.
                run_dss_unit(&dbs[0], &hs[0], kind, &mut rng, &mut client_tcs[client]);
            } else {
                run_dist_unit(
                    &dbs,
                    &hs,
                    kind,
                    &mut rng,
                    &mut client_tcs[client],
                    &mut service_tcs,
                    home,
                    bufs.as_mut().expect("bufs reserved for n > 1"),
                    &mut stats,
                );
            }
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
    hs: &[TpchDb],
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
    match kind {
        QueryKind::Q3 => dist_q3(dbs, hs, rng, &mut refs, home, bufs, stats),
        QueryKind::Q5 => dist_q5(dbs, hs, rng, &mut refs, home, bufs, stats),
        other => unreachable!("distributed DSS mix is Q3/Q5 only, got {other:?}"),
    }
    // Close the choreography: every service instance fences so its next
    // unit's traffic cannot reorder past this one's.
    for (p, tc) in refs.iter_mut().enumerate() {
        if p != home {
            tc.fence();
        }
    }
    refs[home].unit_end();
}

/// Scan + filter one plan on every instance's fragment, returning the
/// per-instance row sets. `plan(p)` builds instance p's fragment plan.
fn frag_scan(
    dbs: &[Database],
    refs: &mut [&mut TraceCtx],
    mut plan: impl FnMut(usize) -> Box<dyn dbcmp_engine::exec::Executor + Send>,
) -> Vec<Vec<Row>> {
    (0..dbs.len())
        .map(|p| run_to_vec(plan(p).as_mut(), &dbs[p], refs[p]).expect("fragment scan"))
        .collect()
}

/// One distributed join: choose the exchange strategy from the global
/// post-filter build size, exchange, then join each instance's share.
/// Returns the per-instance join outputs (probe ++ build columns).
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

/// Partially aggregate each instance's join output, ship the partials
/// to `home`, and merge + sort there. `group_cols`/`agg` define the
/// partial aggregate; the merge re-groups on the partials' group
/// columns and sums the aggregate column.
#[allow(
    clippy::too_many_arguments,
    reason = "the partial aggregate's shape plus the per-unit borrows run_dist_unit holds"
)]
fn merge_at_home(
    dbs: &[Database],
    refs: &mut [&mut TraceCtx],
    bufs: &mut ExchangeBufs,
    stats: &mut DistStats,
    joined: Vec<Vec<Row>>,
    group_cols: Vec<usize>,
    agg: Scalar,
    home: usize,
    sort_keys: Vec<SortKey>,
) {
    let n_groups = group_cols.len();
    let partials: Vec<Vec<Row>> = joined
        .into_iter()
        .enumerate()
        .map(|(p, rows)| {
            let mut plan = HashAggregate::new(
                Box::new(Rows::new(rows)),
                group_cols.clone(),
                vec![AggSpec::sum(agg.clone())],
            );
            run_to_vec(&mut plan, &dbs[p], refs[p]).expect("partial aggregate")
        })
        .collect();
    let mut all = Vec::new();
    for (p, rows) in partials.iter().enumerate() {
        ship_rows(&mut stats.traffic, bufs, refs, p, home, rows, &mut all);
    }
    // Coordinator merge: re-group on the partials' group columns
    // (0..n_groups) and sum the shipped partial sums.
    let mut merged = Sort::new(
        Box::new(HashAggregate::new(
            Box::new(Rows::new(all)),
            (0..n_groups).collect(),
            vec![AggSpec::sum(Scalar::Col(n_groups))],
        )),
        sort_keys,
    );
    let out = run_count(&mut merged, &dbs[home], refs[home]).expect("coordinator merge");
    debug_assert!(out > 0, "{out} merged groups — broken predicate draw?");
}

/// Distributed Q3: orders(filtered) ⋈ lineitem(filtered) on orderkey,
/// revenue per (orderkey, orderdate) — the same shape and predicate
/// draw as `queries::q3`, split scan → exchange → join → partial agg →
/// merge.
fn dist_q3(
    dbs: &[Database],
    hs: &[TpchDb],
    rng: &mut StdRng,
    refs: &mut [&mut TraceCtx],
    home: usize,
    bufs: &mut ExchangeBufs,
    stats: &mut DistStats,
) {
    let cutoff = rng.gen_range(MAX_DATE / 4..3 * MAX_DATE / 4);
    let build = frag_scan(dbs, refs, |p| {
        Box::new(Filter::new(
            Box::new(SeqScan::new(hs[p].orders)),
            Pred::Cmp {
                col: 2, // o_orderdate
                op: CmpOp::Lt,
                val: Value::Date(cutoff),
            },
        ))
    });
    let probe = frag_scan(dbs, refs, |p| {
        Box::new(Filter::new(
            Box::new(SeqScan::new(hs[p].lineitem)),
            Pred::Cmp {
                col: L_SHIP,
                op: CmpOp::Gt,
                val: Value::Date(cutoff),
            },
        ))
    });
    // Output = lineitem (11) ++ orders (4): o_orderdate at 13.
    let joined = dist_join(dbs, refs, bufs, stats, build, 0, probe, L_ORDERKEY);
    merge_at_home(
        dbs,
        refs,
        bufs,
        stats,
        joined,
        vec![L_ORDERKEY, 13],
        revenue_at(0),
        home,
        vec![
            SortKey { col: 2, desc: true },
            SortKey {
                col: 1,
                desc: false,
            },
        ],
    );
}

/// Distributed Q5: lineitem ⋈ orders(year-filtered) ⋈ customer ⋈
/// supplier, revenue per market segment. Same predicate draw as
/// `queries::q5`; the orders access is a partitioned hash join here
/// instead of the single-instance plan's B+Tree index join — an index
/// probe cannot cross instances, so the distributed plan repartitions
/// (the standard rewrite, and the honesty caveat DESIGN.md §9 records).
fn dist_q5(
    dbs: &[Database],
    hs: &[TpchDb],
    rng: &mut StdRng,
    refs: &mut [&mut TraceCtx],
    home: usize,
    bufs: &mut ExchangeBufs,
    stats: &mut DistStats,
) {
    let year_start: u32 = rng.gen_range(0..5) * 365;
    // Join 1: orders (year window) ⋈ lineitem on orderkey.
    let orders = frag_scan(dbs, refs, |p| {
        Box::new(Filter::new(
            Box::new(SeqScan::new(hs[p].orders)),
            Pred::And(vec![
                Pred::Cmp {
                    col: 2,
                    op: CmpOp::Ge,
                    val: Value::Date(year_start),
                },
                Pred::Cmp {
                    col: 2,
                    op: CmpOp::Lt,
                    val: Value::Date(year_start + 365),
                },
            ]),
        ))
    });
    let lineitem = frag_scan(dbs, refs, |p| Box::new(SeqScan::new(hs[p].lineitem)));
    // lineitem (11) ++ orders (4): o_custkey at 12.
    let li_orders = dist_join(dbs, refs, bufs, stats, orders, 0, lineitem, L_ORDERKEY);

    // Join 2: ++ customer (4): c_mktsegment at 18.
    let customer = frag_scan(dbs, refs, |p| Box::new(SeqScan::new(hs[p].customer)));
    let with_customer = dist_join(dbs, refs, bufs, stats, customer, 0, li_orders, 12);

    // Join 3: ++ supplier (3): 22 columns total.
    let supplier = frag_scan(dbs, refs, |p| Box::new(SeqScan::new(hs[p].supplier)));
    let with_supplier = dist_join(
        dbs,
        refs,
        bufs,
        stats,
        supplier,
        0,
        with_customer,
        L_SUPPKEY,
    );

    merge_at_home(
        dbs,
        refs,
        bufs,
        stats,
        with_supplier,
        vec![18],
        revenue_at(0),
        home,
        vec![SortKey { col: 1, desc: true }],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::queries::build_query;
    use crate::tpch::{build_tpch, tpch_rng};

    /// The distributed Q3/Q5 answers equal the single-instance plans'
    /// answers: same predicate draws, same aggregate totals, any
    /// instance count.
    #[test]
    fn distributed_answers_match_single_instance() {
        let scale = TpchScale::tiny();
        let seed = 0xD157;
        let (db, h) = build_tpch(scale, seed);
        for kind in [QueryKind::Q3, QueryKind::Q5] {
            // Reference: the single-instance plan, materialized.
            let mut rng = tpch_rng(seed, 0);
            let mut tc = db.null_ctx();
            let mut plan = build_query(kind, &h, &mut rng);
            let mut expect = run_to_vec(plan.as_mut(), &db, &mut tc).expect("reference");
            expect.sort();

            // Distributed: re-run the same draws through the dist
            // choreography at n=3 and materialize the merge by re-doing
            // it here from the shipped partials.
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
            let mut rng = tpch_rng(seed, 0);
            let got = match kind {
                QueryKind::Q3 => {
                    let cutoff = rng.gen_range(MAX_DATE / 4..3 * MAX_DATE / 4);
                    let build = frag_scan(&dbs, &mut refs, |p| {
                        Box::new(Filter::new(
                            Box::new(SeqScan::new(hs[p].orders)),
                            Pred::Cmp {
                                col: 2,
                                op: CmpOp::Lt,
                                val: Value::Date(cutoff),
                            },
                        ))
                    });
                    let probe = frag_scan(&dbs, &mut refs, |p| {
                        Box::new(Filter::new(
                            Box::new(SeqScan::new(hs[p].lineitem)),
                            Pred::Cmp {
                                col: L_SHIP,
                                op: CmpOp::Gt,
                                val: Value::Date(cutoff),
                            },
                        ))
                    });
                    let joined =
                        dist_join(&dbs, &mut refs, &mut bufs, &mut stats, build, 0, probe, 0);
                    materialize_merge(
                        &dbs,
                        &mut refs,
                        &mut bufs,
                        &mut stats,
                        joined,
                        vec![L_ORDERKEY, 13],
                        vec![
                            SortKey { col: 2, desc: true },
                            SortKey {
                                col: 1,
                                desc: false,
                            },
                        ],
                    )
                }
                _ => {
                    let year_start: u32 = rng.gen_range(0..5) * 365;
                    let orders = frag_scan(&dbs, &mut refs, |p| {
                        Box::new(Filter::new(
                            Box::new(SeqScan::new(hs[p].orders)),
                            Pred::And(vec![
                                Pred::Cmp {
                                    col: 2,
                                    op: CmpOp::Ge,
                                    val: Value::Date(year_start),
                                },
                                Pred::Cmp {
                                    col: 2,
                                    op: CmpOp::Lt,
                                    val: Value::Date(year_start + 365),
                                },
                            ]),
                        ))
                    });
                    let lineitem =
                        frag_scan(&dbs, &mut refs, |p| Box::new(SeqScan::new(hs[p].lineitem)));
                    let j1 = dist_join(
                        &dbs, &mut refs, &mut bufs, &mut stats, orders, 0, lineitem, 0,
                    );
                    let customer =
                        frag_scan(&dbs, &mut refs, |p| Box::new(SeqScan::new(hs[p].customer)));
                    let j2 = dist_join(&dbs, &mut refs, &mut bufs, &mut stats, customer, 0, j1, 12);
                    let supplier =
                        frag_scan(&dbs, &mut refs, |p| Box::new(SeqScan::new(hs[p].supplier)));
                    let j3 = dist_join(
                        &dbs, &mut refs, &mut bufs, &mut stats, supplier, 0, j2, L_SUPPKEY,
                    );
                    materialize_merge(
                        &dbs,
                        &mut refs,
                        &mut bufs,
                        &mut stats,
                        j3,
                        vec![18],
                        vec![SortKey { col: 1, desc: true }],
                    )
                }
            };
            let mut got = got;
            got.sort();
            assert_eq!(got, expect, "{kind:?} distributed answer diverged");
        }
    }

    /// Test-only variant of [`merge_at_home`] that returns the merged
    /// rows instead of counting them.
    fn materialize_merge(
        dbs: &[Database],
        refs: &mut [&mut TraceCtx],
        bufs: &mut ExchangeBufs,
        stats: &mut DistStats,
        joined: Vec<Vec<Row>>,
        group_cols: Vec<usize>,
        sort_keys: Vec<SortKey>,
    ) -> Vec<Row> {
        let n_groups = group_cols.len();
        let partials: Vec<Vec<Row>> = joined
            .into_iter()
            .enumerate()
            .map(|(p, rows)| {
                let mut plan = HashAggregate::new(
                    Box::new(Rows::new(rows)),
                    group_cols.clone(),
                    vec![AggSpec::sum(revenue_at(0))],
                );
                run_to_vec(&mut plan, &dbs[p], refs[p]).expect("partial aggregate")
            })
            .collect();
        let mut all = Vec::new();
        for (p, rows) in partials.iter().enumerate() {
            ship_rows(&mut stats.traffic, bufs, refs, p, 0, rows, &mut all);
        }
        let mut merged = Sort::new(
            Box::new(HashAggregate::new(
                Box::new(Rows::new(all)),
                (0..n_groups).collect(),
                vec![AggSpec::sum(Scalar::Col(n_groups))],
            )),
            sort_keys,
        );
        run_to_vec(&mut merged, &dbs[0], refs[0]).expect("merge")
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
