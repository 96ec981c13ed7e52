//! Distributed DSS capture: Q3/Q5 over N shared-nothing engine
//! instances with exchange operators between them.
//!
//! Each instance holds one range fragment of the TPC-H tables
//! ([`build_tpch_range`]) in its own
//! [`AddressSpace::partition`](dbcmp_trace::AddressSpace::partition)
//! window. A query unit runs as a choreography across the instances'
//! capture contexts:
//!
//! 1. every instance scans + filters its own fragments (compute stays
//!    where the data is);
//! 2. the exchange (`exchange`) picks broadcast or shuffle per
//!    join from the *global* post-filter build size and ships rows as
//!    `RemoteSend`/`RemoteRecv` traffic;
//! 3. each instance joins its post-exchange share (an ordinary
//!    [`HashJoin`] over [`Rows`] sources) and partially aggregates it;
//! 4. partials ship to the client's home instance, which merges and
//!    sorts them.
//!
//! At `instances = 1` the driver bypasses all of this: the (then
//! monolithic) fragment is captured by the code behind
//! [`crate::capture_dss`], so the 1-instance distributed capture is the
//! single-instance `dss_joins` capture, which `tests/validation.rs`
//! pins.
//!
//! Honesty caveats (DESIGN.md §9): phases are sequential — no overlap
//! of compute with shipping; and the exchange does not exploit
//! co-location (both sides re-route by hash even where the range owner
//! already holds the key), the plain Rödiger-style baseline.
//!
//! Instances are built and bundled by the scaffold `deploy` shares: one
//! [`TraceBundle`] per instance, holding its home clients' traces in
//! client order plus (for n > 1) the instance's service trace last.
//! Fragment *builds* parallelize across workers (each into its private
//! window). For n > 1 the capture itself is sequential in global client
//! order, because every unit drives every instance's service context;
//! at n = 1 the clients run in parallel as in
//! [`crate::capture_dss`]. Either way worker count
//! never leaks into the traces.

use dbcmp_engine::exec::sort::SortKey;
use dbcmp_engine::exec::{
    run_to_vec, AggFunc, AggSpec, ExchangeStrategy, HashAggregate, HashJoin, JoinKind, Pred, Rows,
    Scalar, Sort,
};
use dbcmp_engine::{Database, Row, TraceCtx};
use dbcmp_trace::TraceBundle;
use rand::rngs::StdRng;

use crate::capture::{available_workers, capture_dss_workers, CaptureOptions, DSS_SCRATCH_BYTES};
use crate::exchange::{
    choose_strategy, exchange_rows, rows_bytes, ship_rows, ExchangeBufs, ExchangeTraffic,
};
use crate::instances::{build_instances, bundle_instances};
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
    capture_dss_dist_workers(scale, mix, opt, available_workers())
}

/// [`capture_dss_dist`] with an explicit worker count. Workers
/// parallelize the per-instance fragment *builds* (each into its private
/// address window) and, at `instances = 1`, the clients of
/// [`crate::capture_dss`]; for n > 1 the capture runs
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

    let (spaces, frags) = build_instances(n, workers, |p, space| {
        build_tpch_range(scale, seed, p, n, space)
    })
    .unwrap_or_else(|e| panic!("instance windows: {e}"));
    let (mut dbs, hs): (Vec<Database>, Vec<TpchDb>) = frags.into_iter().unzip();
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
    let ctx = |p: usize| {
        let mut tc = dbs[p].trace_ctx();
        tc.set_scratch(spaces[p].reserve_arena(DSS_SCRATCH_BYTES));
        tc
    };
    let mut client_tcs: Vec<TraceCtx> = (0..opt.capture.clients).map(|c| ctx(c % n)).collect();
    let mut service_tcs: Vec<TraceCtx> = (0..n).map(ctx).collect();

    // Sequential capture in global client order.
    let mut stats = DistStats::default();
    for client in 0..opt.capture.clients {
        let mut rng = client_rng(seed ^ 0xD55, client);
        let home = client % n;
        for unit in 0..opt.capture.units_per_client {
            let kind = mix[(client + unit) % mix.len()];
            // The client's context stands in for its home instance's.
            let mut tcs: Vec<&mut TraceCtx> = service_tcs.iter_mut().collect();
            tcs[home] = &mut client_tcs[client];
            let borrows = DistUnit {
                dbs: &dbs,
                tcs,
                bufs: &mut bufs,
                stats: &mut stats,
                home,
            };
            borrows.run(&hs[home], kind, &mut rng);
        }
    }

    let clients = client_tcs.into_iter().enumerate();
    let clients = clients.map(|(client, tc)| (client % n, tc.finish()));
    let service = service_tcs.into_iter().map(|tc| Some(tc.finish()));
    let bundles = bundle_instances(&dbs, clients, service);
    DistCapture { bundles, stats }
}

/// One distributed query unit's borrows: every instance's database and
/// capture context (`tcs[home]` is the client's, which stands in for its
/// home instance), the exchange buffers, and the capture's statistics.
struct DistUnit<'a> {
    dbs: &'a [Database],
    tcs: Vec<&'a mut TraceCtx>,
    bufs: &'a mut ExchangeBufs,
    stats: &'a mut DistStats,
    home: usize,
}

impl DistUnit<'_> {
    /// Run one `kind` query, its predicates drawn from `rng` against the
    /// home fragment's handles `h`, then close the unit.
    fn run(mut self, h: &TpchDb, kind: QueryKind, rng: &mut StdRng) {
        let home = self.home;
        self.dbs[home].statement_overhead(self.tcs[home]);
        let (spec, order) = join_query(kind, h, rng);
        let merged = self.query(&spec, order);
        debug_assert!(
            !merged.is_empty(),
            "{kind:?}: no groups — broken predicate draw?"
        );
        // Close the choreography: every service instance fences so its
        // next unit's traffic cannot reorder past this one's.
        for (p, tc) in self.tcs.iter_mut().enumerate() {
            if p != home {
                tc.fence();
            }
        }
        self.tcs[home].unit_end();
        self.stats.units += 1;
    }

    /// Run one join statement across the instances, split scan →
    /// exchange → join → partial aggregate → merge: for each join of the
    /// chain, scan its build side on every fragment (and, for the first
    /// join only, then the probe table), exchange, and join each
    /// instance's share; then merge at home. Returns the merged rows in
    /// `order`.
    fn query(&mut self, spec: &PipelineSpec, order: Vec<SortKey>) -> Vec<Row> {
        let mut joined: Option<Vec<Vec<Row>>> = None;
        for j in &spec.joins {
            let build = self.frag_scan(j.build_table, &j.build_pred);
            let probe = match joined {
                Some(rows) => rows,
                None => self.frag_scan(spec.table, &spec.pred),
            };
            joined = Some(self.join(build, j.build_key, probe, j.probe_key));
        }
        let joined = joined.expect("a join statement joins at least once");
        self.merge_at_home(joined, spec, order)
    }

    /// Scan `table` filtered by `pred` on every instance's fragment,
    /// returning the per-instance row sets.
    fn frag_scan(&mut self, table: usize, pred: &Pred) -> Vec<Vec<Row>> {
        (self.dbs.iter().zip(&mut self.tcs))
            .map(|(db, tc)| {
                let mut plan = scan(table, pred.clone());
                run_to_vec(plan.as_mut(), db, tc).expect("fragment scan")
            })
            .collect()
    }

    /// One distributed join: choose the exchange strategy from the global
    /// post-filter build size, exchange, then join each instance's share.
    /// Returns the per-instance join outputs (probe ++ build columns).
    ///
    /// The strategy tally is exhaustive over [`ExchangeStrategy`] by
    /// design: a missing variant fails the build and a `_ =>` arm fails
    /// clippy.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn join(
        &mut self,
        build_frags: Vec<Vec<Row>>,
        build_key: usize,
        probe_frags: Vec<Vec<Row>>,
        probe_key: usize,
    ) -> Vec<Vec<Row>> {
        let build_bytes: u64 = build_frags.iter().map(|f| rows_bytes(f)).sum();
        let strategy = choose_strategy(build_bytes);
        match strategy {
            ExchangeStrategy::Broadcast => self.stats.broadcasts += 1,
            ExchangeStrategy::Shuffle => self.stats.shuffles += 1,
        }
        let (builds, probes, traffic) = exchange_rows(
            strategy,
            self.bufs,
            &mut self.tcs,
            build_frags,
            build_key,
            probe_frags,
            probe_key,
        );
        self.stats.traffic.merge(&traffic);
        (builds.into_iter().zip(probes))
            .zip(self.dbs.iter().zip(&mut self.tcs))
            .map(|((b, pr), (db, tc))| {
                // `Rows` charges nothing: the rows' production was paid at
                // the fragment scans and their shipping at the exchange.
                let mut join = HashJoin::new(
                    Box::new(Rows::new(b)),
                    build_key,
                    Box::new(Rows::new(pr)),
                    probe_key,
                    JoinKind::Inner,
                );
                run_to_vec(&mut join, db, tc).expect("distributed join")
            })
            .collect()
    }

    /// Partially aggregate each instance's join output by `spec`'s groups
    /// and aggregates, ship the partials home, and merge and sort them
    /// there. The merge re-groups on the partials' group columns and sums
    /// each partial SUM.
    fn merge_at_home(
        &mut self,
        joined: Vec<Vec<Row>>,
        spec: &PipelineSpec,
        order: Vec<SortKey>,
    ) -> Vec<Row> {
        debug_assert!(
            spec.aggs.iter().all(|a| a.func == AggFunc::Sum),
            "the merge sums partial aggregates, so every aggregate is a SUM"
        );
        let partials: Vec<Vec<Row>> = joined
            .into_iter()
            .zip(self.dbs.iter().zip(&mut self.tcs))
            .map(|(rows, (db, tc))| {
                let mut plan = HashAggregate::new(
                    Box::new(Rows::new(rows)),
                    spec.group_cols.clone(),
                    spec.aggs.clone(),
                );
                run_to_vec(&mut plan, db, tc).expect("partial aggregate")
            })
            .collect();
        let (home, mut all) = (self.home, Vec::new());
        for (p, rows) in partials.into_iter().enumerate() {
            let traffic = &mut self.stats.traffic;
            ship_rows(traffic, self.bufs, &mut self.tcs, p, home, rows, &mut all);
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
        run_to_vec(&mut merged, &self.dbs[home], self.tcs[home]).expect("coordinator merge")
    }
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
        let (spaces, frags) =
            build_instances(n, 1, |p, space| build_tpch_range(scale, seed, p, n, space)).unwrap();
        let (dbs, hs): (Vec<_>, Vec<_>) = frags.into_iter().unzip();
        let mut bufs = ExchangeBufs::reserve(&spaces);
        let mut ctxs: Vec<_> = dbs.iter().map(|d| d.trace_ctx()).collect();
        let mut stats = DistStats::default();
        for kind in QueryKind::JOINS {
            let mut plan = build_query(kind, &h, &mut tpch_rng(seed, 0));
            let mut expect = run_to_vec(plan.as_mut(), &db, &mut db.null_ctx()).expect("reference");
            let (spec, order) = join_query(kind, &hs[0], &mut tpch_rng(seed, 0));
            let mut unit = DistUnit {
                dbs: &dbs,
                tcs: ctxs.iter_mut().collect(),
                bufs: &mut bufs,
                stats: &mut stats,
                home: 0,
            };
            let mut got = unit.query(&spec, order);
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
        let all: Vec<_> = cap.bundles.iter().flat_map(|b| &b.threads).collect();
        let sends: u64 = all.iter().map(|t| t.counts().remote_sends).sum();
        let recvs: u64 = all.iter().map(|t| t.counts().remote_recvs).sum();
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
