//! Trace capture for staged vs conventional execution.
//!
//! Staged DSS capture stays sequential even now that OLTP capture is
//! interleaved (`dbcmp_workloads::interleave`): the pipelines here take
//! no row locks (degree-2 reporting reads), so there is no 2PL
//! contention to express — the interesting axes are batching,
//! producer/consumer affinity, and (since the join extension) build-table
//! residency, captured below. See DESIGN.md §3–§4.

use std::fmt;

use dbcmp_engine::exec::{AggSpec, CmpOp, Pred, Scalar};
use dbcmp_engine::{Database, Value};
use dbcmp_trace::TraceBundle;
use dbcmp_workloads::tpch::queries::{
    join_query, PipelineSpec, L_DISC, L_LSTAT, L_PRICE, L_QTY, L_RFLAG, L_SHIP,
};
use dbcmp_workloads::tpch::{QueryKind, TpchDb, MAX_DATE};
use rand::rngs::StdRng;
use rand::Rng;

use crate::pipeline::{ExecPolicy, StagedPipeline};

/// A query shape the staged pipeline cannot express. Returned by
/// [`capture_staged_dss`] instead of silently substituting a different query
/// (the pre-join code captured a Q6 for *any* unsupported kind, which
/// made "join" captures quietly scan-shaped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedQuery {
    /// The query kind that has no staged pipeline shape.
    pub(crate) kind: QueryKind,
}

impl fmt::Display for UnsupportedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no staged pipeline for {:?}: the staged engine covers \
             scan→filter→[join…]→aggregate shapes (Q1, Q6, Q3, Q5)",
            self.kind
        )
    }
}

impl std::error::Error for UnsupportedQuery {}

/// Build the pipeline spec for one query instance. Q3/Q5 are the shared
/// [`join_query`] statement, whose Q5 is a hash-join chain (the staged
/// engine stages hash tables, not B+Tree descents). Q1/Q6 are the
/// scan-shaped pipelines, stated here because they are not the
/// executor's Q1/Q6: Q1 keeps 4 of its 8 aggregates and no sort, Q6 has
/// no quantity predicate (two draws, not three). Stating them once moves
/// the pinned staged captures, so it waits for the next golden re-take.
/// Queries whose plans need operators outside the
/// scan→filter→\[join…\]→aggregate shape (Q13's outer-join double
/// aggregate, Q16's anti-join distinct) return [`UnsupportedQuery`].
pub(crate) fn pipeline_for(
    kind: QueryKind,
    h: &TpchDb,
    rng: &mut StdRng,
) -> Result<PipelineSpec, UnsupportedQuery> {
    match kind {
        QueryKind::Q1 => {
            let delta = rng.gen_range(60..=120);
            let disc_price = Scalar::MulDec(
                Box::new(Scalar::Col(L_PRICE)),
                Box::new(Scalar::Sub(
                    Box::new(Scalar::ConstDec(100)),
                    Box::new(Scalar::Col(L_DISC)),
                )),
            );
            Ok(PipelineSpec {
                table: h.lineitem,
                pred: Pred::Cmp {
                    col: L_SHIP,
                    op: CmpOp::Le,
                    val: Value::Date(MAX_DATE - delta),
                },
                joins: vec![],
                group_cols: vec![L_RFLAG, L_LSTAT],
                aggs: vec![
                    AggSpec::sum(Scalar::Col(L_QTY)),
                    AggSpec::sum(Scalar::Col(L_PRICE)),
                    AggSpec::sum(disc_price),
                    AggSpec::count(),
                ],
            })
        }
        QueryKind::Q6 => {
            let year_start = rng.gen_range(0..5) * 365;
            let disc = rng.gen_range(2..=9);
            Ok(PipelineSpec {
                table: h.lineitem,
                pred: Pred::And(vec![
                    Pred::Cmp {
                        col: L_SHIP,
                        op: CmpOp::Ge,
                        val: Value::Date(year_start),
                    },
                    Pred::Cmp {
                        col: L_SHIP,
                        op: CmpOp::Lt,
                        val: Value::Date(year_start + 365),
                    },
                    Pred::Between {
                        col: L_DISC,
                        lo: Value::Decimal(disc - 1),
                        hi: Value::Decimal(disc + 1),
                    },
                ]),
                joins: vec![],
                group_cols: vec![],
                aggs: vec![AggSpec::sum(Scalar::MulDec(
                    Box::new(Scalar::Col(L_PRICE)),
                    Box::new(Scalar::Col(L_DISC)),
                ))],
            })
        }
        QueryKind::Q3 | QueryKind::Q5 => Ok(join_query(kind, h, rng).0),
        QueryKind::Q13 | QueryKind::Q16 => Err(UnsupportedQuery { kind }),
    }
}

/// Capture `queries` DSS query executions under `policy`. Returns one
/// bundle whose threads are: for Volcano/Staged — one per client; for
/// StagedParallel — producers + consumer interleaved (consumer first).
/// Fails with [`UnsupportedQuery`] when `kinds` contains a query the
/// staged engine cannot pipeline.
pub fn capture_staged_dss(
    db: &mut Database,
    h: &TpchDb,
    kinds: &[QueryKind],
    policy: ExecPolicy,
    queries: usize,
    seed: u64,
) -> Result<TraceBundle, UnsupportedQuery> {
    let mut rng = dbcmp_workloads::tpch::tpch_rng(seed, 0);
    let mut tcs: Vec<_> = (0..contexts(policy)).map(|_| db.trace_ctx()).collect();
    for q in 0..queries {
        let spec = pipeline_for(kinds[q % kinds.len()], h, &mut rng)?;
        db.statement_overhead(&mut tcs[0]);
        StagedPipeline::new(spec).run(db, policy, &mut tcs);
        tcs[0].unit_end();
    }
    Ok(TraceBundle::new(
        db.regions().clone(),
        tcs.into_iter().map(|t| t.finish()).collect(),
    ))
}

/// Hardware contexts a policy runs on: the consumer, plus one per
/// producer under [`ExecPolicy::StagedParallel`].
fn contexts(policy: ExecPolicy) -> usize {
    match policy {
        ExecPolicy::Volcano | ExecPolicy::Staged { .. } => 1,
        ExecPolicy::StagedParallel { producers, .. } => producers + 1,
    }
}

/// Run one query under a policy and return its rows (results check).
/// Panics on queries the staged engine cannot pipeline — use
/// [`pipeline_for`] directly to handle [`UnsupportedQuery`].
#[cfg(test)]
fn staged_query_rows(
    db: &mut Database,
    h: &TpchDb,
    kind: QueryKind,
    policy: ExecPolicy,
    seed: u64,
) -> Vec<Vec<Value>> {
    let mut rng = dbcmp_workloads::tpch::tpch_rng(seed, 9);
    let spec = pipeline_for(kind, h, &mut rng).expect("staged-pipelineable query");
    let mut tcs: Vec<_> = (0..contexts(policy)).map(|_| db.null_ctx()).collect();
    StagedPipeline::new(spec).run(db, policy, &mut tcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcmp_workloads::tpch::{build_tpch, TpchScale};

    #[test]
    fn policies_agree_on_query_results() {
        let (mut db, h) = build_tpch(TpchScale::tiny(), 51);
        let sort = |mut v: Vec<Vec<Value>>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        for kind in [QueryKind::Q1, QueryKind::Q3, QueryKind::Q5] {
            let v = sort(staged_query_rows(&mut db, &h, kind, ExecPolicy::Volcano, 1));
            let s = sort(staged_query_rows(
                &mut db,
                &h,
                kind,
                ExecPolicy::Staged { batch: 64 },
                1,
            ));
            let p = sort(staged_query_rows(
                &mut db,
                &h,
                kind,
                ExecPolicy::StagedParallel {
                    batch: 64,
                    producers: 3,
                },
                1,
            ));
            assert_eq!(v, s, "{kind:?}");
            assert_eq!(v, p, "{kind:?}");
            assert!(!v.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn staged_join_agrees_with_volcano_executor_plan() {
        // The staged Q3 pipeline and the engine's Q3 executor plan run
        // the same `join_query` statement through different operators;
        // their results must agree on the same predicate draw.
        let (mut db, h) = build_tpch(TpchScale::tiny(), 77);
        let staged = {
            let mut rows = staged_query_rows(
                &mut db,
                &h,
                QueryKind::Q3,
                ExecPolicy::Staged { batch: 128 },
                4,
            );
            rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rows
        };
        let volcano = {
            let mut rng = dbcmp_workloads::tpch::tpch_rng(4, 9);
            let mut tc = db.null_ctx();
            let mut plan = dbcmp_workloads::tpch::queries::q3(&h, &mut rng);
            let mut rows = dbcmp_engine::exec::run_to_vec(plan.as_mut(), &db, &mut tc).unwrap();
            // Executor rows are (orderkey, odate, revenue); staged rows
            // group the same way but are unsorted — normalize both.
            rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rows
        };
        assert_eq!(staged.len(), volcano.len());
        let staged_total: i64 = staged.iter().map(|r| r[2].as_i64().unwrap()).sum();
        let volcano_total: i64 = volcano.iter().map(|r| r[2].as_i64().unwrap()).sum();
        assert_eq!(staged_total, volcano_total);
    }

    #[test]
    fn unsupported_kinds_are_typed_errors() {
        let (_, h) = build_tpch(TpchScale::tiny(), 51);
        let mut rng = dbcmp_workloads::tpch::tpch_rng(51, 0);
        for kind in [QueryKind::Q13, QueryKind::Q16] {
            let err = pipeline_for(kind, &h, &mut rng).unwrap_err();
            assert_eq!(err.kind, kind);
            assert!(err.to_string().contains("no staged pipeline"));
        }
        // And the capture surfaces it instead of capturing a Q6.
        let (mut db, h) = build_tpch(TpchScale::tiny(), 51);
        let res = capture_staged_dss(
            &mut db,
            &h,
            &[QueryKind::Q1, QueryKind::Q13],
            ExecPolicy::Volcano,
            2,
            1,
        );
        assert_eq!(
            res.unwrap_err(),
            UnsupportedQuery {
                kind: QueryKind::Q13
            }
        );
    }

    #[test]
    fn capture_thread_counts_match_policy() {
        let (mut db, h) = build_tpch(TpchScale::tiny(), 52);
        let b1 = capture_staged_dss(&mut db, &h, &[QueryKind::Q6], ExecPolicy::Volcano, 2, 1)
            .expect("scan capture");
        assert_eq!(b1.threads.len(), 1);
        assert_eq!(b1.total_units(), 2);

        let b2 = capture_staged_dss(
            &mut db,
            &h,
            &[QueryKind::Q6],
            ExecPolicy::StagedParallel {
                batch: 64,
                producers: 3,
            },
            2,
            1,
        )
        .expect("scan capture");
        assert_eq!(b2.threads.len(), 4);
        // Work must be distributed: producers carry most instructions.
        let cons = b2.threads[0].instrs();
        let prod: u64 = b2.threads[1..].iter().map(|t| t.instrs()).sum();
        assert!(
            prod > cons,
            "producers {prod} should outweigh consumer {cons}"
        );
    }

    #[test]
    fn join_capture_charges_hashjoin_region() {
        let (mut db, h) = build_tpch(TpchScale::tiny(), 53);
        let bundle = capture_staged_dss(
            &mut db,
            &h,
            &[QueryKind::Q3, QueryKind::Q5],
            ExecPolicy::Staged { batch: 128 },
            2,
            1,
        )
        .expect("join capture");
        assert!(
            bundle.region_instrs("exec-hashjoin") > 0,
            "join captures must charge hash build/probe instructions"
        );
    }
}
