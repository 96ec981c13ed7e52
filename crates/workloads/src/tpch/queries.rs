//! The paper's four TPC-H queries as executor plans, with random
//! predicates (paper §3: "each with random predicates"), and
//! [`join_query`], the one statement of the join extension's Q3 and Q5
//! that the executor, staged and distributed captures all plan from.
//!
//! Column indexes refer to the schemas in [`super`].

use dbcmp_engine::exec::sort::SortKey;
use dbcmp_engine::exec::{
    AggSpec, BoxExec, CmpOp, Filter, HashAggregate, HashJoin, IndexJoin, JoinKind, Pred, Scalar,
    SeqScan, Sort,
};
use dbcmp_engine::Value;
use rand::rngs::StdRng;
use rand::Rng;

use super::{QueryKind, TpchDb, MAX_DATE};

// lineitem columns (the staged scan pipelines read the public ones)
pub(crate) const L_ORDERKEY: usize = 0;
pub(crate) const L_SUPPKEY: usize = 2;
pub const L_QTY: usize = 4;
pub const L_PRICE: usize = 5;
pub const L_DISC: usize = 6;
pub(crate) const L_TAX: usize = 7;
pub const L_RFLAG: usize = 8;
pub const L_LSTAT: usize = 9;
pub const L_SHIP: usize = 10;

/// `l_extendedprice * (1 - l_discount)`: the revenue Q3 and Q5 sum, and
/// Q1's discounted price.
fn revenue() -> Scalar {
    Scalar::MulDec(
        Box::new(Scalar::Col(L_PRICE)),
        Box::new(Scalar::Sub(
            Box::new(Scalar::ConstDec(100)),
            Box::new(Scalar::Col(L_DISC)),
        )),
    )
}

/// One hash join of a left-deep chain: `build_table`'s rows that pass
/// `build_pred` are hashed on `build_key`, and the row joined so far
/// probes them on `probe_key`; a match appends the build row.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Build-side table.
    pub build_table: usize,
    /// Filter applied to build rows before insertion.
    pub build_pred: Pred,
    /// Join-key column in the build row.
    pub build_key: usize,
    /// Join-key column in the current combined probe row.
    pub probe_key: usize,
}

/// A scan→filter→\[join…\]→aggregate statement (the staged Q1/Q6 with
/// an empty join chain; [`join_query`]'s Q3/Q5 with one and three
/// [`JoinSpec`]s).
///
/// `pred` applies to the scanned row (filter pushdown below the joins);
/// `group_cols`/`aggs` index the final combined row (scan row ++ build
/// rows of every join, in chain order).
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Probe-side (scanned) table.
    pub table: usize,
    /// Scan filter, applied before any join.
    pub pred: Pred,
    /// Hash-join chain (empty for pure scan pipelines).
    pub joins: Vec<JoinSpec>,
    /// Group-by columns into the final combined row.
    pub group_cols: Vec<usize>,
    /// Aggregates over the final combined row.
    pub aggs: Vec<AggSpec>,
}

/// Q3 and Q5 of the join extension, stated once: the predicate draw, the
/// filtered scan, the left-deep hash-join chain, the group columns, the
/// SUM aggregates, and (returned beside the statement) the output order.
/// The executor's [`q3`], the staged engine and the distributed capture
/// all plan from it; the executor's [`q5`] keeps its own index-join plan.
///
/// Panics on any other kind.
pub fn join_query(kind: QueryKind, h: &TpchDb, rng: &mut StdRng) -> (PipelineSpec, Vec<SortKey>) {
    let date = |col, op, day| Pred::Cmp {
        col,
        op,
        val: Value::Date(day),
    };
    match kind {
        // Shipping priority: revenue per order of the lineitems shipped
        // after a cutoff whose order was placed before it. The build-side
        // hash table (those orders) is the cache-residency knob: its
        // working set scales with the orders population, not with the
        // lineitem scan the probe streams through.
        QueryKind::Q3 => {
            // The spec draws a date in [1995-03-01, 1995-03-31]; our
            // population spans day 0..MAX_DATE, so draw a cutoff in the
            // middle half.
            let cutoff = rng.gen_range(MAX_DATE / 4..3 * MAX_DATE / 4);
            let spec = PipelineSpec {
                table: h.lineitem,
                pred: date(L_SHIP, CmpOp::Gt, cutoff),
                joins: vec![JoinSpec {
                    build_table: h.orders,
                    build_pred: date(2, CmpOp::Lt, cutoff), // o_orderdate
                    build_key: 0,                           // o_orderkey
                    probe_key: L_ORDERKEY,
                }],
                // lineitem (11 cols) ++ orders (4): o_orderdate at 13.
                group_cols: vec![L_ORDERKEY, 13],
                aggs: vec![AggSpec::sum(revenue())],
            };
            // Highest-revenue orders first (spec: ORDER BY revenue DESC,
            // o_orderdate).
            let order = vec![
                SortKey { col: 2, desc: true },
                SortKey {
                    col: 1,
                    desc: false,
                },
            ];
            (spec, order)
        }
        // Local-supplier volume: lineitem joined with the orders of one
        // year, their customers and the suppliers, revenue per market
        // segment (our stand-in for the spec's nation grouping; the
        // schema carries no nation column).
        QueryKind::Q5 => {
            let year_start = rng.gen_range(0..5) * 365;
            let spec = PipelineSpec {
                table: h.lineitem,
                pred: Pred::True,
                joins: vec![
                    // ++ orders (4): the year window filters the build
                    // side, so only in-window orders enter the hash
                    // table; o_custkey at 12.
                    JoinSpec {
                        build_table: h.orders,
                        build_pred: Pred::And(vec![
                            date(2, CmpOp::Ge, year_start),
                            date(2, CmpOp::Lt, year_start + 365),
                        ]),
                        build_key: 0,
                        probe_key: L_ORDERKEY,
                    },
                    // ++ customer (4): c_mktsegment at 18.
                    JoinSpec {
                        build_table: h.customer,
                        build_pred: Pred::True,
                        build_key: 0,
                        probe_key: 12,
                    },
                    // ++ supplier (3): 22 columns total.
                    JoinSpec {
                        build_table: h.supplier,
                        build_pred: Pred::True,
                        build_key: 0,
                        probe_key: L_SUPPKEY,
                    },
                ],
                group_cols: vec![18],
                aggs: vec![AggSpec::sum(revenue())],
            };
            (spec, vec![SortKey { col: 1, desc: true }])
        }
        QueryKind::Q1 | QueryKind::Q6 | QueryKind::Q13 | QueryKind::Q16 => {
            panic!("{kind:?} is not a join query (join_query states Q3 and Q5)")
        }
    }
}

/// A sequential scan of `table`, wrapped in a [`Filter`] unless `pred`
/// is [`Pred::True`].
pub(crate) fn scan(table: usize, pred: Pred) -> BoxExec {
    let scan = Box::new(SeqScan::new(table));
    match pred {
        Pred::True => scan,
        pred => Box::new(Filter::new(scan, pred)),
    }
}

/// Build the plan for one query instance.
pub fn build_query(kind: QueryKind, h: &TpchDb, rng: &mut StdRng) -> BoxExec {
    match kind {
        QueryKind::Q1 => q1(h, rng),
        QueryKind::Q3 => q3(h, rng),
        QueryKind::Q5 => q5(h, rng),
        QueryKind::Q6 => q6(h, rng),
        QueryKind::Q13 => q13(h, rng),
        QueryKind::Q16 => q16(h, rng),
    }
}

/// Q1 — pricing summary report: scan lineitem, filter by ship date,
/// group by (returnflag, linestatus), eight aggregates, sort.
pub fn q1(h: &TpchDb, rng: &mut StdRng) -> BoxExec {
    // DELTA in [60, 120] days before the data's end date.
    let delta = rng.gen_range(60..=120);
    let cutoff = MAX_DATE - delta;
    let scan = Box::new(SeqScan::new(h.lineitem));
    let filtered = Box::new(Filter::new(
        scan,
        Pred::Cmp {
            col: L_SHIP,
            op: CmpOp::Le,
            val: Value::Date(cutoff),
        },
    ));
    let disc_price = revenue();
    let charge = Scalar::MulDec(
        Box::new(disc_price.clone()),
        Box::new(Scalar::Add(
            Box::new(Scalar::ConstDec(100)),
            Box::new(Scalar::Col(L_TAX)),
        )),
    );
    let agg = Box::new(HashAggregate::new(
        filtered,
        vec![L_RFLAG, L_LSTAT],
        vec![
            AggSpec::sum(Scalar::Col(L_QTY)),
            AggSpec::sum(Scalar::Col(L_PRICE)),
            AggSpec::sum(disc_price),
            AggSpec::sum(charge),
            AggSpec::avg(Scalar::Col(L_QTY)),
            AggSpec::avg(Scalar::Col(L_PRICE)),
            AggSpec::avg(Scalar::Col(L_DISC)),
            AggSpec::count(),
        ],
    ));
    Box::new(Sort::new(
        agg,
        vec![
            SortKey {
                col: 0,
                desc: false,
            },
            SortKey {
                col: 1,
                desc: false,
            },
        ],
    ))
}

/// Q3 — shipping priority, planned from [`join_query`]: a left-deep
/// [`HashJoin`] chain over the filtered scans, then [`HashAggregate`]
/// and [`Sort`].
pub fn q3(h: &TpchDb, rng: &mut StdRng) -> BoxExec {
    let (spec, order) = join_query(QueryKind::Q3, h, rng);
    let mut plan = scan(spec.table, spec.pred);
    for j in spec.joins {
        let build = scan(j.build_table, j.build_pred);
        plan = Box::new(HashJoin::new(
            build,
            j.build_key,
            plan,
            j.probe_key,
            JoinKind::Inner,
        ));
    }
    let grouped = HashAggregate::new(plan, spec.group_cols, spec.aggs);
    Box::new(Sort::new(Box::new(grouped), order))
}

/// Q5 — local-supplier volume, the executor's own plan: lineitem probes
/// the orders B+Tree through an **index-nested-loop** join (a
/// dependent-load descent per lineitem — the OLTP-like pointer chase
/// inside a DSS plan), then two hash joins pick up customer and
/// supplier, and revenue aggregates per market segment. It restates
/// [`join_query`]'s Q5 instead of planning from it because `fig_islands`'
/// B+Tree-descent and nested-loop claims are about this index join; the
/// staged and distributed captures, which cannot descend a B+Tree
/// (staged stages hash tables; an index probe cannot cross instances),
/// plan the hash-join statement.
pub fn q5(h: &TpchDb, rng: &mut StdRng) -> BoxExec {
    let year_start = rng.gen_range(0..5) * 365;
    // lineitem (11) ++ orders (4): o_custkey at 12, o_orderdate at 13.
    let li_orders = Box::new(IndexJoin::new(
        Box::new(SeqScan::new(h.lineitem)),
        L_ORDERKEY,
        h.idx_orders,
    ));
    let dated = Box::new(Filter::new(
        li_orders,
        Pred::And(vec![
            Pred::Cmp {
                col: 13,
                op: CmpOp::Ge,
                val: Value::Date(year_start),
            },
            Pred::Cmp {
                col: 13,
                op: CmpOp::Lt,
                val: Value::Date(year_start + 365),
            },
        ]),
    ));
    // ++ customer (4): c_mktsegment at 18.
    let with_customer = Box::new(HashJoin::new(
        Box::new(SeqScan::new(h.customer)),
        0, // c_custkey
        dated,
        12, // o_custkey
        JoinKind::Inner,
    ));
    // ++ supplier (3): 22 columns total.
    let with_supplier = Box::new(HashJoin::new(
        Box::new(SeqScan::new(h.supplier)),
        0, // s_suppkey
        with_customer,
        L_SUPPKEY,
        JoinKind::Inner,
    ));
    let grouped = Box::new(HashAggregate::new(
        with_supplier,
        vec![18],
        vec![AggSpec::sum(revenue())],
    ));
    Box::new(Sort::new(grouped, vec![SortKey { col: 1, desc: true }]))
}

/// Q6 — forecasting revenue change: highly selective scan with three
/// range predicates, single SUM.
pub fn q6(h: &TpchDb, rng: &mut StdRng) -> BoxExec {
    let year_start = rng.gen_range(0..5) * 365;
    let disc = rng.gen_range(2..=9); // 0.02-0.09
    let qty = rng.gen_range(24..=25) * 100;
    let scan = Box::new(SeqScan::new(h.lineitem));
    let filtered = Box::new(Filter::new(
        scan,
        Pred::And(vec![
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
            Pred::Cmp {
                col: L_QTY,
                op: CmpOp::Lt,
                val: Value::Decimal(qty),
            },
        ]),
    ));
    let revenue = Scalar::MulDec(
        Box::new(Scalar::Col(L_PRICE)),
        Box::new(Scalar::Col(L_DISC)),
    );
    Box::new(HashAggregate::new(
        filtered,
        vec![],
        vec![AggSpec::sum(revenue)],
    ))
}

/// Q13 — customer distribution: customer LEFT OUTER JOIN orders (comment
/// NOT LIKE '%word1%word2%'), count orders per customer, then distribute.
pub fn q13(h: &TpchDb, rng: &mut StdRng) -> BoxExec {
    // The spec draws word pairs; our generator embeds one matching phrase.
    let (w1, w2) = [
        ("special", "requests"),
        ("special", "care"),
        ("customer", "urgently"),
    ][rng.gen_range(0..3)];
    // Build side: filtered orders. Probe: customers (preserved).
    // NOT LIKE '%w1%w2%' rewritten as OR of negated containment (either
    // word missing suffices).
    let orders = Box::new(Filter::new(
        Box::new(SeqScan::new(h.orders)),
        Pred::Or(vec![
            Pred::StrContains {
                col: 3,
                needle: w1.into(),
                negate: true,
            },
            Pred::StrContains {
                col: 3,
                needle: w2.into(),
                negate: true,
            },
        ]),
    ));
    let customers = Box::new(SeqScan::new(h.customer));
    // customer row: 4 cols; orders row appended: o_orderkey at index 4.
    let join = Box::new(HashJoin::new(
        orders,
        1, /*o_custkey*/
        customers,
        0,
        JoinKind::LeftOuter,
    ));
    // count orders per customer (NULL orderkey ⇒ 0).
    let per_customer = Box::new(HashAggregate::new(
        join,
        vec![0],
        vec![AggSpec::count_non_null(Scalar::Col(4))],
    ));
    // distribution: group by order count, count customers.
    let dist = Box::new(HashAggregate::new(
        per_customer,
        vec![1],
        vec![AggSpec::count()],
    ));
    Box::new(Sort::new(
        dist,
        vec![
            SortKey { col: 1, desc: true },
            SortKey { col: 0, desc: true },
        ],
    ))
}

/// Q16 — parts/supplier relationship: part ⋈ partsupp with brand/type/size
/// exclusions; count distinct suppliers per (brand, type, size). The
/// spec's anti-join against complaint suppliers is not run: the plan
/// counts every supplier of a matching part (ROADMAP 10(g)).
pub fn q16(h: &TpchDb, rng: &mut StdRng) -> BoxExec {
    let brand = format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
    let type_prefix = ["ECONOMY", "STANDARD", "PROMO"][rng.gen_range(0..3)];
    let sizes: Vec<Value> = {
        let mut s: Vec<i64> = (1..=50).collect();
        // pick 8 distinct sizes
        for i in 0..8 {
            let j = rng.gen_range(i..s.len());
            s.swap(i, j);
        }
        s[..8].iter().map(|&v| Value::Int(v)).collect()
    };
    let part = Box::new(Filter::new(
        Box::new(SeqScan::new(h.part)),
        Pred::And(vec![
            Pred::Cmp {
                col: 1,
                op: CmpOp::Ne,
                val: Value::Str(brand),
            },
            Pred::StrPrefix {
                col: 2,
                prefix: type_prefix.into(),
                negate: true,
            },
            Pred::In { col: 3, set: sizes },
        ]),
    ));
    let partsupp = Box::new(SeqScan::new(h.partsupp));
    // probe partsupp against filtered parts: output = partsupp ++ part.
    let join = Box::new(HashJoin::new(part, 0, partsupp, 0, JoinKind::Inner));
    // partsupp row: 4 cols; part row at 4..8 (brand 5, type 6, size 7).
    let grouped = Box::new(HashAggregate::new(
        join,
        vec![5, 6, 7],
        vec![AggSpec::count_distinct(Scalar::Col(1))],
    ));
    Box::new(Sort::new(
        grouped,
        vec![
            SortKey { col: 3, desc: true },
            SortKey {
                col: 0,
                desc: false,
            },
        ],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{build_tpch, tpch_rng, TpchScale};
    use dbcmp_engine::exec::run_to_vec;
    use dbcmp_engine::Database;

    fn setup() -> (Database, TpchDb, StdRng) {
        let (db, h) = build_tpch(TpchScale::tiny(), 21);
        let rng = tpch_rng(21, 0);
        (db, h, rng)
    }

    #[test]
    fn q1_produces_flag_groups() {
        let (db, h, mut rng) = setup();
        let mut tc = db.null_ctx();
        let mut plan = q1(&h, &mut rng);
        let rows = run_to_vec(plan.as_mut(), &db, &mut tc).unwrap();
        // 3 return flags x 2 line statuses = up to 6 groups.
        assert!((1..=6).contains(&rows.len()), "groups={}", rows.len());
        // Each row: 2 group cols + 8 aggregates.
        assert_eq!(rows[0].len(), 10);
        // sum(qty) positive, count positive.
        assert!(rows[0][2].as_i64().unwrap() > 0);
        assert!(rows[0][9].as_i64().unwrap() > 0);
        // Sorted by flags.
        for w in rows.windows(2) {
            assert!(w[0][0] <= w[1][0]);
        }
    }

    #[test]
    fn q6_revenue_matches_manual_computation() {
        let (db, h, mut rng) = setup();
        let mut tc = db.null_ctx();
        // Fix the predicate by regenerating with a cloned rng state.
        let mut rng2 = rng.clone();
        let mut plan = q6(&h, &mut rng);
        let rows = run_to_vec(plan.as_mut(), &db, &mut tc).unwrap();
        assert_eq!(rows.len(), 1);
        let got = rows[0][0].as_i64().unwrap();

        // Manual: replicate the same predicate draw.
        let year_start: u32 = rng2.gen_range(0..5) * 365;
        let disc: i64 = rng2.gen_range(2..=9);
        let qty: i64 = rng2.gen_range(24..=25) * 100;
        let mut scan = SeqScan::new(h.lineitem);
        let all = run_to_vec(&mut scan, &db, &mut tc).unwrap();
        let expect: i64 = all
            .iter()
            .filter(|r| {
                let ship = r[L_SHIP].as_i64().unwrap();
                let d = r[L_DISC].as_i64().unwrap();
                let q = r[L_QTY].as_i64().unwrap();
                ship >= year_start as i64
                    && ship < year_start as i64 + 365
                    && d >= disc - 1
                    && d <= disc + 1
                    && q < qty
            })
            .map(|r| r[L_PRICE].as_i64().unwrap() * r[L_DISC].as_i64().unwrap() / 100)
            .sum();
        assert_eq!(got, expect);
    }

    #[test]
    fn q3_matches_manual_join() {
        let (db, h, mut rng) = setup();
        let mut tc = db.null_ctx();
        let mut rng2 = rng.clone();
        let mut plan = q3(&h, &mut rng);
        let rows = run_to_vec(plan.as_mut(), &db, &mut tc).unwrap();
        assert!(!rows.is_empty(), "the cutoff must admit some joins");
        // Each row: (l_orderkey, o_orderdate, revenue), revenue-sorted.
        assert_eq!(rows[0].len(), 3);
        for w in rows.windows(2) {
            assert!(w[0][2] >= w[1][2], "sorted by revenue desc");
        }

        // Manual: same predicate draw, nested-loop reference join.
        let cutoff: u32 = rng2.gen_range(MAX_DATE / 4..3 * MAX_DATE / 4);
        let mut all = |t| {
            let mut scan = SeqScan::new(t);
            run_to_vec(&mut scan, &db, &mut tc).unwrap()
        };
        let orders = all(h.orders);
        let lineitem = all(h.lineitem);
        #[allow(
            clippy::disallowed_types,
            reason = "test-local set/map; its order never reaches a trace or result"
        )]
        let mut expect = std::collections::HashMap::new();
        for li in &lineitem {
            if li[L_SHIP].as_i64().unwrap() <= cutoff as i64 {
                continue;
            }
            for o in &orders {
                if o[0] == li[L_ORDERKEY] && o[2].as_i64().unwrap() < cutoff as i64 {
                    let rev =
                        li[L_PRICE].as_i64().unwrap() * (100 - li[L_DISC].as_i64().unwrap()) / 100;
                    *expect.entry(li[L_ORDERKEY].clone()).or_insert(0i64) += rev;
                }
            }
        }
        assert_eq!(rows.len(), expect.len(), "one output row per joined order");
        let got_total: i64 = rows.iter().map(|r| r[2].as_i64().unwrap()).sum();
        let expect_total: i64 = expect.values().sum();
        assert_eq!(got_total, expect_total);
    }

    #[test]
    fn q5_multiway_join_covers_segments() {
        let (db, h, mut rng) = setup();
        let mut tc = db.null_ctx();
        let mut rng2 = rng.clone();
        let mut plan = q5(&h, &mut rng);
        let rows = run_to_vec(plan.as_mut(), &db, &mut tc).unwrap();
        // (c_mktsegment, revenue) per segment, at most the 5 segments.
        assert!((1..=5).contains(&rows.len()), "segments={}", rows.len());
        for w in rows.windows(2) {
            assert!(w[0][1] >= w[1][1], "sorted by revenue desc");
        }

        // Manual reference: every lineitem in the drawn year window whose
        // order, customer, and supplier all exist contributes revenue.
        let year_start: u32 = rng2.gen_range(0..5) * 365;
        let mut all = |t| {
            let mut scan = SeqScan::new(t);
            run_to_vec(&mut scan, &db, &mut tc).unwrap()
        };
        let (orders, lineitem) = (all(h.orders), all(h.lineitem));
        #[allow(
            clippy::disallowed_types,
            reason = "test-local set/map; its order never reaches a trace or result"
        )]
        let odate: std::collections::HashMap<i64, i64> = orders
            .iter()
            .map(|o| (o[0].as_i64().unwrap(), o[2].as_i64().unwrap()))
            .collect();
        let expect_total: i64 = lineitem
            .iter()
            .filter(|li| {
                let Some(&d) = odate.get(&li[L_ORDERKEY].as_i64().unwrap()) else {
                    return false;
                };
                d >= year_start as i64 && d < year_start as i64 + 365
            })
            .map(|li| li[L_PRICE].as_i64().unwrap() * (100 - li[L_DISC].as_i64().unwrap()) / 100)
            .sum();
        let got_total: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        assert_eq!(
            got_total, expect_total,
            "every customer/supplier key resolves, so totals must agree"
        );
    }

    #[test]
    fn q13_counts_all_customers() {
        let (db, h, mut rng) = setup();
        let mut tc = db.null_ctx();
        let mut plan = q13(&h, &mut rng);
        let rows = run_to_vec(plan.as_mut(), &db, &mut tc).unwrap();
        // The distribution must cover every customer exactly once.
        let total: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        assert_eq!(total, h.scale.customers as i64);
        // Sorted by customer count desc.
        for w in rows.windows(2) {
            assert!(w[0][1] >= w[1][1]);
        }
    }

    #[test]
    fn q16_groups_have_distinct_counts() {
        let (db, h, mut rng) = setup();
        let mut tc = db.null_ctx();
        let mut plan = q16(&h, &mut rng);
        let rows = run_to_vec(plan.as_mut(), &db, &mut tc).unwrap();
        for r in &rows {
            // (brand, type, size, supplier_cnt)
            assert_eq!(r.len(), 4);
            let cnt = r[3].as_i64().unwrap();
            assert!((1..=4).contains(&cnt), "≤4 suppliers per part: {cnt}");
        }
    }
}
