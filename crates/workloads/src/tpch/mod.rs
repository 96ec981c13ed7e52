//! TPC-H-like DSS workload: schema and dbgen-lite population.
//!
//! Six tables with the columns the four paper queries need. Dates are
//! day-numbers with day 0 = 1992-01-01 and a 7-year span, matching TPC-H's
//! date range; comments embed the spec's "special …requests" phrases with
//! the spec's frequencies so Q13's NOT LIKE predicate is selective in the
//! same way.

pub mod dist;
pub mod queries;

use std::sync::Arc;

use dbcmp_engine::{ColType, Columns, Database, Schema, Value};
use dbcmp_trace::AddressSpace;
use rand::rngs::StdRng;
use rand::Rng;

use crate::rng::client_rng;

/// Day-number for the last day of the population (1998-12-01-ish).
pub const MAX_DATE: u32 = 2520;

/// Scale parameters. The default population keeps total data in the
/// 8-16 MB working-set regime the paper's L2 sweep straddles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpchScale {
    pub customers: u64,
    pub orders: u64,
    /// Average lineitems per order (1..=7 uniform like dbgen).
    pub parts: u64,
    pub suppliers: u64,
}

impl Default for TpchScale {
    fn default() -> Self {
        TpchScale {
            customers: 800,
            orders: 8_000,
            parts: 1_500,
            suppliers: 80,
        }
    }
}

impl TpchScale {
    pub fn tiny() -> Self {
        TpchScale {
            customers: 100,
            orders: 600,
            parts: 120,
            suppliers: 10,
        }
    }
}

/// Table handles + row counts for the TPC-H database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpchDb {
    pub(crate) scale: TpchScale,
    pub lineitem: usize,
    pub(crate) orders: usize,
    pub customer: usize,
    pub(crate) part: usize,
    pub(crate) supplier: usize,
    pub(crate) partsupp: usize,
    pub(crate) idx_orders: usize,
    pub(crate) idx_part: usize,
}

/// Which paper query (paper §3: Q1/Q6 scan-dominated, Q16 join-dominated,
/// Q13 mixed) or join-camp extension (Q3/Q5, the join-heavy DSS shapes
/// `fig_islands` sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Pricing summary report: scan + aggregate (scan camp).
    Q1,
    /// Shipping-priority: orders⋈lineitem date-filtered join-aggregate
    /// (join camp).
    Q3,
    /// Local-supplier volume: lineitem⋈orders⋈customer⋈supplier
    /// multi-way join (join camp).
    Q5,
    /// Forecasting revenue change: selective scan + SUM (scan camp).
    Q6,
    /// Customer distribution: outer join + double aggregate (mixed).
    Q13,
    /// Parts/supplier relationship: part⋈partsupp + anti-join (join).
    Q16,
}

impl QueryKind {
    /// The paper's four-query DSS mix (§3) — what every pre-join figure
    /// captures. Unchanged by the join extension so existing figure
    /// numbers stay reproducible.
    pub const ALL: [QueryKind; 4] = [QueryKind::Q1, QueryKind::Q6, QueryKind::Q13, QueryKind::Q16];

    /// The join-heavy DSS mix of the `fig_islands` extension: hash-join and
    /// index-nested-loop plans whose build-side working sets, not scan
    /// bandwidth, set the cache behaviour.
    pub const JOINS: [QueryKind; 2] = [QueryKind::Q3, QueryKind::Q5];
}

const TYPES: [&str; 6] = ["ECONOMY", "STANDARD", "PROMO", "MEDIUM", "LARGE", "SMALL"];
const BRANDS: [&str; 5] = ["Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55"];
const SEGMENTS: [&str; 5] = [
    "BUILDING",
    "AUTOMOBILE",
    "MACHINERY",
    "HOUSEHOLD",
    "FURNITURE",
];

/// Build and populate the TPC-H database.
pub fn build_tpch(scale: TpchScale, seed: u64) -> (Database, TpchDb) {
    build_tpch_range(scale, seed, 0, 1, Arc::new(AddressSpace::new()))
}

/// Build one shared-nothing fragment: instance `instance` of
/// `n_instances`, over a caller-provided address space (each instance
/// gets its own [`AddressSpace::partition`] window). Entities are
/// range-partitioned by primary key — customer by custkey, supplier by
/// suppkey, part by partkey (partsupp rides with its part), orders by
/// orderkey (lineitem rides with its order) — in balanced contiguous
/// ranges, the contiguous-range style `workloads::deploy` uses for
/// TPC-C warehouses.
///
/// The population *draws* every random value at full scale and only
/// *inserts* the rows the fragment owns, so all fragments agree on the
/// global database: the union of N fragments is row-for-row the
/// monolithic [`build_tpch`] database, and with `instance = 0,
/// n_instances = 1` over a fresh space this IS `build_tpch` — same rng
/// stream, same rows, same simulated addresses.
pub fn build_tpch_range(
    scale: TpchScale,
    seed: u64,
    instance: usize,
    n_instances: usize,
    space: Arc<AddressSpace>,
) -> (Database, TpchDb) {
    assert!(
        n_instances >= 1 && instance < n_instances,
        "instance {instance} out of 0..{n_instances}"
    );
    // Balanced contiguous key ranges: instance p owns keys
    // (p*K/n, (p+1)*K/n] of a K-entity table.
    let owns = |k: u64, total: u64| {
        let (p, n) = (instance as u64, n_instances as u64);
        k > p * total / n && k <= (p + 1) * total / n
    };
    let mut db = Database::with_space(space);
    let mut rng = client_rng(seed, usize::MAX - 1);

    let lineitem = db.create_table(
        "lineitem",
        Schema::new(vec![
            ("l_orderkey", ColType::Int),
            ("l_partkey", ColType::Int),
            ("l_suppkey", ColType::Int),
            ("l_linenumber", ColType::Int),
            ("l_quantity", ColType::Decimal),
            ("l_extendedprice", ColType::Decimal),
            ("l_discount", ColType::Decimal),
            ("l_tax", ColType::Decimal),
            ("l_returnflag", ColType::Str(1)),
            ("l_linestatus", ColType::Str(1)),
            ("l_shipdate", ColType::Date),
        ]),
    );
    let orders = db.create_table(
        "orders",
        Schema::new(vec![
            ("o_orderkey", ColType::Int),
            ("o_custkey", ColType::Int),
            ("o_orderdate", ColType::Date),
            ("o_comment", ColType::Str(44)),
        ]),
    );
    let customer = db.create_table(
        "customer",
        Schema::new(vec![
            ("c_custkey", ColType::Int),
            ("c_name", ColType::Str(18)),
            ("c_acctbal", ColType::Decimal),
            ("c_mktsegment", ColType::Str(10)),
        ]),
    );
    let part = db.create_table(
        "part",
        Schema::new(vec![
            ("p_partkey", ColType::Int),
            ("p_brand", ColType::Str(10)),
            ("p_type", ColType::Str(25)),
            ("p_size", ColType::Int),
        ]),
    );
    let supplier = db.create_table(
        "supplier",
        Schema::new(vec![
            ("s_suppkey", ColType::Int),
            ("s_name", ColType::Str(18)),
            ("s_comment", ColType::Str(64)),
        ]),
    );
    let partsupp = db.create_table(
        "partsupp",
        Schema::new(vec![
            ("ps_partkey", ColType::Int),
            ("ps_suppkey", ColType::Int),
            ("ps_availqty", ColType::Int),
            ("ps_supplycost", ColType::Decimal),
        ]),
    );

    let mut tc = db.null_ctx();
    let mut load = db
        .loader(&mut tc)
        .expect("a database nobody else has seen holds no locks");

    for c in 1..=scale.customers {
        // Draws happen at full scale (identical rng stream on every
        // fragment); only owned entities are inserted.
        let acctbal = rng.gen_range(-999_99..=9999_99);
        let segment = SEGMENTS[rng.gen_range(0..SEGMENTS.len())];
        if !owns(c, scale.customers) {
            continue;
        }
        load.insert(
            customer,
            &[
                Value::Int(c as i64),
                Value::Str(format!("Customer#{c:09}")),
                Value::Decimal(acctbal),
                Value::Str(segment.into()),
            ],
        )
        .expect("populate customer");
    }

    for s in 1..=scale.suppliers {
        // ~1/16 of suppliers have complaint comments (Q16's anti-join set),
        // echoing the spec's small fraction.
        let comment = if rng.gen_range(0..16u32) == 0 {
            "wary accounts: Customer unhappy Complaints pending".to_string()
        } else {
            format!("supplier number {s} ships quickly")
        };
        if !owns(s, scale.suppliers) {
            continue;
        }
        load.insert(
            supplier,
            &[
                Value::Int(s as i64),
                Value::Str(format!("Supplier#{s:09}")),
                Value::Str(comment),
            ],
        )
        .expect("populate supplier");
    }

    for p in 1..=scale.parts {
        let brand = BRANDS[rng.gen_range(0..BRANDS.len())];
        let ptype = format!(
            "{} {}",
            TYPES[rng.gen_range(0..TYPES.len())],
            ["ANODIZED", "BURNISHED", "PLATED", "POLISHED"][rng.gen_range(0..4)]
        );
        let size = rng.gen_range(1..=50);
        // partsupp rides with its part (draws still happen at full
        // scale below either way).
        let owned = owns(p, scale.parts);
        if owned {
            load.insert(
                part,
                &[
                    Value::Int(p as i64),
                    Value::Str(brand.into()),
                    Value::Str(ptype),
                    Value::Int(size),
                ],
            )
            .expect("populate part");
        }
        // 4 suppliers per part, dbgen-style.
        for k in 0..4u64 {
            let s = (p * 7 + k * 13) % scale.suppliers + 1;
            let availqty = rng.gen_range(1..=9999);
            let supplycost = rng.gen_range(1_00..=1000_00);
            if !owned {
                continue;
            }
            load.insert(
                partsupp,
                &[
                    Value::Int(p as i64),
                    Value::Int(s as i64),
                    Value::Int(availqty),
                    Value::Decimal(supplycost),
                ],
            )
            .expect("populate partsupp");
        }
    }

    for o in 1..=scale.orders {
        let odate = rng.gen_range(0..MAX_DATE - 151);
        // Spec-like: a small fraction of order comments match Q13's
        // "special … requests" pattern.
        let comment = if rng.gen_range(0..50u32) == 0 {
            "handle with special care as the customer requests urgently".to_string()
        } else {
            format!("order {o} placed without further remarks")
        };
        let custkey = rng.gen_range(1..=scale.customers) as i64;
        // lineitem rides with its order (draws still at full scale).
        let owned = owns(o, scale.orders);
        if owned {
            load.insert(
                orders,
                &[
                    Value::Int(o as i64),
                    Value::Int(custkey),
                    Value::Date(odate),
                    Value::Str(comment),
                ],
            )
            .expect("populate orders");
        }
        let lines = rng.gen_range(1..=7u64);
        for l in 1..=lines {
            let qty = rng.gen_range(1..=50) as i64;
            let price = rng.gen_range(9_00..=9_500_00);
            let partkey = rng.gen_range(1..=scale.parts) as i64;
            let suppkey = rng.gen_range(1..=scale.suppliers) as i64;
            let disc = rng.gen_range(0..=10); // 0.00-0.10
            let tax = rng.gen_range(0..=8); // 0.00-0.08
            let rflag = ["A", "N", "R"][rng.gen_range(0..3)];
            let lstat = ["O", "F"][rng.gen_range(0..2)];
            let shipdate = odate + rng.gen_range(1..=121);
            if !owned {
                continue;
            }
            load.insert(
                lineitem,
                &[
                    Value::Int(o as i64),
                    Value::Int(partkey),
                    Value::Int(suppkey),
                    Value::Int(l as i64),
                    Value::Decimal(qty * 100),
                    Value::Decimal(price),
                    Value::Decimal(disc),
                    Value::Decimal(tax),
                    Value::Str(rflag.into()),
                    Value::Str(lstat.into()),
                    Value::Date(shipdate),
                ],
            )
            .expect("populate lineitem");
        }
    }
    load.finish().expect("populate commit");

    let mut index = |table| {
        let key = |row: &dyn Columns, _| row.col(0).as_i64().expect("integer key") as u64;
        db.create_index(table, Box::new(key))
            .expect("O_ORDERKEY and P_PARTKEY are unique")
    };
    let (idx_orders, idx_part) = (index(orders), index(part));

    let handles = TpchDb {
        scale,
        lineitem,
        orders,
        customer,
        part,
        supplier,
        partsupp,
        idx_orders,
        idx_part,
    };
    (db, handles)
}

/// Deterministic per-client RNG (query predicate randomization).
pub fn tpch_rng(seed: u64, client: usize) -> StdRng {
    client_rng(seed.wrapping_add(0xD55), client)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_counts() {
        let (db, h) = build_tpch(TpchScale::tiny(), 3);
        assert_eq!(db.table(h.customer).n_rows(), 100);
        assert_eq!(db.table(h.orders).n_rows(), 600);
        assert_eq!(db.table(h.supplier).n_rows(), 10);
        assert_eq!(db.table(h.part).n_rows(), 120);
        assert_eq!(db.table(h.partsupp).n_rows(), 480);
        let li = db.table(h.lineitem).n_rows();
        assert!((600..=4200).contains(&li), "lineitem {li}");
    }

    /// The union of N range fragments is row-for-row the monolithic
    /// database: every fragment replays the same full-scale rng stream
    /// and keeps only its key range.
    #[test]
    fn fragments_union_to_the_monolith() {
        let scale = TpchScale::tiny();
        let (db, h) = build_tpch(scale, 7);
        let n = 3;
        let frags: Vec<_> = (0..n)
            .map(|p| {
                build_tpch_range(
                    scale,
                    7,
                    p,
                    n,
                    Arc::new(AddressSpace::partition(p).unwrap()),
                )
            })
            .collect();
        let rows_of = |db: &Database, t: usize| {
            let mut tc = db.null_ctx();
            let mut scan = dbcmp_engine::exec::SeqScan::new(t);
            dbcmp_engine::exec::run_to_vec(&mut scan, db, &mut tc).unwrap()
        };
        for t in [
            h.customer, h.supplier, h.part, h.partsupp, h.orders, h.lineitem,
        ] {
            let mut mono = rows_of(&db, t);
            let mut union = Vec::new();
            for (fdb, fh) in &frags {
                assert_eq!(fh.customer, h.customer, "handles agree across fragments");
                union.extend(rows_of(fdb, t));
            }
            mono.sort();
            union.sort();
            assert_eq!(mono, union, "table {t} fragments must cover the monolith");
        }
        // The partitioning is real: no fragment holds everything.
        for (fdb, fh) in &frags {
            assert!(fdb.table(fh.orders).n_rows() < db.table(h.orders).n_rows());
            assert!(fdb.table(fh.orders).n_rows() > 0);
        }
    }

    /// The population Q16's anti-join would read: some supplier comments
    /// name customer complaints.
    #[test]
    fn complaint_suppliers_found() {
        let scale = TpchScale {
            suppliers: 200,
            ..TpchScale::tiny()
        };
        let (db, h) = build_tpch(scale, 77);
        let mut tc = db.null_ctx();
        let mut scan = dbcmp_engine::exec::SeqScan::new(h.supplier);
        let rows = dbcmp_engine::exec::run_to_vec(&mut scan, &db, &mut tc).unwrap();
        let complaints = rows
            .iter()
            .filter(|r| matches!(&r[2], Value::Str(c) if c.contains("Customer") && c.contains("Complaints")))
            .count();
        assert!(
            complaints > 0,
            "complaint suppliers must exist at this scale"
        );
    }

    #[test]
    fn shipdates_in_range() {
        let (db, h) = build_tpch(TpchScale::tiny(), 4);
        let mut tc = db.null_ctx();
        let mut scan = dbcmp_engine::exec::SeqScan::new(h.lineitem);
        let rows = dbcmp_engine::exec::run_to_vec(&mut scan, &db, &mut tc).unwrap();
        for r in rows {
            let d = r[10].as_i64().unwrap();
            assert!((1..=MAX_DATE as i64).contains(&d));
        }
    }
}
