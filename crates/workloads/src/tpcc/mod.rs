//! TPC-C-like OLTP workload: schema, population, key packing.
//!
//! Nine tables with composite keys packed into `u64` B+Tree keys. The
//! scale is configurable; the default keeps the data in the working-set
//! regime of the paper's experiments (a few MB of hot data + indexes, so
//! the primary working set straddles the 1-26 MB L2 sweep).

pub mod txns;

use std::sync::Arc;

use dbcmp_engine::db::KeyFn;
use dbcmp_engine::{ColType, Columns, Database, Schema, Value};
use dbcmp_trace::AddressSpace;
use rand::rngs::StdRng;
use rand::Rng;

use crate::rng::{client_rng, last_name};

/// Scale parameters (defaults are the capture-friendly scale-down of the
/// paper's 100-warehouse database).
#[derive(Debug, Clone, Copy)]
pub struct TpccScale {
    pub warehouses: u64,
    pub districts_per_wh: u64,
    pub customers_per_district: u64,
    pub items: u64,
    /// Initial orders per district (order lines follow).
    pub orders_per_district: u64,
}

impl Default for TpccScale {
    fn default() -> Self {
        TpccScale {
            warehouses: 4,
            districts_per_wh: 10,
            customers_per_district: 300,
            items: 5_000,
            orders_per_district: 300,
        }
    }
}

impl TpccScale {
    /// A smaller scale for fast tests.
    pub fn tiny() -> Self {
        TpccScale {
            warehouses: 2,
            districts_per_wh: 2,
            customers_per_district: 30,
            items: 200,
            orders_per_district: 30,
        }
    }
}

/// Table + index handles for the TPC-C database.
#[derive(Debug, Clone)]
pub struct TpccDb {
    pub scale: TpccScale,
    /// First warehouse this instance owns (1 for a full build).
    pub wh_lo: u64,
    /// Last warehouse this instance owns (`scale.warehouses` for a full
    /// build). Shared-nothing partitions own a contiguous sub-range;
    /// items are fully replicated either way.
    pub wh_hi: u64,
    // tables
    pub warehouse: usize,
    pub district: usize,
    pub customer: usize,
    pub item: usize,
    pub stock: usize,
    pub orders: usize,
    pub new_order: usize,
    pub order_line: usize,
    pub history: usize,
    // indexes
    pub idx_warehouse: usize,
    pub idx_district: usize,
    pub idx_customer: usize,
    pub idx_customer_name: usize,
    pub idx_item: usize,
    pub idx_stock: usize,
    pub idx_orders: usize,
    pub idx_new_order: usize,
    pub idx_order_line: usize,
    /// NURand C constants fixed at load time (spec 2.1.6.1).
    pub c_last: u64,
    pub c_cust: u64,
    pub c_item: u64,
}

// ---- key packing ----

pub fn wh_key(w: u64) -> u64 {
    w
}

pub fn dist_key(w: u64, d: u64) -> u64 {
    (w << 8) | d
}

pub fn cust_key(w: u64, d: u64, c: u64) -> u64 {
    (w << 28) | (d << 20) | c
}

/// Secondary index on (w, d, last-name hash, c).
pub fn cust_name_key(w: u64, d: u64, name: &str, c: u64) -> u64 {
    let h = name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    }) & 0xFFFF;
    (w << 44) | (d << 36) | (h << 20) | c
}

pub fn item_key(i: u64) -> u64 {
    i
}

pub fn stock_key(w: u64, i: u64) -> u64 {
    (w << 24) | i
}

pub fn order_key(w: u64, d: u64, o: u64) -> u64 {
    (w << 40) | (d << 32) | o
}

pub fn order_line_key(w: u64, d: u64, o: u64, ol: u64) -> u64 {
    (w << 44) | (d << 36) | (o << 8) | ol
}

/// Column `i` of an indexed row: one of the integer ids the key packers
/// take.
fn id(row: &dyn Columns, i: usize) -> u64 {
    row.col(i).as_i64().expect("TPC-C keys are integer ids") as u64
}

/// Build and populate the TPC-C database.
pub fn build_tpcc(scale: TpccScale, seed: u64) -> (Database, TpccDb) {
    build_tpcc_range(
        scale,
        seed,
        1,
        scale.warehouses,
        Arc::new(AddressSpace::new()),
    )
}

/// Build one shared-nothing partition: warehouses `wh_lo..=wh_hi` of the
/// full `scale`, over a caller-provided address space (each instance gets
/// its own [`AddressSpace::partition`] window). Items are fully
/// replicated, as shared-nothing TPC-C deployments do. With the full
/// range and a fresh space this is exactly [`build_tpcc`] — same rng
/// stream, same rows, same addresses.
pub fn build_tpcc_range(
    scale: TpccScale,
    seed: u64,
    wh_lo: u64,
    wh_hi: u64,
    space: Arc<AddressSpace>,
) -> (Database, TpccDb) {
    assert!(
        1 <= wh_lo && wh_lo <= wh_hi && wh_hi <= scale.warehouses,
        "warehouse range {wh_lo}..={wh_hi} out of 1..={}",
        scale.warehouses
    );
    let mut db = Database::with_space(space);
    let mut rng = client_rng(seed, usize::MAX);

    let warehouse = db.create_table(
        "warehouse",
        Schema::new(vec![
            ("w_id", ColType::Int),
            ("w_name", ColType::Str(10)),
            ("w_tax", ColType::Decimal),
            ("w_ytd", ColType::Decimal),
        ]),
    );
    let district = db.create_table(
        "district",
        Schema::new(vec![
            ("d_w_id", ColType::Int),
            ("d_id", ColType::Int),
            ("d_tax", ColType::Decimal),
            ("d_ytd", ColType::Decimal),
            ("d_next_o_id", ColType::Int),
        ]),
    );
    let customer = db.create_table(
        "customer",
        Schema::new(vec![
            ("c_w_id", ColType::Int),
            ("c_d_id", ColType::Int),
            ("c_id", ColType::Int),
            ("c_last", ColType::Str(16)),
            ("c_first", ColType::Str(16)),
            ("c_balance", ColType::Decimal),
            ("c_ytd_payment", ColType::Decimal),
            ("c_payment_cnt", ColType::Int),
            ("c_delivery_cnt", ColType::Int),
            ("c_data", ColType::Str(64)),
        ]),
    );
    let item = db.create_table(
        "item",
        Schema::new(vec![
            ("i_id", ColType::Int),
            ("i_name", ColType::Str(24)),
            ("i_price", ColType::Decimal),
        ]),
    );
    let stock = db.create_table(
        "stock",
        Schema::new(vec![
            ("s_w_id", ColType::Int),
            ("s_i_id", ColType::Int),
            ("s_quantity", ColType::Int),
            ("s_ytd", ColType::Decimal),
            ("s_order_cnt", ColType::Int),
            ("s_remote_cnt", ColType::Int),
        ]),
    );
    let orders = db.create_table(
        "orders",
        Schema::new(vec![
            ("o_w_id", ColType::Int),
            ("o_d_id", ColType::Int),
            ("o_id", ColType::Int),
            ("o_c_id", ColType::Int),
            ("o_entry_d", ColType::Date),
            ("o_carrier_id", ColType::Int),
            ("o_ol_cnt", ColType::Int),
        ]),
    );
    let new_order = db.create_table(
        "new_order",
        Schema::new(vec![
            ("no_w_id", ColType::Int),
            ("no_d_id", ColType::Int),
            ("no_o_id", ColType::Int),
        ]),
    );
    let order_line = db.create_table(
        "order_line",
        Schema::new(vec![
            ("ol_w_id", ColType::Int),
            ("ol_d_id", ColType::Int),
            ("ol_o_id", ColType::Int),
            ("ol_number", ColType::Int),
            ("ol_i_id", ColType::Int),
            ("ol_supply_w_id", ColType::Int),
            ("ol_quantity", ColType::Int),
            ("ol_amount", ColType::Decimal),
        ]),
    );
    let history = db.create_table(
        "history",
        Schema::new(vec![
            ("h_c_id", ColType::Int),
            ("h_w_id", ColType::Int),
            ("h_amount", ColType::Decimal),
            ("h_date", ColType::Date),
        ]),
    );

    // ---- population ----
    let mut tc = db.null_ctx();
    let mut load = db
        .loader(&mut tc)
        .expect("a database nobody else has seen holds no locks");

    for w in wh_lo..=wh_hi {
        load.insert(
            warehouse,
            &[
                Value::Int(w as i64),
                Value::Str(format!("WH{w}")),
                Value::Decimal(rng.gen_range(0..=20)), // 0-0.20 tax
                Value::Decimal(300_000_00),
            ],
        )
        .expect("populate warehouse");
        for d in 1..=scale.districts_per_wh {
            load.insert(
                district,
                &[
                    Value::Int(w as i64),
                    Value::Int(d as i64),
                    Value::Decimal(rng.gen_range(0..=20)),
                    Value::Decimal(30_000_00),
                    Value::Int(scale.orders_per_district as i64 + 1),
                ],
            )
            .expect("populate district");
            for c in 1..=scale.customers_per_district {
                // 2.4.1: the first 1000 customers cycle through the
                // syllable names; beyond that, NURand-style numbers.
                let lname = last_name(if c <= 1000 { c - 1 } else { c % 1000 });
                load.insert(
                    customer,
                    &[
                        Value::Int(w as i64),
                        Value::Int(d as i64),
                        Value::Int(c as i64),
                        Value::Str(lname),
                        Value::Str(format!("First{c}")),
                        Value::Decimal(-10_00),
                        Value::Decimal(10_00),
                        Value::Int(1),
                        Value::Int(0),
                        Value::Str("customer data filler field".into()),
                    ],
                )
                .expect("populate customer");
            }
        }
    }
    for i in 1..=scale.items {
        load.insert(
            item,
            &[
                Value::Int(i as i64),
                Value::Str(format!("item-{i}")),
                Value::Decimal(rng.gen_range(1_00..=100_00)),
            ],
        )
        .expect("populate item");
    }
    for w in wh_lo..=wh_hi {
        for i in 1..=scale.items {
            load.insert(
                stock,
                &[
                    Value::Int(w as i64),
                    Value::Int(i as i64),
                    Value::Int(rng.gen_range(10..=100)),
                    Value::Decimal(0),
                    Value::Int(0),
                    Value::Int(0),
                ],
            )
            .expect("populate stock");
        }
    }
    // Initial orders with lines (carrier assigned for the older 2/3).
    for w in wh_lo..=wh_hi {
        for d in 1..=scale.districts_per_wh {
            for o in 1..=scale.orders_per_district {
                let ol_cnt = rng.gen_range(5..=15u64);
                let c = rng.gen_range(1..=scale.customers_per_district);
                let delivered = o <= scale.orders_per_district * 2 / 3;
                load.insert(
                    orders,
                    &[
                        Value::Int(w as i64),
                        Value::Int(d as i64),
                        Value::Int(o as i64),
                        Value::Int(c as i64),
                        Value::Date(o as u32),
                        Value::Int(if delivered { rng.gen_range(1..=10) } else { 0 }),
                        Value::Int(ol_cnt as i64),
                    ],
                )
                .expect("populate orders");
                if !delivered {
                    load.insert(
                        new_order,
                        &[
                            Value::Int(w as i64),
                            Value::Int(d as i64),
                            Value::Int(o as i64),
                        ],
                    )
                    .expect("populate new_order");
                }
                for ol in 1..=ol_cnt {
                    load.insert(
                        order_line,
                        &[
                            Value::Int(w as i64),
                            Value::Int(d as i64),
                            Value::Int(o as i64),
                            Value::Int(ol as i64),
                            Value::Int(rng.gen_range(1..=scale.items) as i64),
                            Value::Int(w as i64),
                            Value::Int(5),
                            Value::Decimal(rng.gen_range(1_00..=999_99)),
                        ],
                    )
                    .expect("populate order_line");
                }
            }
        }
    }
    load.finish().expect("populate commit");

    // ---- indexes ----
    let index = |db: &mut Database, table, key: KeyFn| {
        db.create_index(table, key)
            .expect("every TPC-C key packs a row's whole primary key")
    };
    let idx_warehouse = index(&mut db, warehouse, Box::new(|row, _| wh_key(id(row, 0))));
    let idx_district = index(
        &mut db,
        district,
        Box::new(|row, _| dist_key(id(row, 0), id(row, 1))),
    );
    let idx_customer = index(
        &mut db,
        customer,
        Box::new(|row, _| cust_key(id(row, 0), id(row, 1), id(row, 2))),
    );
    let idx_customer_name = index(
        &mut db,
        customer,
        Box::new(|row, _| {
            let last = row.col(3);
            let last = last.as_str().expect("C_LAST is a string column");
            cust_name_key(id(row, 0), id(row, 1), last, id(row, 2))
        }),
    );
    let idx_item = index(&mut db, item, Box::new(|row, _| item_key(id(row, 0))));
    let idx_stock = index(
        &mut db,
        stock,
        Box::new(|row, _| stock_key(id(row, 0), id(row, 1))),
    );
    let idx_orders = index(
        &mut db,
        orders,
        Box::new(|row, _| order_key(id(row, 0), id(row, 1), id(row, 2))),
    );
    let idx_new_order = index(
        &mut db,
        new_order,
        Box::new(|row, _| order_key(id(row, 0), id(row, 1), id(row, 2))),
    );
    let idx_order_line = index(
        &mut db,
        order_line,
        Box::new(|row, _| order_line_key(id(row, 0), id(row, 1), id(row, 2), id(row, 3))),
    );

    let handles = TpccDb {
        scale,
        wh_lo,
        wh_hi,
        warehouse,
        district,
        customer,
        item,
        stock,
        orders,
        new_order,
        order_line,
        history,
        idx_warehouse,
        idx_district,
        idx_customer,
        idx_customer_name,
        idx_item,
        idx_stock,
        idx_orders,
        idx_new_order,
        idx_order_line,
        c_last: rng.gen_range(0..256),
        c_cust: rng.gen_range(0..1024),
        c_item: rng.gen_range(0..8192),
    };
    (db, handles)
}

/// Random customer id per spec (NURand 1023).
pub fn random_customer(rng: &mut StdRng, h: &TpccDb) -> u64 {
    crate::rng::nurand(rng, 1023, h.c_cust, 1, h.scale.customers_per_district)
}

/// Random item id per spec (NURand 8191).
pub fn random_item(rng: &mut StdRng, h: &TpccDb) -> u64 {
    crate::rng::nurand(rng, 8191, h.c_item, 1, h.scale.items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_counts() {
        let scale = TpccScale::tiny();
        let (db, h) = build_tpcc(scale, 1);
        assert_eq!(db.table(h.warehouse).n_rows(), 2);
        assert_eq!(db.table(h.district).n_rows(), 4);
        assert_eq!(db.table(h.customer).n_rows(), 2 * 2 * 30);
        assert_eq!(db.table(h.item).n_rows(), 200);
        assert_eq!(db.table(h.stock).n_rows(), 2 * 200);
        assert_eq!(db.table(h.orders).n_rows(), 4 * 30);
        // Undelivered third in new_order.
        assert_eq!(db.table(h.new_order).n_rows(), 4 * 10);
        assert!(db.table(h.order_line).n_rows() >= 4 * 30 * 5);
    }

    #[test]
    fn indexes_resolve_rows() {
        let (db, h) = build_tpcc(TpccScale::tiny(), 2);
        let mut tc = db.null_ctx();
        let rid = db
            .index_get(h.idx_customer, cust_key(1, 2, 3), &mut tc)
            .expect("customer");
        let row = db.table(h.customer).get(rid, &mut tc).unwrap();
        assert_eq!(row[0], Value::Int(1));
        assert_eq!(row[1], Value::Int(2));
        assert_eq!(row[2], Value::Int(3));

        let rid = db
            .index_get(h.idx_stock, stock_key(2, 100), &mut tc)
            .expect("stock");
        let row = db.table(h.stock).get(rid, &mut tc).unwrap();
        assert_eq!(row[0], Value::Int(2));
        assert_eq!(row[1], Value::Int(100));
    }

    #[test]
    fn key_packing_is_injective_in_range() {
        #[allow(
            clippy::disallowed_types,
            reason = "test-local set/map; its order never reaches a trace or result"
        )]
        let mut seen = std::collections::HashSet::new();
        for w in 1..=4u64 {
            for d in 1..=10 {
                for o in 1..=100 {
                    for ol in 1..=15 {
                        assert!(seen.insert(order_line_key(w, d, o, ol)));
                    }
                }
            }
        }
    }
}
