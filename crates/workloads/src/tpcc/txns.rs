//! The five TPC-C transaction types.
//!
//! Implemented against the engine's transactional API: every row access
//! takes the proper lock, writes are WAL-logged and undo-protected.
//! NewOrder includes the spec's 1% deliberate rollback; Payment selects
//! customers by last name 40% of the time (secondary index) and pays
//! through a remote warehouse 15% of the time (cross-warehouse sharing).
//!
//! The drivers are `async fn`s generic over [`EngineOps`] — every engine
//! call is one `.await` — so the same transaction code runs both
//! directly against a [`Database`](dbcmp_engine::Database), where no
//! call ever suspends and the caller drives it with
//! [`now`](crate::ops::now) (the shared-nothing deployments), and under
//! the multi-client scheduler (`crate::interleave`), where a lock wait
//! suspends the client mid-statement.
//! All commit/abort decisions live in [`run_txn_cfg`]: a body returns its
//! intended outcome (or an error) and the driver finishes the transaction,
//! so every error path — deadlock victims included — rolls back cleanly.

use dbcmp_engine::heap::Rid;
use dbcmp_engine::lockmgr::LockMode;
use dbcmp_engine::txn::Txn;
use dbcmp_engine::{Result, TraceCtx, Value};
use rand::rngs::StdRng;
use rand::Rng;

use super::{
    cust_key, cust_name_key, dist_key, item_key, order_key, order_line_key, random_customer,
    random_item, stock_key, wh_key, TpccDb,
};
use crate::ops::EngineOps;
use crate::rng::{last_name, uniform};

/// Which transaction ran (for mix accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum TxnKind {
    NewOrder,
    Payment,
    OrderStatus,
    Delivery,
    StockLevel,
}

/// Outcome of one transaction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnOutcome {
    Committed,
    /// Rolled back (NewOrder's 1% invalid item, or a lock conflict).
    Aborted,
}

/// Draw a transaction type per the spec mix (45/43/4/4/4).
pub(crate) fn draw_kind(rng: &mut StdRng) -> TxnKind {
    match rng.gen_range(0..100u32) {
        0..=44 => TxnKind::NewOrder,
        45..=87 => TxnKind::Payment,
        88..=91 => TxnKind::OrderStatus,
        92..=95 => TxnKind::Delivery,
        _ => TxnKind::StockLevel,
    }
}

/// Per-transaction targeting: home warehouse plus the contention knob
/// the interleaved capture turns (shrinking the NewOrder item pool
/// concentrates conflicting X locks on a few rows).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxnCfg {
    /// The terminal's home warehouse.
    pub(crate) w_home: u64,
    /// Draw NewOrder items uniformly from `1..=n` (hot item set) instead
    /// of NURand over the whole catalog.
    pub(crate) item_pool: Option<u64>,
    /// Force the transaction's cross-warehouse target: NewOrder sources
    /// every line from this warehouse, Payment pays this warehouse's
    /// customer. Used by shared-nothing deployments when a multi-warehouse
    /// transaction's target happens to live on the *same* instance —
    /// `None` (the default) keeps the plain spec draws and their rng
    /// stream untouched.
    pub(crate) remote_wh: Option<u64>,
}

impl TxnCfg {
    /// Plain TPC-C targeting: NURand items, the spec's remote draws.
    pub(crate) fn home(w_home: u64) -> Self {
        TxnCfg {
            w_home,
            item_pool: None,
            remote_wh: None,
        }
    }
}

fn draw_district(rng: &mut StdRng, h: &TpccDb) -> u64 {
    uniform(rng, 1, h.scale.districts_per_wh)
}

/// A uniform warehouse of `lo..=hi` other than `w`: a draw that lands on
/// `w` moves on to the next warehouse, wrapping, so exactly one draw is
/// consumed.
pub(crate) fn draw_other_wh(rng: &mut StdRng, (lo, hi): (u64, u64), w: u64) -> u64 {
    match uniform(rng, lo, hi) {
        other if other != w => other,
        other if other == hi => lo,
        other => other + 1,
    }
}

fn draw_item(cfg: TxnCfg, rng: &mut StdRng, h: &TpccDb) -> u64 {
    match cfg.item_pool {
        Some(n) => uniform(rng, 1, n.min(h.scale.items)),
        None => random_item(rng, h),
    }
}

/// Run one transaction with explicit targeting ([`TxnCfg`]). Owns the
/// commit/abort decision: bodies return the intended outcome and this
/// driver finishes the transaction — on *any* error (lock conflict,
/// deadlock victim) the transaction is rolled back before the error
/// propagates, so locks and undo never leak.
pub(crate) async fn run_txn_cfg<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    kind: TxnKind,
    cfg: TxnCfg,
    rng: &mut StdRng,
    tc: &mut TraceCtx,
) -> Result<TxnOutcome> {
    run_txn_cfg_declared(db, h, kind, cfg, rng, tc, None).await
}

/// [`run_txn_cfg`] with an optional pre-declared read/write set, for the
/// deterministic-ordered concurrency backend: right after `begin` the set
/// is declared through [`EngineOps::declare`], which parks the caller
/// until every key is granted in declare order. `None` skips the declare
/// entirely (byte-identical to [`run_txn_cfg`]).
#[allow(
    clippy::too_many_arguments,
    reason = "run_txn_cfg's arguments plus the optional declared set"
)]
pub(crate) async fn run_txn_cfg_declared<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    kind: TxnKind,
    cfg: TxnCfg,
    rng: &mut StdRng,
    tc: &mut TraceCtx,
    declared: Option<&[(u64, LockMode)]>,
) -> Result<TxnOutcome> {
    db.statement_overhead(tc).await;
    let mut txn = db.begin(tc).await;
    if let Some(keys) = declared {
        if let Err(e) = db.declare(&mut txn, keys, tc).await {
            db.abort(txn, tc).await;
            return Err(e);
        }
    }
    match run_body(db, h, &mut txn, kind, cfg, rng, tc).await {
        Ok(TxnOutcome::Committed) => {
            db.commit(txn, tc).await?;
            tc.unit_end();
            Ok(TxnOutcome::Committed)
        }
        Ok(TxnOutcome::Aborted) => {
            db.abort(txn, tc).await;
            tc.unit_end();
            Ok(TxnOutcome::Aborted)
        }
        Err(e) => {
            db.abort(txn, tc).await;
            Err(e)
        }
    }
}

/// The kind → body table: run `kind`'s statements inside the open `txn`
/// and return the outcome the body intends, leaving commit/abort to the
/// caller. [`run_txn_cfg_declared`] executes through it and
/// [`rw_set`](crate::rwset::rw_set) derives a read/write set through it,
/// so the declared set is the set these statements name.
pub(crate) async fn run_body<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    kind: TxnKind,
    cfg: TxnCfg,
    rng: &mut StdRng,
    tc: &mut TraceCtx,
) -> Result<TxnOutcome> {
    match kind {
        TxnKind::NewOrder => new_order(db, h, txn, cfg, rng, tc).await,
        TxnKind::Payment => payment(db, h, txn, cfg, rng, tc).await,
        TxnKind::OrderStatus => order_status(db, h, txn, cfg, rng, tc).await,
        TxnKind::Delivery => delivery(db, h, txn, cfg, rng, tc).await,
        TxnKind::StockLevel => stock_level(db, h, txn, cfg, rng, tc).await,
    }
}

async fn new_order<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    cfg: TxnCfg,
    rng: &mut StdRng,
    tc: &mut TraceCtx,
) -> Result<TxnOutcome> {
    let w = cfg.w_home;
    let d = draw_district(rng, h);
    let c = random_customer(rng, h);
    let ol_cnt = uniform(rng, 5, 15);
    // Spec 2.4.1.4: 1% of NewOrders use an invalid item and roll back.
    let rollback = rng.gen_range(0..100u32) == 0;

    let order = open_order(db, h, txn, (w, d), c, tc).await?;
    for number in 1..=ol_cnt {
        let i_id = if rollback && number == ol_cnt {
            u64::MAX
        } else {
            draw_item(cfg, rng, h)
        };
        // 1% of lines are supplied by a remote warehouse (spec 2.4.1.5).
        // The draw ranges over the warehouses *this instance owns*
        // (`wh_lo..=wh_hi`) — identical to the whole-database draw for a
        // full build, and never off-instance for a partition.
        let supply_w = if let Some(rw) = cfg.remote_wh {
            rw
        } else if rng.gen_range(0..100u32) == 0 && h.wh_hi > h.wh_lo {
            draw_other_wh(rng, (h.wh_lo, h.wh_hi), w)
        } else {
            w
        };
        let Some(price) = item_price(db, h, txn, i_id, tc).await? else {
            // Invalid item: the spec's deliberate rollback (the driver
            // aborts the transaction).
            return Ok(TxnOutcome::Aborted);
        };
        let s_rid = db
            .index_get(h.idx_stock, stock_key(supply_w, i_id), tc)
            .await
            .expect("stock");
        let draw_qty = || uniform(rng, 1, 10) as i64;
        let qty = reserve_stock(db, h, txn, s_rid, draw_qty, supply_w != w, tc).await?;
        let line = OrderLine {
            number,
            i_id,
            supply_w,
            qty,
            amount: price * qty,
        };
        insert_order_line(db, h, txn, order, &line, tc).await?;
    }
    insert_order(db, h, txn, order, c, ol_cnt, tc).await?;
    Ok(TxnOutcome::Committed)
}

async fn payment<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    cfg: TxnCfg,
    rng: &mut StdRng,
    tc: &mut TraceCtx,
) -> Result<TxnOutcome> {
    let w = cfg.w_home;
    let d = draw_district(rng, h);
    // 15% remote customer (spec 2.5.1.2) — cross-warehouse write sharing.
    // Drawn over this instance's warehouses (see `new_order`'s supply
    // draw for the equivalence argument).
    let (c_w, c_d) = if let Some(rw) = cfg.remote_wh {
        (rw, uniform(rng, 1, h.scale.districts_per_wh))
    } else if rng.gen_range(0..100u32) < 15 && h.wh_hi > h.wh_lo {
        let other = draw_other_wh(rng, (h.wh_lo, h.wh_hi), w);
        (other, uniform(rng, 1, h.scale.districts_per_wh))
    } else {
        (w, d)
    };
    let amount = uniform(rng, 1_00, 5_000_00) as i64;

    pay_home(db, h, txn, (w, d), amount, tc).await?;
    // Customer: 60% by id, 40% by last name (secondary index range).
    let by_id = rng.gen_range(0..100u32) < 60;
    let c_rid = find_customer(db, h, (c_w, c_d), by_id, rng, tc).await;
    let c_id = pay_customer(db, h, txn, c_rid, amount, tc).await?;
    write_history(db, h, txn, c_id, w, amount, tc).await?;
    Ok(TxnOutcome::Committed)
}

// ---- Statement groups NewOrder and Payment share with the two-phase
// flavors in `crate::deploy`, which run them on whichever instance holds
// the rows, under that instance's transaction. ----

/// One order's key, `(w, d, o_id)`: every row the order inserts carries it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OrderId {
    pub(crate) w: u64,
    pub(crate) d: u64,
    pub(crate) o_id: u64,
}

/// One order line as inserted.
pub(crate) struct OrderLine {
    /// Line number within the order, from 1.
    pub(crate) number: u64,
    pub(crate) i_id: u64,
    pub(crate) supply_w: u64,
    pub(crate) qty: i64,
    pub(crate) amount: i64,
}

/// Open an order in district `d` of warehouse `w` for customer `c`: read
/// the warehouse (S), take the district's next order id and bump it (X),
/// read the customer (S).
pub(crate) async fn open_order<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    (w, d): (u64, u64),
    c: u64,
    tc: &mut TraceCtx,
) -> Result<OrderId> {
    let w_rid = db
        .index_get(h.idx_warehouse, wh_key(w), tc)
        .await
        .expect("warehouse");
    db.read(txn, h.warehouse, w_rid, false, tc).await?;

    let d_rid = db
        .index_get(h.idx_district, dist_key(w, d), tc)
        .await
        .expect("district");
    let mut d_row = db.read(txn, h.district, d_rid, true, tc).await?;
    let o_id = d_row[4].as_i64().unwrap() as u64;
    d_row[4] = Value::Int(o_id as i64 + 1);
    db.update(txn, h.district, d_rid, &d_row, tc).await?;

    let c_rid = db
        .index_get(h.idx_customer, cust_key(w, d, c), tc)
        .await
        .expect("customer");
    db.read(txn, h.customer, c_rid, false, tc).await?;
    Ok(OrderId { w, d, o_id })
}

/// Item `i_id`'s price (S), or `None` when the catalog has no such item.
pub(crate) async fn item_price<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    i_id: u64,
    tc: &mut TraceCtx,
) -> Result<Option<i64>> {
    let Some(i_rid) = db.index_get(h.idx_item, item_key(i_id), tc).await else {
        return Ok(None);
    };
    let i_row = db.read(txn, h.item, i_rid, false, tc).await?;
    Ok(Some(i_row[2].as_i64().unwrap()))
}

/// Reserve stock row `s_rid` (X): take the quantity `qty` yields,
/// restocking by 91 below 10, add it to the year-to-date total, count the
/// order, and count a remote order when `remote`. `qty` is called only
/// once the row is held, so a read that fails consumes no draw. Returns
/// the quantity reserved.
pub(crate) async fn reserve_stock<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    s_rid: Rid,
    qty: impl FnOnce() -> i64,
    remote: bool,
    tc: &mut TraceCtx,
) -> Result<i64> {
    let mut s_row = db.read(txn, h.stock, s_rid, true, tc).await?;
    let qty = qty();
    let s_q = s_row[2].as_i64().unwrap() - qty;
    s_row[2] = Value::Int(if s_q >= 10 { s_q } else { s_q + 91 });
    s_row[3] = Value::Decimal(s_row[3].as_i64().unwrap() + qty * 100);
    s_row[4] = Value::Int(s_row[4].as_i64().unwrap() + 1);
    if remote {
        s_row[5] = Value::Int(s_row[5].as_i64().unwrap() + 1);
    }
    db.update(txn, h.stock, s_rid, &s_row, tc).await?;
    Ok(qty)
}

/// Insert `line` of `order`.
pub(crate) async fn insert_order_line<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    order: OrderId,
    line: &OrderLine,
    tc: &mut TraceCtx,
) -> Result<()> {
    let row = [
        Value::Int(order.w as i64),
        Value::Int(order.d as i64),
        Value::Int(order.o_id as i64),
        Value::Int(line.number as i64),
        Value::Int(line.i_id as i64),
        Value::Int(line.supply_w as i64),
        Value::Int(line.qty),
        Value::Decimal(line.amount),
    ];
    db.insert(txn, h.order_line, &row, tc).await.map(drop)
}

/// Insert `order`'s `orders` row (customer `c`, `ol_cnt` lines) and its
/// `new_order` row.
pub(crate) async fn insert_order<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    order: OrderId,
    c: u64,
    ol_cnt: u64,
    tc: &mut TraceCtx,
) -> Result<()> {
    let row = [
        Value::Int(order.w as i64),
        Value::Int(order.d as i64),
        Value::Int(order.o_id as i64),
        Value::Int(c as i64),
        Value::Date(order.o_id as u32),
        Value::Int(0),
        Value::Int(ol_cnt as i64),
    ];
    db.insert(txn, h.orders, &row, tc).await?;
    // The new-order row is the order's key.
    db.insert(txn, h.new_order, &row[..3], tc).await.map(drop)
}

/// Add `amount` to the year-to-date totals of warehouse `w` and its
/// district `d` (X both) — the hot rows every payment writes.
pub(crate) async fn pay_home<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    (w, d): (u64, u64),
    amount: i64,
    tc: &mut TraceCtx,
) -> Result<()> {
    let warehouse = (h.idx_warehouse, wh_key(w), h.warehouse);
    let district = (h.idx_district, dist_key(w, d), h.district);
    for (index, key, table) in [warehouse, district] {
        let rid = db.index_get(index, key, tc).await.expect("home row");
        let mut row = db.read(txn, table, rid, true, tc).await?;
        row[3] = Value::Decimal(row[3].as_i64().unwrap() + amount);
        db.update(txn, table, rid, &row, tc).await?;
    }
    Ok(())
}

/// A customer of district `(c_w, c_d)`: by a random id, or (unless
/// `by_id`) by a NURand last name — the middle of the name's matches in
/// the secondary index, or a random id when the name is not present at
/// this scale.
pub(crate) async fn find_customer<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    (c_w, c_d): (u64, u64),
    by_id: bool,
    rng: &mut StdRng,
    tc: &mut TraceCtx,
) -> Rid {
    if !by_id {
        let name = last_name(crate::rng::nurand(rng, 255, h.c_last, 0, 999));
        let lo = cust_name_key(c_w, c_d, &name, 0);
        let hi = cust_name_key(c_w, c_d, &name, 0xF_FFFF);
        let matches = db.index_range(h.idx_customer_name, lo, hi, tc).await;
        if let Some(&(_, rid)) = matches.get(matches.len() / 2) {
            return rid;
        }
    }
    let c = random_customer(rng, h);
    db.index_get(h.idx_customer, cust_key(c_w, c_d, c), tc)
        .await
        .expect("customer")
}

/// Charge `amount` to customer row `c_rid` (X): balance, year-to-date
/// payment, payment count. Returns the customer id the history row
/// records.
pub(crate) async fn pay_customer<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    c_rid: Rid,
    amount: i64,
    tc: &mut TraceCtx,
) -> Result<Value> {
    let mut c_row = db.read(txn, h.customer, c_rid, true, tc).await?;
    c_row[5] = Value::Decimal(c_row[5].as_i64().unwrap() - amount);
    c_row[6] = Value::Decimal(c_row[6].as_i64().unwrap() + amount);
    c_row[7] = Value::Int(c_row[7].as_i64().unwrap() + 1);
    db.update(txn, h.customer, c_rid, &c_row, tc).await?;
    Ok(c_row[2].clone())
}

/// Record customer `c_id`'s payment of `amount` at warehouse `w`.
pub(crate) async fn write_history<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    c_id: Value,
    w: u64,
    amount: i64,
    tc: &mut TraceCtx,
) -> Result<()> {
    let row = [
        c_id,
        Value::Int(w as i64),
        Value::Decimal(amount),
        Value::Date(1),
    ];
    db.insert(txn, h.history, &row, tc).await.map(drop)
}

async fn order_status<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    cfg: TxnCfg,
    rng: &mut StdRng,
    tc: &mut TraceCtx,
) -> Result<TxnOutcome> {
    let w = cfg.w_home;
    let d = draw_district(rng, h);
    let c = random_customer(rng, h);

    let c_rid = db
        .index_get(h.idx_customer, cust_key(w, d, c), tc)
        .await
        .expect("customer");
    let _c_row = db.read(txn, h.customer, c_rid, false, tc).await?;

    // Most recent order of this district (descending scan from the top).
    let lo = order_key(w, d, 0);
    let hi = order_key(w, d, u32::MAX as u64);
    let orders = db.index_range(h.idx_orders, lo, hi, tc).await;
    if let Some(&(okey, o_rid)) = orders.last() {
        let o_row = db.read(txn, h.orders, o_rid, false, tc).await?;
        let o_id = okey & 0xFFFF_FFFF;
        let ol_cnt = o_row[6].as_i64().unwrap() as u64;
        for ol in 1..=ol_cnt {
            if let Some(rid) = db
                .index_get(h.idx_order_line, order_line_key(w, d, o_id, ol), tc)
                .await
            {
                let _ = db.read(txn, h.order_line, rid, false, tc).await?;
            }
        }
    }
    Ok(TxnOutcome::Committed)
}

async fn delivery<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    cfg: TxnCfg,
    rng: &mut StdRng,
    tc: &mut TraceCtx,
) -> Result<TxnOutcome> {
    let w = cfg.w_home;
    let carrier = uniform(rng, 1, 10) as i64;

    for d in 1..=h.scale.districts_per_wh {
        // Oldest undelivered order.
        let lo = order_key(w, d, 0);
        let hi = order_key(w, d, u32::MAX as u64);
        let pending = db.index_range(h.idx_new_order, lo, hi, tc).await;
        let Some(&(okey, no_rid)) = pending.first() else {
            continue;
        };
        let o_id = okey & 0xFFFF_FFFF;

        db.delete(txn, h.new_order, no_rid, tc).await?;

        let o_rid = db
            .index_get(h.idx_orders, order_key(w, d, o_id), tc)
            .await
            .expect("order");
        let mut o_row = db.read(txn, h.orders, o_rid, true, tc).await?;
        let c_id = o_row[3].as_i64().unwrap() as u64;
        let ol_cnt = o_row[6].as_i64().unwrap() as u64;
        o_row[5] = Value::Int(carrier);
        db.update(txn, h.orders, o_rid, &o_row, tc).await?;

        let mut sum = 0i64;
        for ol in 1..=ol_cnt {
            if let Some(rid) = db
                .index_get(h.idx_order_line, order_line_key(w, d, o_id, ol), tc)
                .await
            {
                let row = db.read(txn, h.order_line, rid, false, tc).await?;
                sum += row[7].as_i64().unwrap();
            }
        }

        let c_rid = db
            .index_get(h.idx_customer, cust_key(w, d, c_id), tc)
            .await
            .expect("customer");
        let mut c_row = db.read(txn, h.customer, c_rid, true, tc).await?;
        c_row[5] = Value::Decimal(c_row[5].as_i64().unwrap() + sum);
        c_row[8] = Value::Int(c_row[8].as_i64().unwrap() + 1);
        db.update(txn, h.customer, c_rid, &c_row, tc).await?;
    }

    Ok(TxnOutcome::Committed)
}

async fn stock_level<D: EngineOps>(
    db: &mut D,
    h: &TpccDb,
    txn: &mut Txn,
    cfg: TxnCfg,
    rng: &mut StdRng,
    tc: &mut TraceCtx,
) -> Result<TxnOutcome> {
    let w = cfg.w_home;
    let d = draw_district(rng, h);
    let threshold = uniform(rng, 10, 20) as i64;

    let d_rid = db
        .index_get(h.idx_district, dist_key(w, d), tc)
        .await
        .expect("district");
    let d_row = db.read(txn, h.district, d_rid, false, tc).await?;
    let next_o = d_row[4].as_i64().unwrap() as u64;

    // Last 20 orders' lines → distinct items → stock below threshold.
    // BTreeSet: the stock probes below must happen in a deterministic
    // order or captured traces differ run-to-run (HashSet iteration order
    // is seeded per instance).
    let first = next_o.saturating_sub(20).max(1);
    let mut items = std::collections::BTreeSet::new();
    for o in first..next_o {
        for ol in 1..=15u64 {
            if let Some(rid) = db
                .index_get(h.idx_order_line, order_line_key(w, d, o, ol), tc)
                .await
            {
                let row = db.read(txn, h.order_line, rid, false, tc).await?;
                items.insert(row[4].as_i64().unwrap() as u64);
            }
        }
    }
    let mut low = 0usize;
    for i in items {
        if let Some(rid) = db.index_get(h.idx_stock, stock_key(w, i), tc).await {
            let row = db.read(txn, h.stock, rid, false, tc).await?;
            if row[2].as_i64().unwrap() < threshold {
                low += 1;
            }
        }
    }
    let _ = low;
    Ok(TxnOutcome::Committed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::{capture_oltp_interleaved, InterleaveOptions};
    use crate::ops::now;
    use crate::rng::client_rng;
    use crate::tpcc::{build_tpcc, TpccScale};

    #[test]
    fn mix_runs_and_commits() {
        let (db, h) = build_tpcc(TpccScale::tiny(), 11);
        let s = capture_oltp_interleaved(db, &h, InterleaveOptions::new(1, 200, 11)).stats;
        assert!(s.commits >= 190, "most of 200 txns must commit: {s:?}");
        assert_eq!(s.commits + s.rollbacks, 200);
    }

    #[test]
    fn new_order_advances_district_counter() {
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 12);
        let mut rng = client_rng(12, 0);
        let mut tc = db.null_ctx();
        let before = {
            let rid = db
                .index_get(h.idx_district, dist_key(1, 1), &mut tc)
                .unwrap();
            db.table(h.district).get(rid, &mut tc).unwrap()[4]
                .as_i64()
                .unwrap()
        };
        // Run enough NewOrders that district 1 gets some.
        for _ in 0..40 {
            let _ = now(run_txn_cfg(
                &mut db,
                &h,
                TxnKind::NewOrder,
                TxnCfg::home(1),
                &mut rng,
                &mut tc,
            ));
        }
        let after = {
            let rid = db
                .index_get(h.idx_district, dist_key(1, 1), &mut tc)
                .unwrap();
            db.table(h.district).get(rid, &mut tc).unwrap()[4]
                .as_i64()
                .unwrap()
        };
        assert!(
            after > before,
            "district next_o_id must advance: {before} -> {after}"
        );
    }

    #[test]
    fn delivery_consumes_new_orders() {
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 13);
        let mut rng = client_rng(13, 0);
        let mut tc = db.null_ctx();
        let before = db.table(h.new_order).n_rows();
        now(run_txn_cfg(
            &mut db,
            &h,
            TxnKind::Delivery,
            TxnCfg::home(1),
            &mut rng,
            &mut tc,
        ))
        .unwrap();
        let after = db.table(h.new_order).n_rows();
        assert!(
            after < before,
            "delivery must consume pending orders: {before} -> {after}"
        );
    }

    #[test]
    fn payment_updates_balances() {
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 14);
        let mut rng = client_rng(14, 0);
        let mut tc = db.null_ctx();
        let w_rid = db.index_get(h.idx_warehouse, wh_key(1), &mut tc).unwrap();
        let before = db.table(h.warehouse).get(w_rid, &mut tc).unwrap()[3]
            .as_i64()
            .unwrap();
        let home = TxnCfg::home(1);
        now(run_txn_cfg(
            &mut db,
            &h,
            TxnKind::Payment,
            home,
            &mut rng,
            &mut tc,
        ))
        .unwrap();
        let after = db.table(h.warehouse).get(w_rid, &mut tc).unwrap()[3]
            .as_i64()
            .unwrap();
        assert!(after > before, "warehouse YTD must grow");
        assert!(db.table(h.history).n_rows() > 0);
    }

    #[test]
    fn traces_capture_oltp_shape() {
        // A recorded NewOrder must show dependent loads (B+Tree descents)
        // and fences (locks/commit).
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 15);
        let mut rng = client_rng(15, 0);
        let mut tc = db.trace_ctx();
        now(run_txn_cfg(
            &mut db,
            &h,
            TxnKind::NewOrder,
            TxnCfg::home(1),
            &mut rng,
            &mut tc,
        ))
        .unwrap();
        let trace = tc.finish();
        let mut deps = 0;
        let mut fences = 0;
        for e in trace.iter() {
            match e {
                dbcmp_trace::Event::Load { dep: true, .. } => deps += 1,
                dbcmp_trace::Event::Fence => fences += 1,
                _ => {}
            }
        }
        assert!(
            deps > 20,
            "B+Tree descents must emit dependent loads: {deps}"
        );
        assert!(fences > 10, "locks + commit must fence: {fences}");
        assert_eq!(trace.counts().units, 1);
    }
}
