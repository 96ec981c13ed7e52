//! Volcano-style (open/next/close) query executor.
//!
//! One row at a time through a tree of operators — the execution
//! discipline of the paper-era commercial row stores, and the reason their
//! instruction paths per tuple are long (per-tuple virtual calls through
//! many operators). The staged engine (`dbcmp-staged`) reuses these
//! operators but schedules them in batches per stage.
//!
//! Operators run read-only against the database (reporting isolation);
//! transactional access goes through [`Database`]
//! methods directly.

mod expr;
mod filter;
mod hash_agg;
mod hash_join;
mod index_join;
mod rows;
mod scan;
pub mod shuffle_join;
pub mod sort;

pub use expr::{AggFunc, AggSpec, CmpOp, Pred, Scalar};
pub use filter::Filter;
pub use hash_agg::{GroupTable, HashAggregate};
pub use hash_join::{BuildTable, HashJoin, JoinKind};
pub use index_join::IndexJoin;
pub use rows::Rows;
pub use scan::SeqScan;
pub use shuffle_join::ExchangeStrategy;
pub use sort::Sort;

use crate::db::Database;
use crate::error::Result;
use crate::tctx::TraceCtx;
use crate::types::Row;

/// The iterator interface every operator implements.
pub trait Executor {
    /// Prepare for iteration (materialize build sides, open cursors).
    fn open(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<()>;
    /// Produce the next output row, or `None` when exhausted.
    fn next(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<Option<Row>>;
    /// Produce the next output row that satisfies `pred`, evaluating (and
    /// charging) `pred` once per row passed over — what [`Filter`] asks
    /// of its child. An operator that can test a row before it has
    /// materialised it ([`SeqScan`], on the page image) overrides this;
    /// the charges and their order are the same either way.
    fn next_matching(
        &mut self,
        pred: &Pred,
        db: &Database,
        tc: &mut TraceCtx,
    ) -> Result<Option<Row>> {
        while let Some(row) = self.next(db, tc)? {
            if pred.eval(&row, tc) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
    /// Release state (the operator may be re-opened afterwards).
    fn close(&mut self);
}

/// Boxed operator (plan node).
pub type BoxExec = Box<dyn Executor + Send>;

/// Drive a plan to completion, collecting all rows. It drives the plan
/// exactly as [`run_count`] does, and neither traces anything of its
/// own, so a capture records the same events through either.
pub fn run_to_vec(plan: &mut dyn Executor, db: &Database, tc: &mut TraceCtx) -> Result<Vec<Row>> {
    plan.open(db, tc)?;
    let mut out = Vec::new();
    while let Some(row) = plan.next(db, tc)? {
        out.push(row);
    }
    plan.close();
    Ok(out)
}

/// Drive a plan, counting rows without materializing them.
pub fn run_count(plan: &mut dyn Executor, db: &Database, tc: &mut TraceCtx) -> Result<usize> {
    plan.open(db, tc)?;
    let mut n = 0;
    while plan.next(db, tc)?.is_some() {
        n += 1;
    }
    plan.close();
    Ok(n)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::schema::Schema;
    use crate::types::{ColType, Value};

    /// A small table: (id INT, grp INT, amount DECIMAL, name STR).
    pub(crate) fn sample_db(rows: i64) -> (Database, usize) {
        let mut db = Database::new();
        let t = db.create_table(
            "sample",
            Schema::new(vec![
                ("id", ColType::Int),
                ("grp", ColType::Int),
                ("amount", ColType::Decimal),
                ("name", ColType::Str(12)),
            ]),
        );
        let mut tc = db.null_ctx();
        let mut load = db.loader(&mut tc).unwrap();
        for i in 0..rows {
            load.insert(
                t,
                &[
                    Value::Int(i),
                    Value::Int(i % 7),
                    Value::Decimal(i * 100),
                    Value::Str(format!("name{}", i % 5)),
                ],
            )
            .unwrap();
        }
        load.finish().unwrap();
        (db, t)
    }
}
