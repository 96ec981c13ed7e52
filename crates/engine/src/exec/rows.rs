//! In-memory row source: replays an already-materialized row vector
//! through the executor interface.
//!
//! Distributed plans use it to feed rows that crossed an exchange (and
//! were charged routing/shipping cost there) into ordinary operators —
//! each instance's hash join over its post-exchange fragments, the
//! partial aggregate over that join's output, the coordinator's merge
//! aggregate over shipped partials. The source
//! itself charges nothing: the rows' production cost was paid where
//! they were produced, and their shipping cost at the exchange.

use crate::db::Database;
use crate::error::Result;
use crate::exec::Executor;
use crate::tctx::TraceCtx;
use crate::types::Row;

/// A row-vector source (see module docs). Re-openable: `open` rewinds
/// the cursor to the first row.
pub struct Rows {
    rows: Vec<Row>,
    cursor: usize,
}

impl Rows {
    /// Wrap `rows` as an executor source.
    pub fn new(rows: Vec<Row>) -> Self {
        Rows { rows, cursor: 0 }
    }
}

impl Executor for Rows {
    fn open(&mut self, _db: &Database, _tc: &mut TraceCtx) -> Result<()> {
        self.cursor = 0;
        Ok(())
    }

    fn next(&mut self, _db: &Database, _tc: &mut TraceCtx) -> Result<Option<Row>> {
        let row = self.rows.get(self.cursor).cloned();
        if row.is_some() {
            self.cursor += 1;
        }
        Ok(row)
    }

    fn close(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_to_vec;
    use crate::types::Value;

    #[test]
    fn replays_rows_in_order_and_reopens() {
        let db = Database::new();
        let mut tc = db.null_ctx();
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(3)],
        ];
        let mut src = Rows::new(rows.clone());
        assert_eq!(run_to_vec(&mut src, &db, &mut tc).unwrap(), rows);
        // Re-open rewinds.
        assert_eq!(run_to_vec(&mut src, &db, &mut tc).unwrap(), rows);
        let before = tc.instrs();
        let mut empty = Rows::new(Vec::new());
        assert!(run_to_vec(&mut empty, &db, &mut tc).unwrap().is_empty());
        assert_eq!(tc.instrs(), before, "the source charges nothing");
    }
}
