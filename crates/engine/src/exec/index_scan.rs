//! Index range scan: B+Tree cursor + heap fetch.

use crate::btree::Cursor;
use crate::catalog::IndexId;
use crate::costs::instr;
use crate::db::Database;
use crate::error::Result;
use crate::exec::Executor;
use crate::tctx::TraceCtx;
use crate::types::Row;

/// Scan an index over `[lo, hi]`, fetching matching heap rows.
#[derive(Debug)]
pub struct IndexRangeScan {
    index: IndexId,
    lo: u64,
    hi: u64,
    cursor: Option<Cursor>,
}

impl IndexRangeScan {
    /// Scan `index` over the inclusive key range `[lo, hi]`.
    pub fn new(index: IndexId, lo: u64, hi: u64) -> Self {
        IndexRangeScan {
            index,
            lo,
            hi,
            cursor: None,
        }
    }
}

impl Executor for IndexRangeScan {
    fn open(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<()> {
        self.cursor = Some(db.index_cursor(self.index, self.lo, self.hi, tc));
        Ok(())
    }

    fn next(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<Option<Row>> {
        // lint:allow(panic): Volcano contract — open() precedes next(); a None cursor is a planner bug, not input-dependent
        let cur = self.cursor.as_mut().expect("next before open");
        let table = db.index_table(self.index);
        loop {
            match db.index_cursor_next(self.index, cur, tc) {
                Some((_key, rid)) => {
                    tc.charge(tc.r.exec_scan, instr::SCAN_STEP);
                    match db.table(table).read_at(rid, tc) {
                        Some(tuple) => return Ok(Some(tuple.to_row())),
                        None => continue, // row deleted after index read
                    }
                }
                None => return Ok(None),
            }
        }
    }

    fn close(&mut self) {
        self.cursor = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_to_vec;
    use crate::exec::testutil::sample_db;
    use crate::types::Value;

    #[test]
    fn range_fetches_rows() {
        let (mut db, t) = sample_db(200);
        let idx = db.create_index(t, Box::new(|row, _| row[0].as_i64().unwrap() as u64));
        let mut tc = db.null_ctx();
        let mut scan = IndexRangeScan::new(idx, 50, 59);
        let rows = run_to_vec(&mut scan, &db, &mut tc).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0][0], Value::Int(50));
        assert_eq!(rows[9][0], Value::Int(59));
    }

    #[test]
    fn empty_range() {
        let (mut db, t) = sample_db(10);
        let idx = db.create_index(t, Box::new(|row, _| row[0].as_i64().unwrap() as u64));
        let mut tc = db.null_ctx();
        let mut scan = IndexRangeScan::new(idx, 100, 200);
        let rows = run_to_vec(&mut scan, &db, &mut tc).unwrap();
        assert!(rows.is_empty());
    }
}
