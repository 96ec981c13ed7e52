//! Sequential heap scan.

use crate::catalog::TableId;
use crate::costs::instr;
use crate::db::Database;
use crate::error::Result;
use crate::exec::{Executor, Pred};
use crate::heap::{HeapTable, Rid};
use crate::tctx::TraceCtx;
use crate::types::{Row, TupleRef};

/// Full-table scan in physical order. Pages are pinned once each (the
/// buffer-pool charge), tuples decoded as visited.
#[derive(Debug)]
pub struct SeqScan {
    table: TableId,
    page: u32,
    slot: u16,
    pinned_page: Option<u32>,
    open: bool,
}

impl SeqScan {
    /// Scan every live row of `table` in physical order.
    pub fn new(table: TableId) -> Self {
        SeqScan {
            table,
            page: 0,
            slot: 0,
            pinned_page: None,
            open: false,
        }
    }

    /// Step to the next live tuple of `heap`, charging the page pin, the
    /// scan step and the tuple read; the tuple stays in its page.
    fn advance<'a>(&mut self, heap: &'a HeapTable, tc: &mut TraceCtx) -> Option<TupleRef<'a>> {
        debug_assert!(self.open, "next before open");
        loop {
            if (self.page as usize) >= heap.n_pages() {
                return None;
            }
            if self.pinned_page != Some(self.page) {
                heap.pin_page(self.page, tc);
                self.pinned_page = Some(self.page);
            }
            tc.charge(tc.r.exec_scan, instr::SCAN_STEP);
            let rid = Rid {
                page: self.page,
                slot: self.slot,
            };
            self.slot += 1;
            match heap.read_at(rid, tc) {
                Some(tuple) => return Some(tuple),
                None => {
                    // Tombstone or end of page: advance page when the slot
                    // range is exhausted.
                    if rid.slot >= heap.page_nslots(self.page) {
                        self.page += 1;
                        self.slot = 0;
                    }
                }
            }
        }
    }
}

impl Executor for SeqScan {
    fn open(&mut self, _db: &Database, _tc: &mut TraceCtx) -> Result<()> {
        self.page = 0;
        self.slot = 0;
        self.pinned_page = None;
        self.open = true;
        Ok(())
    }

    fn next(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<Option<Row>> {
        Ok(self.advance(db.table(self.table), tc).map(|t| t.to_row()))
    }

    /// Test `pred` on the page image; only a tuple that passes is
    /// materialised.
    fn next_matching(
        &mut self,
        pred: &Pred,
        db: &Database,
        tc: &mut TraceCtx,
    ) -> Result<Option<Row>> {
        let heap = db.table(self.table);
        while let Some(tuple) = self.advance(heap, tc) {
            if pred.eval(&tuple, tc) {
                return Ok(Some(tuple.to_row()));
            }
        }
        Ok(None)
    }

    fn close(&mut self) {
        self.open = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_to_vec;
    use crate::exec::testutil::sample_db;
    use crate::types::Value;

    #[test]
    fn scans_all_rows() {
        let (db, t) = sample_db(500);
        let mut tc = db.null_ctx();
        let mut scan = SeqScan::new(t);
        let rows = run_to_vec(&mut scan, &db, &mut tc).unwrap();
        assert_eq!(rows.len(), 500);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[499][0], Value::Int(499));
    }

    #[test]
    fn empty_table_yields_nothing() {
        let (db, _) = sample_db(0);
        // table 0 exists but has no rows
        let mut tc = db.null_ctx();
        let mut scan = SeqScan::new(0);
        let rows = run_to_vec(&mut scan, &db, &mut tc).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn rescannable_after_reopen() {
        let (db, t) = sample_db(50);
        let mut tc = db.null_ctx();
        let mut scan = SeqScan::new(t);
        let a = run_to_vec(&mut scan, &db, &mut tc).unwrap();
        let b = run_to_vec(&mut scan, &db, &mut tc).unwrap();
        assert_eq!(a, b);
    }
}
