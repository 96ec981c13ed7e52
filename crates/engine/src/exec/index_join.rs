//! Index-nested-loop join: probe a B+Tree index with each outer row.
//!
//! For every outer row the join extracts a `u64` key from `outer_key`,
//! descends the B+Tree (dependent loads per level, charged to the
//! `btree-search` region by the tree itself) and fetches the matching heap
//! row. The B+Tree holds unique keys, so each probe yields at most one
//! match — the N:1 shape of foreign-key joins (lineitem→orders). Unlike
//! [`HashJoin`](crate::exec::HashJoin) there is no build-side working set:
//! the cache pressure is the index's internal nodes plus the heap fetches.

use crate::catalog::IndexId;
use crate::costs::instr;
use crate::db::Database;
use crate::error::Result;
use crate::exec::{BoxExec, Executor};
use crate::tctx::TraceCtx;
use crate::types::Row;

/// Inner index-nested-loop join: `outer` streamed; for each outer row
/// the `index` is probed with the key in column `outer_key`. Output =
/// outer row ++ inner (indexed-table) row; an unmatched outer row is
/// dropped.
pub struct IndexJoin {
    outer: BoxExec,
    outer_key: usize,
    index: IndexId,
}

impl IndexJoin {
    /// Create a join of `outer` (on column `outer_key`) against `index`.
    pub fn new(outer: BoxExec, outer_key: usize, index: IndexId) -> Self {
        IndexJoin {
            outer,
            outer_key,
            index,
        }
    }
}

impl Executor for IndexJoin {
    fn open(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<()> {
        self.outer.open(db, tc)
    }

    fn next(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<Option<Row>> {
        loop {
            let Some(outer_row) = self.outer.next(db, tc)? else {
                return Ok(None);
            };
            tc.charge(tc.r.exec_nlj, instr::INL_PROBE_ROW);
            // NULL (or non-integer) keys never match, SQL-style.
            let matched = outer_row[self.outer_key]
                .as_i64()
                .and_then(|key| db.index_get(self.index, key as u64, tc))
                .and_then(|rid| db.table(db.index_table(self.index)).read_at(rid, tc));
            if let Some(inner) = matched {
                let mut out = outer_row;
                out.extend(inner.to_row());
                return Ok(Some(out));
            }
        }
    }

    fn close(&mut self) {
        self.outer.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::expr::{CmpOp, Pred};
    use crate::exec::testutil::sample_db;
    use crate::exec::{run_to_vec, Filter, Rows, SeqScan};
    use crate::types::Value;

    #[test]
    fn inner_probe_matches_unique_keys() {
        let (mut db, t) = sample_db(40);
        let idx = db
            .create_index(t, Box::new(|row, _| row.col(0).as_i64().unwrap() as u64))
            .unwrap();
        let mut tc = db.null_ctx();
        // Outer: ids 0..10 remapped so that outer col 0 = id*1 (self join
        // on id through the index).
        let outer = Box::new(Filter::new(
            Box::new(SeqScan::new(t)),
            Pred::Cmp {
                col: 0,
                op: CmpOp::Lt,
                val: Value::Int(10),
            },
        ));
        let mut join = IndexJoin::new(outer, 0, idx);
        let rows = run_to_vec(&mut join, &db, &mut tc).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].len(), 8, "outer (4) ++ inner (4)");
        for r in &rows {
            assert_eq!(r[0], r[4], "probe key must match indexed key");
        }
    }

    #[test]
    fn unmatched_probes_drop() {
        let (mut db, t) = sample_db(20);
        let idx = db
            .create_index(t, Box::new(|row, _| row.col(0).as_i64().unwrap() as u64))
            .unwrap();
        let mut tc = db.null_ctx();
        // Outer keys 100..120 → no key matches the indexed 0..20.
        let shifted = Box::new(Rows::new((100..120).map(|k| vec![Value::Int(k)]).collect()));
        let mut join = IndexJoin::new(shifted, 0, idx);
        assert!(run_to_vec(&mut join, &db, &mut tc).unwrap().is_empty());
    }

    #[test]
    fn null_keys_never_match() {
        let (mut db, t) = sample_db(5);
        let idx = db
            .create_index(t, Box::new(|row, _| row.col(0).as_i64().unwrap() as u64))
            .unwrap();
        let mut tc = db.null_ctx();
        let nulls = Box::new(Rows::new(vec![vec![Value::Null]; 5]));
        let mut join = IndexJoin::new(nulls, 0, idx);
        assert!(
            run_to_vec(&mut join, &db, &mut tc).unwrap().is_empty(),
            "NULL probe keys must not match any indexed key"
        );
    }
}
