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
use crate::exec::{BoxExec, Executor, JoinKind};
use crate::tctx::TraceCtx;
use crate::types::{Row, Value};

/// Index-nested-loop join: `outer` streamed; for each outer row the
/// `index` is probed with the key in column `outer_key`. Output = outer
/// row ++ inner (indexed-table) row. `LeftOuter` preserves unmatched
/// outer rows padded with NULLs.
pub struct IndexJoin {
    outer: BoxExec,
    outer_key: usize,
    index: IndexId,
    kind: JoinKind,
    inner_width: usize,
}

impl IndexJoin {
    /// Create a join of `outer` (on column `outer_key`) against `index`.
    pub fn new(outer: BoxExec, outer_key: usize, index: IndexId, kind: JoinKind) -> Self {
        IndexJoin {
            outer,
            outer_key,
            index,
            kind,
            inner_width: 0,
        }
    }
}

impl Executor for IndexJoin {
    fn open(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<()> {
        // Padding width for unmatched probes: the indexed table's arity.
        self.inner_width = db.table(db.index_table(self.index)).schema.columns().len();
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
            match matched {
                Some(inner) => {
                    let mut out = outer_row;
                    out.extend(inner.to_row());
                    return Ok(Some(out));
                }
                None if self.kind == JoinKind::LeftOuter => {
                    let mut out = outer_row;
                    out.extend(std::iter::repeat_n(Value::Null, self.inner_width));
                    return Ok(Some(out));
                }
                None => {}
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
    use crate::exec::{run_to_vec, Filter, Project, Scalar, SeqScan};

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
        let mut join = IndexJoin::new(outer, 0, idx, JoinKind::Inner);
        let rows = run_to_vec(&mut join, &db, &mut tc).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].len(), 8, "outer (4) ++ inner (4)");
        for r in &rows {
            assert_eq!(r[0], r[4], "probe key must match indexed key");
        }
    }

    #[test]
    fn unmatched_probes_drop_or_pad() {
        let (mut db, t) = sample_db(20);
        let idx = db
            .create_index(t, Box::new(|row, _| row.col(0).as_i64().unwrap() as u64))
            .unwrap();
        let mut tc = db.null_ctx();
        // Outer keys = id + 100 → no key matches the indexed 0..20.
        let shifted = |t| {
            Box::new(Project::new(
                Box::new(SeqScan::new(t)),
                vec![Scalar::Add(
                    Box::new(Scalar::Col(0)),
                    Box::new(Scalar::ConstDec(100)),
                )],
            ))
        };
        let mut inner = IndexJoin::new(shifted(t), 0, idx, JoinKind::Inner);
        assert!(run_to_vec(&mut inner, &db, &mut tc).unwrap().is_empty());

        let mut outer = IndexJoin::new(shifted(t), 0, idx, JoinKind::LeftOuter);
        let rows = run_to_vec(&mut outer, &db, &mut tc).unwrap();
        assert_eq!(rows.len(), 20, "left-outer preserves every probe row");
        for r in &rows {
            assert_eq!(r.len(), 1 + 4, "probe (1 col) padded with inner arity");
            assert!(r[1..].iter().all(Value::is_null));
        }
    }

    #[test]
    fn null_keys_never_match() {
        let (mut db, t) = sample_db(5);
        let idx = db
            .create_index(t, Box::new(|row, _| row.col(0).as_i64().unwrap() as u64))
            .unwrap();
        let mut tc = db.null_ctx();
        let nulls = Box::new(Project::new(Box::new(SeqScan::new(t)), vec![Scalar::Null]));
        let mut join = IndexJoin::new(nulls, 0, idx, JoinKind::Inner);
        assert!(
            run_to_vec(&mut join, &db, &mut tc).unwrap().is_empty(),
            "NULL probe keys must not match any indexed key"
        );
    }
}
