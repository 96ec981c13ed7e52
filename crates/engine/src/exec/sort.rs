//! Sort operator (materializing).

use crate::costs::instr;
use crate::db::Database;
use crate::error::Result;
use crate::exec::{BoxExec, Executor};
use crate::tctx::TraceCtx;
use crate::types::Row;

/// Sort key: column index + descending flag.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    /// Column index into the input row.
    pub col: usize,
    /// Sort descending when `true`.
    pub desc: bool,
}

/// Materialize the child and sort. Comparison instructions are charged at
/// n·log2(n); the sort buffer is a traced region written once per row.
pub struct Sort {
    child: BoxExec,
    keys: Vec<SortKey>,
    rows: Vec<Row>,
    emit: usize,
}

impl Sort {
    /// Sort `child`'s rows by `keys`, major key first.
    pub fn new(child: BoxExec, keys: Vec<SortKey>) -> Self {
        Sort {
            child,
            keys,
            rows: Vec::new(),
            emit: 0,
        }
    }
}

impl Executor for Sort {
    fn open(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<()> {
        self.child.open(db, tc)?;
        self.rows.clear();
        self.emit = 0;
        let buf = tc.scratch_alloc(&db.space, 1 << 20);
        while let Some(row) = self.child.next(db, tc)? {
            let width = (row.len() as u64) * 16;
            tc.store(
                buf + (self.rows.len() as u64 * width) % (1 << 20),
                width as u32,
            );
            self.rows.push(row);
        }
        self.child.close();

        let n = self.rows.len().max(2) as f64;
        let cmps = (n * n.log2()) as u32;
        tc.charge(
            tc.r.exec_sort,
            instr::SORT_CMP.saturating_mul(cmps.min(50_000_000)),
        );
        let keys = self.keys.clone();
        self.rows.sort_by(|a, b| {
            for k in &keys {
                let ord = a[k.col]
                    .partial_cmp(&b[k.col])
                    .unwrap_or(std::cmp::Ordering::Equal);
                let ord = if k.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(())
    }

    fn next(&mut self, _db: &Database, _tc: &mut TraceCtx) -> Result<Option<Row>> {
        if self.emit >= self.rows.len() {
            return Ok(None);
        }
        let row = self.rows[self.emit].clone();
        self.emit += 1;
        Ok(Some(row))
    }

    fn close(&mut self) {
        self.rows.clear();
        self.emit = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testutil::sample_db;
    use crate::exec::{run_to_vec, SeqScan};
    use crate::types::Value;

    #[test]
    fn sorts_ascending_and_descending() {
        let (db, t) = sample_db(50);
        let mut tc = db.null_ctx();
        let key = |desc| vec![SortKey { col: 0, desc }];
        let mut plan = Sort::new(Box::new(SeqScan::new(t)), key(true));
        let rows = run_to_vec(&mut plan, &db, &mut tc).unwrap();
        assert_eq!(rows[0][0], Value::Int(49));
        assert_eq!(rows[49][0], Value::Int(0));

        let mut plan = Sort::new(Box::new(SeqScan::new(t)), key(false));
        let rows = run_to_vec(&mut plan, &db, &mut tc).unwrap();
        assert_eq!(rows[0][0], Value::Int(0));
    }

    #[test]
    fn multi_key_sort() {
        let (db, t) = sample_db(50);
        let mut tc = db.null_ctx();
        // Sort by grp asc, id desc.
        let mut plan = Sort::new(
            Box::new(SeqScan::new(t)),
            vec![
                SortKey {
                    col: 1,
                    desc: false,
                },
                SortKey { col: 0, desc: true },
            ],
        );
        let rows = run_to_vec(&mut plan, &db, &mut tc).unwrap();
        for w in rows.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let ga = a[1].as_i64().unwrap();
            let gb = b[1].as_i64().unwrap();
            assert!(ga <= gb);
            if ga == gb {
                assert!(a[0].as_i64().unwrap() >= b[0].as_i64().unwrap());
            }
        }
    }
}
