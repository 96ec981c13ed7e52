//! Selection operator.

use crate::db::Database;
use crate::error::Result;
use crate::exec::expr::Pred;
use crate::exec::{BoxExec, Executor};
use crate::tctx::TraceCtx;
use crate::types::Row;

/// Pass rows matching a predicate.
pub struct Filter {
    child: BoxExec,
    pred: Pred,
}

impl Filter {
    /// Pass through `child`'s rows that satisfy `pred`.
    pub fn new(child: BoxExec, pred: Pred) -> Self {
        Filter { child, pred }
    }
}

impl Executor for Filter {
    fn open(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<()> {
        self.child.open(db, tc)
    }

    fn next(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<Option<Row>> {
        self.child.next_matching(&self.pred, db, tc)
    }

    fn close(&mut self) {
        self.child.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::expr::CmpOp;
    use crate::exec::testutil::sample_db;
    use crate::exec::{run_to_vec, SeqScan};
    use crate::heap::Rid;
    use crate::types::Value;

    /// A scan that keeps `Executor`'s provided `next_matching`: every row
    /// is materialised, then tested.
    struct Eager(SeqScan);

    impl Executor for Eager {
        fn open(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<()> {
            self.0.open(db, tc)
        }
        fn next(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<Option<Row>> {
            self.0.next(db, tc)
        }
        fn close(&mut self) {
            self.0.close()
        }
    }

    /// Testing the predicate on the page image changes neither the rows
    /// a filtered scan returns nor one event of its trace — tombstones,
    /// page boundaries and a string predicate included.
    #[test]
    fn filtering_on_the_page_image_is_invisible_to_rows_and_trace() {
        let (mut db, t) = sample_db(700);
        let mut tc = db.null_ctx();
        let mut txn = db.begin(&mut tc);
        for slot in [0, 5, 6] {
            db.delete(&mut txn, t, Rid { page: 0, slot }, &mut tc)
                .unwrap();
        }
        db.commit(txn, &mut tc).unwrap();
        assert!(db.table(t).n_pages() > 1);

        let pred = Pred::Or(vec![
            Pred::Cmp {
                col: 1,
                op: CmpOp::Eq,
                val: Value::Int(3),
            },
            Pred::StrPrefix {
                col: 3,
                prefix: "name4".into(),
                negate: false,
            },
        ]);
        let run = |child: BoxExec| {
            let mut tc = db.trace_ctx();
            let rows = run_to_vec(&mut Filter::new(child, pred.clone()), &db, &mut tc).unwrap();
            (rows, tc.finish().packed_events())
        };
        let (rows, events) = run(Box::new(SeqScan::new(t)));
        let (eager_rows, eager_events) = run(Box::new(Eager(SeqScan::new(t))));
        assert!(rows.len() > 100 && rows.len() < 697);
        assert_eq!(rows, eager_rows);
        assert_eq!(events, eager_events);
    }

    #[test]
    fn filters_rows() {
        let (db, t) = sample_db(100);
        let mut tc = db.null_ctx();
        let mut plan = Filter::new(
            Box::new(SeqScan::new(t)),
            Pred::Cmp {
                col: 1,
                op: CmpOp::Eq,
                val: Value::Int(3),
            },
        );
        let rows = run_to_vec(&mut plan, &db, &mut tc).unwrap();
        // grp = id % 7 == 3 → ids 3, 10, 17, ...
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r[1] == Value::Int(3)));
        assert_eq!(rows.len(), (0..100).filter(|i| i % 7 == 3).count());
    }
}
