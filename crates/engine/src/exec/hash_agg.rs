//! Hash aggregation (GROUP BY).
//!
//! [`GroupTable`] is the host side of every GROUP BY in the engine: it
//! folds rows into groups and formats each group's output row. The
//! executor's [`HashAggregate`] and the staged engine's batch aggregate
//! both run on it and add only what they trace — the simulated address
//! of the group table and the line each row touches.

use std::collections::BTreeMap;

use crate::costs::instr;
use crate::db::Database;
use crate::error::Result;
use crate::exec::expr::{AggFunc, AggSpec};
use crate::exec::{BoxExec, Executor};
use crate::tctx::TraceCtx;
use crate::types::{Columns, Row, Value};

#[allow(
    clippy::disallowed_types,
    reason = "COUNT DISTINCT reads only `len()`; the set's order never escapes"
)]
type DistinctSet = std::collections::HashSet<i64>;

/// One group: its key, its row count and one accumulator per aggregate.
#[derive(Debug)]
struct Group {
    key: Vec<Value>,
    count: i64,
    /// The running sum, minimum, maximum or non-NULL count; unused by
    /// `Count` and `CountDistinct`.
    acc: Vec<i64>,
    /// The values seen, for `CountDistinct`; empty otherwise.
    distinct: Vec<DistinctSet>,
}

/// Rows folded into groups by `group_cols`, computing `aggs` per group.
/// Groups keep the order their keys were first seen in.
#[derive(Debug)]
pub struct GroupTable {
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    /// The current row's key, refilled in place per row and probed as a
    /// slice: a row of an existing group allocates nothing.
    key: Vec<Value>,
    /// Each key's ordinal in `groups`.
    index: BTreeMap<Vec<Value>, usize>,
    groups: Vec<Group>,
}

impl GroupTable {
    /// An empty table grouping by `group_cols`.
    pub fn new(group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        GroupTable {
            key: vec![Value::Null; group_cols.len()],
            group_cols,
            aggs,
            index: BTreeMap::new(),
            groups: Vec::new(),
        }
    }

    /// Fold one row — materialised or still in its page — into its
    /// group, and return the group's ordinal. Traces nothing.
    pub fn fold<R: Columns + ?Sized>(&mut self, row: &R) -> usize {
        for (slot, &c) in self.key.iter_mut().zip(&self.group_cols) {
            row.col_into(c, slot);
        }
        let gi = match self.index.get(self.key.as_slice()) {
            Some(&gi) => gi,
            None => {
                let gi = self.groups.len();
                self.index.insert(self.key.clone(), gi);
                self.groups.push(Group {
                    key: self.key.clone(),
                    count: 0,
                    acc: self
                        .aggs
                        .iter()
                        .map(|spec| match spec.func {
                            AggFunc::Min => i64::MAX,
                            AggFunc::Max => i64::MIN,
                            AggFunc::Count
                            | AggFunc::CountNonNull
                            | AggFunc::Sum
                            | AggFunc::Avg
                            | AggFunc::CountDistinct => 0,
                        })
                        .collect(),
                    distinct: vec![DistinctSet::default(); self.aggs.len()],
                });
                gi
            }
        };
        let g = &mut self.groups[gi];
        g.count += 1;
        for ((spec, acc), distinct) in self.aggs.iter().zip(&mut g.acc).zip(&mut g.distinct) {
            match spec.func {
                AggFunc::Count => {}
                AggFunc::CountNonNull => *acc += i64::from(!spec.input.eval(row).is_null()),
                AggFunc::Sum | AggFunc::Avg => *acc += spec.input.eval_i64(row),
                AggFunc::Min => *acc = (*acc).min(spec.input.eval_i64(row)),
                AggFunc::Max => *acc = (*acc).max(spec.input.eval_i64(row)),
                AggFunc::CountDistinct => {
                    distinct.insert(spec.input.eval_i64(row));
                }
            }
        }
        gi
    }

    /// Group `gi`'s output row: its key, then one value per aggregate.
    pub(crate) fn row(&self, gi: usize) -> Row {
        let g = &self.groups[gi];
        let mut out = g.key.clone();
        for ((spec, &acc), distinct) in self.aggs.iter().zip(&g.acc).zip(&g.distinct) {
            out.push(match spec.func {
                AggFunc::Count => Value::Int(g.count),
                AggFunc::CountNonNull => Value::Int(acc),
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => Value::Decimal(acc),
                // A group exists only once a row has been folded into it.
                AggFunc::Avg => Value::Decimal(acc / g.count),
                AggFunc::CountDistinct => Value::Int(distinct.len() as i64),
            });
        }
        out
    }

    /// Every group's output row, in first-seen order.
    pub fn rows(&self) -> Vec<Row> {
        (0..self.len()).map(|gi| self.row(gi)).collect()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no row has been folded since the last `clear`.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Drop every group.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.groups.clear();
    }
}

/// GROUP BY over a child operator. `open` folds the whole input into a
/// [`GroupTable`]; `next` emits one row per group, in first-seen order.
/// The group table lives in the simulated address space: each input row
/// costs a dependent load and a store at its group's line.
pub struct HashAggregate {
    child: BoxExec,
    table: GroupTable,
    emit: usize,
    table_addr: u64,
}

impl HashAggregate {
    /// Group `child` by `group_cols`, computing `aggs` per group.
    pub fn new(child: BoxExec, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        HashAggregate {
            child,
            table: GroupTable::new(group_cols, aggs),
            emit: 0,
            table_addr: 0,
        }
    }
}

impl Executor for HashAggregate {
    fn open(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<()> {
        self.child.open(db, tc)?;
        self.table_addr = tc.scratch_alloc(&db.space, 64 * 1024);
        self.table.clear();
        while let Some(row) = self.child.next(db, tc)? {
            tc.charge(tc.r.exec_agg, instr::AGG_UPDATE);
            let gi = self.table.fold(&row);
            // Group-state line: dependent load (hash probe) + store.
            let line = self.table_addr + (gi as u64 % 1024) * 64;
            tc.load_dep(line, 32);
            tc.store(line, 32);
        }
        self.child.close();
        self.emit = 0;
        Ok(())
    }

    fn next(&mut self, _db: &Database, tc: &mut TraceCtx) -> Result<Option<Row>> {
        if self.emit >= self.table.len() {
            return Ok(None);
        }
        tc.charge(tc.r.exec_agg, instr::AGG_UPDATE);
        let row = self.table.row(self.emit);
        self.emit += 1;
        Ok(Some(row))
    }

    fn close(&mut self) {
        self.table.clear();
        self.emit = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::expr::Scalar;
    use crate::exec::testutil::sample_db;
    use crate::exec::{run_to_vec, Rows, SeqScan};

    #[test]
    fn group_count_and_sum() {
        let (db, t) = sample_db(70);
        let mut tc = db.null_ctx();
        // SELECT grp, count(*), sum(amount) GROUP BY grp — 7 groups of 10.
        let mut agg = HashAggregate::new(
            Box::new(SeqScan::new(t)),
            vec![1],
            vec![AggSpec::count(), AggSpec::sum(Scalar::Col(2))],
        );
        let mut rows = run_to_vec(&mut agg, &db, &mut tc).unwrap();
        rows.sort_by_key(|r| r[0].as_i64());
        assert_eq!(rows.len(), 7);
        for (g, r) in rows.iter().enumerate() {
            assert_eq!(r[0], Value::Int(g as i64));
            assert_eq!(r[1], Value::Int(10));
            // ids g, g+7, ..., g+63 → amounts 100*sum
            let expect: i64 = (0..10).map(|k| (g as i64 + 7 * k) * 100).sum();
            assert_eq!(r[2], Value::Decimal(expect));
        }
    }

    #[test]
    fn avg_min_max_distinct() {
        let (db, t) = sample_db(70);
        let mut tc = db.null_ctx();
        let mut agg = HashAggregate::new(
            Box::new(SeqScan::new(t)),
            vec![],
            vec![
                AggSpec::avg(Scalar::Col(0)),
                AggSpec::min(Scalar::Col(0)),
                AggSpec::max(Scalar::Col(0)),
                AggSpec::count_distinct(Scalar::Col(1)),
            ],
        );
        let rows = run_to_vec(&mut agg, &db, &mut tc).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Decimal((0..70).sum::<i64>() / 70));
        assert_eq!(rows[0][1], Value::Decimal(0));
        assert_eq!(rows[0][2], Value::Decimal(69));
        assert_eq!(rows[0][3], Value::Int(7));
    }

    #[test]
    fn empty_input_no_groups() {
        let (db, t) = sample_db(0);
        let mut tc = db.null_ctx();
        let mut agg =
            HashAggregate::new(Box::new(SeqScan::new(t)), vec![1], vec![AggSpec::count()]);
        let rows = run_to_vec(&mut agg, &db, &mut tc).unwrap();
        assert!(rows.is_empty());
    }

    /// Rows whose string keys shrink ("AB", then "A"), a long run of hits,
    /// then new groups: a key buffer reused across rows must neither keep
    /// a stale tail nor miss a late group.
    fn key_reuse_rows() -> Vec<Row> {
        let row =
            |s: &str, g: i64, v: i64| vec![Value::Str(s.into()), Value::Int(g), Value::Decimal(v)];
        let mut rows = vec![
            row("AB", 1, 10),
            row("A", 1, 20),
            row("AB", 2, 5),
            row("A", 1, 7),
        ];
        rows.extend((0..200).map(|i| row(["AB", "A"][i % 2], 1, i as i64)));
        rows.extend([
            row("", 1, 1),
            row("ABC", 1, 2),
            row("A", 3, 3),
            row("AB", 1, 4),
        ]);
        rows
    }

    /// The borrowed-key fold gives the answer, and records the events, of
    /// a fold that builds a fresh key per row.
    #[test]
    fn reused_key_buffer_matches_a_fresh_key_per_row() {
        let db = Database::new();
        let rows = key_reuse_rows();
        let mut tc = db.trace_ctx();
        let mut agg = HashAggregate::new(
            Box::new(Rows::new(rows.clone())),
            vec![0, 1],
            vec![AggSpec::count(), AggSpec::sum(Scalar::Col(2))],
        );
        let got = run_to_vec(&mut agg, &db, &mut tc).unwrap();

        let mut ref_tc = db.trace_ctx();
        let mut index: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
        let mut groups: Vec<(Vec<Value>, i64, i64)> = Vec::new();
        for row in &rows {
            ref_tc.charge(ref_tc.r.exec_agg, instr::AGG_UPDATE);
            let key = vec![row[0].clone(), row[1].clone()];
            let gi = *index.entry(key.clone()).or_insert_with(|| {
                groups.push((key, 0, 0));
                groups.len() - 1
            });
            let line = agg.table_addr + (gi as u64 % 1024) * 64;
            ref_tc.load_dep(line, 32);
            ref_tc.store(line, 32);
            groups[gi].1 += 1;
            groups[gi].2 += row[2].as_i64().unwrap();
        }
        let mut expect = Vec::new();
        for (mut key, count, sum) in groups {
            ref_tc.charge(ref_tc.r.exec_agg, instr::AGG_UPDATE);
            key.extend([Value::Int(count), Value::Decimal(sum)]);
            expect.push(key);
        }
        assert_eq!(got, expect);
        assert_eq!(got.len(), 6, "every late group is its own group");
        assert_eq!(tc.finish().packed_events(), ref_tc.finish().packed_events());
    }
}
