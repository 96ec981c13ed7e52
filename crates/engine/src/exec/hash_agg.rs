//! Hash aggregation (GROUP BY).
//!
//! Materializes group states at `open`, emits one row per group at `next`:
//! group columns followed by aggregate values. The group table lives in
//! the simulated address space; each input row costs an update (store) to
//! its group's line.

#[allow(
    clippy::disallowed_types,
    reason = "key->index lookup and len-only distinct sets; emission order is the insertion-ordered `groups` Vec"
)]
use std::collections::{HashMap, HashSet};

use crate::costs::instr;
use crate::db::Database;
use crate::error::Result;
use crate::exec::expr::{AggFunc, AggSpec};
use crate::exec::{BoxExec, Executor};
use crate::tctx::TraceCtx;
use crate::types::{Row, Value};

#[derive(Debug, Clone)]
struct GroupState {
    count: i64,
    non_null: Vec<i64>,
    sums: Vec<i64>,
    mins: Vec<i64>,
    maxs: Vec<i64>,
    #[allow(
        clippy::disallowed_types,
        reason = "only `len()` is read (COUNT DISTINCT)"
    )]
    distincts: Vec<HashSet<i64>>,
}

/// GROUP BY `group_cols` with aggregate columns `aggs`.
pub struct HashAggregate {
    child: BoxExec,
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    groups: Vec<(Vec<Value>, GroupState)>,
    emit: usize,
    table_addr: u64,
}

impl HashAggregate {
    /// Group `child` by `group_cols`, computing `aggs` per group.
    pub fn new(child: BoxExec, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        HashAggregate {
            child,
            group_cols,
            aggs,
            groups: Vec::new(),
            emit: 0,
            table_addr: 0,
        }
    }

    #[allow(
        clippy::disallowed_types,
        reason = "len-only distinct counters, see GroupState"
    )]
    fn fresh_state(&self) -> GroupState {
        GroupState {
            count: 0,
            non_null: vec![0; self.aggs.len()],
            sums: vec![0; self.aggs.len()],
            mins: vec![i64::MAX; self.aggs.len()],
            maxs: vec![i64::MIN; self.aggs.len()],
            distincts: vec![HashSet::new(); self.aggs.len()],
        }
    }
}

impl Executor for HashAggregate {
    fn open(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<()> {
        self.child.open(db, tc)?;
        self.table_addr = tc.scratch_alloc(&db.space, 64 * 1024);
        #[allow(
            clippy::disallowed_types,
            reason = "get/insert only; rows are emitted from `groups`, which preserves first-seen key order"
        )]
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut groups: Vec<(Vec<Value>, GroupState)> = Vec::new();
        // Refilled in place per row and probed as a slice: a row of an
        // existing group allocates nothing, a new group clones it.
        let mut key = vec![Value::Null; self.group_cols.len()];

        while let Some(row) = self.child.next(db, tc)? {
            tc.charge(tc.r.exec_agg, instr::AGG_UPDATE);
            for (slot, &c) in key.iter_mut().zip(&self.group_cols) {
                slot.clone_from(&row[c]);
            }
            let gi = match index.get(key.as_slice()) {
                Some(&gi) => gi,
                None => {
                    let gi = groups.len();
                    index.insert(key.clone(), gi);
                    groups.push((key.clone(), self.fresh_state()));
                    gi
                }
            };
            // Group-state line: dependent load (hash probe) + store.
            let line = self.table_addr + (gi as u64 % 1024) * 64;
            tc.load_dep(line, 32);
            tc.store(line, 32);

            let (_, state) = &mut groups[gi];
            state.count += 1;
            for (ai, spec) in self.aggs.iter().enumerate() {
                let v = spec.input.eval_i64(&row);
                match spec.func {
                    AggFunc::Count => {}
                    AggFunc::CountNonNull => {
                        if !spec.input.eval(&row).is_null() {
                            state.non_null[ai] += 1;
                        }
                    }
                    AggFunc::Sum | AggFunc::Avg => state.sums[ai] += v,
                    AggFunc::Min => state.mins[ai] = state.mins[ai].min(v),
                    AggFunc::Max => state.maxs[ai] = state.maxs[ai].max(v),
                    AggFunc::CountDistinct => {
                        state.distincts[ai].insert(v);
                    }
                }
            }
        }
        self.child.close();
        self.groups = groups;
        self.emit = 0;
        Ok(())
    }

    fn next(&mut self, _db: &Database, tc: &mut TraceCtx) -> Result<Option<Row>> {
        if self.emit >= self.groups.len() {
            return Ok(None);
        }
        let (key, state) = &self.groups[self.emit];
        self.emit += 1;
        tc.charge(tc.r.exec_agg, instr::AGG_UPDATE);
        let mut out = key.clone();
        for (ai, spec) in self.aggs.iter().enumerate() {
            out.push(match spec.func {
                AggFunc::Count => Value::Int(state.count),
                AggFunc::CountNonNull => Value::Int(state.non_null[ai]),
                AggFunc::Sum => Value::Decimal(state.sums[ai]),
                AggFunc::Avg => Value::Decimal(if state.count == 0 {
                    0
                } else {
                    state.sums[ai] / state.count
                }),
                AggFunc::Min => Value::Decimal(state.mins[ai]),
                AggFunc::Max => Value::Decimal(state.maxs[ai]),
                AggFunc::CountDistinct => Value::Int(state.distincts[ai].len() as i64),
            });
        }
        Ok(Some(out))
    }

    fn close(&mut self) {
        self.groups.clear();
        self.emit = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::expr::Scalar;
    use crate::exec::testutil::sample_db;
    use crate::exec::{run_to_vec, Rows, SeqScan};
    use std::collections::BTreeMap;

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
