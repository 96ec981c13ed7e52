//! Hash join (inner and left-outer).
//!
//! Build side is materialized into a [`BuildTable`] allocated in the
//! simulated address space; probes emit a dependent load per bucket
//! (hash-chain walk). Outer joins preserve unmatched probe rows padded
//! with NULLs.

#[allow(
    clippy::disallowed_types,
    reason = "the build table is probed by key only; output follows probe-stream order"
)]
use std::collections::HashMap;

use crate::costs::instr;
use crate::db::Database;
use crate::error::Result;
use crate::exec::{BoxExec, Executor};
use crate::tctx::TraceCtx;
use crate::types::{Row, Value};

/// Join kind. For `LeftOuter`, the *probe* side is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Emit matching pairs only.
    Inner,
    /// Additionally keep unmatched probe rows, padded with NULLs.
    LeftOuter,
}

/// The multiplicative mix of a join key, before reduction to a bucket
/// or an instance: bucket placement ([`bucket_addr`]) and shuffle routing
/// (`shuffle_join::partition_of`) reduce the same value, so rows that
/// collide in a bucket also land on the same instance.
pub(crate) fn key_hash(key: &Value) -> u64 {
    let h = match key {
        Value::Int(v) | Value::Decimal(v) => *v as u64,
        Value::Date(d) => *d as u64,
        Value::Str(s) => s.bytes().fold(1469598103934665603u64, |h, b| {
            (h ^ b as u64).wrapping_mul(1099511628211)
        }),
        Value::Null => 0,
    };
    h.wrapping_mul(0x9E3779B97F4A7C15)
}

/// Map a join key to its simulated bucket line within a table of
/// `n_buckets` 64-byte buckets based at `base`.
pub(crate) fn bucket_addr(base: u64, n_buckets: u64, key: &Value) -> u64 {
    base + (key_hash(key) % n_buckets.max(1)) * 64
}

/// A built hash-join table and its whole cost model — the one place a
/// build row or a probe is charged. The executor's [`HashJoin`] and the
/// staged engine's `JoinTable` both build and probe through it, so their
/// captures of the same join touch the same simulated address pattern;
/// they differ only in where the bucket array lives, which the caller
/// decides by passing its base address.
#[derive(Debug)]
pub struct BuildTable {
    #[allow(
        clippy::disallowed_types,
        reason = "probed per key; per-key match Vecs preserve build order"
    )]
    table: HashMap<Value, Vec<Row>>,
    base: u64,
    n_buckets: u64,
    build_width: usize,
}

impl BuildTable {
    /// Simulated bytes of the bucket array for `n_rows` build rows: one
    /// 64-byte bucket per row, rounded up to a power of two, at least 64
    /// buckets. The caller allocates this much and passes the address to
    /// [`BuildTable::build`].
    pub fn bytes_for(n_rows: usize) -> u64 {
        Self::buckets_for(n_rows) * 64
    }

    fn buckets_for(n_rows: usize) -> u64 {
        (n_rows as u64).next_power_of_two().max(64)
    }

    /// Load `rows` into a table keyed on column `key`, whose bucket array
    /// is the [`BuildTable::bytes_for`]`(rows.len())` bytes at `base`.
    /// Every row is charged `HJ_BUILD_ROW`; rows with a NULL key are then
    /// dropped (SQL: NULL never participates in an equi-join), the rest
    /// store 16 bytes into their bucket line.
    pub fn build(base: u64, rows: Vec<Row>, key: usize, tc: &mut TraceCtx) -> Self {
        #[allow(
            clippy::disallowed_types,
            reason = "filled in deterministic input order; the map is only ever probed"
        )]
        let mut t = BuildTable {
            table: HashMap::with_capacity(rows.len()),
            base,
            n_buckets: Self::buckets_for(rows.len()),
            build_width: 0,
        };
        for row in rows {
            tc.charge(tc.r.exec_hashjoin, instr::HJ_BUILD_ROW);
            t.build_width = row.len();
            let k = row[key].clone();
            if k.is_null() {
                continue;
            }
            tc.store(bucket_addr(t.base, t.n_buckets, &k), 16);
            t.table.entry(k).or_default().push(row);
        }
        t
    }

    /// Probe with `row` keyed on column `key`, appending `row ++ build`
    /// to `out` for every match in build order; returns whether anything
    /// matched (a NULL key never does). Charges `HJ_PROBE_ROW`, a
    /// dependent 16-byte load of the bucket header, and one 16-byte load
    /// of the same line per match (chain walks past the first hop are not
    /// modeled — DESIGN.md §4).
    pub fn probe(&self, row: &[Value], key: usize, out: &mut Vec<Row>, tc: &mut TraceCtx) -> bool {
        tc.charge(tc.r.exec_hashjoin, instr::HJ_PROBE_ROW);
        let k = &row[key];
        if k.is_null() {
            return false;
        }
        let addr = bucket_addr(self.base, self.n_buckets, k);
        tc.load_dep(addr, 16);
        let Some(matches) = self.table.get(k) else {
            return false;
        };
        for m in matches {
            tc.load(addr, 16);
            let mut combined = Vec::with_capacity(row.len() + m.len());
            combined.extend_from_slice(row);
            combined.extend_from_slice(m);
            out.push(combined);
        }
        true
    }

    /// Width of the build rows (0 if there were none).
    pub(crate) fn build_width(&self) -> usize {
        self.build_width
    }
}

/// Hash join: `build` side loaded into a [`BuildTable`] keyed by
/// `build_key`, allocated from the context's scratch; `probe` side
/// streamed, matching on `probe_key`. Output = probe row ++ build row.
pub struct HashJoin {
    build: BoxExec,
    probe: BoxExec,
    build_key: usize,
    probe_key: usize,
    kind: JoinKind,
    /// Built by `open`.
    table: Option<BuildTable>,
    /// Matches pending emission for the current probe row.
    pending: Vec<Row>,
}

impl HashJoin {
    /// Join `build` (keyed on `build_key`) against streamed `probe`
    /// rows (keyed on `probe_key`).
    pub fn new(
        build: BoxExec,
        build_key: usize,
        probe: BoxExec,
        probe_key: usize,
        kind: JoinKind,
    ) -> Self {
        HashJoin {
            build,
            probe,
            build_key,
            probe_key,
            kind,
            table: None,
            pending: Vec::new(),
        }
    }
}

impl Executor for HashJoin {
    fn open(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<()> {
        self.build.open(db, tc)?;
        let mut rows = Vec::new();
        while let Some(row) = self.build.next(db, tc)? {
            rows.push(row);
        }
        self.build.close();

        let base = tc.scratch_alloc(&db.space, BuildTable::bytes_for(rows.len()));
        self.table = Some(BuildTable::build(base, rows, self.build_key, tc));
        self.probe.open(db, tc)
    }

    fn next(&mut self, db: &Database, tc: &mut TraceCtx) -> Result<Option<Row>> {
        let Some(table) = self.table.as_ref() else {
            return Ok(None);
        };
        loop {
            if let Some(out) = self.pending.pop() {
                return Ok(Some(out));
            }
            let Some(probe_row) = self.probe.next(db, tc)? else {
                return Ok(None);
            };
            let matched = table.probe(&probe_row, self.probe_key, &mut self.pending, tc);
            if !matched && self.kind == JoinKind::LeftOuter {
                // Outer joins keep the unmatched probe row, NULL-padded.
                let mut out = probe_row;
                out.extend(std::iter::repeat_n(Value::Null, table.build_width()));
                return Ok(Some(out));
            }
        }
    }

    fn close(&mut self) {
        self.probe.close();
        self.table = None;
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::expr::{CmpOp, Pred};
    use crate::exec::testutil::sample_db;
    use crate::exec::{run_to_vec, Filter, SeqScan};

    #[test]
    fn inner_join_on_group() {
        let (db, t) = sample_db(50);
        let mut tc = db.null_ctx();
        // Join table with itself on grp: build side = rows with id < 7
        // (one per group), probe = all rows.
        let build = Box::new(Filter::new(
            Box::new(SeqScan::new(t)),
            Pred::Cmp {
                col: 0,
                op: CmpOp::Lt,
                val: Value::Int(7),
            },
        ));
        let probe = Box::new(SeqScan::new(t));
        let mut join = HashJoin::new(build, 1, probe, 1, JoinKind::Inner);
        let rows = run_to_vec(&mut join, &db, &mut tc).unwrap();
        // Every probe row matches exactly one build row (grp 0..6 unique in
        // build).
        assert_eq!(rows.len(), 50);
        // Output width: probe (4) + build (4).
        assert_eq!(rows[0].len(), 8);
        for r in &rows {
            assert_eq!(r[1], r[5], "join keys must agree");
        }
    }

    #[test]
    fn left_outer_pads_nulls() {
        let (db, t) = sample_db(20);
        let mut tc = db.null_ctx();
        // Build side empty (id < 0): all probe rows unmatched.
        let build = Box::new(Filter::new(
            Box::new(SeqScan::new(t)),
            Pred::Cmp {
                col: 0,
                op: CmpOp::Lt,
                val: Value::Int(0),
            },
        ));
        let probe = Box::new(SeqScan::new(t));
        let mut join = HashJoin::new(build, 1, probe, 1, JoinKind::LeftOuter);
        let rows = run_to_vec(&mut join, &db, &mut tc).unwrap();
        assert_eq!(rows.len(), 20);
        // Build width is unknown (0 rows) → no padding columns; probe row
        // must still come through intact.
        assert_eq!(rows[0].len(), 4);

        // Now a partial build: grp == 3 matched, others padded.
        let build = Box::new(Filter::new(
            Box::new(SeqScan::new(t)),
            Pred::Cmp {
                col: 1,
                op: CmpOp::Eq,
                val: Value::Int(3),
            },
        ));
        let probe = Box::new(SeqScan::new(t));
        let mut join = HashJoin::new(build, 1, probe, 1, JoinKind::LeftOuter);
        let rows = run_to_vec(&mut join, &db, &mut tc).unwrap();
        let matched: Vec<_> = rows
            .iter()
            .filter(|r| r.len() == 8 && !r[4].is_null())
            .collect();
        let unmatched: Vec<_> = rows.iter().filter(|r| r[1] != Value::Int(3)).collect();
        assert!(!matched.is_empty());
        assert!(unmatched.iter().all(|r| r[4..].iter().all(Value::is_null)));
    }

    #[test]
    fn duplicate_build_keys_emit_every_match() {
        let (db, t) = sample_db(35);
        let mut tc = db.null_ctx();
        // Build: all 35 rows keyed on grp (grp = id % 7 → 5 rows per
        // group). Probe: one row per group (id < 7).
        let build = Box::new(SeqScan::new(t));
        let probe = Box::new(Filter::new(
            Box::new(SeqScan::new(t)),
            Pred::Cmp {
                col: 0,
                op: CmpOp::Lt,
                val: Value::Int(7),
            },
        ));
        let mut join = HashJoin::new(build, 1, probe, 1, JoinKind::Inner);
        let rows = run_to_vec(&mut join, &db, &mut tc).unwrap();
        // 7 probe rows x 5 duplicate build matches each.
        assert_eq!(rows.len(), 35);
        for r in &rows {
            assert_eq!(r[1], r[5], "every emitted pair agrees on the key");
        }
    }

    #[test]
    fn null_keys_match_nothing() {
        use crate::exec::Rows;
        let (db, t) = sample_db(12);
        let mut tc = db.null_ctx();
        // Probe rows whose key column is NULL: inner join drops them all.
        let null_probe = || {
            let rows = (0..12).map(|i| vec![Value::Null, Value::Int(i % 7)]);
            Box::new(Rows::new(rows.collect()))
        };
        let build = Box::new(SeqScan::new(t));
        let mut join = HashJoin::new(build, 1, null_probe(), 0, JoinKind::Inner);
        assert!(run_to_vec(&mut join, &db, &mut tc).unwrap().is_empty());

        // Left-outer keeps them, padded — and NULL build keys are not
        // admitted to the table, so nothing ever matches NULL.
        let build = Box::new(SeqScan::new(t));
        let mut join = HashJoin::new(build, 1, null_probe(), 0, JoinKind::LeftOuter);
        let rows = run_to_vec(&mut join, &db, &mut tc).unwrap();
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r[2..].iter().all(Value::is_null)));
    }
}
