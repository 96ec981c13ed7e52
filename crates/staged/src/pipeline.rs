//! Staged pipelines: packets, stages, batch aggregation, join stages,
//! policies.

use dbcmp_engine::costs::instr;
use dbcmp_engine::exec::{AggFunc, AggSpec, BuildTable};
use dbcmp_engine::heap::Rid;
use dbcmp_engine::{Columns, Database, TraceCtx, TupleRef, Value};
use dbcmp_workloads::tpch::queries::{JoinSpec, PipelineSpec};
#[allow(
    clippy::disallowed_types,
    reason = "HashSet backs the len-only distinct sets below; every iterated-to-output path uses BTreeMap"
)]
use std::collections::{BTreeMap, HashSet};

/// How to execute a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Conventional Volcano row-at-a-time (baseline).
    Volcano,
    /// Stage-at-a-time over batches of `batch` rows (cohort scheduling).
    Staged {
        /// Rows per cohort batch.
        batch: usize,
    },
    /// Staged + scan partitioned across `producers` packets for parallel
    /// contexts, one consumer aggregation stage.
    StagedParallel {
        /// Rows per handoff packet.
        batch: usize,
        /// Scan partitions, each on its own hardware context.
        producers: usize,
    },
}

/// Instructions of per-call interpretation overhead that batch execution
/// amortizes per tuple per stage (the MonetDB/X100 argument the paper
/// cites in §6.2).
pub const CALL_OVERHEAD: u32 = 6;

/// A built hash table for one [`JoinSpec`] stage: the engine's
/// [`BuildTable`] (so build and probe charges are the executor
/// [`HashJoin`](dbcmp_engine::exec::HashJoin)'s, by construction) over
/// a bucket array in anonymous memory, plus the stage's probe column.
///
/// The build side is scanned, filtered, and loaded **once** when the
/// pipeline starts; every scanned (or previously joined) row then probes
/// it. The table's simulated address range is the stage's working set —
/// the cache-residency knob cohort scheduling exploits: a resident build
/// table turns every probe's dependent load into a cache hit.
#[derive(Debug)]
pub struct JoinTable {
    probe_key: usize,
    table: BuildTable,
}

impl JoinTable {
    /// Scan and filter the build side, loading matching rows keyed by
    /// `build_key`. Charged to `tc` (the context that runs the build
    /// stage).
    pub fn build(db: &Database, spec: &JoinSpec, tc: &mut TraceCtx) -> Self {
        let heap = db.table(spec.build_table);
        let mut rows = Vec::new();
        let mut last_page = u32::MAX;
        for rid in heap.rids() {
            if rid.page != last_page {
                heap.pin_page(rid.page, tc);
                last_page = rid.page;
            }
            tc.charge(tc.r.exec_scan, instr::SCAN_STEP);
            let Some(tuple) = heap.read_at(rid, tc) else {
                continue;
            };
            if spec.build_pred.eval(&tuple, tc) {
                rows.push(tuple.to_row());
            }
        }
        let base = db.space.alloc_anon(BuildTable::bytes_for(rows.len()));
        JoinTable {
            probe_key: spec.probe_key,
            table: BuildTable::build(base, rows, spec.build_key, tc),
        }
    }

    /// Probe with one combined row, appending each match (inner-join
    /// semantics: zero matches drop the row).
    pub fn probe(&self, row: &[Value], out: &mut Vec<Vec<Value>>, tc: &mut TraceCtx) {
        self.table.probe(row, self.probe_key, out, tc);
    }
}

/// Drive one row through a chain of join tables, collecting the fully
/// combined rows into `out`.
fn probe_chain(
    tables: &[JoinTable],
    row: Vec<Value>,
    out: &mut Vec<Vec<Value>>,
    tc: &mut TraceCtx,
) {
    match tables {
        [] => out.push(row),
        [first, rest @ ..] => {
            let mut matched = Vec::new();
            first.probe(&row, &mut matched, tc);
            for m in matched {
                probe_chain(rest, m, out, tc);
            }
        }
    }
}

/// Incremental group-by state for staged execution.
#[derive(Debug)]
pub struct BatchAgg {
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    // BTreeMap, not HashMap: `finish` iterates this map straight into
    // result rows, so iteration order must be deterministic (the
    // stock_level bug class from PR 2).
    groups: BTreeMap<Vec<Value>, AggState>,
    /// The current row's group key, refilled in place per row; cloned
    /// into `groups` only when it starts a new group.
    key: Vec<Value>,
    /// Simulated address of the group table.
    addr: u64,
}

#[derive(Debug, Clone)]
struct AggState {
    count: i64,
    sums: Vec<i64>,
    mins: Vec<i64>,
    maxs: Vec<i64>,
    #[allow(
        clippy::disallowed_types,
        reason = "only `len()` is read (COUNT DISTINCT); iteration order never escapes"
    )]
    distinct: Vec<HashSet<i64>>,
}

impl AggState {
    #[allow(
        clippy::disallowed_types,
        reason = "len-only distinct counters, see AggState"
    )]
    fn new(n_aggs: usize) -> Self {
        AggState {
            count: 0,
            sums: vec![0; n_aggs],
            mins: vec![i64::MAX; n_aggs],
            maxs: vec![i64::MIN; n_aggs],
            distinct: vec![HashSet::new(); n_aggs],
        }
    }

    /// Fold one row's aggregate inputs into this group's state.
    fn fold<R: Columns + ?Sized>(&mut self, aggs: &[AggSpec], row: &R) {
        self.count += 1;
        for (ai, spec) in aggs.iter().enumerate() {
            let v = spec.input.eval_i64(row);
            match spec.func {
                AggFunc::Count | AggFunc::CountNonNull => {}
                AggFunc::Sum | AggFunc::Avg => self.sums[ai] += v,
                AggFunc::Min => self.mins[ai] = self.mins[ai].min(v),
                AggFunc::Max => self.maxs[ai] = self.maxs[ai].max(v),
                AggFunc::CountDistinct => {
                    self.distinct[ai].insert(v);
                }
            }
        }
    }
}

impl BatchAgg {
    /// Empty aggregation state with a simulated group-table allocation.
    pub fn new(db: &Database, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        BatchAgg {
            addr: db.space.alloc_anon(64 * 1024),
            key: vec![Value::Null; group_cols.len()],
            group_cols,
            aggs,
            groups: BTreeMap::new(),
        }
    }

    /// Fold one row — materialised or still in its page — into the state
    /// (traced like the engine's aggregate).
    pub fn update<R: Columns + ?Sized>(&mut self, row: &R, tc: &mut TraceCtx) {
        tc.charge(tc.r.exec_agg, instr::AGG_UPDATE);
        for (slot, &c) in self.key.iter_mut().zip(&self.group_cols) {
            row.col_into(c, slot);
        }
        let gi = self.groups.len() as u64;
        let line = self.addr + (gi % 1024) * 64;
        tc.load_dep(line, 32);
        tc.store(line, 32);
        match self.groups.get_mut(self.key.as_slice()) {
            Some(state) => state.fold(&self.aggs, row),
            None => {
                let mut state = AggState::new(self.aggs.len());
                state.fold(&self.aggs, row);
                self.groups.insert(self.key.clone(), state);
            }
        }
    }

    /// Merge another partition's state (parallel consumers).
    pub fn merge(&mut self, other: BatchAgg) {
        for (key, o) in other.groups {
            match self.groups.get_mut(&key) {
                Some(s) => {
                    s.count += o.count;
                    for i in 0..s.sums.len() {
                        s.sums[i] += o.sums[i];
                        s.mins[i] = s.mins[i].min(o.mins[i]);
                        s.maxs[i] = s.maxs[i].max(o.maxs[i]);
                        s.distinct[i].extend(o.distinct[i].iter().copied());
                    }
                }
                None => {
                    self.groups.insert(key, o);
                }
            }
        }
    }

    /// Emit final rows (group cols ++ aggregates) in ascending group-key
    /// order — deterministic across runs and processes.
    pub fn finish(self) -> Vec<Vec<Value>> {
        self.groups
            .into_iter()
            .map(|(key, s)| {
                let mut out = key;
                for (ai, spec) in self.aggs.iter().enumerate() {
                    out.push(match spec.func {
                        AggFunc::Count | AggFunc::CountNonNull => Value::Int(s.count),
                        AggFunc::Sum => Value::Decimal(s.sums[ai]),
                        AggFunc::Avg => Value::Decimal(if s.count == 0 {
                            0
                        } else {
                            s.sums[ai] / s.count
                        }),
                        AggFunc::Min => Value::Decimal(s.mins[ai]),
                        AggFunc::Max => Value::Decimal(s.maxs[ai]),
                        AggFunc::CountDistinct => Value::Int(s.distinct[ai].len() as i64),
                    });
                }
                out
            })
            .collect()
    }
}

/// One producer's packet buffer and the consumer on the other side of
/// it ([`StagedPipeline::run_staged_parallel`]).
struct Handoff<'a> {
    /// Simulated address of the `batch`-row buffer.
    buf: u64,
    batch: usize,
    row_width: u64,
    /// Rows written so far (the next one's position, modulo `batch`).
    slot: u64,
    consumer_tc: &'a mut TraceCtx,
    agg: &'a mut BatchAgg,
}

impl Handoff<'_> {
    /// Simulated address of the buffer position row `i` lands in.
    fn at(&self, i: u64) -> u64 {
        self.buf + (i % self.batch as u64) * self.row_width
    }

    /// The producer writes one surviving row into the buffer.
    fn write(&mut self, tc: &mut TraceCtx) {
        tc.store(self.at(self.slot), self.row_width as u32);
        self.slot += 1;
    }

    /// Packet handoff: the producer fences, the consumer reads each row
    /// of `packet` on its own context and aggregates it.
    fn deliver<R: Columns>(&mut self, packet: &mut Vec<R>, tc: &mut TraceCtx) {
        tc.fence();
        for (i, row) in packet.drain(..).enumerate() {
            self.consumer_tc
                .load(self.at(i as u64), self.row_width as u32);
            self.agg.update(&row, self.consumer_tc);
        }
    }
}

/// A runnable staged pipeline.
///
/// ```
/// use dbcmp_engine::exec::{AggSpec, CmpOp, Pred};
/// use dbcmp_engine::{ColType, Database, Schema, Value};
/// use dbcmp_staged::{ExecPolicy, StagedPipeline};
/// use dbcmp_workloads::tpch::queries::PipelineSpec;
///
/// let mut db = Database::new();
/// let t = db.create_table(
///     "t",
///     Schema::new(vec![("id", ColType::Int), ("grp", ColType::Int)]),
/// );
/// let mut tc = db.null_ctx();
/// let mut load = db.loader(&mut tc).unwrap();
/// for i in 0..100 {
///     load.insert(t, &[Value::Int(i), Value::Int(i % 4)]).unwrap();
/// }
/// load.finish().unwrap();
///
/// // Per-group counts of ids < 50, cohort-staged in batches of 16.
/// let pipeline = StagedPipeline::new(PipelineSpec {
///     table: t,
///     pred: Pred::Cmp { col: 0, op: CmpOp::Lt, val: Value::Int(50) },
///     joins: vec![],
///     group_cols: vec![1],
///     aggs: vec![AggSpec::count()],
/// });
/// let mut rows = pipeline.run(&db, ExecPolicy::Staged { batch: 16 }, &mut [db.null_ctx()]);
/// rows.sort();
/// assert_eq!(rows.len(), 4, "four groups");
/// let total: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
/// assert_eq!(total, 50, "every id below 50 counted exactly once");
/// ```
pub struct StagedPipeline {
    /// The pipeline shape being executed.
    pub spec: PipelineSpec,
}

impl StagedPipeline {
    /// Wrap a spec for execution.
    pub fn new(spec: PipelineSpec) -> Self {
        StagedPipeline { spec }
    }

    /// Conventional Volcano execution (one trace context).
    pub fn run_volcano(&self, db: &Database, tc: &mut TraceCtx) -> Vec<Vec<Value>> {
        let heap = db.table(self.spec.table);
        let mut agg = BatchAgg::new(db, self.spec.group_cols.clone(), self.spec.aggs.clone());
        let tables: Vec<JoinTable> = self
            .spec
            .joins
            .iter()
            .map(|j| JoinTable::build(db, j, tc))
            .collect();
        let mut last_page = u32::MAX;
        for rid in heap.rids() {
            if rid.page != last_page {
                heap.pin_page(rid.page, tc);
                last_page = rid.page;
            }
            // Row-at-a-time: per-tuple operator crossings pay call
            // overhead in each stage region.
            tc.charge(tc.r.exec_scan, instr::SCAN_STEP + CALL_OVERHEAD);
            let Some(tuple) = heap.read_at(rid, tc) else {
                continue;
            };
            tc.charge(tc.r.exec_filter, CALL_OVERHEAD);
            if !self.spec.pred.eval(&tuple, tc) {
                continue;
            }
            if tables.is_empty() {
                // No probe needs a row: aggregate from the page image.
                tc.charge(tc.r.exec_agg, CALL_OVERHEAD);
                agg.update(&tuple, tc);
                continue;
            }
            // One operator crossing per join stage per tuple.
            tc.charge(tc.r.exec_hashjoin, CALL_OVERHEAD * tables.len() as u32);
            let mut combined = Vec::new();
            probe_chain(&tables, tuple.to_row(), &mut combined, tc);
            for row in combined {
                tc.charge(tc.r.exec_agg, CALL_OVERHEAD);
                agg.update(&row, tc);
            }
        }
        agg.finish()
    }

    /// Cohort-scheduled staged execution on one context: scan a batch,
    /// filter the batch, probe each join table with the whole batch, then
    /// aggregate the batch. Intermediate rows pass through a small reused
    /// buffer; each join stage's build table is loaded once up front and
    /// stays resident across batches (the cohort-locality argument
    /// applied to join state).
    pub fn run_staged(&self, db: &Database, tc: &mut TraceCtx, batch: usize) -> Vec<Vec<Value>> {
        let heap = db.table(self.spec.table);
        let row_width = (heap.schema.row_width() as u64).max(16);
        // Buffer sized to one batch, reused every batch → stays resident.
        let buf = db.space.alloc_anon(batch as u64 * row_width);
        let mut agg = BatchAgg::new(db, self.spec.group_cols.clone(), self.spec.aggs.clone());
        let tables: Vec<JoinTable> = self
            .spec
            .joins
            .iter()
            .map(|j| JoinTable::build(db, j, tc))
            .collect();

        // The batch's address in the reused buffer for row `i` of a chunk.
        let slot_of = |i: usize| buf + (i as u64 % batch as u64) * row_width;
        let mut rids = heap.rids().peekable();
        let mut last_page = u32::MAX;
        while rids.peek().is_some() {
            // Stage 1: scan the batch into the buffer. The tuples stay in
            // their pages; the buffer is simulated.
            tc.charge(tc.r.exec_scan, 40); // batch setup
            let mut staged = Vec::with_capacity(batch);
            for (i, rid) in rids.by_ref().take(batch.max(1)).enumerate() {
                if rid.page != last_page {
                    heap.pin_page(rid.page, tc);
                    last_page = rid.page;
                }
                tc.charge(tc.r.exec_scan, instr::SCAN_STEP);
                if let Some(tuple) = heap.read_at(rid, tc) {
                    tc.store(slot_of(i), row_width as u32);
                    staged.push((i, tuple));
                }
            }
            // Stage 2: filter the batch from the buffer.
            tc.charge(tc.r.exec_filter, 40);
            staged.retain(|(i, tuple)| {
                tc.load(slot_of(*i), row_width as u32);
                self.spec.pred.eval(tuple, tc)
            });
            if tables.is_empty() {
                // Final stage, no probe in between: aggregate the batch
                // from the page images.
                tc.charge(tc.r.exec_agg, 40);
                for (i, tuple) in staged {
                    tc.load(slot_of(i), row_width as u32);
                    agg.update(&tuple, tc);
                }
                continue;
            }
            // Join stages: one cohort pass over the batch per table, so
            // each build table's lines are touched back-to-back. A probe
            // takes a row, so what passed the filter is materialised.
            let mut passed: Vec<_> = staged.iter().map(|(i, t)| (*i, t.to_row())).collect();
            for jt in &tables {
                tc.charge(tc.r.exec_hashjoin, 40);
                let mut joined = Vec::with_capacity(passed.len());
                for (i, row) in passed {
                    tc.load(slot_of(i), row_width as u32);
                    let mut matches = Vec::new();
                    jt.probe(&row, &mut matches, tc);
                    joined.extend(matches.into_iter().map(|m| (i, m)));
                }
                passed = joined;
            }
            // Final stage: aggregate the batch.
            tc.charge(tc.r.exec_agg, 40);
            for (i, row) in passed {
                tc.load(slot_of(i), row_width as u32);
                agg.update(&row, tc);
            }
        }
        agg.finish()
    }

    /// Parallel staged execution: the scan is partitioned into
    /// `producer_tcs.len()` page ranges, each producer scanning,
    /// filtering, and **probing the shared join tables** over its
    /// partition (partitioned probe) into its own handoff buffer; the
    /// consumer aggregates all partitions. The join tables are built once
    /// on the consumer's context; every producer then probes the *same*
    /// simulated addresses — on a shared-cache CMP those build tables
    /// stay resident across contexts, on private-cache machines each
    /// probe partition re-fetches them (the join working-set effect
    /// `fig_islands` measures).
    /// Producer traces and the consumer trace replay on different
    /// hardware contexts in the simulator.
    pub fn run_staged_parallel(
        &self,
        db: &Database,
        producer_tcs: &mut [TraceCtx],
        consumer_tc: &mut TraceCtx,
        batch: usize,
    ) -> Vec<Vec<Value>> {
        let heap = db.table(self.spec.table);
        let row_width = (heap.schema.row_width() as u64).max(16);
        let n_prod = producer_tcs.len().max(1);
        let n_pages = heap.n_pages() as u32;
        let pages_per = n_pages.div_ceil(n_prod as u32).max(1);

        let mut agg = BatchAgg::new(db, self.spec.group_cols.clone(), self.spec.aggs.clone());
        let tables: Vec<JoinTable> = self
            .spec
            .joins
            .iter()
            .map(|j| JoinTable::build(db, j, consumer_tc))
            .collect();
        for (p, tc) in producer_tcs.iter_mut().enumerate() {
            let lo = p as u32 * pages_per;
            let pages = lo..(lo + pages_per).min(n_pages);
            let mut handoff = Handoff {
                buf: db.space.alloc_anon(batch as u64 * row_width),
                batch,
                row_width,
                slot: 0,
                consumer_tc: &mut *consumer_tc,
                agg: &mut agg,
            };
            if tables.is_empty() {
                // No probe needs a row: packets carry the page images.
                self.produce(db, pages, tc, &mut handoff, |tuple, _, out| out.push(tuple));
            } else {
                // Partitioned probe on the producer's context.
                self.produce(db, pages, tc, &mut handoff, |tuple, tc, out| {
                    probe_chain(&tables, tuple.to_row(), out, tc)
                });
            }
        }
        agg.finish()
    }

    /// One producer of [`Self::run_staged_parallel`]: scan and filter
    /// `pages` on `tc`, turn each surviving tuple into the rows it
    /// contributes with `expand`, and hand those to the consumer in
    /// packets of `handoff.batch`.
    fn produce<'h, R: Columns>(
        &self,
        db: &'h Database,
        pages: std::ops::Range<u32>,
        tc: &mut TraceCtx,
        handoff: &mut Handoff<'_>,
        expand: impl Fn(TupleRef<'h>, &mut TraceCtx, &mut Vec<R>),
    ) {
        let heap = db.table(self.spec.table);
        let mut packet: Vec<R> = Vec::with_capacity(handoff.batch);
        let mut expanded = Vec::new();
        for page in pages {
            heap.pin_page(page, tc);
            for s in 0..heap.page_nslots(page) {
                tc.charge(tc.r.exec_scan, instr::SCAN_STEP);
                let Some(tuple) = heap.read_at(Rid { page, slot: s }, tc) else {
                    continue;
                };
                if !self.spec.pred.eval(&tuple, tc) {
                    continue;
                }
                expand(tuple, tc, &mut expanded);
                for row in expanded.drain(..) {
                    handoff.write(tc);
                    packet.push(row);
                    if packet.len() == handoff.batch {
                        handoff.deliver(&mut packet, tc);
                    }
                }
            }
        }
        if !packet.is_empty() {
            handoff.deliver(&mut packet, tc);
        }
    }

    /// Execute under a policy with pre-made trace contexts: `tcs[0]` is
    /// the primary (consumer) context.
    pub fn run(&self, db: &Database, policy: ExecPolicy, tcs: &mut [TraceCtx]) -> Vec<Vec<Value>> {
        match policy {
            ExecPolicy::Volcano => self.run_volcano(db, &mut tcs[0]),
            ExecPolicy::Staged { batch } => self.run_staged(db, &mut tcs[0], batch),
            ExecPolicy::StagedParallel { batch, producers } => {
                let (head, tail) = tcs.split_at_mut(1);
                let n = producers.min(tail.len()).max(1);
                self.run_staged_parallel(db, &mut tail[..n], &mut head[0], batch)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcmp_engine::exec::{CmpOp, Pred, Scalar};
    use dbcmp_engine::{ColType, Schema};

    fn sample() -> (Database, PipelineSpec) {
        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(vec![
                ("id", ColType::Int),
                ("grp", ColType::Int),
                ("amount", ColType::Decimal),
            ]),
        );
        let mut tc = db.null_ctx();
        let mut load = db.loader(&mut tc).unwrap();
        for i in 0..1000i64 {
            load.insert(t, &[Value::Int(i), Value::Int(i % 5), Value::Decimal(i)])
                .unwrap();
        }
        load.finish().unwrap();
        let spec = PipelineSpec {
            table: t,
            pred: Pred::Cmp {
                col: 0,
                op: CmpOp::Lt,
                val: Value::Int(800),
            },
            joins: vec![],
            group_cols: vec![1],
            aggs: vec![AggSpec::count(), AggSpec::sum(Scalar::Col(2))],
        };
        (db, spec)
    }

    fn normalize(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by_key(|r| r[0].as_i64());
        rows
    }

    #[test]
    fn all_policies_agree_on_results() {
        let (db, spec) = sample();
        let p = StagedPipeline::new(spec);

        let mut tc = db.null_ctx();
        let volcano = normalize(p.run_volcano(&db, &mut tc));

        let mut tc = db.null_ctx();
        let staged = normalize(p.run_staged(&db, &mut tc, 64));

        let mut prods = vec![db.null_ctx(), db.null_ctx(), db.null_ctx()];
        let mut cons = db.null_ctx();
        let parallel = normalize(p.run_staged_parallel(&db, &mut prods, &mut cons, 64));

        assert_eq!(volcano, staged);
        assert_eq!(volcano, parallel);
        assert_eq!(volcano.len(), 5);
        // Verify one group: grp 0 → ids 0,5,...,795 → count 160.
        assert_eq!(volcano[0][1], Value::Int(160));
    }

    #[test]
    fn staged_executes_fewer_instructions() {
        // The amortized per-call overhead must show up as an instruction
        // reduction (the §6.2 effect).
        let (db, spec) = sample();
        let p = StagedPipeline::new(spec);
        let mut tc_v = db.null_ctx();
        p.run_volcano(&db, &mut tc_v);
        let mut tc_s = db.null_ctx();
        p.run_staged(&db, &mut tc_s, 128);
        assert!(
            tc_s.instrs() < tc_v.instrs(),
            "staged {} must beat volcano {}",
            tc_s.instrs(),
            tc_v.instrs()
        );
    }

    #[test]
    fn parallel_producers_split_work() {
        let (db, spec) = sample();
        let p = StagedPipeline::new(spec);
        let mut prods = vec![db.trace_ctx(), db.trace_ctx()];
        let mut cons = db.trace_ctx();
        p.run_staged_parallel(&db, &mut prods, &mut cons, 64);
        let i0 = prods[0].instrs();
        let i1 = prods[1].instrs();
        assert!(i0 > 0 && i1 > 0, "both producers must work: {i0} {i1}");
        let ratio = i0 as f64 / i1 as f64;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "work split roughly evenly: {ratio}"
        );
        assert!(cons.instrs() > 0);
    }

    /// Fact table (as [`sample`]) plus a 5-row dimension keyed by `grp`;
    /// the pipeline joins fact→dim and aggregates per dimension tag.
    fn sample_with_join() -> (Database, PipelineSpec) {
        let (mut db, mut spec) = sample();
        let d = db.create_table(
            "dim",
            Schema::new(vec![
                ("grp_key", ColType::Int),
                ("factor", ColType::Decimal),
            ]),
        );
        let mut tc = db.null_ctx();
        let mut load = db.loader(&mut tc).unwrap();
        for g in 0..5i64 {
            load.insert(d, &[Value::Int(g), Value::Decimal(g * 10)])
                .unwrap();
        }
        load.finish().unwrap();
        spec.joins = vec![JoinSpec {
            build_table: d,
            build_pred: Pred::True,
            build_key: 0,
            probe_key: 1,
        }];
        // Combined row: (id, grp, amount, grp_key, factor).
        spec.group_cols = vec![3];
        spec.aggs = vec![AggSpec::count(), AggSpec::sum(Scalar::Col(4))];
        (db, spec)
    }

    #[test]
    fn join_policies_agree_and_match_reference() {
        let (db, spec) = sample_with_join();
        let p = StagedPipeline::new(spec);

        let mut tc = db.null_ctx();
        let volcano = normalize(p.run_volcano(&db, &mut tc));

        let mut tc = db.null_ctx();
        let staged = normalize(p.run_staged(&db, &mut tc, 64));

        let mut prods = vec![db.null_ctx(), db.null_ctx(), db.null_ctx()];
        let mut cons = db.null_ctx();
        let parallel = normalize(p.run_staged_parallel(&db, &mut prods, &mut cons, 64));

        assert_eq!(volcano, staged);
        assert_eq!(volcano, parallel);
        // Every fact row (id < 800) matches exactly one dim row: 5 groups
        // of 160, each summing 160 copies of factor = grp*10.
        assert_eq!(volcano.len(), 5);
        for r in &volcano {
            let g = r[0].as_i64().unwrap();
            assert_eq!(r[1], Value::Int(160));
            assert_eq!(r[2], Value::Decimal(160 * g * 10));
        }
    }

    #[test]
    fn join_probes_emit_build_and_probe_charges() {
        // The cost accounting must mirror the engine's HashJoin: build
        // rows and probe rows both show up as exec-hashjoin instructions.
        let (db, spec) = sample_with_join();
        let p = StagedPipeline::new(spec.clone());
        let mut tc_join = db.trace_ctx();
        p.run_volcano(&db, &mut tc_join);
        let mut scan_only = spec;
        scan_only.joins.clear();
        scan_only.group_cols = vec![1];
        scan_only.aggs = vec![AggSpec::count(), AggSpec::sum(Scalar::Col(2))];
        let q = StagedPipeline::new(scan_only);
        let mut tc_scan = db.trace_ctx();
        q.run_volcano(&db, &mut tc_scan);
        assert!(
            tc_join.instrs() > tc_scan.instrs(),
            "join pipeline must charge more than its scan-only twin: {} !> {}",
            tc_join.instrs(),
            tc_scan.instrs()
        );
    }

    #[test]
    fn staged_join_executes_fewer_instructions_than_volcano() {
        let (db, spec) = sample_with_join();
        let p = StagedPipeline::new(spec);
        let mut tc_v = db.null_ctx();
        p.run_volcano(&db, &mut tc_v);
        let mut tc_s = db.null_ctx();
        p.run_staged(&db, &mut tc_s, 128);
        assert!(
            tc_s.instrs() < tc_v.instrs(),
            "staged join {} must beat volcano join {}",
            tc_s.instrs(),
            tc_v.instrs()
        );
    }

    #[test]
    fn batch_agg_merge_equals_single() {
        let (db, spec) = sample();
        let mut tc = db.null_ctx();
        let rows: Vec<Vec<Value>> = {
            let heap = db.table(spec.table);
            heap.rids()
                .filter_map(|r| heap.read_at(r, &mut tc))
                .map(|t| t.to_row())
                .collect()
        };
        // Single.
        let mut one = BatchAgg::new(&db, spec.group_cols.clone(), spec.aggs.clone());
        for r in &rows {
            one.update(r, &mut tc);
        }
        // Split + merge.
        let mut a = BatchAgg::new(&db, spec.group_cols.clone(), spec.aggs.clone());
        let mut b = BatchAgg::new(&db, spec.group_cols.clone(), spec.aggs.clone());
        for (i, r) in rows.iter().enumerate() {
            if i % 2 == 0 {
                a.update(r, &mut tc);
            } else {
                b.update(r, &mut tc);
            }
        }
        a.merge(b);
        assert_eq!(normalize(one.finish()), normalize(a.finish()));
    }

    /// Determinism regression for the BTreeMap switch: `finish` emits
    /// group rows in ascending key order regardless of insertion order,
    /// so two captures of the same pipeline produce identical result
    /// vectors with no normalization (the stock_level bug class from
    /// PR 2 — a HashMap here emitted rows in per-process random order).
    #[test]
    fn finish_emits_groups_in_key_order() {
        let db = Database::new();
        let build = |order: &[i64]| {
            let mut agg = BatchAgg::new(&db, vec![0], vec![AggSpec::count()]);
            let mut tc2 = db.null_ctx();
            for &g in order {
                agg.update(&[Value::Int(g)][..], &mut tc2);
            }
            agg.finish()
        };
        let forward = build(&[1, 2, 3, 4, 5]);
        let scrambled = build(&[5, 3, 1, 4, 2, 5, 3, 1, 4, 2]);
        let keys: Vec<i64> = forward.iter().filter_map(|r| r[0].as_i64()).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5], "ascending group-key order");
        let keys2: Vec<i64> = scrambled.iter().filter_map(|r| r[0].as_i64()).collect();
        assert_eq!(
            keys2,
            vec![1, 2, 3, 4, 5],
            "order is key-derived, not insertion-derived"
        );
    }

    /// Rows whose string keys shrink ("AB", then "A"), a long run of hits,
    /// then new groups: a key buffer reused across rows must neither keep
    /// a stale tail nor miss a late group.
    fn key_reuse_db() -> (Database, usize) {
        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(vec![
                ("name", ColType::Str(8)),
                ("grp", ColType::Int),
                ("amount", ColType::Decimal),
            ]),
        );
        let row =
            |s: &str, g: i64, v: i64| [Value::Str(s.into()), Value::Int(g), Value::Decimal(v)];
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
        let mut tc = db.null_ctx();
        let mut load = db.loader(&mut tc).unwrap();
        for r in &rows {
            load.insert(t, r).unwrap();
        }
        load.finish().unwrap();
        (db, t)
    }

    /// Folding page images or materialised rows, the borrowed-key
    /// `update` gives the answer, and records the events, of a fold that
    /// builds a fresh key per row.
    #[test]
    fn reused_key_buffer_matches_a_fresh_key_per_row() {
        let (db, t) = key_reuse_db();
        let heap = db.table(t);
        let mut null = db.null_ctx();
        let tuples: Vec<TupleRef<'_>> = heap
            .rids()
            .filter_map(|r| heap.read_at(r, &mut null))
            .collect();
        for as_rows in [false, true] {
            let mut agg = BatchAgg::new(
                &db,
                vec![0, 1],
                vec![AggSpec::count(), AggSpec::sum(Scalar::Col(2))],
            );
            let mut tc = db.trace_ctx();
            for tuple in &tuples {
                if as_rows {
                    agg.update(&tuple.to_row(), &mut tc);
                } else {
                    agg.update(tuple, &mut tc);
                }
            }

            let mut ref_tc = db.trace_ctx();
            let mut groups: BTreeMap<Vec<Value>, (i64, i64)> = BTreeMap::new();
            for tuple in &tuples {
                ref_tc.charge(ref_tc.r.exec_agg, instr::AGG_UPDATE);
                let line = agg.addr + (groups.len() as u64 % 1024) * 64;
                ref_tc.load_dep(line, 32);
                ref_tc.store(line, 32);
                let row = tuple.to_row();
                let g = groups
                    .entry(vec![row[0].clone(), row[1].clone()])
                    .or_default();
                g.0 += 1;
                g.1 += row[2].as_i64().unwrap();
            }
            let expect: Vec<Vec<Value>> = groups
                .into_iter()
                .map(|(mut key, (count, sum))| {
                    key.extend([Value::Int(count), Value::Decimal(sum)]);
                    key
                })
                .collect();
            assert_eq!(agg.finish(), expect, "rows: {as_rows}");
            assert_eq!(expect.len(), 6, "every late group is its own group");
            assert_eq!(
                tc.finish().packed_events(),
                ref_tc.finish().packed_events(),
                "rows: {as_rows}"
            );
        }
    }
}
