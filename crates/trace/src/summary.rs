//! Trace summaries — workload characterization without a simulator.
//!
//! Used by reports, calibration, and tests: per-event-type counts, unique
//! data/instruction line counts (working-set proxies), and the
//! dependent-load fraction (memory-level-parallelism proxy).
//!
//! What [`TraceSummary::compute`] costs: the totals are sums of the
//! [`EventCounts`] each [`Tracer`](crate::Tracer) kept while it recorded
//! (O(threads)); `code_lines` is read off the per-region instruction
//! totals cached the same way; only `data_lines` looks at the trace —
//! one [`ThreadTrace::iter`] pass per thread, which reads each retained
//! segment once through one reused token buffer, and sends the loads'
//! and stores' addresses and sizes to a radix bitmap (`LineSet`).

use crate::event::{Event, CACHE_LINE};
use crate::region::CodeRegions;
use crate::tracer::{EventCounts, ThreadTrace};

/// A set of cache-line numbers that can only be added to and counted: a
/// three-level radix bitmap (a top level that grows with the highest
/// line seen, 13-bit middle tables, 15-bit leaves). Data addresses come
/// from a bump allocator, so lines are dense where they occur at all: a
/// leaf is 4 KB of bits for 2 MB of address space, and an insert is two
/// table reads and a bit test — no hashing, no probing, no iteration
/// order.
#[derive(Debug, Default)]
struct LineSet {
    /// `line >> 28` → 1-based index into `mids` (0 = absent).
    top: Vec<u32>,
    /// `(line >> 15) & 0x1FFF` → 1-based index into `leaves`.
    mids: Vec<Box<[u32]>>,
    /// `line & 0x7FFF` → one bit of 512 words.
    leaves: Vec<[u64; 512]>,
    /// The leaf the last insert landed in, as (`line >> 15`, 1-based
    /// index): consecutive accesses mostly share one, which skips the
    /// walk down.
    last: (u64, u32),
    len: u64,
}

impl LineSet {
    const MID_BITS: u32 = 13;
    const LEAF_BITS: u32 = 15;

    fn insert(&mut self, line: u64) {
        let leaf_key = line >> Self::LEAF_BITS;
        if self.last.0 != leaf_key || self.last.1 == 0 {
            self.last = (leaf_key, self.leaf_of(leaf_key));
        }
        let l = line as usize & ((1 << Self::LEAF_BITS) - 1);
        let word = &mut self.leaves[self.last.1 as usize - 1][l / 64];
        let bit = 1u64 << (l % 64);
        self.len += (*word & bit == 0) as u64;
        *word |= bit;
    }

    /// The 1-based index of the leaf holding lines `leaf_key << 15 ..`,
    /// made on first use.
    fn leaf_of(&mut self, leaf_key: u64) -> u32 {
        let t = (leaf_key >> Self::MID_BITS) as usize;
        let m = leaf_key as usize & ((1 << Self::MID_BITS) - 1);
        if t >= self.top.len() {
            self.top.resize(t + 1, 0);
        }
        if self.top[t] == 0 {
            self.mids
                .push(vec![0; 1 << Self::MID_BITS].into_boxed_slice());
            self.top[t] = self.mids.len() as u32;
        }
        let mid = &mut self.mids[self.top[t] as usize - 1];
        if mid[m] == 0 {
            self.leaves.push([0; 512]);
            mid[m] = self.leaves.len() as u32;
        }
        mid[m]
    }

    /// Add every line `[addr, addr + size)` touches (a zero size touches
    /// one byte).
    fn insert_access(&mut self, addr: u64, size: u16) {
        let first = addr / CACHE_LINE;
        let last = (addr + size.max(1) as u64 - 1) / CACHE_LINE;
        for line in first..=last {
            self.insert(line);
        }
    }
}

/// Aggregate statistics over one or more thread traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// The threads' [`EventCounts`], summed.
    pub counts: EventCounts,
    /// Unique data cache lines touched (data working set, in lines).
    pub data_lines: u64,
    /// Unique instruction cache lines covered by the executed regions
    /// (instruction working set, in lines).
    pub code_lines: u64,
}

impl TraceSummary {
    /// Summarize a set of traces against their region table.
    ///
    /// Event totals are the threads' capture-time counts, so they are
    /// exact even for a trace whose sink retained no segment;
    /// `data_lines` counts the lines of the segments that *were*
    /// retained. See the module docs for the cost.
    pub fn compute(regions: &CodeRegions, threads: &[ThreadTrace]) -> Self {
        let mut s = TraceSummary::default();
        let mut lines = LineSet::default();
        for t in threads {
            s.counts += t.counts();
            for ev in t.iter() {
                if let Event::Load { addr, size, .. } | Event::Store { addr, size } = ev {
                    lines.insert_access(addr, size);
                }
            }
        }
        s.data_lines = lines.len;
        // A region was executed iff some thread charged it an instruction
        // (the tracer drops zero-instruction charges).
        let executed = |id: usize| {
            threads
                .iter()
                .any(|t| t.region_instr_totals().get(id).is_some_and(|&n| n > 0))
        };
        s.code_lines = regions
            .iter()
            .filter(|r| executed(r.id as usize))
            .map(|r| r.footprint / CACHE_LINE)
            .sum();
        s
    }

    /// Data working set in bytes.
    pub fn data_working_set(&self) -> u64 {
        self.data_lines * CACHE_LINE
    }

    /// Instruction working set in bytes.
    pub fn code_working_set(&self) -> u64 {
        self.code_lines * CACHE_LINE
    }

    /// Fraction of loads that are dependent (pointer chases); lower means
    /// more memory-level parallelism is available to an OoO core.
    pub fn dep_load_fraction(&self) -> f64 {
        let c = &self.counts;
        if c.loads == 0 {
            0.0
        } else {
            c.dep_loads as f64 / c.loads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::lines_touched;
    use crate::segment::{segments_read, SEGMENT_EVENTS};
    use crate::tracer::Tracer;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The reference: one fold over every event.
    fn fold(regions: &CodeRegions, threads: &[ThreadTrace]) -> TraceSummary {
        let mut c = EventCounts::default();
        let mut data_lines = BTreeSet::new();
        let mut regions_seen = BTreeSet::new();
        for t in threads {
            for ev in t.iter() {
                c += EventCounts::of(&ev);
                match ev {
                    Event::Exec { region, .. } => {
                        regions_seen.insert(region);
                    }
                    Event::Load { addr, size, .. } | Event::Store { addr, size } => {
                        data_lines.extend(lines_touched(addr, size));
                    }
                    _ => {}
                }
            }
        }
        TraceSummary {
            counts: c,
            data_lines: data_lines.len() as u64,
            code_lines: regions_seen
                .iter()
                .map(|&id| regions.get(id).footprint / CACHE_LINE)
                .sum(),
        }
    }

    #[test]
    fn summary_counts() {
        let mut regions = CodeRegions::new();
        let r0 = regions.add("hot", 128, 1.0); // 2 lines
        let r1 = regions.add("cold", 64, 1.0); // 1 line

        let mut t = Tracer::recording();
        t.exec(r0, 50);
        t.load(0x40, 8);
        t.load_dep(0x80, 8);
        t.load(0x40, 8); // same line again: not a new working-set line
        t.store(0x1000, 64);
        t.fence();
        t.exec(r1, 10);
        t.unit_end();
        let tr = t.finish();

        let s = TraceSummary::compute(&regions, &[tr]);
        let c = s.counts;
        assert_eq!(c.instrs, 50 + 10 + 3 + 1);
        assert_eq!(c.loads, 3);
        assert_eq!(c.dep_loads, 1);
        assert_eq!(c.stores, 1);
        assert_eq!(c.fences, 1);
        assert_eq!(c.units, 1);
        assert_eq!(s.data_lines, 3); // 0x40, 0x80, 0x1000
        assert_eq!(s.code_lines, 3); // 2 + 1
        assert!((s.dep_load_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary() {
        let regions = CodeRegions::new();
        let s = TraceSummary::compute(&regions, &[]);
        assert_eq!(s, TraceSummary::default());
        assert_eq!(s.dep_load_fraction(), 0.0);
    }

    /// Lines at both ends of the 48-bit space and either side of every
    /// radix boundary are each counted once.
    #[test]
    fn line_set_counts_each_line_once_across_levels() {
        let lines = [
            0,
            1,
            63,
            64,
            (1 << 15) - 1,
            1 << 15,
            (1 << 28) - 1,
            1 << 28,
            (1 << 41) + 7,
            ((1u64 << 48) + 4094) / CACHE_LINE, // last line a max access can touch
        ];
        let mut set = LineSet::default();
        for round in 0..2 {
            for &l in &lines {
                set.insert(l);
            }
            assert_eq!(set.len, lines.len() as u64, "round {round}");
        }
        set.insert_access(CACHE_LINE * 1000 - 1, 66); // three new lines
        assert_eq!(set.len, lines.len() as u64 + 3);
        set.insert_access(CACHE_LINE * 2000, 0); // a zero size touches one byte
        assert_eq!(set.len, lines.len() as u64 + 4);
    }

    /// The summary reads counters, and each retained segment once for
    /// its accesses.
    #[test]
    fn compute_reads_each_segment_once() {
        let mut regions = CodeRegions::new();
        let r = regions.add("scan", 4096, 1.0);
        let mut t = Tracer::recording();
        for i in 0..(SEGMENT_EVENTS as u64 + 10) {
            t.exec(r, 5);
            t.load(0x4000 + i * 8, 8);
        }
        let mut small = Tracer::recording();
        small.store(0x100, 8);
        let threads = [t.finish(), small.finish()];
        let want = fold(&regions, &threads);
        let retained: usize = threads.iter().map(|t| t.segments().len()).sum();
        assert_eq!(retained, 4);
        let before = segments_read();
        let got = TraceSummary::compute(&regions, &threads);
        assert_eq!(segments_read() - before, retained as u64);
        assert_eq!(got, want);
        assert!(got.data_lines > 500);
    }

    /// One recorded operation: `(kind, region, n, line, offset)`.
    type Op = (u8, u16, u32, u64, u64);

    /// Replay `ops` into a recording tracer. Addresses come from a pool
    /// of 48 lines in two distant windows, so threads share lines; the
    /// offset and a size of up to 130 bytes make an access straddle one
    /// to three lines; kind 9 is a run long enough to split the RLE
    /// column.
    fn record(ops: &[Op], pad_segments: usize) -> ThreadTrace {
        let mut t = Tracer::recording();
        for &(kind, region, n, line, offset) in ops {
            let base = if line < 24 { 0x10_0000 } else { 1 << 40 };
            let addr = base + line * CACHE_LINE + offset;
            let size = n % 130 + 1;
            match kind {
                0 | 1 => t.exec(region, n),
                2 => t.load(addr, size),
                3 => t.load_dep(addr, size),
                4 => t.store(addr, size),
                5 => t.fence(),
                6 => t.unit_end(),
                7 => {
                    t.block();
                    t.wake();
                }
                8 => {
                    t.remote_send(n);
                    t.remote_recv(n / 2);
                }
                _ => (0..300).for_each(|i| t.load(addr + i * 8, 8)),
            }
        }
        for i in 0..(pad_segments * SEGMENT_EVENTS) as u64 {
            t.store((1 << 30) + i * 32, 40);
        }
        t.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `compute` ≡ the event-by-event fold, on bundles of zero to
        /// three threads of zero to three segments each.
        #[test]
        fn compute_matches_the_event_fold(
            threads in prop::collection::vec(
                (
                    prop::collection::vec(
                        (0u8..10, 0u16..5, 0u32..5000, 0u64..48, 0u64..64),
                        0..120,
                    ),
                    0usize..3,
                ),
                0..4,
            ),
        ) {
            let mut regions = CodeRegions::new();
            for footprint in [64, 200, 4096, 70_000, 128] {
                regions.add("r", footprint, 1.0);
            }
            let threads: Vec<ThreadTrace> =
                threads.iter().map(|(ops, pad)| record(ops, *pad)).collect();
            prop_assert_eq!(
                TraceSummary::compute(&regions, &threads),
                fold(&regions, &threads)
            );
        }
    }
}
