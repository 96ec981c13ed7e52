//! Property tests for the simulator: the cache behaves like a reference
//! model, cycle accounting conserves time, replay is deterministic, and
//! the replay cursor reads exactly the trace's own events.

use dbcmp_sim::cache::Cache;
use dbcmp_sim::cursor::TraceCursor;
use dbcmp_sim::{MachineBuilder, MachineConfig, RunMode};
use dbcmp_trace::{CodeRegions, Event, ThreadTrace, TraceBundle, Tracer, SEGMENT_EVENTS};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Reference model: fully explicit per-set LRU lists.
struct RefCache {
    sets: usize,
    assoc: usize,
    lists: Vec<VecDeque<u64>>,
}

impl RefCache {
    fn new(sets: usize, assoc: usize) -> Self {
        RefCache {
            sets,
            assoc,
            lists: vec![VecDeque::new(); sets],
        }
    }

    /// Returns true on hit; always leaves the line MRU.
    fn access(&mut self, line: u64) -> bool {
        let set = (line % self.sets as u64) as usize;
        let l = &mut self.lists[set];
        if let Some(pos) = l.iter().position(|&x| x == line) {
            l.remove(pos);
            l.push_back(line);
            true
        } else {
            if l.len() == self.assoc {
                l.pop_front();
            }
            l.push_back(line);
            false
        }
    }
}

/// A recorded trace of one event per op: execs alternating between two
/// regions (so no two coalesce), loads, dependent loads, stores, the
/// four markers and remote sends and recvs.
fn record(ops: &[(u8, u32)]) -> ThreadTrace {
    let mut t = Tracer::recording();
    for (i, &(op, v)) in ops.iter().enumerate() {
        let addr = 0x4000 + (v as u64 % 4096) * 8;
        match op {
            0 => t.exec(i as u16 % 2, v % 100 + 1),
            1 => t.load(addr, 8),
            2 => t.load_dep(addr, 8),
            3 => t.store(addr, v % 64 + 1),
            4 => t.fence(),
            5 => t.unit_end(),
            6 => t.block(),
            7 => t.wake(),
            8 => t.remote_send(v),
            _ => t.remote_recv(v),
        }
    }
    t.finish()
}

proptest! {
    // No case count pinned: `PROPTEST_CASES` moves it (CI runs 1,024).

    /// The cursor is the trace's iterator, restarted at the end when it
    /// wraps: on traces that end inside, at and just past a segment
    /// boundary, k·len wrapping reads are `iter()` k times after k − 1
    /// wraps, and a cursor that does not wrap reads `iter()` and then
    /// nothing.
    #[test]
    fn cursor_reads_the_trace_iterator_and_wraps_it(
        len in prop_oneof![
            Just(1usize),
            Just(SEGMENT_EVENTS - 1),
            Just(SEGMENT_EVENTS),
            (SEGMENT_EVENTS + 1)..(3 * SEGMENT_EVENTS),
        ],
        ops in prop::collection::vec((0u8..10, any::<u32>()), 3 * SEGMENT_EVENTS),
        k in 1u64..4,
    ) {
        let tr = record(&ops[..len]);
        let want: Vec<Event> = tr.iter().collect();
        prop_assert_eq!(want.len(), len);

        let mut c = TraceCursor::new(&tr, true);
        for pass in 0..k {
            let got: Vec<Event> = (0..len).map_while(|_| c.next_event()).collect();
            prop_assert_eq!(&got, &want, "pass {}", pass);
        }
        prop_assert_eq!(c.wraps(), k - 1);
        prop_assert_eq!(c.next_event(), Some(want[0]));
        prop_assert_eq!(c.wraps(), k);

        let mut c = TraceCursor::new(&tr, false);
        let got: Vec<Event> = std::iter::from_fn(|| c.next_event()).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(c.next_event(), None);
        prop_assert_eq!(c.wraps(), 0);
    }
}

proptest! {
    // Deterministic in CI: the vendored proptest seeds each property's RNG
    // from the test's fully-qualified name; this bounds the case count.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tag-array cache agrees with the explicit-LRU reference model on
    /// every access of an arbitrary stream.
    #[test]
    fn cache_matches_reference_lru(lines in prop::collection::vec(0u64..256, 1..2000)) {
        // 16 sets x 4 ways = 4 KB.
        let mut cache = Cache::new(4096, 4);
        let mut reference = RefCache::new(16, 4);
        for &line in &lines {
            let hit_model = reference.access(line);
            let hit_cache = if cache.probe(line).is_some() {
                true
            } else {
                cache.insert(line);
                false
            };
            prop_assert_eq!(hit_cache, hit_model, "divergence on line {}", line);
        }
    }

    /// For any synthetic workload, every measured cycle lands in exactly
    /// one bucket (per-core breakdowns sum to the window) and replay is
    /// deterministic.
    #[test]
    fn accounting_conserves_cycles_and_is_deterministic(
        seeds in prop::collection::vec((0u64..1024, 1u32..64), 1..8),
        lean in any::<bool>(),
    ) {
        let mut regions = CodeRegions::new();
        let r = regions.add("w", 8 << 10, 1.0);
        let threads: Vec<_> = seeds
            .iter()
            .map(|&(base, n)| {
                let mut t = Tracer::recording();
                for k in 0..(n as u64) * 20 {
                    t.exec(r, 10);
                    t.load(0x10000 + (base + k) * 64, 8);
                    if k % 16 == 7 {
                        t.store(0x80000 + (k % 32) * 64, 8);
                    }
                }
                t.unit_end();
                t.finish()
            })
            .collect();
        let bundle = TraceBundle::new(regions, threads);
        let cfg = if lean {
            MachineConfig::lean_cmp(2, 1 << 20, 8)
        } else {
            MachineConfig::fat_cmp(2, 1 << 20, 8)
        };
        let mode = RunMode::Throughput { warmup: 1000, measure: 5000 };
        let run = |cfg| {
            MachineBuilder::from_config(cfg, mode).build(&bundle).expect("valid preset").execute()
        };
        let a = run(cfg.clone());
        let b = run(cfg);

        // Conservation: every active core's breakdown sums to the window.
        for core in &a.per_core {
            let total = core.total();
            prop_assert!(total == 0 || total == 5000, "core accounted {total} of 5000");
        }
        // Determinism.
        prop_assert_eq!(a.instrs, b.instrs);
        prop_assert_eq!(a.breakdown, b.breakdown);
        prop_assert_eq!(a.mem, b.mem);
    }
}
