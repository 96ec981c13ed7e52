//! Property tests for the simulator: the cache behaves like a reference
//! model, cycle accounting conserves time, and replay is deterministic.

use dbcmp_sim::cache::Cache;
use dbcmp_sim::{MachineBuilder, MachineConfig, RunMode};
use dbcmp_trace::{CodeRegions, TraceBundle, Tracer};
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
