//! Skip ≡ tick: the span loop (`Machine::run_until`) held to the
//! per-cycle reference it replaced (`Machine::execute_ticking`, defined
//! here: every core called every cycle with `horizon = now + 1`, so no
//! call simulates more than its own cycle) — on random bundles, on the
//! boundaries a quiet or private span can get wrong, and on a real OLTP
//! capture. Each case also sums the spans `execute_seen` reports against
//! the breakdowns. The same random bundles also check a metamorphic
//! relation: without remote events, the interconnect changes nothing.
//!
//! Everything sits in an in-file `#[cfg(test)]` module: the oracle's
//! panics are test code, outside the crate's `not(test)` panic lints.

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::builder::MachineBuilder;
    use crate::config::{CacheGeom, MachineConfig, SharedBy};
    use dbcmp_trace::{CodeRegions, Fnv, ThreadTrace, TraceBundle, Tracer};
    use dbcmp_workloads::{build_tpcc, capture_oltp, CaptureOptions, TpccScale};
    use proptest::prelude::*;

    /// The oracle: the loop `Machine::run_until` replaced, kept as the
    /// reference it must equal.
    impl Machine<'_> {
        /// Every core called every cycle, each call one cycle long.
        fn run_until_ticking(&mut self, end: u64, calls: &mut u64) {
            let stop_when_done = !self.mode.wraps();
            while self.now < end && !(stop_when_done && self.shared.ctl.remaining == 0) {
                for c in 0..self.cores.len() {
                    *calls += 1;
                    let tick = self.cores[c].cycle(c, self.now, self.now + 1, &mut self.shared);
                    if let Some(class) = tick.class {
                        self.per_core[c].charge(class, 1);
                    }
                }
                self.now += 1;
            }
        }

        /// [`Machine::execute`] on the per-cycle loop, counting its
        /// `Core::cycle` calls into `calls`.
        fn execute_ticking(mut self, calls: &mut u64) -> SimResult {
            self.run(|m, end| m.run_until_ticking(end, calls))
        }
    }

    /// What both loops made of one (machine, mode, bundle).
    struct Pair {
        skip: SimResult,
        skip_calls: u64,
        tick_calls: u64,
    }

    /// Field by field first, so a failure names what moved. The skip
    /// run's spans, cut to the measured window, must also sum to its
    /// per-core breakdowns: every charged cycle is one a span reported.
    fn assert_same(cfg: &MachineConfig, mode: RunMode, bundle: &TraceBundle) -> Pair {
        let build = || {
            MachineBuilder::from_config(cfg.clone(), mode)
                .build(bundle)
                .expect("valid config")
        };
        let mut spans = Vec::new();
        let skip = build().execute_seen(&mut |c, now, tick| spans.push((c, now, tick)));
        let mut tick_calls = 0;
        let tick = build().execute_ticking(&mut tick_calls);
        let (s, t) = (&skip, &tick);
        let at = format!("{} {mode:?}", cfg.name);
        assert_eq!(s.cycles, t.cycles, "cycles, {at}");
        assert_eq!(s.instrs, t.instrs, "instrs, {at}");
        assert_eq!(s.units, t.units, "units, {at}");
        assert_eq!(s.per_core, t.per_core, "per-core breakdowns, {at}");
        assert_eq!(s.breakdown, t.breakdown, "breakdown, {at}");
        assert_eq!(s.mem, t.mem, "memory counters, {at}");
        assert_eq!(s.remote, t.remote, "remote counters, {at}");
        assert_eq!(s.avg_unit_cycles, t.avg_unit_cycles, "unit latency, {at}");
        assert_eq!(s, t, "whole result, {at}");
        let (lo, hi) = match mode {
            RunMode::Throughput { warmup, measure } => (warmup, warmup + measure),
            RunMode::Completion { .. } => (0, s.cycles),
        };
        let mut sums = vec![Breakdown::default(); cfg.n_cores];
        for &(c, now, tick) in &spans {
            if let Some(class) = tick.class {
                sums[c].charge(class, tick.until.min(hi).saturating_sub(now.max(lo)));
            }
        }
        assert_eq!(sums, s.per_core, "spans summed per core and class, {at}");
        let skip_calls = spans.len() as u64;
        assert!(skip_calls <= tick_calls, "skipping never adds calls");
        Pair {
            skip,
            skip_calls,
            tick_calls,
        }
    }

    const THROUGHPUT: RunMode = RunMode::Throughput {
        warmup: 2_000,
        measure: 6_000,
    };
    const COMPLETION: RunMode = RunMode::Completion { max_cycles: 30_000 };

    // ------------------------------------------------------- random bundles

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Exec(u16, u32),
        Load { slot: u64, dep: bool, wide: bool },
        Store { slot: u64, wide: bool },
        Fence,
        Block,
        Send(u32),
        Recv(u32),
        UnitEnd,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (0u16..2, 1u32..48).prop_map(|(r, n)| Op::Exec(r, n)),
            5 => (0u64..96, any::<bool>(), any::<bool>())
                .prop_map(|(slot, dep, wide)| Op::Load { slot, dep, wide }),
            3 => (0u64..96, any::<bool>()).prop_map(|(slot, wide)| Op::Store { slot, wide }),
            1 => Just(Op::Fence),
            1 => Just(Op::Block),
            1 => (1u32..4_000).prop_map(Op::Send),
            1 => (1u32..4_000).prop_map(Op::Recv),
            2 => Just(Op::UnitEnd),
        ]
    }

    /// Slots below 64 are private to the thread (adjacent lines), the rest
    /// shared by all threads and a page apart (distinct sets, coherence
    /// traffic).
    fn addr(thread: usize, slot: u64) -> u64 {
        if slot < 64 {
            0x100_0000 + thread as u64 * 0x10_0000 + slot * 64
        } else {
            0x800_0000 + (slot - 64) * 4096
        }
    }

    fn bundle_of(threads: &[Vec<Op>]) -> TraceBundle {
        let mut regions = CodeRegions::new();
        regions.add("branchy", 16 << 10, 6.0);
        regions.add("tight", 1 << 10, 0.0);
        let traces = threads
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                let mut tr = Tracer::recording();
                for &op in ops {
                    match op {
                        Op::Exec(r, n) => tr.exec(r, n),
                        Op::Load { slot, dep, wide } => {
                            let size = if wide { 200 } else { 8 };
                            if dep {
                                tr.load_dep(addr(t, slot), size)
                            } else {
                                tr.load(addr(t, slot), size)
                            }
                        }
                        Op::Store { slot, wide } => {
                            tr.store(addr(t, slot), if wide { 130 } else { 8 })
                        }
                        Op::Fence => tr.fence(),
                        Op::Block => tr.block(),
                        Op::Send(b) => tr.remote_send(b),
                        Op::Recv(b) => tr.remote_recv(b),
                        Op::UnitEnd => tr.unit_end(),
                    }
                }
                tr.finish()
            })
            .collect();
        TraceBundle::new(regions, traces)
    }

    /// The five machine shapes, shrunk so a few thousand cycles see misses,
    /// full store buffers, full MSHRs and expiring quanta. The islands are
    /// the one shape where a directory and off-chip snooping both act.
    fn machines(quantum: u64, switch_penalty: u64, ten_gbe: bool) -> Vec<MachineConfig> {
        let mut asym = MachineConfig::fat_cmp(3, 64 << 10, 8);
        asym.name = "asymmetric".to_string();
        asym.slots = vec![
            CoreKind::fat(),
            CoreKind::Lean {
                width: 2,
                contexts: 3,
            },
            CoreKind::Fat {
                width: 2,
                rob: 8,
                mshrs: 1,
            },
        ];
        let mut islands = MachineConfig::fat_cmp(4, 64 << 10, 8);
        islands.name = "2x2 islands".to_string();
        islands.l2.shared_by = SharedBy::Cluster(2);
        let mut out = vec![
            MachineConfig::fat_cmp(2, 64 << 10, 8),
            MachineConfig::lean_cmp(2, 64 << 10, 8),
            MachineConfig::smp(2, 64 << 10, 8, CoreKind::fat()),
            asym,
            islands,
        ];
        for cfg in &mut out {
            cfg.l1d = CacheGeom::new(2 << 10, 2, 1);
            cfg.l1i = CacheGeom::new(2 << 10, 2, 1);
            cfg.store_buffer = 2;
            cfg.quantum = quantum;
            cfg.switch_penalty = switch_penalty;
            if ten_gbe {
                cfg.interconnect = Interconnect::network_10g();
            }
            cfg.validate().expect("shrunk preset validates");
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random small bundles — more threads than contexts, so quanta
        /// expire — on all five machine shapes in both run modes.
        #[test]
        fn skipping_equals_ticking_on_random_bundles(
            threads in prop::collection::vec(prop::collection::vec(op(), 1..60), 1..9),
            quantum in 10u64..600,
            switch_penalty in 0u64..40,
            ten_gbe in any::<bool>(),
        ) {
            let bundle = bundle_of(&threads);
            for cfg in machines(quantum, switch_penalty, ten_gbe) {
                assert_same(&cfg, THROUGHPUT, &bundle);
                assert_same(&cfg, COMPLETION, &bundle);
            }
        }
    }

    // ------------------------------------------------ metamorphic relations

    /// [`op`] with each remote marker replaced by a fence.
    fn local_op() -> impl Strategy<Value = Op> {
        op().prop_map(|o| match o {
            Op::Send(_) | Op::Recv(_) => Op::Fence,
            local => local,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Only `RemoteSend` and `RemoteRecv` read the link, so a bundle
        /// without them replays to the same result under every
        /// interconnect preset. `fig_network` relies on this to replay its
        /// 1-instance bundle once for all three links (`replayed_on`).
        #[test]
        fn a_bundle_without_remote_events_replays_identically_on_every_link(
            threads in prop::collection::vec(prop::collection::vec(local_op(), 1..60), 1..9),
            quantum in 10u64..600,
            switch_penalty in 0u64..40,
        ) {
            let bundle = bundle_of(&threads);
            for cfg in machines(quantum, switch_penalty, false) {
                for mode in [THROUGHPUT, COMPLETION] {
                    let [numa, rdma, ten_gbe] = [
                        Interconnect::numa_link(),
                        Interconnect::rdma(),
                        Interconnect::network_10g(),
                    ]
                    .map(|link| {
                        let mut cfg = cfg.clone();
                        cfg.interconnect = link;
                        MachineBuilder::from_config(cfg, mode)
                            .build(&bundle)
                            .expect("valid config")
                            .execute()
                    });
                    prop_assert_eq!(&numa, &rdma, "NUMA vs RDMA, {} {:?}", cfg.name, mode);
                    prop_assert_eq!(&numa, &ten_gbe, "NUMA vs 10 GbE, {} {:?}", cfg.name, mode);
                }
            }
        }
    }

    const QUICK_OLTP_THROUGHPUT: RunMode = RunMode::Throughput {
        warmup: 20_000,
        measure: 60_000,
    };
    const QUICK_OLTP_COMPLETION: RunMode = RunMode::Completion {
        max_cycles: 120_000,
    };

    /// The three camps fig7 compares and the 2x2 island midpoint between
    /// them: fat CMP, lean CMP, fat SMP, islands.
    fn quick_oltp_machines() -> [MachineConfig; 4] {
        let mut islands = MachineConfig::fat_cmp(4, 2 << 20, 12);
        islands.name = "2x2 islands".to_string();
        islands.l2.banks = 2;
        islands.l2.shared_by = SharedBy::Cluster(2);
        [
            MachineConfig::fat_cmp(4, 4 << 20, 12),
            MachineConfig::lean_cmp(4, 4 << 20, 12),
            MachineConfig::smp(4, 1 << 20, 12, CoreKind::fat()),
            islands,
        ]
    }

    /// The quick fig7 OLTP capture (tiny TPC-C, 16 clients × 8 units) on
    /// [`quick_oltp_machines`]. The two CMPs must also make at most half
    /// the `Core::cycle` calls the throughput run made when only quiet
    /// cycles were skipped (74,753 fat, 259,030 lean): a private-cycle
    /// check that never fires fails here, though every result would still
    /// equal the oracle's.
    #[test]
    fn skipping_equals_ticking_on_the_quick_oltp_capture() {
        let (mut db, h) = build_tpcc(TpccScale::tiny(), 0xC1D7);
        let bundle = capture_oltp(&mut db, &h, CaptureOptions::new(16, 8, 0xC1D7));
        for (cfg, quiet_only_calls) in
            quick_oltp_machines()
                .into_iter()
                .zip([Some(74_753), Some(259_030), None, None])
        {
            let p = assert_same(&cfg, QUICK_OLTP_THROUGHPUT, &bundle);
            assert!(p.skip.instrs > 0, "{}: nothing retired", cfg.name);
            if let Some(before) = quiet_only_calls {
                assert!(
                    p.skip_calls * 2 <= before,
                    "{}: {} cycle calls, {before} with quiet spans only",
                    cfg.name,
                    p.skip_calls
                );
            }
            assert_same(&cfg, QUICK_OLTP_COMPLETION, &bundle);
        }
    }

    // ------------------------------------------------ the span stream pin

    /// Fold every `(core, now, Tick)` that `execute_seen` shows for one
    /// run into `h`.
    fn fold_spans(h: &mut Fnv, cfg: &MachineConfig, mode: RunMode, bundle: &TraceBundle) {
        MachineBuilder::from_config(cfg.clone(), mode)
            .build(bundle)
            .expect("valid config")
            .execute_seen(&mut |c, now, tick| {
                for w in [
                    c as u64,
                    now,
                    tick.class.map_or(u64::MAX, |class| class as u64),
                    tick.until,
                ] {
                    h.word(w);
                }
            });
    }

    /// The span stream of every core call, one digest per machine, pinned:
    /// the skip ≡ tick oracle compares the span loop only with itself, and
    /// the `SimResult` digests see the sums, not the order of the spans.
    /// Twelve fixed-seed random bundles (the generators of the random
    /// oracle above, each with its own quantum, switch penalty and link)
    /// and two made ones: a thread that ends a unit 100 times in a row (so
    /// one cycle reaches the cap on zero-width events) and a thread whose
    /// loads fill one MSHR behind a store, on the five oracle shapes plus
    /// a 4-wide fat core with one MSHR (the `ablations` MSHR row); then
    /// the quick OLTP capture on the four machines its oracle test runs.
    #[test]
    fn span_streams_are_pinned() {
        use proptest::test_runner::TestRng;
        let mut rng = TestRng::deterministic("span_streams_are_pinned");
        let threads = prop::collection::vec(prop::collection::vec(op(), 1..60), 1..9);
        let mut cases: Vec<_> = (0..12)
            .map(|_| {
                let knobs = (10u64..600, 0u64..40, any::<bool>());
                (
                    knobs.generate(&mut rng),
                    bundle_of(&threads.generate(&mut rng)),
                )
            })
            .collect();
        let mut units = vec![Op::Exec(1, 40)];
        units.extend([Op::UnitEnd; 100]);
        units.push(Op::Exec(1, 40));
        let mshrs: Vec<_> = (0..24u64)
            .flat_map(|k| {
                [
                    Op::Store {
                        slot: k,
                        wide: false,
                    },
                    Op::Load {
                        slot: 64 + k,
                        dep: false,
                        wide: false,
                    },
                    Op::Load {
                        slot: 90 - k,
                        dep: false,
                        wide: k % 3 == 0,
                    },
                    Op::Exec(1, 3),
                ]
            })
            .collect();
        cases.push(((200, 10, false), bundle_of(&[units, mshrs])));
        let mut got = Vec::new();
        for (i, name) in ["fat", "lean", "smp", "asymmetric", "islands", "one mshr"]
            .into_iter()
            .enumerate()
        {
            let mut h = Fnv::new();
            for ((quantum, switch_penalty, ten_gbe), bundle) in &cases {
                let mut shapes = machines(*quantum, *switch_penalty, *ten_gbe);
                let mut one_mshr = shapes[0].clone();
                one_mshr.slots = vec![
                    CoreKind::Fat {
                        width: 4,
                        rob: 32,
                        mshrs: 1,
                    };
                    2
                ];
                shapes.push(one_mshr);
                for mode in [THROUGHPUT, COMPLETION] {
                    fold_spans(&mut h, &shapes[i], mode, bundle);
                }
            }
            got.push((name, h.finish()));
        }
        let (mut db, handles) = build_tpcc(TpccScale::tiny(), 0xC1D7);
        let oltp = capture_oltp(&mut db, &handles, CaptureOptions::new(16, 8, 0xC1D7));
        for (name, cfg) in ["oltp fat", "oltp lean", "oltp smp", "oltp islands"]
            .into_iter()
            .zip(quick_oltp_machines())
        {
            let mut h = Fnv::new();
            fold_spans(&mut h, &cfg, QUICK_OLTP_THROUGHPUT, &oltp);
            fold_spans(&mut h, &cfg, QUICK_OLTP_COMPLETION, &oltp);
            got.push((name, h.finish()));
        }
        let pinned = [
            ("fat", 0x6fe9b7c0efac3198),
            ("lean", 0x399bb47ce4080aff),
            ("smp", 0x84d16d9844156f2e),
            ("asymmetric", 0x80e3038e08eb0aba),
            ("islands", 0x160e73af95450046),
            ("one mshr", 0xc2758f085c2c8798),
            ("oltp fat", 0x37e44838ac7d5298),
            ("oltp lean", 0xbe90b5664276edd5),
            ("oltp smp", 0xc37fa493026a40d6),
            ("oltp islands", 0xe5e7003b24e8348c),
        ];
        assert_eq!(got, pinned);
    }

    // ------------------------------------------ the boundaries, one by one

    fn one_region() -> CodeRegions {
        let mut regions = CodeRegions::new();
        regions.add("r", 1 << 10, 0.0);
        regions
    }

    /// One thread that keeps receiving 64 KB messages: on 10 GbE each is a
    /// ~194k-cycle decode gate.
    fn receiver() -> TraceBundle {
        let mut tr = Tracer::recording();
        for _ in 0..4 {
            tr.exec(0, 40);
            tr.remote_recv(64 << 10);
            tr.unit_end();
        }
        TraceBundle::new(one_region(), vec![tr.finish()])
    }

    fn ten_gbe(mut cfg: MachineConfig) -> MachineConfig {
        cfg.interconnect = Interconnect::network_10g();
        cfg
    }

    /// `cfg` with `n` hardware contexts on every lean slot.
    fn lean_contexts(mut cfg: MachineConfig, n: usize) -> MachineConfig {
        for slot in &mut cfg.slots {
            if let CoreKind::Lean { contexts, .. } = slot {
                *contexts = n;
            }
        }
        cfg
    }

    #[test]
    fn a_core_asleep_across_the_warmup_boundary_charges_only_the_measured_part() {
        let cfg = ten_gbe(MachineConfig::fat_cmp(1, 1 << 20, 8));
        // The first gate opens near cycle 195k: asleep from well before the
        // boundary at 100k to well after it.
        let mode = RunMode::Throughput {
            warmup: 100_000,
            measure: 50_000,
        };
        let p = assert_same(&cfg, mode, &receiver());
        assert_eq!(p.skip.per_core[0].total(), 50_000);
        assert_eq!(p.skip.per_core[0].get(CycleClass::Other), 50_000);
        assert!(p.skip_calls < 2_000, "{} calls: never slept", p.skip_calls);
    }

    #[test]
    fn a_completion_run_ending_while_another_core_sleeps_reports_the_ticking_cycles() {
        let mut cfg = MachineConfig::fat_cmp(2, 1 << 20, 8);
        cfg.stream_buf = 0;
        // Core 0 issues three cold loads and its trace ends: done at cycle 0,
        // asleep on the window head until memory answers (~400). Core 1
        // chases two of the same lines (filled on chip by then) and finishes
        // the run a few dozen cycles in.
        let mut t0 = Tracer::recording();
        for k in 0..3u64 {
            t0.load(0x10_0000 + k * 4096, 8);
        }
        let mut t1 = Tracer::recording();
        t1.load_dep(0x10_0000, 8);
        t1.load_dep(0x10_0000 + 4096, 8);
        let bundle = TraceBundle::new(one_region(), vec![t0.finish(), t1.finish()]);
        let p = assert_same(&cfg, RunMode::Completion { max_cycles: 10_000 }, &bundle);
        assert!(
            (10..200).contains(&p.skip.cycles),
            "run must end on core 1's finish, long before core 0's loads return: {}",
            p.skip.cycles
        );
        // Core 0 is charged for exactly the cycles the run lasted, no more.
        assert_eq!(p.skip.per_core[0].total(), p.skip.cycles);
        assert_eq!(p.skip.per_core[0].get(CycleClass::DStallMem), p.skip.cycles);
        assert!(p.skip_calls < p.tick_calls);
    }

    #[test]
    fn a_quantum_expiring_mid_sleep_switches_on_the_ticking_cycle() {
        // Two threads on one context; each parks on a long gate, so the
        // quantum runs out while the core sleeps and the sleep must end on
        // the cycle that requests the switch.
        for base in [
            MachineConfig::fat_cmp(1, 1 << 20, 8),
            MachineConfig::lean_cmp(1, 1 << 20, 8),
        ] {
            let mut cfg = lean_contexts(ten_gbe(base), 1);
            cfg.quantum = 5_000;
            cfg.switch_penalty = 100;
            let threads = (0..2)
                .map(|_| {
                    let mut tr = Tracer::recording();
                    for _ in 0..3 {
                        tr.exec(0, 30);
                        tr.remote_recv(1 << 10);
                        tr.unit_end();
                    }
                    tr.finish()
                })
                .collect();
            let bundle = TraceBundle::new(one_region(), threads);
            let p = assert_same(
                &cfg,
                RunMode::Completion {
                    max_cycles: 2_000_000,
                },
                &bundle,
            );
            assert_eq!(p.skip.units, 6, "{}: both threads must finish", cfg.name);
            assert!(
                p.skip.cycles > 6 * 30_000,
                "{}: six gates back to back",
                cfg.name
            );
            assert!(
                p.skip_calls * 20 < p.tick_calls,
                "{}: never slept",
                cfg.name
            );
        }
    }

    #[test]
    fn an_inactive_core_is_never_charged() {
        for cfg in [
            MachineConfig::fat_cmp(2, 1 << 20, 8),
            MachineConfig::lean_cmp(2, 1 << 20, 8),
        ] {
            let mut tr = Tracer::recording();
            tr.exec(0, 5_000);
            let bundle = TraceBundle::new(one_region(), vec![tr.finish()]);
            for mode in [THROUGHPUT, COMPLETION] {
                let p = assert_same(&cfg, mode, &bundle);
                assert!(p.skip.per_core[0].total() > 0);
                assert_eq!(p.skip.per_core[1].total(), 0, "{} {mode:?}", cfg.name);
            }
        }
    }

    #[test]
    fn a_fat_core_on_a_10gbe_gate_sleeps_the_whole_gate() {
        let cfg = ten_gbe(MachineConfig::fat_cmp(2, 1 << 20, 8));
        let mode = RunMode::Throughput {
            warmup: 200_000,
            measure: 800_000,
        };
        let p = assert_same(&cfg, mode, &receiver());
        assert_eq!(p.tick_calls, 1_000_000 * 2);
        assert!(
            p.skip_calls * 100 < p.tick_calls,
            "{} cycle calls for {} core-cycles",
            p.skip_calls,
            p.tick_calls
        );
        assert!(p.skip.remote.stall_cycles > 0);
    }

    // ------------------------------------------------ private spans

    /// The fat core and a one-context lean core, whose round-robin pick is
    /// that context every cycle it is runnable.
    fn one_context_cores() -> [MachineConfig; 2] {
        [
            MachineConfig::fat_cmp(1, 1 << 20, 8),
            lean_contexts(MachineConfig::lean_cmp(1, 1 << 20, 8), 1),
        ]
    }

    fn exec_only(instrs: u32) -> ThreadTrace {
        let mut tr = Tracer::recording();
        tr.exec(0, instrs);
        tr.unit_end();
        tr.finish()
    }

    /// Private spans must actually run: far fewer calls than core-cycles.
    fn assert_spans(p: &Pair, cfg: &MachineConfig) {
        assert!(
            p.skip_calls * 3 < p.tick_calls,
            "{}: {} cycle calls for {} core-cycles",
            cfg.name,
            p.skip_calls,
            p.tick_calls
        );
    }

    #[test]
    fn a_span_reaching_the_end_of_warmup_stops_there() {
        // A warm 1 KB loop is private on all but one cycle per I-line;
        // the window boundaries fall on odd cycles, inside spans.
        let bundle = TraceBundle::new(one_region(), vec![exec_only(1 << 20)]);
        let mode = RunMode::Throughput {
            warmup: 3_001,
            measure: 5_003,
        };
        for cfg in one_context_cores() {
            let p = assert_same(&cfg, mode, &bundle);
            assert_eq!(p.skip.per_core[0].total(), 5_003, "{}", cfg.name);
            assert_spans(&p, &cfg);
        }
    }

    #[test]
    fn a_quantum_expiring_inside_a_span_switches_on_the_ticking_cycle() {
        // Two compute-only threads on one context: quanta of 333 cycles
        // end inside spans of up to 8.
        for mut cfg in one_context_cores() {
            cfg.quantum = 333;
            cfg.switch_penalty = 7;
            let bundle = TraceBundle::new(one_region(), vec![exec_only(12_000); 2]);
            for mode in [THROUGHPUT, COMPLETION] {
                let p = assert_same(&cfg, mode, &bundle);
                assert_spans(&p, &cfg);
                assert!(
                    p.skip.breakdown.get(CycleClass::Other) >= 5 * 7,
                    "{} {mode:?}: no quantum expired",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn a_misprediction_inside_a_span_gates_decode_on_the_ticking_cycle() {
        // `branchy` mispredicts about once in 167 instructions.
        let bundle = bundle_of(&[vec![Op::Exec(0, 30_000); 2]]);
        for cfg in one_context_cores() {
            for mode in [THROUGHPUT, COMPLETION] {
                let p = assert_same(&cfg, mode, &bundle);
                assert_spans(&p, &cfg);
            }
        }
    }

    #[test]
    fn a_store_completing_inside_a_span_frees_the_buffer_on_the_ticking_cycle() {
        // One store-buffer slot; each store misses to memory (~400
        // cycles) while 150–450 cycles of compute follow it, so some
        // complete inside a span and some hold up the next store.
        let mut tr = Tracer::recording();
        for k in 0..40u32 {
            tr.store(0x10_0000 + k as u64 * 4096, 8);
            tr.exec(0, 300 + (k % 7) * 100);
        }
        let bundle = TraceBundle::new(one_region(), vec![tr.finish()]);
        for mut cfg in one_context_cores() {
            cfg.store_buffer = 1;
            for mode in [THROUGHPUT, COMPLETION] {
                let p = assert_same(&cfg, mode, &bundle);
                assert_spans(&p, &cfg);
            }
        }
    }

    #[test]
    fn a_thread_finishing_mid_round_rotates_its_context_on_the_ticking_cycle() {
        // Two lean contexts, three threads: thread 2 waits on context 0's
        // run queue until thread 0 finishes, while context 1 runs on. The
        // rotation, and its switch penalty, must come on the cycle after
        // the finish, not when the round robin next reaches context 0.
        // An odd length at width 2 makes thread 0 finish on a cycle that
        // also issued, a compute cycle that private ones may follow.
        let mut cfg = lean_contexts(MachineConfig::lean_cmp(1, 1 << 20, 8), 2);
        cfg.switch_penalty = 7;
        let threads = vec![exec_only(2_001), exec_only(6_000), exec_only(2_001)];
        let p = assert_same(&cfg, COMPLETION, &TraceBundle::new(one_region(), threads));
        assert_spans(&p, &cfg);
    }

    #[test]
    fn a_window_draining_when_another_core_finishes_the_last_thread_stops_with_the_run() {
        // Core 0's trace ends 40 instructions before core 1's: its thread
        // is finished while its window still drains, and core 1 finishing
        // ends the run inside that drain. The drain is never a span, since
        // nothing would stop it outliving the run.
        let cfg = MachineConfig::fat_cmp(2, 1 << 20, 8);
        let bundle = TraceBundle::new(one_region(), vec![exec_only(4_000), exec_only(4_040)]);
        let p = assert_same(&cfg, COMPLETION, &bundle);
        let compute = p.skip.per_core[0].get(CycleClass::Compute);
        assert!(
            compute * 2 < 4_000,
            "core 0 retires 2 a cycle and must not have retired all 4,000: {compute} cycles"
        );
        assert_eq!(p.skip.per_core[0].total(), p.skip.cycles);
    }
}
