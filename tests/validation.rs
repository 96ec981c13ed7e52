//! Cross-crate consistency checks: the simulator-physics golden anchor
//! and the machine-shape pins beside it, trace statistics agreement,
//! whole-pipeline determinism, and the interleaved-capture and
//! shared-nothing deployment capture anchors. The figures' shapes are
//! their own claims (`dbcmp_core::figures`), checked by
//! `crates/bench/tests/fig_smoke.rs`. The equivalences that used to sit
//! beside the golden anchor live next to the code they pin: parallel ≡
//! sequential sweeps in `core::experiment`, the island endpoints ≡ private and
//! chip-shared L2s in `sim::memsys`, and the asym endpoints ≡ the camp
//! presets in `fig_smoke`.

use dbcmp::core::deploy_capture;
use dbcmp::core::experiment::{run_throughput, RunSpec};
use dbcmp::core::machines::{asym_cmp, fc_cmp, island_cmp, lc_cmp, smp_baseline, L2Spec};
use dbcmp::core::taxonomy::{Camp, WorkloadKind};
use dbcmp::core::workload::{CapturedWorkload, FigScale};
use dbcmp::engine::CcBackend;
use dbcmp::sim::{Interconnect, MachineBuilder, MachineConfig, RunMode, SimResult};
use dbcmp::trace::{Fnv, TraceBundle, TraceSummary};
use dbcmp::workloads::{
    build_tpcc, capture_oltp, capture_oltp_interleaved, CaptureOptions, InterleaveOptions,
};

fn spec(scale: &FigScale) -> RunSpec {
    RunSpec {
        warmup: scale.warmup,
        measure: scale.measure,
        max_cycles: u64::MAX,
    }
}

/// Determinism across the whole pipeline: same seed ⇒ same cycles.
#[test]
fn full_pipeline_is_deterministic() {
    let scale = FigScale::quick();
    let mk = || {
        let w = CapturedWorkload::dss(&scale, 2, 1);
        run_throughput(fc_cmp(2, 2 << 20, L2Spec::Cacti), &w.bundle, spec(&scale))
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.instrs, b.instrs);
    assert_eq!(a.breakdown, b.breakdown);
}

/// The trace summary agrees with the bundle's own aggregate counters.
#[test]
fn summary_agrees_with_bundle_counters() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::unsaturated(WorkloadKind::Oltp, &scale);
    let s = TraceSummary::compute(&w.bundle.regions, &w.bundle.threads);
    assert_eq!(s.counts, w.bundle.counts());
    assert_eq!(s.counts.instrs, w.bundle.total_instrs());
    assert_eq!(s.counts.units, w.bundle.total_units());
    let direct: u64 = w
        .bundle
        .threads
        .iter()
        .map(|t| t.counts().loads + t.counts().stores)
        .sum();
    assert_eq!(s.counts.loads + s.counts.stores, direct);
}

/// `TraceSummary::compute` reads capture-time counters and the `mem`
/// columns; this is the fold over every decoded event it replaced, and
/// the two must agree on real captures: a quick OLTP one (dependent
/// loads, fences, shared lines across 16 clients) and a quick DSS one
/// (multi-segment scans).
#[test]
fn summary_matches_an_event_fold_on_oltp_and_dss_captures() {
    use dbcmp::trace::{Event, EventCounts, CACHE_LINE};
    use std::collections::BTreeSet;

    let scale = FigScale::quick();
    for kind in [WorkloadKind::Oltp, WorkloadKind::Dss] {
        let w = CapturedWorkload::saturated(kind, &scale);
        let mut want = TraceSummary::default();
        let (mut lines, mut regions) = (BTreeSet::new(), BTreeSet::new());
        for ev in w.bundle.threads.iter().flat_map(|t| t.iter()) {
            want.counts += EventCounts::of(&ev);
            match ev {
                Event::Exec { region, .. } => {
                    regions.insert(region);
                }
                Event::Load { addr, size, .. } | Event::Store { addr, size } => {
                    lines.extend(addr / CACHE_LINE..=(addr + size.max(1) as u64 - 1) / CACHE_LINE);
                }
                _ => {}
            }
        }
        want.data_lines = lines.len() as u64;
        want.code_lines = regions
            .iter()
            .map(|&id| w.bundle.regions.get(id).footprint / CACHE_LINE)
            .sum();
        assert!(
            want.counts.dep_loads > 0 && want.data_lines > 1000,
            "{kind:?}"
        );
        assert_eq!(w.summary, want, "{kind:?}");
    }
}

/// Determinism anchor: the same `FigScale` seed produces a byte-identical
/// interleaved capture — summary *and* raw event streams — across two runs,
/// deadlock schedule included.
#[test]
fn interleaved_capture_is_deterministic() {
    let scale = FigScale::quick();
    let run = || {
        let (db, h) = build_tpcc(scale.tpcc, scale.seed);
        let opt = InterleaveOptions {
            clients: scale.contention_clients,
            units_per_client: scale.contention_units,
            seed: scale.seed,
            slice_ops: scale.slice_ops,
            hot_pct: 90,
            hot_items: scale.hot_items,
            backend: CcBackend::Centralized2PL,
        };
        capture_oltp_interleaved(db, &h, opt)
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats, b.stats, "lock-manager decisions must reproduce");
    let sa = TraceSummary::compute(&a.bundle.regions, &a.bundle.threads);
    let sb = TraceSummary::compute(&b.bundle.regions, &b.bundle.threads);
    assert_eq!(sa, sb, "summaries must be identical");
    for (i, (ta, tb)) in a.bundle.threads.iter().zip(&b.bundle.threads).enumerate() {
        assert_eq!(
            ta.packed_events(),
            tb.packed_events(),
            "client {i} trace diverged"
        );
    }
    // The acceptance shape: contention is real at high skew.
    assert!(sa.counts.blocks > 0, "high skew must record lock waits");
    assert!(
        a.stats.deadlock_aborts > 0,
        "high skew must resolve at least one deadlock: {:?}",
        a.stats
    );
}

/// With `clients == 1` nothing can park, so one client's trace does not
/// depend on the grant quota: the sequential capture (whole-session
/// grants) and the finest interleaving (`slice_ops = 1`) record
/// event-identical traces and an identical summary.
#[test]
fn single_client_interleaved_matches_sequential() {
    let scale = FigScale::quick();
    let units = 8;

    let (mut db_seq, h_seq) = build_tpcc(scale.tpcc, scale.seed);
    let seq = capture_oltp(
        &mut db_seq,
        &h_seq,
        CaptureOptions::new(1, units, scale.seed),
    );

    let (db_il, h_il) = build_tpcc(scale.tpcc, scale.seed);
    let il = capture_oltp_interleaved(db_il, &h_il, InterleaveOptions::new(1, units, scale.seed));

    assert_eq!(seq.threads.len(), 1);
    assert_eq!(il.bundle.threads.len(), 1);
    assert_eq!(
        seq.threads[0].packed_events(),
        il.bundle.threads[0].packed_events(),
        "clients=1 must reproduce the sequential capture exactly"
    );
    assert_eq!(
        TraceSummary::compute(&seq.regions, &seq.threads),
        TraceSummary::compute(&il.bundle.regions, &il.bundle.threads),
    );
    assert_eq!(il.stats.lock_waits, 0);
    assert_eq!(il.stats.deadlock_aborts, 0);
}

/// Determinism anchor: join-DSS captures — both the Volcano executor
/// capture behind `CapturedWorkload::dss_joins` and the staged
/// join-pipeline capture — are byte-identical across runs with the same
/// seed (summary *and* raw event streams).
#[test]
fn join_captures_are_deterministic() {
    let scale = FigScale::quick();

    // Executor capture (what fig_islands' join DSS row replays).
    let a = CapturedWorkload::dss_joins(&scale, 4, 2);
    let b = CapturedWorkload::dss_joins(&scale, 4, 2);
    assert_eq!(a.summary, b.summary, "summaries must be identical");
    assert_eq!(a.bundle.threads.len(), b.bundle.threads.len());
    for (i, (ta, tb)) in a.bundle.threads.iter().zip(&b.bundle.threads).enumerate() {
        assert_eq!(
            ta.packed_events(),
            tb.packed_events(),
            "join client {i} trace diverged"
        );
    }
    assert!(
        a.bundle.region_instrs("exec-hashjoin") > 0,
        "join capture must carry hash-join work"
    );

    // Staged join-pipeline capture, all three policies.
    use dbcmp::staged::{capture_staged_dss, ExecPolicy};
    use dbcmp::workloads::tpch::{build_tpch, QueryKind};
    for policy in [
        ExecPolicy::Volcano,
        ExecPolicy::Staged { batch: 128 },
        ExecPolicy::StagedParallel {
            batch: 128,
            producers: 3,
        },
    ] {
        let run = || {
            let (mut db, h) = build_tpch(scale.tpch, scale.seed);
            capture_staged_dss(&mut db, &h, &QueryKind::JOINS, policy, 2, scale.seed)
                .expect("Q3/Q5 are staged-pipelineable")
        };
        let a = run();
        let b = run();
        for (i, (ta, tb)) in a.threads.iter().zip(&b.threads).enumerate() {
            assert_eq!(
                ta.packed_events(),
                tb.packed_events(),
                "staged {policy:?} thread {i} diverged"
            );
        }
    }
}

/// Codec anchor: the columnar segment codec is lossless on a real recorded
/// fixture — re-encoding a captured OLTP stream in fresh segments
/// reproduces the capture pipeline's own segments byte for byte, and
/// those read back as the same events.
#[test]
fn segment_codec_lossless_on_recorded_fixture() {
    use dbcmp::trace::{Event, Segment, SEGMENT_EVENTS};
    let scale = FigScale::quick();
    let w = CapturedWorkload::unsaturated(WorkloadKind::Oltp, &scale);
    for (i, t) in w.bundle.threads.iter().enumerate() {
        let events: Vec<Event> = t.iter().collect();
        assert_eq!(events.len(), t.len(), "thread {i} event count drifted");
        let rechunked: Vec<Segment> = events.chunks(SEGMENT_EVENTS).map(Segment::encode).collect();
        assert_eq!(rechunked, t.segments(), "thread {i}: segments drifted");
        let read: Vec<Event> = rechunked.iter().flat_map(Segment::events).collect();
        assert_eq!(
            read, events,
            "thread {i}: segment codec must be lossless on the recorded fixture"
        );
    }
    // The compression claim: under 1.42 bytes/event on a real capture
    // (1.415 here; the flat format takes 8).
    let bpe = w.bundle.encoded_bytes() as f64 / w.bundle.total_events() as f64;
    assert!(bpe < 1.42, "bytes/event {bpe:.3} must stay under 1.42");
    // The exact sizes of the quick-scale fig7 capture and of one quick
    // executor-DSS and one quick staged capture, the shapes whose
    // resident traces dominate the DSS benchmark's memory: a codec
    // change that grows any of them fails here. A change to the engine's
    // cost model moves both counts, and the `bench_pipeline` goldens with
    // them; a change to the codec moves only the byte count, since those
    // goldens hash decoded events.
    let fig7 = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let dss = CapturedWorkload::saturated(WorkloadKind::Dss, &scale);
    let staged = {
        use dbcmp::staged::{capture_staged_dss, ExecPolicy};
        use dbcmp::workloads::tpch::{build_tpch, QueryKind};
        let (mut db, h) = build_tpch(scale.tpch, scale.seed);
        let kinds = [QueryKind::Q1, QueryKind::Q6];
        let policy = ExecPolicy::Staged { batch: 256 };
        capture_staged_dss(&mut db, &h, &kinds, policy, 4, scale.seed)
            .expect("Q1/Q6 are staged-pipelineable")
    };
    let sizes = |b: &TraceBundle| (b.total_events(), b.encoded_bytes());
    assert_eq!(sizes(&fig7.bundle), (110_606, 152_097), "fig7 OLTP");
    assert_eq!(sizes(&dss.bundle), (166_285, 53_578), "executor DSS");
    assert_eq!(sizes(&staged), (83_916, 5_803), "staged DSS");
}

/// Determinism anchor: a partitioned deployment capture is byte-identical
/// whatever the worker count used for the per-partition database builds —
/// each partition populates from its own rng stream into its own address
/// window, and transaction capture stays sequential in global client order.
#[test]
fn deployment_capture_deterministic_across_workers() {
    use dbcmp::workloads::{capture_oltp_deployment, DeployOptions};
    let scale = FigScale::quick();
    let tpcc = dbcmp::core::deploy::deploy_tpcc_scale(&scale, 4);
    let opt = DeployOptions {
        capture: CaptureOptions::new(scale.oltp_clients, scale.oltp_units, scale.seed),
        partitions: 4,
        multi_pct: 60,
    };
    let a = capture_oltp_deployment(tpcc, opt, 1).unwrap();
    let b = capture_oltp_deployment(tpcc, opt, 4).unwrap();
    assert_eq!(a.stats, b.stats, "capture statistics must reproduce");
    assert!(
        a.stats.multi_remote_txns > 0,
        "the fixture must cross instances"
    );
    for (p, (ba, bb)) in a.bundles.iter().zip(&b.bundles).enumerate() {
        assert_eq!(
            TraceSummary::compute(&ba.regions, &ba.threads),
            TraceSummary::compute(&bb.regions, &bb.threads),
            "instance {p} summary diverged across build workers"
        );
        for (i, (ta, tb)) in ba.threads.iter().zip(&bb.threads).enumerate() {
            assert_eq!(
                ta.packed_events(),
                tb.packed_events(),
                "instance {p} thread {i} diverged across build workers"
            );
        }
    }
}

/// Determinism anchor: a distributed Q3/Q5 capture is byte-identical
/// whatever the worker count used for the per-instance fragment builds —
/// each fragment populates from the full rng stream (draw-all,
/// insert-owned) into its own address window, and query capture stays
/// sequential in global client order.
#[test]
fn dist_capture_deterministic_across_workers() {
    use dbcmp::workloads::tpch::QueryKind;
    use dbcmp::workloads::{capture_dss_dist_workers, DistOptions};
    let scale = FigScale::quick();
    let opt = DistOptions {
        capture: CaptureOptions::new(scale.dss_clients, scale.dss_units, scale.seed),
        instances: 4,
    };
    let a = capture_dss_dist_workers(scale.tpch, &QueryKind::JOINS, opt, 1);
    let b = capture_dss_dist_workers(scale.tpch, &QueryKind::JOINS, opt, 4);
    assert_eq!(a.stats, b.stats, "exchange statistics must reproduce");
    assert!(
        a.stats.traffic.messages > 0,
        "the fixture must cross instances"
    );
    for (p, (ba, bb)) in a.bundles.iter().zip(&b.bundles).enumerate() {
        assert_eq!(
            TraceSummary::compute(&ba.regions, &ba.threads),
            TraceSummary::compute(&bb.regions, &bb.threads),
            "instance {p} summary diverged across build workers"
        );
        for (i, (ta, tb)) in ba.threads.iter().zip(&bb.threads).enumerate() {
            assert_eq!(
                ta.packed_events(),
                tb.packed_events(),
                "instance {p} thread {i} diverged across build workers"
            );
        }
    }
}

/// Regression anchor: the 1-instance distributed plan is event-identical to
/// the existing single-instance `dss_joins` capture — the distributed
/// capture degenerates to `capture_dss` exactly when there is nothing to
/// exchange.
#[test]
fn single_instance_dist_matches_dss_joins_capture() {
    use dbcmp::workloads::tpch::QueryKind;
    use dbcmp::workloads::{capture_dss_dist, DistOptions};
    let scale = FigScale::quick();

    let dist = capture_dss_dist(
        scale.tpch,
        &QueryKind::JOINS,
        DistOptions {
            capture: CaptureOptions::new(scale.dss_clients, scale.dss_units, scale.seed),
            instances: 1,
        },
    );
    assert_eq!(dist.bundles.len(), 1);
    assert_eq!(dist.stats.traffic.messages, 0, "nothing ships at n=1");
    assert_eq!(dist.stats.shuffles + dist.stats.broadcasts, 0);

    let single = CapturedWorkload::dss_joins(&scale, scale.dss_clients, scale.dss_units);
    assert_eq!(
        TraceSummary::compute(&dist.bundles[0].regions, &dist.bundles[0].threads),
        TraceSummary::compute(&single.bundle.regions, &single.bundle.threads),
    );
    assert_eq!(
        dist.bundles[0].threads.len(),
        single.bundle.threads.len(),
        "no service thread at n=1"
    );
    for (i, (a, b)) in dist.bundles[0]
        .threads
        .iter()
        .zip(&single.bundle.threads)
        .enumerate()
    {
        assert_eq!(
            a.packed_events(),
            b.packed_events(),
            "client {i} diverged from the single-instance capture"
        );
    }
}

/// Simulated UIPC never exceeds the machine's theoretical peak.
#[test]
fn uipc_bounded_by_issue_width() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Dss, &scale);
    let res = run_throughput(fc_cmp(4, 8 << 20, L2Spec::Cacti), &w.bundle, spec(&scale));
    // 4 cores x 4-wide = 16 absolute ceiling.
    assert!(
        res.uipc() <= 16.0,
        "UIPC {:.2} exceeds hardware peak",
        res.uipc()
    );
    assert!(res.uipc() > 0.0);
}

fn run(cfg: MachineConfig, bundle: &TraceBundle, mode: RunMode) -> SimResult {
    MachineBuilder::from_config(cfg, mode)
        .build(bundle)
        .expect("preset configs validate")
        .execute()
}

/// Golden anchor against the *actual* pre-redesign simulator: these
/// numbers were dumped from the seed code at commit `5227f31` (the tree
/// before the trait/builder refactor) on the identical deterministic
/// capture. They pin the physics — if any change shifts a single cycle,
/// this fails; the equivalence tests elsewhere compare two runs of
/// today's simulator and cannot catch such a drift on their own.
#[test]
fn golden_anchor_matches_pre_redesign_simulator() {
    struct Golden {
        cfg: MachineConfig,
        mode: RunMode,
        cycles: u64,
        instrs: u64,
        units: u64,
        breakdown: [u64; 7],
        l1d_misses: u64,
        l2_hits: u64,
        mem_accesses: u64,
        avg_unit_cycles: f64,
    }
    let thr = RunMode::Throughput {
        warmup: 100_000,
        measure: 200_000,
    };
    let cmp = RunMode::Completion {
        max_cycles: 400_000_000,
    };
    let fc = fc_cmp(2, 2 << 20, L2Spec::Cacti);
    let lc = lc_cmp(2, 2 << 20, L2Spec::Cacti);
    let goldens = [
        Golden {
            cfg: fc.clone(),
            mode: thr,
            cycles: 200_000,
            instrs: 242_984,
            units: 29,
            breakdown: [122_325, 96_107, 0, 367, 175_481, 0, 5_720],
            l1d_misses: 803,
            l2_hits: 218,
            mem_accesses: 581,
            avg_unit_cycles: 7_614.862_068_965_517,
        },
        Golden {
            cfg: fc,
            mode: cmp,
            cycles: 1_044_119,
            instrs: 1_790_805,
            units: 128,
            breakdown: [899_817, 106_838, 2_815, 4_965, 965_756, 0, 27_150],
            l1d_misses: 10_982,
            l2_hits: 5_236,
            mem_accesses: 5_568,
            avg_unit_cycles: 83_477.312_5,
        },
        Golden {
            cfg: lc.clone(),
            mode: thr,
            cycles: 200_000,
            instrs: 725_574,
            units: 62,
            breakdown: [365_627, 21_239, 0, 1_287, 11_815, 0, 32],
            l1d_misses: 4_348,
            l2_hits: 2_813,
            mem_accesses: 1_357,
            avg_unit_cycles: 16_980.822_580_645_163,
        },
        Golden {
            cfg: lc,
            mode: cmp,
            cycles: 702_230,
            instrs: 1_790_879,
            units: 128,
            breakdown: [902_293, 69_774, 1_260, 11_178, 190_255, 0, 14_189],
            l1d_misses: 13_111,
            l2_hits: 6_981,
            mem_accesses: 5_568,
            avg_unit_cycles: 45_846.382_812_5,
        },
    ];
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    for g in goldens {
        let name = g.cfg.name.clone();
        let r = run(g.cfg, &w.bundle, g.mode);
        assert_eq!(r.cycles, g.cycles, "{name} {:?}: cycles", g.mode);
        assert_eq!(r.instrs, g.instrs, "{name} {:?}: instrs", g.mode);
        assert_eq!(r.units, g.units, "{name} {:?}: units", g.mode);
        assert_eq!(
            r.breakdown.cycles, g.breakdown,
            "{name} {:?}: breakdown",
            g.mode
        );
        assert_eq!(r.mem.l1d_misses, g.l1d_misses, "{name}: l1d misses");
        assert_eq!(r.mem.l2_hits, g.l2_hits, "{name}: l2 hits");
        assert_eq!(r.mem.mem_accesses, g.mem_accesses, "{name}: mem accesses");
        let avg = r.avg_unit_cycles.expect("units completed");
        assert!(
            (avg - g.avg_unit_cycles).abs() < 1e-9,
            "{name}: avg unit cycles {avg} != {}",
            g.avg_unit_cycles
        );
    }
}

/// FNV-1a over every field of a `SimResult` but the machine name: cycles,
/// instructions, units, the aggregate and per-core breakdowns, every
/// `MemCounters` field (each L2 level entry included), the remote
/// counters and the bits of the mean unit latency.
fn result_digest(r: &SimResult) -> u64 {
    let mut d = Fnv::new();
    let mut word = |w: u64| d.word(w);
    for w in [r.cycles, r.instrs, r.units] {
        word(w);
    }
    word(r.per_core.len() as u64);
    for b in std::iter::once(&r.breakdown).chain(&r.per_core) {
        b.cycles.iter().for_each(|&c| word(c));
    }
    let m = &r.mem;
    for w in [
        m.l1d_accesses,
        m.l1d_misses,
        m.l1i_accesses,
        m.l1i_misses,
        m.l2_hits,
        m.l2_hits_instr,
        m.l1_to_l1,
        m.mem_accesses,
        m.mem_accesses_instr,
        m.coherence_transfers,
        m.stream_hits,
        m.l2_queue_cycles,
        m.l2_queued_accesses,
    ] {
        word(w);
    }
    word(m.per_level.len() as u64);
    for l in &m.per_level {
        for w in [
            l.hits_data,
            l.hits_instr,
            l.misses_data,
            l.misses_instr,
            l.evictions,
            l.service_cycles,
            l.queue_cycles,
            l.queued_accesses,
            l.mshr_waits,
            l.mshr_wait_cycles,
        ] {
            word(w);
        }
    }
    let rc = &r.remote;
    for w in [rc.sends, rc.recvs, rc.bytes, rc.stall_cycles] {
        word(w);
    }
    word(r.avg_unit_cycles.map_or(u64::MAX, f64::to_bits));
    d.finish()
}

/// The machine shapes the golden anchor leaves out — the private-L2 SMP
/// under both camps, a 2x2 hardware-islands chip, a mixed fat+lean chip
/// and the pure-lean end of the asymmetric preset — pinned by one digest
/// of every `SimResult` field per run mode, on the anchor's capture
/// (recorded at `63693e9`). Both camps also replay one instance of a
/// shared-nothing deployment over 10 GbE, the only cells where a lean
/// core parks on remote traffic.
#[test]
fn machine_shapes_are_pinned() {
    let thr = RunMode::Throughput {
        warmup: 100_000,
        measure: 200_000,
    };
    let cmp = RunMode::Completion {
        max_cycles: 400_000_000,
    };
    let l2 = 4 << 20;
    let scale = FigScale::quick();
    let oltp = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let deployment = deploy_capture(&scale, 4, 2, 60);
    let remote = &deployment.bundles[0];
    let ten_gbe = |mut cfg: MachineConfig| {
        cfg.interconnect = Interconnect::network_10g();
        cfg
    };
    let pins: [(MachineConfig, &TraceBundle, [u64; 2]); 7] = [
        (
            smp_baseline(4, 1 << 20, Camp::Fat),
            &oltp.bundle,
            [0xde49_fe98_4d68_386f, 0x5012_78ba_231d_cb99],
        ),
        (
            smp_baseline(4, 1 << 20, Camp::Lean),
            &oltp.bundle,
            [0xd706_f772_1750_626a, 0x56a7_1b78_230a_9507],
        ),
        (
            island_cmp(2, 2, l2, L2Spec::Cacti),
            &oltp.bundle,
            [0xaa12_adfb_0eb6_0aac, 0xd892_b696_df70_2f51],
        ),
        (
            asym_cmp(3, 1, l2, L2Spec::Cacti),
            &oltp.bundle,
            [0xc0dd_25bd_0e5e_2467, 0x9c96_0bdc_300f_9f73],
        ),
        (
            asym_cmp(0, 4, l2, L2Spec::Cacti),
            &oltp.bundle,
            [0x7a51_53db_f417_eb32, 0x9eb9_371a_d3ba_fc0a],
        ),
        (
            ten_gbe(lc_cmp(2, l2, L2Spec::Cacti)),
            remote,
            [0xe737_d0bc_bcb0_1cfe, 0xa25b_c59b_321b_d1c9],
        ),
        (
            ten_gbe(fc_cmp(2, l2, L2Spec::Cacti)),
            remote,
            [0x99c2_d0d4_6fb0_d0c4, 0x2846_c807_571e_d9d8],
        ),
    ];
    let got: Vec<[u64; 2]> = pins
        .iter()
        .map(|(cfg, bundle, _)| {
            [thr, cmp].map(|mode| {
                let r = run(cfg.clone(), bundle, mode);
                let parks = std::ptr::eq(*bundle, remote);
                assert_eq!(r.remote.recvs > 0, parks, "{} {mode:?}", cfg.name);
                result_digest(&r)
            })
        })
        .collect();
    for ((cfg, _, want), got) in pins.iter().zip(&got) {
        assert_eq!(got, want, "{}: got {got:#018x?}", cfg.name);
    }
}
