//! Simulator-physics anchors and API equivalence suites.
//!
//! Machines are built one way — `MachineBuilder::from_config(..)
//! .build(..).execute()` — and on real captured workloads:
//!
//! * the golden anchor pins the simulated physics to numbers dumped from
//!   the seed simulator, before the trait/builder/topology redesigns;
//! * a heterogeneous machine whose slots all carry the same `CoreKind`
//!   equals the homogeneous machine event-for-event;
//! * the asymmetric preset's pure endpoints equal the camp presets;
//! * a uniform 1-core-per-island topology ≡ the private-L2 SMP shape and
//!   a chip-spanning island ≡ the shared-L2 CMP shape event-for-event;
//! * the parallel `Sweep` runner returns results identical — values and
//!   order — to a sequential run of the same points, in both
//!   `Throughput` and `Completion` modes.

use dbcmp::core::experiment::{RunSpec, Sweep};
use dbcmp::core::machines::{asym_cmp, cmp_for, fc_cmp, lc_cmp, smp_baseline, L2Spec};
use dbcmp::core::taxonomy::{Camp, WorkloadKind};
use dbcmp::core::workload::{CapturedWorkload, FigScale};
use dbcmp::sim::{
    CacheTopology, LevelSpec, MachineBuilder, MachineConfig, RunMode, SharedBy, SimResult,
};
use dbcmp::trace::TraceBundle;

/// Force a genuinely threaded run (4 workers) regardless of host CPU
/// count — on a single-CPU host `Sweep::run`'s default worker count is
/// 1 and it degrades to the sequential path, which would make these
/// assertions vacuous.
fn run_threaded(sweep: &Sweep, bundle: &TraceBundle) -> Vec<SimResult> {
    let bundles: Vec<&TraceBundle> = vec![bundle; sweep.len()];
    sweep.run_each_with_workers(&bundles, 4)
}

fn spec(scale: &FigScale) -> RunSpec {
    RunSpec {
        warmup: scale.warmup / 2,
        measure: scale.measure / 2,
        max_cycles: 400_000_000,
    }
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
/// this fails; the equivalence tests below compare two runs of today's
/// simulator and cannot catch such a drift on their own.
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

/// Heterogeneous machines with uniform slots vs the homogeneous
/// config — event-for-event, including per-core breakdowns and memory
/// counters.
#[test]
fn uniform_hetero_equals_homogeneous() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Dss, &scale);
    let sp = spec(&scale);
    for camp in [Camp::Fat, Camp::Lean] {
        let homo = cmp_for(camp, 4, 4 << 20, L2Spec::Cacti);
        let mut hetero = homo.clone();
        hetero.slots = homo.slot_kinds();
        assert_eq!(hetero.slots.len(), 4);
        for mode in [sp.throughput(), sp.completion()] {
            let a = run(homo.clone(), &w.bundle, mode);
            let b = run(hetero.clone(), &w.bundle, mode);
            assert_eq!(a.per_core, b.per_core, "{camp:?}: per-core breakdowns");
            assert_eq!(a.mem, b.mem, "{camp:?}: memory counters");
            assert_eq!(a, b, "{camp:?}: full result");
        }
    }
}

/// The asym preset's pure endpoints reduce to the camp presets (same
/// numbers; the name differs by design).
#[test]
fn asym_pure_endpoints_equal_presets() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let mode = spec(&scale).throughput();
    for (asym, preset) in [
        (
            asym_cmp(4, 0, 4 << 20, L2Spec::Cacti),
            fc_cmp(4, 4 << 20, L2Spec::Cacti),
        ),
        (
            asym_cmp(0, 4, 4 << 20, L2Spec::Cacti),
            lc_cmp(4, 4 << 20, L2Spec::Cacti),
        ),
    ] {
        let mut a = run(asym, &w.bundle, mode);
        let b = run(preset, &w.bundle, mode);
        a.machine = b.machine.clone();
        assert_eq!(a, b);
    }
}

/// Parallel sweep == sequential sweep, values and order, for both
/// run modes and a mixed bag of machines (including heterogeneous ones),
/// against a shared bundle.
#[test]
fn parallel_sweep_identical_to_sequential() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let sp = spec(&scale);
    for mode in [sp.throughput(), sp.completion()] {
        let mut sweep = Sweep::new();
        for (i, cfg) in [
            fc_cmp(1, 1 << 20, L2Spec::Cacti),
            lc_cmp(1, 1 << 20, L2Spec::Cacti),
            fc_cmp(2, 2 << 20, L2Spec::Fixed(4)),
            asym_cmp(1, 1, 2 << 20, L2Spec::Cacti),
            smp_baseline(2, 1 << 20, Camp::Fat),
            lc_cmp(2, 4 << 20, L2Spec::Cacti),
        ]
        .into_iter()
        .enumerate()
        {
            sweep.push(format!("p{i}"), cfg, mode);
        }
        let par = run_threaded(&sweep, &w.bundle);
        let seq = sweep.run_sequential(&w.bundle);
        assert_eq!(par.len(), sweep.len());
        assert_eq!(par, seq, "parallel sweep must be byte-identical ({mode:?})");
        assert_eq!(
            sweep.run(&w.bundle),
            seq,
            "default-worker run must agree too ({mode:?})"
        );
        // Order: result i carries machine i's name.
        for (p, r) in sweep.points().iter().zip(&par) {
            assert_eq!(
                r.machine, p.cfg.name,
                "results must come back in input order"
            );
        }
    }
}

/// A uniform 1-core-per-island topology ≡ the private-L2 SMP preset
/// event-for-event, and a chip-spanning island ≡ the shared-L2 CMP
/// preset — the cluster continuum really has the paper's two shapes as
/// its endpoints.
#[test]
fn cluster_extremes_equal_legacy_shapes() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let sp = spec(&scale);
    // Cluster(1) vs Private, identical bank parameters.
    let private = smp_baseline(4, 1 << 20, Camp::Fat);
    let mut one_core_islands = private.clone();
    {
        let lvl = private.topology.innermost();
        one_core_islands.topology =
            CacheTopology::new(vec![
                LevelSpec::new(lvl.geom, SharedBy::Cluster(1)).banks(lvl.banks, lvl.bank_occupancy)
            ]);
    }
    // Cluster(4) vs Chip on the fat CMP preset.
    let shared = fc_cmp(4, 4 << 20, L2Spec::Cacti);
    let mut chip_island = shared.clone();
    {
        let lvl = shared.topology.innermost();
        chip_island.topology =
            CacheTopology::new(vec![
                LevelSpec::new(lvl.geom, SharedBy::Cluster(4)).banks(lvl.banks, lvl.bank_occupancy)
            ]);
    }
    for (legacy, island) in [(private, one_core_islands), (shared, chip_island)] {
        for mode in [sp.throughput(), sp.completion()] {
            let a = run(legacy.clone(), &w.bundle, mode);
            let b = run(island.clone(), &w.bundle, mode);
            assert_eq!(
                a.per_core, b.per_core,
                "{}: per-core breakdowns",
                legacy.name
            );
            assert_eq!(a.mem, b.mem, "{}: memory counters", legacy.name);
            assert_eq!(a, b, "{}: full result", legacy.name);
        }
    }
}

/// Repeated parallel runs are stable (no scheduling nondeterminism
/// leaks into results).
#[test]
fn parallel_sweep_is_deterministic_across_runs() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::unsaturated(WorkloadKind::Dss, &scale);
    let sp = spec(&scale);
    let sweep = Sweep::new()
        .point("a", fc_cmp(2, 1 << 20, L2Spec::Cacti), sp.throughput())
        .point("b", lc_cmp(2, 1 << 20, L2Spec::Cacti), sp.throughput())
        .point("c", asym_cmp(1, 1, 1 << 20, L2Spec::Cacti), sp.throughput());
    let r1 = run_threaded(&sweep, &w.bundle);
    let r2 = run_threaded(&sweep, &w.bundle);
    assert_eq!(r1, r2);
}
