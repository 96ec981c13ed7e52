//! The simulator-physics anchor: machines built the one way —
//! `MachineBuilder::from_config(..).build(..).execute()` — on a real
//! captured workload reproduce numbers dumped from the seed simulator,
//! before the trait/builder/topology redesigns.
//!
//! The equivalences that used to sit beside it live next to the code
//! they pin: uniform slots ≡ homogeneous in `sim::builder`, parallel ≡
//! sequential sweeps in `core::experiment`, and the asym and island
//! endpoints ≡ the camp and Fig. 7 presets in `fig_smoke`.

use dbcmp::core::machines::{fc_cmp, lc_cmp, L2Spec};
use dbcmp::core::taxonomy::WorkloadKind;
use dbcmp::core::workload::{CapturedWorkload, FigScale};
use dbcmp::sim::{MachineBuilder, MachineConfig, RunMode, SimResult};
use dbcmp::trace::TraceBundle;

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
