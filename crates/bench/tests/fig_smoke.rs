//! Every `fig` generator runs to completion and its claims come out as
//! stated: a claim without a gap holds, and a claim with a gap fails
//! (`report::check_claims`).
//!
//! The paper's figures (Figs. 2-9) are checked at `FigScale::paper()`,
//! the scale `fig` prints by default, so a claim is judged on the numbers
//! it sits under; one test per figure lets the harness run them in
//! parallel. The extension sweeps are checked at `FigScale::quick()`,
//! next to the differential anchors (`same_numbers`) that pin their
//! endpoints to the presets they reproduce.

use dbcmp_cacti::{historic_latencies, historic_sizes, CacheOrg, CactiModel};
use dbcmp_core::deploy::{deploy_capture, fig_deploy, fig_deploy_claims};
use dbcmp_core::experiment::run_throughput;
use dbcmp_core::figures::{
    fig2_claims, fig2_saturation, fig3_claims, fig3_validation, fig45_quadrants, fig4_claims,
    fig5_claims, fig6_cache_sweep, fig6_claims, fig7_claims, fig7_smp_vs_cmp, fig8_claims,
    fig8_core_scaling, fig9_claims, fig9_staged, fig_asym, fig_asym_claims, fig_cc, fig_cc_claims,
    fig_islands, fig_islands_claims, spec_of, BASE_CORES, BASE_L2,
};
use dbcmp_core::machines::{asym_cmp, cmp_for, fc_cmp, L2Spec};
use dbcmp_core::report::{check_claims, Claim};
use dbcmp_core::taxonomy::{table1, Camp, WorkloadKind};
use dbcmp_core::workload::{CapturedWorkload, FigScale};
use dbcmp_engine::CcBackend;
use dbcmp_sim::SimResult;

/// Every claim of a figure comes out as stated.
fn assert_claims(claims: &[Claim]) {
    if let Err(off) = check_claims(claims) {
        panic!("claims off their stated outcome:\n{off}");
    }
}

#[test]
fn fig1_historic_trends_and_cacti_model() {
    let sizes = historic_sizes();
    let lats = historic_latencies();
    assert!(!sizes.is_empty() && !lats.is_empty());
    let model = CactiModel::paper_era();
    let small = model.evaluate(CacheOrg::l2(1 << 20)).latency_cycles;
    let large = model.evaluate(CacheOrg::l2(26 << 20)).latency_cycles;
    assert!(
        small < large,
        "bigger caches must be slower ({small} !< {large})"
    );
}

#[test]
fn fig2_saturation_curve() {
    assert_claims(&fig2_claims(&fig2_saturation(&FigScale::paper())));
}

#[test]
fn fig3_validation_paper() {
    let (v, _) = fig3_validation(&FigScale::paper());
    assert_claims(&fig3_claims(&v));
}

/// Figs. 4 and 5 read the same eight runs.
#[test]
fn fig4_and_fig5_quadrants() {
    let quadrants = fig45_quadrants(&FigScale::paper());
    assert_claims(&fig4_claims(&quadrants));
    assert_claims(&fig5_claims(&quadrants));
}

#[test]
fn fig6_cache_sweep_paper() {
    assert_claims(&fig6_claims(&fig6_cache_sweep(&FigScale::paper())));
}

#[test]
fn fig7_smp_vs_cmp_paper() {
    assert_claims(&fig7_claims(&fig7_smp_vs_cmp(&FigScale::paper())));
}

#[test]
fn fig8_core_scaling_paper() {
    assert_claims(&fig8_claims(&fig8_core_scaling(&FigScale::paper())));
}

#[test]
fn fig9_staged_paper() {
    assert_claims(&fig9_claims(&fig9_staged(&FigScale::paper())));
}

/// The `fig_cc` gate: every client of every capture completes its units,
/// every partitioned message carries its 32 priced bytes, and the
/// concurrency-control claims hold.
#[test]
fn fig_cc_quick() {
    let scale = FigScale::quick();
    let grid = fig_cc(&scale);
    let points = &grid.rows;
    assert_eq!(points.len(), 3 * 4, "3 backends x skews 0/30/60/90%");
    for p in points {
        assert_eq!(
            p.key.stats.commits + p.key.stats.rollbacks,
            (scale.contention_clients * scale.contention_units) as u64,
            "{:?} skew={}: every client must complete its units",
            p.key.backend,
            p.key.hot_pct,
        );
        assert_eq!(p.key.stats.starved_units, 0);
    }
    for p in points
        .iter()
        .filter(|p| p.key.backend == CcBackend::PartitionedPerCore)
    {
        let cc = p.key.cc;
        assert_eq!(cc.remote_bytes, 32 * cc.remote_msgs, "{cc:?}");
    }
    assert_claims(&fig_cc_claims(&grid));
}

/// Numeric equality of two runs, ignoring the machine name (presets and
/// asym endpoints label themselves differently).
fn same_numbers(a: &SimResult, b: &SimResult) -> bool {
    let mut a = a.clone();
    a.machine = b.machine.clone();
    a == *b
}

/// The `fig_asym` gate: both pure camps of the ratio sweep match the
/// fig4-style homogeneous presets run on the same capture, and the
/// asymmetric-chip claims hold.
#[test]
fn fig_asym_quick() {
    let scale = FigScale::quick();
    let points = fig_asym(&scale);
    assert_eq!(
        points.rows.iter().map(|r| r.cells.len()).sum::<usize>(),
        2 * 5,
        "2 workloads x {{8F, 6F+2L, 4F+4L, 2F+6L, 0F}}"
    );
    // The first column is all-fat, so its fat count is the slot total.
    let ((total, _), _) = points.rows[0].cells[0];
    let spec = spec_of(&scale);
    // Rebuild the sweep's captures (deterministic: same seed, same
    // client count) to run the homogeneous reference presets.
    let max_ctx = asym_cmp(0, total, BASE_L2, L2Spec::Cacti).total_contexts();
    for workload in [WorkloadKind::Oltp, WorkloadKind::Dss] {
        let w = CapturedWorkload::saturating(workload, &scale, max_ctx);
        // `asym_ratios` runs from all-fat to all-lean.
        let [(_, all_fat), .., (_, all_lean)] = &points.row(&workload).cells[..] else {
            panic!("the sweep has two pure endpoints")
        };
        for (point, camp) in [(all_fat, Camp::Fat), (all_lean, Camp::Lean)] {
            let reference = run_throughput(
                cmp_for(camp, total, BASE_L2, L2Spec::Cacti),
                &w.bundle,
                spec,
            );
            assert!(
                same_numbers(point, &reference),
                "{} pure {:?} endpoint must equal the homogeneous preset",
                workload.label(),
                camp,
            );
        }
    }
    assert_claims(&fig_asym_claims(&points));
}

/// The `fig_islands` gate: three captures on the three topology
/// machines, every point records L2 traffic, and the topology and join
/// claims hold.
#[test]
fn fig_islands_quick() {
    let run = fig_islands(&FigScale::quick());
    assert_eq!(
        run.grid.rows.iter().map(|r| r.cells.len()).sum::<usize>(),
        3 * 3,
        "{{OLTP, scan DSS, join DSS}} x {{CMP, 2x2 island, SMP}}"
    );
    // The L2's counters flow through: every point records L2 traffic.
    for (_, result) in run.grid.rows.iter().flat_map(|r| &r.cells) {
        assert_eq!(result.mem.per_level.len(), 1);
        assert!(result.mem.per_level[0].accesses() > 0);
    }
    assert_claims(&fig_islands_claims(&run));
}

/// The `fig_network` gate: the 1-instance rows reproduce the
/// `fig_islands` join DSS CMP point (same capture by the validation
/// anchor, same chip by construction) with zero remote traffic, and the
/// network claims hold.
#[test]
fn fig_network_quick() {
    use dbcmp_core::network::{
        fig_network, fig_network_claims, network_chip, network_presets, network_spec,
    };
    let scale = FigScale::quick();
    let points = fig_network(&scale);
    assert_eq!(points.len(), 3 * 3, "3 presets x {{1, 2, 4}} instances");
    let find = |preset: &str, inst: usize| {
        points
            .iter()
            .find(|p| p.preset == preset && p.instances == inst)
            .expect("point present")
    };

    // 1-instance rows ≡ the fig_islands join DSS CMP point: the
    // distributed capture degenerates to `dss_joins` (validation
    // anchor), the chip is the same preset, and with zero remote
    // traffic the link cannot matter — every preset's n=1 row matches.
    let spec = network_spec(&scale);
    let w = CapturedWorkload::dss_joins(&scale, scale.dss_clients, scale.dss_units);
    let reference = run_throughput(network_chip(), &w.bundle, spec);
    for (preset, _) in network_presets() {
        let p = find(preset, 1);
        assert_eq!(p.per_instance.len(), 1);
        assert!(
            same_numbers(&p.per_instance[0], &reference),
            "{preset} 1-instance row must equal the fig_islands CMP point"
        );
        assert_eq!(p.remote.sends + p.remote.recvs, 0, "nothing ships at n=1");
        assert_eq!(p.remote.bytes, 0);
        assert_eq!(p.link_stall_share, 0.0);
        assert_eq!(p.stats.shuffles + p.stats.broadcasts, 0);
    }

    assert_claims(&fig_network_claims(&points));
}

/// The `fig_deploy` gate: the shared-everything endpoint reproduces a
/// direct Fig. 7-style CMP replay of the same bundle, the multi-partition
/// knob cannot perturb it, and the deployment claims hold.
#[test]
fn fig_deploy_quick() {
    let scale = FigScale::quick();
    let points = fig_deploy(&scale);
    assert_eq!(
        points.len(),
        3 * 3,
        "multi% 0/20/60 x {{1, 2, 4}} instances"
    );
    let find = |multi: u8, inst: usize| {
        points
            .iter()
            .find(|p| p.multi_pct == multi && p.instances == inst)
            .expect("point present")
    };

    // Shared-everything endpoint ≡ a direct CMP replay of the same
    // (deterministically recaptured) bundle on the full budget.
    let spec = spec_of(&scale);
    let shared = find(0, 1);
    let cores = shared.cores_per_instance;
    let dep = deploy_capture(&scale, cores, 1, 0);
    assert_eq!(dep.bundles.len(), 1);
    let budget = fc_cmp(cores, shared.l2_per_instance, L2Spec::Cacti);
    let reference = run_throughput(budget, &dep.bundles[0], spec);
    assert_eq!(shared.per_instance.len(), 1);
    assert!(
        same_numbers(&shared.per_instance[0], &reference),
        "1-instance deployment must equal the direct shared-L2 CMP replay"
    );

    // A single instance suppresses the multi-warehouse draw entirely, so
    // the knob cannot perturb the shared-everything endpoint.
    assert!(
        same_numbers(&find(60, 1).per_instance[0], &shared.per_instance[0]),
        "multi% must not change a 1-instance deployment"
    );

    assert_claims(&fig_deploy_claims(&points));
}

#[test]
fn table1_camps_rows() {
    let rows = table1();
    assert!(rows.len() >= 2, "at least the FC and LC camps");
}

/// The `ablations` binary's core path: re-run a captured workload through
/// `run_throughput` on the baseline FC CMP (its ablations are variations
/// of exactly this call).
#[test]
fn ablations_baseline_path() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Dss, &scale);
    let spec = spec_of(&scale);
    let res = run_throughput(fc_cmp(BASE_CORES, 4 << 20, L2Spec::Cacti), &w.bundle, spec);
    assert!(res.cycles > 0 && res.instrs > 0);
}
