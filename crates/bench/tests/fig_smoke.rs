//! Smoke tests: the generator behind every `fig` subcommand runs to
//! completion at `FigScale::quick()` and returns plausibly-shaped data.
//!
//! The `fig` binary is a thin printer over `dbcmp_core::figures` (and
//! `dbcmp_cacti` for Fig. 1); exercising the generators here means a
//! broken figure pipeline fails `cargo test` instead of rotting silently
//! until someone regenerates the paper artifacts.

use dbcmp_cacti::{historic_latencies, historic_sizes, CacheOrg, CactiModel};
use dbcmp_core::deploy::{deploy_capture, fig_deploy};
use dbcmp_core::experiment::run_throughput;
use dbcmp_core::figures::{
    fig2_saturation, fig3_validation, fig45_quadrants, fig4_ratios, fig6_cache_sweep,
    fig7_smp_vs_cmp, fig8_core_scaling, fig9_staged, fig_asym, fig_cc, fig_contention, fig_islands,
    fig_joins, joins_machines, spec_of, BASE_CORES, BASE_L2,
};
use dbcmp_core::machines::{asym_cmp, cmp_for, fc_cmp, smp_baseline, L2Spec};
use dbcmp_core::taxonomy::{table1, Camp, Saturation, WorkloadKind};
use dbcmp_core::workload::{CapturedWorkload, FigScale};
use dbcmp_engine::CcBackend;
use dbcmp_sim::SimResult;

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
    let scale = FigScale::quick();
    let pts = fig2_saturation(&scale, &[1, 4]);
    assert_eq!(pts.len(), 2);
    assert!(pts.iter().all(|&(_, t)| t.is_finite() && t > 0.0));
}

#[test]
fn fig3_validation_quick() {
    let scale = FigScale::quick();
    let (v, res) = fig3_validation(&scale);
    assert!(res.cycles > 0 && res.instrs > 0);
    assert!(v.simulated.total() > 0.0);
    assert!(v.reference.total() > 0.0);
    assert!(v.total_error().is_finite());
}

#[test]
fn fig4_and_fig5_quadrants() {
    let scale = FigScale::quick();
    let quadrants = fig45_quadrants(&scale);
    let cells: Vec<_> = quadrants.rows.iter().flat_map(|r| &r.cells).collect();
    assert_eq!(cells.len(), 8, "2 camps x 2 workloads x 2 saturations");
    assert!(cells.iter().all(|(_, result)| result.cycles > 0));
    assert!(
        quadrants
            .get(&(WorkloadKind::Oltp, Saturation::Unsaturated), &Camp::Lean)
            .avg_unit_cycles
            .is_some(),
        "unsaturated rows run to completion"
    );
    let ratios = fig4_ratios(&quadrants);
    assert_eq!(ratios.len(), 2);
    for (_, rt_ratio, tp_ratio) in ratios {
        assert!(rt_ratio.is_finite() && rt_ratio > 0.0);
        assert!(tp_ratio.is_finite() && tp_ratio > 0.0);
    }
}

#[test]
fn fig6_cache_sweep_quick() {
    let scale = FigScale::quick();
    let pts = fig6_cache_sweep(&scale, &[1 << 20, 26 << 20]);
    let cells: Vec<_> = pts.rows.iter().flat_map(|r| &r.cells).collect();
    assert_eq!(cells.len(), 8, "2 workloads x 2 sizes x {{fixed, cacti}}");
    assert!(cells.iter().all(|(_, result)| result.cycles > 0));
}

#[test]
fn fig7_smp_vs_cmp_quick() {
    let scale = FigScale::quick();
    let rows = fig7_smp_vs_cmp(&scale);
    assert_eq!(rows.rows.len(), 2);
    for r in &rows.rows {
        assert!(r.get(&"SMP").cycles > 0 && r.get(&"CMP").cycles > 0);
    }
}

#[test]
fn fig8_core_scaling_quick() {
    let scale = FigScale::quick();
    let series = fig8_core_scaling(&scale, &[1, 2]);
    assert_eq!(series.len(), 2);
    for (_, pts) in series {
        assert_eq!(pts.len(), 2);
        assert!(
            (pts[0].1 - 1.0).abs() < 1e-9,
            "first point normalizes to 1.0"
        );
    }
}

#[test]
fn fig9_staged_quick() {
    let scale = FigScale::quick();
    let rows = fig9_staged(&scale);
    assert_eq!(rows.len(), 3, "Volcano, staged, staged-parallel");
    for r in rows {
        assert!(r.response_lc > 0.0 && r.response_fc > 0.0);
        assert!(r.instrs_per_query > 0.0);
        assert!((0.0..=1.0).contains(&r.l1d_miss_rate));
    }
}

/// The `fig_contention` binary's generator end-to-end at quick scale: the
/// interleaved capture really contends (waits at every point, deadlock
/// victims at high skew) and the SMP's data-stall share responds to skew
/// more strongly than the CMP's (the §5.2 contrast).
#[test]
fn fig_contention_quick() {
    let scale = FigScale::quick();
    let points = fig_contention(&scale, &[0, 90]).rows;
    assert_eq!(points.len(), 2);
    for p in &points {
        assert!(p.get(&"SMP").cycles > 0 && p.get(&"CMP").cycles > 0);
        assert!(
            p.key.stats.lock_waits > 0,
            "interleaved clients must contend even unskewed: {:?}",
            p.key.stats
        );
        assert_eq!(
            p.key.stats.commits + p.key.stats.rollbacks,
            (scale.contention_clients * scale.contention_units) as u64,
            "every client must complete its units"
        );
    }
    let hi = &points[1].key;
    assert!(
        hi.stats.deadlock_aborts > 0,
        "high skew must resolve at least one deadlock: {:?}",
        hi.stats
    );
    let growth = |a: &dbcmp_sim::SimResult, b: &dbcmp_sim::SimResult| {
        b.breakdown.data_stall_fraction() - a.breakdown.data_stall_fraction()
    };
    let smp_growth = growth(points[0].get(&"SMP"), points[1].get(&"SMP"));
    let cmp_growth = growth(points[0].get(&"CMP"), points[1].get(&"CMP"));
    assert!(
        smp_growth > cmp_growth,
        "skew must push the SMP's D-stall share up relative to the CMP's: \
         SMP {smp_growth:+.3} vs CMP {cmp_growth:+.3}"
    );
}

/// The `fig_cc` gate (ISSUE 9): the Centralized2PL anchor points
/// reproduce `fig_contention`'s numbers exactly (the trait seam cost
/// nothing), the partitioned backend turns lock traffic into priced
/// remote messages without ever deadlocking, and the ordered backend is
/// structurally free of deadlock aborts even at 90% skew — where the
/// anchor must pay at least one.
#[test]
fn fig_cc_quick() {
    let scale = FigScale::quick();
    let skews = [0u8, 90];
    let points = fig_cc(&scale, &skews).rows;
    assert_eq!(points.len(), 3 * 2, "3 backends x 2 skews");
    for p in &points {
        assert!(
            p.get(&"SMP").cycles > 0 && p.get(&"CMP").cycles > 0 && p.get(&"ISLAND 2x2").cycles > 0
        );
        assert_eq!(
            p.key.stats.commits + p.key.stats.rollbacks,
            (scale.contention_clients * scale.contention_units) as u64,
            "{:?} skew={}: every client must complete its units",
            p.key.backend,
            p.key.hot_pct,
        );
        assert_eq!(p.key.stats.starved_units, 0);
    }
    let find = |b: CcBackend, hot: u8| {
        points
            .iter()
            .find(|p| p.key.backend == b && p.key.hot_pct == hot)
            .expect("point present")
    };

    // Anchor: Centralized2PL through the trait seam is byte-identical to
    // the pre-refactor pipeline — same capture, same replay numbers.
    let reference = fig_contention(&scale, &skews).rows;
    for (i, &hot) in skews.iter().enumerate() {
        let anchor = find(CcBackend::Centralized2PL, hot);
        assert_eq!(
            anchor.key.stats, reference[i].key.stats,
            "2PL capture stats must match fig_contention at skew {hot}"
        );
        assert!(
            same_numbers(anchor.get(&"SMP"), reference[i].get(&"SMP"))
                && same_numbers(anchor.get(&"CMP"), reference[i].get(&"CMP")),
            "2PL replay numbers must match fig_contention at skew {hot}"
        );
    }

    // The §5.2-ext contrast at high skew: the anchor pays deadlock
    // aborts, the alternatives structurally cannot.
    assert!(
        find(CcBackend::Centralized2PL, 90)
            .key
            .stats
            .deadlock_aborts
            > 0,
        "2PL at 90% skew must resolve at least one deadlock"
    );
    for b in [
        CcBackend::PartitionedPerCore,
        CcBackend::DeterministicOrdered,
    ] {
        for &hot in &skews {
            let p = find(b, hot).key;
            assert_eq!(
                p.stats.deadlock_aborts, 0,
                "{b:?} must be deadlock-free at skew {hot}"
            );
            assert_eq!(p.cc.deadlocks, 0);
        }
    }

    // Partitioned: cross-partition lock traffic becomes priced messages.
    for &hot in &skews {
        let p = find(CcBackend::PartitionedPerCore, hot).key;
        assert!(
            p.cc.remote_msgs > 0 && p.cc.remote_bytes == 32 * p.cc.remote_msgs,
            "partitioned must send priced cross-partition messages: {:?}",
            p.cc
        );
    }

    // Ordered: conflict cost moves to pre-execution ordering waits.
    let ord = find(CcBackend::DeterministicOrdered, 90).key;
    assert!(
        ord.cc.ordering_waits > 0 && ord.stats.ordering_waits > 0,
        "ordered at 90% skew must park in the ordering queue: {:?}",
        ord.cc
    );
    assert_eq!(
        ord.stats.lock_waits, 0,
        "ordered execution parks before running, never mid-transaction"
    );
}

/// Numeric equality of two runs, ignoring the machine name (presets and
/// asym endpoints label themselves differently).
fn same_numbers(a: &SimResult, b: &SimResult) -> bool {
    let mut a = a.clone();
    a.machine = b.machine.clone();
    a == *b
}

/// The `fig_asym` gate: both pure camps of the ratio sweep match the
/// fig4-style homogeneous presets run on the same capture, and mixed
/// points land between the pure endpoints.
#[test]
fn fig_asym_quick() {
    let scale = FigScale::quick();
    let total = 4;
    let points = fig_asym(&scale, total);
    assert_eq!(
        points.rows.iter().map(|r| r.cells.len()).sum::<usize>(),
        2 * 3,
        "2 workloads x {{4F, 2F+2L, 0F}}"
    );
    let spec = spec_of(&scale);
    // Rebuild the sweep's captures (deterministic: same seed, same
    // client count) to run the homogeneous reference presets.
    let max_ctx = asym_cmp(0, total, BASE_L2, L2Spec::Cacti).total_contexts();
    for workload in [WorkloadKind::Oltp, WorkloadKind::Dss] {
        let w = CapturedWorkload::saturating(workload, &scale, max_ctx);
        let pts = &points.row(&workload).cells;
        let all_fat = pts
            .iter()
            .find(|((_, lean), _)| *lean == 0)
            .map(|(_, result)| result)
            .expect("pure fat");
        let all_lean = pts
            .iter()
            .find(|((fat, _), _)| *fat == 0)
            .map(|(_, result)| result)
            .expect("pure lean");
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
        // Mixed machines land between the pure camps (small tolerance:
        // the blend is not required to be exactly monotonic).
        let (lo, hi) = {
            let (a, b) = (all_fat.uipc(), all_lean.uipc());
            (a.min(b), a.max(b))
        };
        for ((fat, lean), result) in pts.iter().filter(|((f, l), _)| *f > 0 && *l > 0) {
            let u = result.uipc();
            assert!(
                u >= lo * 0.9 && u <= hi * 1.1,
                "{} {fat}F+{lean}L UIPC {u:.3} outside [{lo:.3}, {hi:.3}] band",
                workload.label(),
            );
        }
    }
}

/// The `fig_islands` gate: the island sweep's pure endpoints are
/// numerically the Fig. 7 presets run on the same captures (one shared
/// L2 ≡ the CMP, one-core islands ≡ the SMP), and the mid-point lands
/// between them.
#[test]
fn fig_islands_quick() {
    let scale = FigScale::quick();
    let total = 16u64 << 20;
    let points = fig_islands(&scale, BASE_CORES, total);
    assert_eq!(
        points.rows.iter().map(|r| r.cells.len()).sum::<usize>(),
        2 * 3,
        "2 workloads x {{1x4, 2x2, 4x1}}"
    );
    let spec = spec_of(&scale);
    for workload in [WorkloadKind::Oltp, WorkloadKind::Dss] {
        // Deterministic captures: same seed + client count as the sweep.
        let w = CapturedWorkload::saturated(workload, &scale);
        let row = points.row(&workload);
        let shared = row.get(&(1, BASE_CORES));
        let private = row.get(&(BASE_CORES, 1));
        // Endpoint ≡ Fig. 7 CMP preset (shared 16 MB L2).
        let cmp_ref = run_throughput(fc_cmp(BASE_CORES, total, L2Spec::Cacti), &w.bundle, spec);
        assert!(
            same_numbers(shared, &cmp_ref),
            "{}: one chip-spanning island must equal the shared-L2 CMP preset",
            workload.label()
        );
        // Endpoint ≡ Fig. 7 SMP preset (private 4 MB per node).
        let smp_ref = run_throughput(
            smp_baseline(BASE_CORES, total / BASE_CORES as u64, Camp::Fat),
            &w.bundle,
            spec,
        );
        assert!(
            same_numbers(private, &smp_ref),
            "{}: one-core islands must equal the SMP preset",
            workload.label()
        );
        // The shared chip is one coherence realm; partitioned chips snoop.
        assert_eq!(shared.mem.coherence_transfers, 0);
        // Mid-points land between the endpoints (small tolerance: the
        // blend is not required to be exactly monotonic).
        let (lo, hi) = {
            let (a, b) = (shared.uipc(), private.uipc());
            (a.min(b), a.max(b))
        };
        for ((clusters, per_cluster), result) in
            row.cells.iter().filter(|((c, k), _)| *c > 1 && *k > 1)
        {
            let u = result.uipc();
            assert!(
                u >= lo * 0.9 && u <= hi * 1.1,
                "{} {clusters}x{per_cluster} UIPC {u:.3} outside [{lo:.3}, {hi:.3}] band",
                workload.label(),
            );
        }
        // Per-level counters flow through: every point records L2 traffic.
        for (_, result) in &row.cells {
            assert_eq!(result.mem.per_level.len(), 1);
            assert!(result.mem.per_level[0].accesses() > 0);
        }
    }
    // At quick scale (small working sets, hot shared structures) OLTP's
    // shared→private throughput drop is much steeper than DSS's — its
    // sharing becomes off-chip coherence while DSS still fits its share.
    // (At paper scale DSS's capacity sensitivity grows; EXPERIMENTS.md
    // records both shapes.)
    let drop = |w: WorkloadKind| {
        let s = points.get(&w, &(1, BASE_CORES)).uipc();
        let p = points.get(&w, &(BASE_CORES, 1)).uipc();
        (s - p) / s
    };
    assert!(
        drop(WorkloadKind::Oltp) > drop(WorkloadKind::Dss),
        "OLTP must pay more for partitioning than DSS: {:.3} vs {:.3}",
        drop(WorkloadKind::Oltp),
        drop(WorkloadKind::Dss)
    );
}

/// The `fig_joins` gate: joins really execute (hash-build and B+Tree
/// probe instructions flow into the capture), the scan-flavor SMP/CMP
/// points reproduce the Fig. 7 presets on the same captures, and the
/// join flavor pays for private islands in L2 misses where the scan
/// flavor does not.
#[test]
fn fig_joins_quick() {
    let scale = FigScale::quick();
    let run = fig_joins(&scale);
    assert_eq!(
        run.grid.rows.iter().map(|r| r.cells.len()).sum::<usize>(),
        6,
        "2 flavors x {{SMP, CMP, 2x2 island}}"
    );

    // Joins produce hash-build/probe work and index-nested-loop descents;
    // the scan mix's Q13/Q16 hash-join share must not dominate the
    // join-heavy capture's.
    assert!(
        run.joins.hashjoin_instrs > 0,
        "join capture must charge exec-hashjoin instructions"
    );
    assert!(
        run.joins.nlj_instrs > 0 && run.joins.btree_instrs > 0,
        "Q5's index-nested-loop join must charge probe + descent work: {} / {}",
        run.joins.nlj_instrs,
        run.joins.btree_instrs,
    );
    assert_eq!(
        run.scan.nlj_instrs, 0,
        "the paper's scan mix has no index-nested-loop operator"
    );

    // Scan-flavor endpoints ≡ the Fig. 7 presets run on the same capture.
    let spec = spec_of(&scale);
    let w = CapturedWorkload::saturated(WorkloadKind::Dss, &scale);
    let find = |join_heavy: bool, machine: &'static str| run.grid.get(&join_heavy, &machine);
    for (tag, cfg) in joins_machines() {
        let reference = run_throughput(cfg, &w.bundle, spec);
        assert!(
            same_numbers(find(false, tag), &reference),
            "scan-flavor {tag} point must reproduce the preset numbers"
        );
    }

    // The join flavor pays for partitioning in capacity misses: on every
    // private/island point its L2 miss rate meets or exceeds the scan
    // flavor's, and the gap is strict on the fully private SMP.
    let l2_miss = |p: &SimResult| p.mem.per_level[0].miss_rate();
    for tag in ["SMP", "ISLAND 2x2"] {
        assert!(
            l2_miss(find(true, tag)) >= l2_miss(find(false, tag)),
            "{tag}: join DSS L2 miss rate must be >= scan DSS"
        );
    }
    assert!(
        l2_miss(find(true, "SMP")) > l2_miss(find(false, "SMP")),
        "private 4 MB nodes must overflow under join working sets"
    );
}

/// The `fig_network` gate: the 1-instance rows reproduce the
/// `fig_joins` join-flavor CMP endpoint (same capture by the validation
/// anchor, same chip by construction) with zero remote traffic, shuffle
/// bytes grow with instance count, and the link-stall shares order
/// 10 GbE > NUMA > RDMA on a fixed multi-instance plan.
#[test]
fn fig_network_quick() {
    use dbcmp_core::network::{fig_network, network_chip, network_presets, network_spec};
    let scale = FigScale::quick();
    let points = fig_network(&scale);
    assert_eq!(points.len(), 3 * 3, "3 presets x {{1, 2, 4}} instances");
    let find = |preset: &str, inst: usize| {
        points
            .iter()
            .find(|p| p.preset == preset && p.instances == inst)
            .expect("point present")
    };

    // 1-instance rows ≡ the fig_joins join-flavor CMP endpoint: the
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
            "{preset} 1-instance row must equal the fig_joins CMP endpoint"
        );
        assert_eq!(p.remote.sends + p.remote.recvs, 0, "nothing ships at n=1");
        assert_eq!(p.remote.bytes, 0);
        assert_eq!(p.link_stall_share, 0.0);
        assert_eq!(p.stats.shuffles + p.stats.broadcasts, 0);
    }

    // Exchange traffic grows with instance count (capture-side bytes
    // are interconnect-independent, so any preset's column works).
    let shipped = |inst: usize| find("NUMA", inst).stats.traffic.sent_bytes;
    assert_eq!(shipped(1), 0);
    assert!(
        shipped(2) > 0 && shipped(4) > shipped(2),
        "shuffle bytes must grow with instance count: {} -> {} -> {}",
        shipped(1),
        shipped(2),
        shipped(4),
    );

    // Link-stall ordering at the fixed 2-instance plan: the kernel
    // network stalls hardest, the RDMA fabric least. (At quick scale
    // the exchanged fragments are small, so latency dominates — the
    // 4-instance plan's messages are too small to separate RDMA from
    // NUMA; paper scale separates them everywhere, see EXPERIMENTS.md.)
    let stall = |preset: &str| find(preset, 2).link_stall_share;
    assert!(
        stall("10GbE") > stall("NUMA") && stall("NUMA") > stall("RDMA"),
        "link-stall shares must order 10GbE > NUMA > RDMA: {:.4} / {:.4} / {:.4}",
        stall("10GbE"),
        stall("NUMA"),
        stall("RDMA"),
    );

    // The bandwidth-vs-compute crossover, quick-scale edition: fast
    // links scale out, the kernel network inverts by 4 instances.
    assert!(
        find("NUMA", 4).units > find("NUMA", 1).units,
        "NUMA-linked instances must add throughput"
    );
    assert!(
        find("10GbE", 4).units < find("10GbE", 2).units,
        "10GbE exchange must invert the scaling by 4 instances"
    );
    // Normalized to whole queries (units / instances — each fragment
    // covers 1/n of the data), the crossover is stark: NUMA-linked
    // chips monotonically add query throughput, while over the kernel
    // stack one chip beats every distributed plan.
    assert!(
        find("NUMA", 1).queries < find("NUMA", 2).queries
            && find("NUMA", 2).queries < find("NUMA", 4).queries,
        "NUMA query throughput must grow monotonically with chips"
    );
    assert!(
        find("10GbE", 2).queries < find("10GbE", 1).queries
            && find("10GbE", 4).queries < find("10GbE", 2).queries,
        "over 10GbE one chip must beat every distributed plan at quick scale"
    );
}

/// The `fig_deploy` gate: the shared-everything endpoint reproduces a
/// direct Fig. 7-style CMP replay of the same bundle, the multi-
/// partition knob really produces interconnect traffic that costs
/// throughput, and the Islands tradeoff has the right shape at both
/// knob extremes.
#[test]
fn fig_deploy_quick() {
    let scale = FigScale::quick();
    let total_l2 = 16u64 << 20;
    let points = fig_deploy(&scale, BASE_CORES, total_l2, &[0, 60]);
    assert_eq!(points.len(), 2 * 3, "2 multi%s x {{1, 2, 4}} instances");
    let find = |multi: u8, inst: usize| {
        points
            .iter()
            .find(|p| p.multi_pct == multi && p.instances == inst)
            .expect("point present")
    };

    // Shared-everything endpoint ≡ a direct CMP replay of the same
    // (deterministically recaptured) bundle on the full budget.
    let spec = spec_of(&scale);
    let dep = deploy_capture(&scale, BASE_CORES, 1, 0);
    assert_eq!(dep.bundles.len(), 1);
    let reference = run_throughput(
        fc_cmp(BASE_CORES, total_l2, L2Spec::Cacti),
        &dep.bundles[0],
        spec,
    );
    let shared = find(0, 1);
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

    // 0% multi: purely local work — no messages, and partitioning
    // (contention-free lock tables over smaller databases) never loses
    // to shared-everything. Units, not UIPC: captures differ in
    // per-transaction instruction counts by design, so committed units
    // over the identical measure windows is the throughput metric.
    for p in points.iter().filter(|p| p.multi_pct == 0) {
        assert_eq!(p.stats.multi_remote_txns, 0);
        assert_eq!(
            p.remote.sends + p.remote.recvs,
            0,
            "no interconnect traffic at 0%"
        );
    }
    for inst in [2, 4] {
        assert!(
            find(0, inst).units >= find(0, 1).units,
            "at 0% multi, {inst} instances ({} units) must not lose to shared-everything ({})",
            find(0, inst).units,
            find(0, 1).units,
        );
    }

    // 60% multi on multi-instance deployments: real two-phase traffic,
    // charged at replay, costing throughput vs the local-only capture
    // of the *same* transaction mix (the PerTxn draw scheme holds the
    // kind sequence constant across the grid).
    for inst in [2, 4] {
        let hi = find(60, inst);
        assert!(
            hi.stats.multi_remote_txns > 0,
            "{inst} instances must cross"
        );
        assert!(hi.remote.sends > 0 && hi.remote.recvs > 0 && hi.remote.bytes > 0);
        assert!(hi.remote.stall_cycles > 0, "messages must cost cycles");
        assert!(
            hi.units < find(0, inst).units,
            "{inst} instances at 60% multi ({} units) must fall below local-only ({})",
            hi.units,
            find(0, inst).units,
        );
    }

    // The Islands crossover: distributed work punishes per-core
    // shared-nothing hardest — more boundaries, more crossings.
    assert!(
        find(60, 4).stats.multi_remote_txns > find(60, 2).stats.multi_remote_txns,
        "finer partitioning must turn more transactions into crossings"
    );
    assert!(
        find(60, 4).units < find(60, 2).units,
        "at 60% multi, per-core shared-nothing ({} units) must lose to the island deployment ({})",
        find(60, 4).units,
        find(60, 2).units,
    );
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
