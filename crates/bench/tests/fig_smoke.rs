//! Every figure prints exactly its golden text, and its claims come out
//! as stated: a claim without a gap holds, and a claim with a gap fails
//! (`report::check_claims`).
//!
//! Each test renders a figure through the printer `fig` uses, from the
//! data it already computed for its claims and anchors, and compares the
//! page with `tests/expected/<scale>/<name>.txt`. Tier-1 covers all
//! sixteen figures at `FigScale::quick()` and Table 1 plus Figs. 1-9 at
//! `FigScale::paper()`. The paper figures' claims are checked at paper
//! scale, the scale `fig` prints by default, so a claim is judged on the
//! numbers it sits under; the extension sweeps' claims are checked at
//! quick scale, next to the differential anchors (`same_numbers`) that
//! pin their endpoints to the presets they reproduce. The extensions
//! and `ablations` at paper scale are `#[ignore]`d tests that CI runs
//! with `--ignored`. One test per figure and scale lets the harness run
//! them in parallel, and no figure is computed twice at one scale.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use dbcmp_bench::{extensions, figure, paper, Page, FIGURES};
use dbcmp_cacti::{CacheOrg, CactiModel};
use dbcmp_core::deploy::{deploy_capture, fig_deploy};
use dbcmp_core::experiment::run_throughput;
use dbcmp_core::figures::{
    fig2_saturation, fig3_validation, fig45_quadrants, fig6_cache_sweep, fig7_smp_vs_cmp,
    fig8_core_scaling, fig9_staged, fig_asym, fig_cc, fig_islands, spec_of, BASE_L2,
};
use dbcmp_core::machines::{asym_cmp, cmp_for, fc_cmp, L2Spec};
use dbcmp_core::report::check_claims;
use dbcmp_core::taxonomy::{Camp, WorkloadKind};
use dbcmp_core::workload::{CapturedWorkload, FigScale};
use dbcmp_engine::CcBackend;
use dbcmp_sim::SimResult;

/// A scale: its golden-text directory, the `fig` flag that selects it,
/// and its sizing.
#[derive(Clone, Copy)]
struct Scale {
    dir: &'static str,
    flag: &'static str,
    sizing: fn() -> FigScale,
}

const QUICK: Scale = Scale {
    dir: "quick",
    flag: " --quick",
    sizing: FigScale::quick,
};
const PAPER: Scale = Scale {
    dir: "paper",
    flag: "",
    sizing: FigScale::paper,
};

fn expected_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/expected")
}

/// The first line where `got` differs from `golden`, reported with the
/// figure, the scale and the command that regenerates the golden text;
/// `None` when the two are identical.
fn golden_mismatch(name: &str, scale: Scale, golden: &str, got: &str) -> Option<String> {
    let Scale { dir, flag, .. } = scale;
    if golden == got {
        return None;
    }
    let (mut want, mut have) = (golden.split_inclusive('\n'), got.split_inclusive('\n'));
    let mut line = 1;
    loop {
        match (want.next(), have.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => {
                let show =
                    |l: Option<&str>| l.map_or("<end of text>".to_string(), |l| format!("{l:?}"));
                return Some(format!(
                    "{name} at {dir} scale differs from its golden text at line {line}:\n  \
                     golden: {}\n  got:    {}\n\
                     if the change means to move this figure, regenerate it with\n  \
                     cargo run --release --bin fig -- {name}{flag} > crates/bench/tests/expected/{dir}/{name}.txt",
                    show(a),
                    show(b),
                ));
            }
        }
    }
}

/// `page` is byte-identical to its golden text at `scale`.
fn assert_golden(page: &Page, scale: Scale) {
    let path = expected_dir()
        .join(scale.dir)
        .join(format!("{}.txt", page.name));
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if let Some(report) = golden_mismatch(page.name, scale, &golden, &page.text) {
        panic!("{report}");
    }
}

/// `page` is its golden text, and every claim on it comes out as stated.
fn assert_page(page: &Page, scale: Scale) {
    if let Err(off) = check_claims(&page.claims) {
        panic!("{} claims off their stated outcome:\n{off}", page.name);
    }
    assert_golden(page, scale);
}

/// A headed page for the figure `name`'s printer.
fn page(name: &str) -> Page {
    figure(name).expect("a registry row").page()
}

/// Render `name` at `scale` through its registry row and compare the
/// text only.
fn text_only(name: &str, scale: Scale) {
    let page = figure(name)
        .expect("a registry row")
        .render(&(scale.sizing)());
    assert_golden(&page, scale);
}

#[test]
fn every_figure_has_one_golden_text_per_scale_and_no_orphan() {
    let entries = |dir: &Path| -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|e| {
                e.expect("a directory entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .collect()
    };
    let names: BTreeSet<String> = FIGURES.iter().map(|f| format!("{}.txt", f.name)).collect();
    assert_eq!(names.len(), FIGURES.len(), "registry names are unique");
    let top = ["list.txt", "paper", "quick"].map(String::from);
    assert_eq!(entries(&expected_dir()), BTreeSet::from(top));
    for scale in [QUICK.dir, PAPER.dir] {
        assert_eq!(
            entries(&expected_dir().join(scale)),
            names,
            "expected/{scale}/"
        );
    }
}

#[test]
fn a_mismatch_names_the_figure_scale_and_first_moved_line() {
    assert_eq!(
        golden_mismatch("fig2_saturation", PAPER, "a\nb\n", "a\nb\n"),
        None
    );
    let report = golden_mismatch("fig2_saturation", PAPER, "a\nb\nc\n", "a\nB\nc\n")
        .expect("the texts differ");
    assert!(
        report
            .starts_with("fig2_saturation at paper scale differs from its golden text at line 2:"),
        "{report}"
    );
    assert!(report.contains("golden: \"b\\n\""), "{report}");
    assert!(report.contains("got:    \"B\\n\""), "{report}");
    assert!(
        report.ends_with("cargo run --release --bin fig -- fig2_saturation > crates/bench/tests/expected/paper/fig2_saturation.txt"),
        "{report}"
    );
    // A dropped last line is reported against the end of the text.
    let report = golden_mismatch("ablations", QUICK, "a\nb\n", "a\n").expect("the texts differ");
    assert!(
        report.contains("at quick scale differs from its golden text at line 2:"),
        "{report}"
    );
    assert!(report.contains("got:    <end of text>"), "{report}");
    assert!(report
        .ends_with("fig -- ablations --quick > crates/bench/tests/expected/quick/ablations.txt"));
}

/// Table 1 takes no scale: one render is both golden texts.
#[test]
fn table1_camps() {
    let table = paper::table1_camps(page("table1_camps"));
    assert_golden(&table, QUICK);
    assert_golden(&table, PAPER);
}

#[test]
fn fig1_historic_trends_and_cacti_model() {
    let model = CactiModel::paper_era();
    let small = model.evaluate(CacheOrg::l2(1 << 20)).latency_cycles;
    let large = model.evaluate(CacheOrg::l2(26 << 20)).latency_cycles;
    assert!(
        small < large,
        "bigger caches must be slower ({small} !< {large})"
    );
    // Fig. 1 takes no scale either.
    let fig1 = paper::fig1_cache_trends(page("fig1_cache_trends"));
    assert_golden(&fig1, QUICK);
    assert_golden(&fig1, PAPER);
}

#[test]
fn fig2_saturation_curve() {
    let pts = fig2_saturation(&FigScale::paper());
    assert_page(
        &paper::fig2_saturation(page("fig2_saturation"), &pts),
        PAPER,
    );
}

#[test]
fn fig3_validation_paper() {
    let run = fig3_validation(&FigScale::paper());
    assert_page(
        &paper::fig3_validation(page("fig3_validation"), &run),
        PAPER,
    );
}

/// Figs. 4 and 5 read the same eight runs.
#[test]
fn fig4_and_fig5_quadrants() {
    let quadrants = fig45_quadrants(&FigScale::paper());
    assert_page(&paper::fig4_camps(page("fig4_camps"), &quadrants), PAPER);
    assert_page(
        &paper::fig5_breakdown(page("fig5_breakdown"), &quadrants),
        PAPER,
    );
}

#[test]
fn fig6_cache_sweep_paper() {
    let sweep = fig6_cache_sweep(&FigScale::paper());
    assert_page(
        &paper::fig6_cache_size(page("fig6_cache_size"), &sweep),
        PAPER,
    );
}

#[test]
fn fig7_smp_vs_cmp_paper() {
    let results = fig7_smp_vs_cmp(&FigScale::paper());
    assert_page(&paper::fig7_smp_cmp(page("fig7_smp_cmp"), &results), PAPER);
}

#[test]
fn fig8_core_scaling_paper() {
    let series = fig8_core_scaling(&FigScale::paper());
    assert_page(
        &paper::fig8_core_count(page("fig8_core_count"), &series),
        PAPER,
    );
}

#[test]
fn fig9_staged_paper() {
    let results = fig9_staged(&FigScale::paper());
    assert_page(&paper::fig9_staged(page("fig9_staged"), &results), PAPER);
}

// The paper figures at quick scale: text only (their claims are judged
// at paper scale, above).

#[test]
fn fig2_saturation_quick() {
    text_only("fig2_saturation", QUICK);
}

#[test]
fn fig3_validation_quick() {
    text_only("fig3_validation", QUICK);
}

#[test]
fn fig4_and_fig5_quick() {
    let quadrants = fig45_quadrants(&FigScale::quick());
    assert_golden(&paper::fig4_camps(page("fig4_camps"), &quadrants), QUICK);
    assert_golden(
        &paper::fig5_breakdown(page("fig5_breakdown"), &quadrants),
        QUICK,
    );
}

#[test]
fn fig6_cache_size_quick() {
    text_only("fig6_cache_size", QUICK);
}

#[test]
fn fig7_smp_cmp_quick() {
    text_only("fig7_smp_cmp", QUICK);
}

#[test]
fn fig8_core_count_quick() {
    text_only("fig8_core_count", QUICK);
}

#[test]
fn fig9_staged_quick() {
    text_only("fig9_staged", QUICK);
}

#[test]
fn ablations_quick() {
    text_only("ablations", QUICK);
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
    assert_page(&extensions::fig_cc(page("fig_cc"), &grid), QUICK);
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
    assert_page(&extensions::fig_asym(page("fig_asym"), &points), QUICK);
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
    assert_page(&extensions::fig_islands(page("fig_islands"), &run), QUICK);
}

/// The `fig_network` gate: the 1-instance rows reproduce the
/// `fig_islands` join DSS CMP point (same capture by the validation
/// anchor, same chip by construction) with zero remote traffic, and the
/// network claims hold.
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

    // 1-instance rows ≡ the fig_islands join DSS CMP point: the
    // distributed capture degenerates to `dss_joins` (validation
    // anchor), the chip is the same preset, and with zero remote
    // traffic the link cannot matter — every preset's n=1 row matches.
    let spec = network_spec(&scale);
    let w = CapturedWorkload::dss_joins(&scale, scale.dss_clients, scale.dss_units);
    let reference = run_throughput(network_chip(), &w.bundle, spec);
    for (preset, _) in network_presets() {
        let p = find(preset, 1);
        assert_eq!(p.replay.per_instance.len(), 1);
        assert!(
            same_numbers(&p.replay.per_instance[0], &reference),
            "{preset} 1-instance row must equal the fig_islands CMP point"
        );
        let remote = p.replay.remote;
        assert_eq!(remote.sends + remote.recvs, 0, "nothing ships at n=1");
        assert_eq!(remote.bytes, 0);
        assert_eq!(p.link_stall_share, 0.0);
        assert_eq!(p.stats.shuffles + p.stats.broadcasts, 0);
    }

    assert_page(
        &extensions::fig_network(page("fig_network"), &points),
        QUICK,
    );
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
    assert_eq!(shared.replay.per_instance.len(), 1);
    assert!(
        same_numbers(&shared.replay.per_instance[0], &reference),
        "1-instance deployment must equal the direct shared-L2 CMP replay"
    );

    // A single instance suppresses the multi-warehouse draw entirely, so
    // the knob cannot perturb the shared-everything endpoint.
    assert!(
        same_numbers(
            &find(60, 1).replay.per_instance[0],
            &shared.replay.per_instance[0]
        ),
        "multi% must not change a 1-instance deployment"
    );

    assert_page(&extensions::fig_deploy(page("fig_deploy"), &points), QUICK);
}

// The extensions and `ablations` at paper scale: text only, since some
// extension claims print ✗ at paper scale without an owner yet (ROADMAP
// 1(a)). About a minute and a half on 2 vCPUs, most of it `fig_network`,
// so they sit outside tier-1 and CI runs them with `--ignored`.

#[test]
#[ignore = "paper-scale text (about 1.5 min for all six); CI runs it with --ignored"]
fn fig_cc_paper() {
    text_only("fig_cc", PAPER);
}

#[test]
#[ignore = "paper-scale text (about 1.5 min for all six); CI runs it with --ignored"]
fn fig_asym_paper() {
    text_only("fig_asym", PAPER);
}

#[test]
#[ignore = "paper-scale text (about 1.5 min for all six); CI runs it with --ignored"]
fn fig_islands_paper() {
    text_only("fig_islands", PAPER);
}

#[test]
#[ignore = "paper-scale text (about 1.5 min for all six); CI runs it with --ignored"]
fn fig_deploy_paper() {
    text_only("fig_deploy", PAPER);
}

#[test]
#[ignore = "paper-scale text (about 1.5 min for all six); CI runs it with --ignored"]
fn fig_network_paper() {
    text_only("fig_network", PAPER);
}

#[test]
#[ignore = "paper-scale text (about 1.5 min for all six); CI runs it with --ignored"]
fn ablations_paper() {
    text_only("ablations", PAPER);
}
