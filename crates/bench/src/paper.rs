//! Printers for the paper's own table and figures (Table 1, Figs. 1-9).

use dbcmp_cacti::{historic_latencies, historic_sizes, CactiModel};
use dbcmp_core::experiment::Grid;
use dbcmp_core::figures::{
    fig2_claims, fig3_claims, fig4_claims, fig4_ratios, fig5_claims, fig6_claims, fig6_l2_sizes,
    fig7_claims, fig7_machines, fig8_claims, fig9_claims, Fig9Result, ScalingPoint,
};
use dbcmp_core::report::{f2, f3, four_components, pct, table};
use dbcmp_core::taxonomy::{table1, Camp, Saturation, WorkloadKind};
use dbcmp_sim::analytic::Validation;
use dbcmp_sim::{CycleClass, SimResult};

use crate::Page;

/// Figs. 4 and 5 read the same eight runs.
pub(crate) type Quadrants = Grid<(WorkloadKind, Saturation), Camp>;

/// Table 1: chip multiprocessor camp characteristics.
pub fn table1_camps(mut out: Page) -> Page {
    let rows: Vec<Vec<String>> = table1()
        .into_iter()
        .map(|r| {
            vec![
                r.characteristic.to_string(),
                r.fat.to_string(),
                r.lean.to_string(),
            ]
        })
        .collect();
    out.push(&table(
        &["Core Technology", "Fat Camp (FC)", "Lean Camp (LC)"],
        &rows,
    ));
    out
}

/// Fig. 1: historic on-chip cache sizes (a) and hit latencies (b), plus
/// the CACTI-lite model curve for the paper-era technology point.
pub fn fig1_cache_trends(mut out: Page) -> Page {
    out.line("(a) On-chip cache size by processor generation");
    let rows: Vec<Vec<String>> = historic_sizes()
        .iter()
        .map(|p| {
            vec![
                p.year.to_string(),
                p.processor.to_string(),
                format!("{} KB", p.on_chip_kb),
            ]
        })
        .collect();
    out.push(&table(&["Year", "Processor", "On-chip cache"], &rows));

    out.line("\n(b) L2/LLC hit latency by processor generation");
    let rows: Vec<Vec<String>> = historic_latencies()
        .iter()
        .map(|p| {
            vec![
                p.year.to_string(),
                p.processor.to_string(),
                format!("{} cycles", p.hit_latency_cycles.unwrap()),
            ]
        })
        .collect();
    out.push(&table(&["Year", "Processor", "Hit latency"], &rows));

    out.line("\nCACTI-lite model curve (65 nm, 3 GHz, 16-way):");
    let rows: Vec<Vec<String>> = CactiModel::paper_era()
        .sweep(&fig6_l2_sizes())
        .into_iter()
        .map(|r| {
            vec![
                format!("{} MB", r.org.size_bytes >> 20),
                format!("{:.2} ns", r.latency_ns),
                format!("{} cycles", r.latency_cycles),
                format!("{:.1} mm^2", r.area_mm2),
            ]
        })
        .collect();
    out.push(&table(
        &["L2 size", "Access time", "Latency", "Area"],
        &rows,
    ));
    out
}

/// Fig. 2: throughput vs number of concurrent clients — the
/// unsaturated→saturated transition (DSS queries on the FC CMP).
pub fn fig2_saturation(mut out: Page, pts: &[(usize, f64)]) -> Page {
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|&(n, t)| vec![n.to_string(), f2(t)])
        .collect();
    out.push(&table(&["Clients", "Norm. throughput"], &rows));
    out.claims(fig2_claims(pts))
}

/// Fig. 3: simulator validation. The paper compares FLEXUS CPI against a
/// real OpenPower 720; we compare against the independent closed-form CPI
/// model (substitution documented in DESIGN.md).
pub fn fig3_validation(mut out: Page, (v, res): &(Validation, SimResult)) -> Page {
    let rows = [
        ("Simulated", &v.simulated),
        ("Analytic reference", &v.reference),
    ]
    .map(|(source, cpi)| {
        vec![
            source.to_string(),
            f3(cpi.computation),
            f3(cpi.i_stalls),
            f3(cpi.d_stalls),
            f3(cpi.other),
            f3(cpi.total()),
        ]
    });
    out.push(&table(
        &[
            "Source",
            "Computation",
            "I-stalls",
            "D-stalls",
            "Other",
            "Total CPI",
        ],
        &rows,
    ));
    out.line("");
    out.line(&format!(
        "Total CPI relative error: {:.1}%",
        v.total_error() * 100.0
    ));
    out.line("(paper: FLEXUS within 5% of hardware; our closed form ignores");
    out.line(" queueing/burstiness, so a wider band is expected — see DESIGN.md)");
    out.line("");
    out.line(&format!(
        "Run: {} instrs over {} cycles, UIPC {:.3}",
        res.instrs,
        res.cycles,
        res.uipc()
    ));
    out.claims(fig3_claims(v))
}

/// Fig. 4: (a) response time and (b) throughput of the LC CMP normalized
/// to the FC CMP, for OLTP and DSS, unsaturated and saturated.
pub fn fig4_camps(mut out: Page, quadrants: &Quadrants) -> Page {
    let ratios = fig4_ratios(quadrants);
    let rows: Vec<Vec<String>> = ratios
        .iter()
        .map(|&(w, rt, tp)| vec![w.label().to_string(), f2(rt), f2(tp)])
        .collect();
    out.push(&table(
        &[
            "Workload",
            "LC/FC response time (unsat)",
            "LC/FC throughput (sat)",
        ],
        &rows,
    ));
    out.claims(fig4_claims(quadrants))
}

/// Fig. 5: execution-time breakdown for all eight camp × workload ×
/// saturation combinations on the baseline chip (26 MB shared L2).
pub fn fig5_breakdown(mut out: Page, quadrants: &Quadrants) -> Page {
    let mut rows = Vec::new();
    for workload in [WorkloadKind::Oltp, WorkloadKind::Dss] {
        for camp in [Camp::Fat, Camp::Lean] {
            for saturation in [Saturation::Saturated, Saturation::Unsaturated] {
                let b = &quadrants.get(&(workload, saturation), &camp).breakdown;
                let (c, i, d, o) = four_components(b);
                rows.push(vec![
                    format!("{}/{}", camp.label(), workload.label()),
                    saturation.label().to_string(),
                    pct(c),
                    pct(i),
                    pct(d),
                    pct(o),
                    format!("{:.1}%", b.l2_hit_stall_fraction() * 100.0),
                ]);
            }
        }
    }
    out.push(&table(
        &[
            "Config",
            "Saturation",
            "Computation",
            "I-stalls",
            "D-stalls",
            "Other",
            "(D-L2hit)",
        ],
        &rows,
    ));
    out.claims(fig5_claims(quadrants))
}

/// Fig. 6: effect of L2 cache size and latency — (a) throughput under
/// fixed 4-cycle vs realistic CACTI latencies, (b)/(c) CPI contributions.
pub fn fig6_cache_size(mut out: Page, points: &Grid<WorkloadKind, (u64, bool)>) -> Page {
    let sizes = fig6_l2_sizes();
    for row in &points.rows {
        out.line(&format!("\n-- {} --", row.key.label()));
        // Normalize throughput to the 1 MB realistic point.
        let base = row.get(&(sizes[0], false)).uipc();
        let mut rows = Vec::new();
        for size in sizes {
            let fixed = row.get(&(size, true));
            let real = row.get(&(size, false));
            // The L2's counters: the fraction of demand traffic it
            // actually served at this size.
            let l2 = real.mem.per_level[0];
            rows.push(vec![
                format!("{} MB", size >> 20),
                f2(fixed.uipc() / base),
                f2(real.uipc() / base),
                f3(real.cpi_component(CycleClass::DStallL2Hit)),
                f3(real.cpi_component(CycleClass::DStallL2Hit)
                    + real.cpi_component(CycleClass::DStallMem)
                    + real.cpi_component(CycleClass::DStallCoherence)),
                f3(real.cpi()),
                f2(l2.miss_rate() * 100.0),
            ]);
        }
        out.push(&table(
            &[
                "L2 size",
                "Thru (4-cyc)",
                "Thru (CACTI)",
                "CPI: L2-hit stalls",
                "CPI: all D-stalls",
                "CPI: total",
                "L2 miss%",
            ],
            &rows,
        ));
    }
    out.claims(fig6_claims(points))
}

/// Fig. 7: effect of chip multiprocessing — SMP with private L2s vs CMP
/// with a shared L2, normalized CPI breakdowns.
pub fn fig7_smp_cmp(mut out: Page, results: &Grid<WorkloadKind, &'static str>) -> Page {
    let mut rows = Vec::new();
    for r in &results.rows {
        for (name, _) in fig7_machines() {
            let res = r.get(&name);
            let b = &res.breakdown;
            let total = b.total().max(1) as f64;
            rows.push(vec![
                format!("{}/{}", r.key.label(), name),
                f3(res.cpi()),
                pct(b.compute_fraction()),
                pct(b.instr_stall_fraction()),
                pct(b.get(CycleClass::DStallL2Hit) as f64 / total),
                pct(
                    (b.get(CycleClass::DStallMem) + b.get(CycleClass::DStallCoherence)) as f64
                        / total,
                ),
                pct(b.get(CycleClass::Other) as f64 / total),
            ]);
        }
    }
    out.push(&table(
        &[
            "Config", "CPI", "Comp", "I-stalls", "L2-hit", "Other-D", "Other",
        ],
        &rows,
    ));
    out.line("");
    // The L2's counters: where the demand traffic was actually served.
    let l2 = |res: &SimResult| res.mem.per_level[0];
    for r in &results.rows {
        let (smp, cmp) = (r.get(&"SMP"), r.get(&"CMP"));
        out.line(&format!(
            "{} L2 traffic: SMP {} hits / {} misses ({} coherence transfers); \
             CMP {} hits / {} misses",
            r.key.label(),
            l2(smp).hits_data + l2(smp).hits_instr,
            l2(smp).misses_data + l2(smp).misses_instr,
            smp.mem.coherence_transfers,
            l2(cmp).hits_data + l2(cmp).hits_instr,
            l2(cmp).misses_data + l2(cmp).misses_instr,
        ));
    }
    out = out.claims(fig7_claims(results));
    out.line("");
    out.line("`fig fig_islands` joins these two presets as the endpoints of one");
    out.line("island continuum at fixed total capacity.");
    out
}

/// Fig. 8: effect of on-chip core count on throughput (FC CMP, 16 MB
/// shared L2), against the linear-speedup reference.
pub fn fig8_core_count(mut out: Page, series: &[(WorkloadKind, Vec<ScalingPoint>)]) -> Page {
    for (workload, pts) in series {
        out.line(&format!("\n-- {} --", workload.label()));
        let rows: Vec<Vec<String>> = pts
            .iter()
            .map(|&(n, got, linear)| vec![n.to_string(), f2(got), f2(linear), f2(got / linear)])
            .collect();
        out.push(&table(
            &["Cores", "Norm. throughput", "Linear ref", "Efficiency"],
            &rows,
        ));
    }
    out.claims(fig8_claims(series))
}

/// §6 ablation (not a numbered paper figure): staged vs conventional
/// execution — the "parallelism and locality" opportunities
/// operationalized.
pub fn fig9_staged(mut out: Page, results: &[Fig9Result; 3]) -> Page {
    let base_lc = results[0].response_lc;
    let base_fc = results[0].response_fc;
    let base_instr = results[0].instrs_per_query;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                f2(base_lc / r.response_lc),
                f2(base_fc / r.response_fc),
                f2(base_instr / r.instrs_per_query),
                format!("{:.2}%", r.l1d_miss_rate * 100.0),
            ]
        })
        .collect();
    out.push(&table(
        &[
            "Policy",
            "LC speedup (response)",
            "FC speedup (response)",
            "Instr. reduction",
            "L1D miss rate",
        ],
        &rows,
    ));
    out.claims(fig9_claims(results))
}
