//! Printers for the sweeps that extend the paper: concurrency control
//! under contention (§5.2), asymmetric chips, cache topologies over OLTP,
//! scan and join DSS, shared-nothing deployments, and distributed joins
//! over a network.

use dbcmp_core::deploy::{fig_deploy_claims, DeployPoint};
use dbcmp_core::experiment::Grid;
use dbcmp_core::figures::{
    cc_backend_label, fig_asym_claims, fig_cc_claims, fig_islands_claims, topology_machines,
    ContendedCapture, IslandsRun, JoinsCaptureStats,
};
use dbcmp_core::network::{fig_network_claims, network_presets, NetworkPoint, NETWORK_INSTANCES};
use dbcmp_core::report::{f2, f3, four_components, pct, table};
use dbcmp_core::taxonomy::WorkloadKind;
use dbcmp_sim::CycleClass;

use crate::Page;

/// The concurrency-control sweep ([`dbcmp_core::figures::fig_cc`]) on
/// the CMP / 2x2-island / SMP presets.
pub fn fig_cc(mut out: Page, points: &Grid<ContendedCapture, &'static str>) -> Page {
    let mut rows = Vec::new();
    for p in &points.rows {
        let ContendedCapture {
            backend,
            hot_pct,
            stats,
            cc,
        } = p.key;
        let (smp, cmp) = (p.get(&"SMP"), p.get(&"CMP"));
        rows.push(vec![
            cc_backend_label(backend).to_string(),
            format!("{hot_pct}%"),
            (stats.lock_waits + stats.ordering_waits).to_string(),
            stats.deadlock_aborts.to_string(),
            cc.remote_msgs.to_string(),
            cc.fallback_conflicts.to_string(),
            f3(smp.cpi()),
            pct(smp.breakdown.data_stall_fraction()),
            f3(cmp.cpi()),
            pct(cmp.breakdown.data_stall_fraction()),
            f3(p.get(&"ISLAND 2x2").cpi()),
        ]);
    }
    out.push(&table(
        &[
            "CC",
            "Hot",
            "Parks",
            "Deadlocks",
            "RemoteMsgs",
            "Fallbacks",
            "SMP CPI",
            "SMP D-stall",
            "CMP CPI",
            "CMP D-stall",
            "ISL CPI",
        ],
        &rows,
    ));
    out.line("");

    // Per-backend SMP-vs-CMP delta at the hottest skew point.
    let hottest = points.rows.iter().map(|p| p.key.hot_pct).max();
    for p in points
        .rows
        .iter()
        .filter(|p| Some(p.key.hot_pct) == hottest)
    {
        out.line(&format!(
            "{:<6} skew={}%:  SMP/CMP CPI ratio {:.3},  deadlock aborts {},  \
             exec waits {},  ordering waits {}",
            cc_backend_label(p.key.backend),
            p.key.hot_pct,
            p.get(&"SMP").cpi() / p.get(&"CMP").cpi(),
            p.key.stats.deadlock_aborts,
            p.key.stats.lock_waits,
            p.key.stats.ordering_waits,
        ));
    }
    out.claims(fig_cc_claims(points))
}

/// The asymmetric-CMP ratio sweep ([`dbcmp_core::figures::fig_asym`]).
pub fn fig_asym(mut out: Page, points: &Grid<WorkloadKind, (usize, usize)>) -> Page {
    for row in &points.rows {
        out.line(&format!(
            "\n-- {} (saturated, throughput mode) --",
            row.key.label()
        ));
        let rows: Vec<Vec<String>> = row
            .cells
            .iter()
            .map(|((fat, lean), res)| {
                let (c, i, d, o) = four_components(&res.breakdown);
                vec![
                    format!("{fat}F + {lean}L"),
                    f3(res.uipc()),
                    f2(res.units_per_mcycle()),
                    pct(c),
                    pct(i),
                    pct(d),
                    pct(o),
                ]
            })
            .collect();
        out.push(&table(
            &[
                "Slots",
                "UIPC",
                "Units/Mcyc",
                "Computation",
                "I-stalls",
                "D-stalls",
                "Other",
            ],
            &rows,
        ));
    }
    out.claims(fig_asym_claims(points))
}

fn attribution_row(tag: &str, s: &JoinsCaptureStats) -> Vec<String> {
    let share = |n: u64| pct(n as f64 / s.total_instrs.max(1) as f64);
    vec![
        tag.to_string(),
        format!("{}", s.total_instrs),
        share(s.hashjoin_instrs),
        share(s.nlj_instrs),
        share(s.btree_instrs),
        format!("{:.1} MB", s.data_working_set as f64 / (1 << 20) as f64),
    ]
}

/// The topology sweep ([`dbcmp_core::figures::fig_islands`]) at Fig. 7's
/// core count and total L2, over OLTP, scan DSS and join DSS.
pub fn fig_islands(mut out: Page, run: &IslandsRun) -> Page {
    out.line("-- capture attribution (where the instructions went) --");
    out.push(&table(
        &[
            "capture",
            "instrs",
            "hash-join",
            "nested-loop",
            "btree-search",
            "data WS",
        ],
        &[
            attribution_row("scan DSS (Q1/Q6/Q13/Q16)", &run.scan),
            attribution_row("join DSS (Q3/Q5)", &run.joins),
        ],
    ));

    for row in &run.grid.rows {
        out.line(&format!("\n-- {} (saturated, throughput mode) --", row.key));
        let rows: Vec<Vec<String>> = topology_machines()
            .iter()
            .map(|(tag, cfg)| {
                let res = row.get(tag);
                let b = &res.breakdown;
                let (c, i, d, o) = four_components(b);
                let coherence = b.get(CycleClass::DStallCoherence) as f64 / b.total().max(1) as f64;
                let per_island = cfg.l2.shared_by.cores_per_instance(cfg.n_cores);
                vec![
                    tag.to_string(),
                    format!("{}x{per_island}", cfg.n_cores / per_island),
                    format!("{} MB", cfg.l2.geom.size >> 20),
                    f3(res.uipc()),
                    pct(c),
                    pct(i),
                    pct(d),
                    pct(coherence),
                    pct(o),
                    f2(res.mem.per_level[0].miss_rate() * 100.0),
                ]
            })
            .collect();
        let headers = [
            "Machine",
            "Islands",
            "L2/island",
            "UIPC",
            "Comp",
            "I-stalls",
            "D-stalls",
            "  of which coh.",
            "Other",
            "L2 miss%",
        ];
        out.push(&table(&headers, &rows));
    }
    out.line("");
    out.line("CMP and SMP are Fig. 7's presets replaying Fig. 7's captures, so");
    out.line("their OLTP and scan DSS cells are Fig. 7's runs. Moving right,");
    out.line("islands get faster-but-smaller caches; the join rows add the");
    out.line("hash-table and B+Tree working sets.");
    out.claims(fig_islands_claims(run))
}

/// The shared-nothing deployment sweep ([`dbcmp_core::deploy`]) at
/// Fig. 7's core count and total L2.
pub fn fig_deploy(mut out: Page, points: &[DeployPoint]) -> Page {
    let mut multi_pcts: Vec<u8> = points.iter().map(|p| p.multi_pct).collect();
    multi_pcts.dedup();

    for multi_pct in multi_pcts {
        out.line(&format!(
            "\n-- {multi_pct}% multi-warehouse transactions --"
        ));
        let rows: Vec<Vec<String>> = points
            .iter()
            .filter(|p| p.multi_pct == multi_pct)
            .map(|p| {
                let r = &p.replay;
                let cycles: u64 = r.per_instance.iter().map(|r| r.cycles).sum();
                vec![
                    format!("{}x{}c", p.instances, p.cores_per_instance),
                    format!("{} MB", p.l2_per_instance >> 20),
                    format!("{}", r.units),
                    f3(r.uipc),
                    format!("{}", p.stats.multi_remote_txns),
                    format!("{}", r.remote.sends + r.remote.recvs),
                    format!("{}", r.remote.bytes),
                    pct(r.remote.stall_cycles as f64 / cycles.max(1) as f64),
                ]
            })
            .collect();
        out.push(&table(
            &[
                "Deployment",
                "L2/inst",
                "Units",
                "UIPC*",
                "2-phase txns",
                "Messages",
                "Msg bytes",
                "Link stall%",
            ],
            &rows,
        ));
    }
    out.line("");
    out.line("Units (committed work in identical measure windows) is the");
    out.line("throughput metric; UIPC* is diagnostic only — the captures differ");
    out.line("in per-transaction instruction counts by design (lock-table");
    out.line("contention surcharge, two-phase remote flavors).");
    out.line("");
    out.line("1x4c is one shared-everything engine (Fig. 7's CMP chip); 4x1c is");
    out.line("shared-nothing, one engine per core. Every crossing pays two-phase");
    out.line("NUMA-link messages (Link stall%) plus cold remote lines.");
    out.claims(fig_deploy_claims(points))
}

/// The distributed-join network sweep ([`dbcmp_core::network`]).
pub fn fig_network(mut out: Page, points: &[NetworkPoint]) -> Page {
    for (preset, link) in network_presets() {
        out.line(&format!(
            "\n-- {preset} link ({} cycles one-way, {} B/cycle) --",
            link.latency_cycles, link.bytes_per_cycle
        ));
        let rows: Vec<Vec<String>> = points
            .iter()
            .filter(|p| p.preset == preset)
            .map(|p| {
                let r = &p.replay;
                vec![
                    format!("{}x4c", p.instances),
                    format!("{}", r.units),
                    format!("{:.1}", p.queries),
                    f3(r.uipc),
                    format!("{}", p.stats.shuffles),
                    format!("{}", p.stats.broadcasts),
                    format!("{}", r.remote.sends + r.remote.recvs),
                    format!("{}", r.remote.bytes),
                    pct(p.link_stall_share),
                ]
            })
            .collect();
        out.push(&table(
            &[
                "Instances",
                "Units",
                "Queries",
                "UIPC*",
                "Shuffles",
                "Bcasts",
                "Messages",
                "Msg bytes",
                "Link stall%",
            ],
            &rows,
        ));
    }

    // The headline: per link class, does scaling out help or hurt?
    out.line("\n-- bandwidth vs compute (queries at n instances / queries at 1) --");
    let at = |preset: &str, n: usize| {
        points
            .iter()
            .find(|p| p.preset == preset && p.instances == n)
            .map_or(0.0, |p| p.queries)
    };
    let rows: Vec<Vec<String>> = network_presets()
        .iter()
        .map(|(preset, _)| {
            let base = at(preset, 1).max(1.0);
            let mut row = vec![preset.to_string()];
            for n in NETWORK_INSTANCES {
                row.push(format!("{:.2}x", at(preset, n) / base));
            }
            row
        })
        .collect();
    out.push(&table(&["Link", "1 chip", "2 chips", "4 chips"], &rows));

    out.line("");
    out.line("Every instance is a full Fig. 7 CMP chip (scale-out, not a split");
    out.line("budget), so the 1-chip row of every link class is the same replay");
    out.line("as fig_islands' join DSS CMP point — zero remote traffic, the");
    out.line("link is irrelevant. Adding chips adds compute and cache but ships");
    out.line("every hash join's build (broadcast) or both sides (shuffle) as");
    out.line("value-sized rows over the link. Units counts per-instance");
    out.line("fragment completions; Queries (= units / n, each fragment covers");
    out.line("1/n of the data) is the cross-point throughput the crossover is");
    out.line("read from. UIPC* is diagnostic only (exchange instructions");
    out.line("inflate the distributed captures by design).");
    out.claims(fig_network_claims(points))
}
