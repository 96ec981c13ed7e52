//! `fig`: regenerate any table or figure of the reproduction.
//!
//! ```text
//! fig --list               # every figure, one per line
//! fig <name> [--quick]     # print one (--quick: same code paths, small scale)
//! ```
//!
//! Tables and shape notes go to stdout, which is byte-identical across
//! runs; wall-clock reports go to stderr. An unknown figure or flag
//! exits 2 with the usage and the figure list.

mod ablations;
mod extensions;
mod paper;

use std::process::ExitCode;

use dbcmp_bench::{footer, header, Cli};
use dbcmp_core::FigScale;

/// One figure: its subcommand name, the header it prints, and the
/// generator-plus-printer behind it.
struct Figure {
    name: &'static str,
    title: &'static str,
    paper_ref: &'static str,
    run: fn(&FigScale),
}

/// Every figure, in paper order, then the extensions, then the
/// simulator's own ablations.
const FIGURES: &[Figure] = &[
    Figure {
        name: "table1_camps",
        title: "Table 1: CMP camp characteristics",
        paper_ref: "Table 1",
        run: paper::table1_camps,
    },
    Figure {
        name: "fig1_cache_trends",
        title: "Fig. 1: historic on-chip cache trends",
        paper_ref: "Figure 1 (a) and (b)",
        run: paper::fig1_cache_trends,
    },
    Figure {
        name: "fig2_saturation",
        title: "Fig. 2: unsaturated vs saturated workloads",
        paper_ref: "Figure 2",
        run: paper::fig2_saturation,
    },
    Figure {
        name: "fig3_validation",
        title: "Fig. 3: simulator validation (saturated DSS, FC)",
        paper_ref: "Figure 3",
        run: paper::fig3_validation,
    },
    Figure {
        name: "fig4_camps",
        title: "Fig. 4: LC vs FC response time and throughput",
        paper_ref: "Figure 4 (a) and (b)",
        run: paper::fig4_camps,
    },
    Figure {
        name: "fig5_breakdown",
        title: "Fig. 5: execution time breakdown",
        paper_ref: "Figure 5",
        run: paper::fig5_breakdown,
    },
    Figure {
        name: "fig6_cache_size",
        title: "Fig. 6: impact of L2 cache size and latency",
        paper_ref: "Figure 6 (a), (b), (c)",
        run: paper::fig6_cache_size,
    },
    Figure {
        name: "fig7_smp_cmp",
        title: "Fig. 7: SMP vs CMP",
        paper_ref: "Figure 7",
        run: paper::fig7_smp_cmp,
    },
    Figure {
        name: "fig8_core_count",
        title: "Fig. 8: core-count scaling",
        paper_ref: "Figure 8",
        run: paper::fig8_core_count,
    },
    Figure {
        name: "fig9_staged",
        title: "§6 ablation: staged database execution",
        paper_ref: "Section 6 (StagedDB)",
        run: paper::fig9_staged,
    },
    Figure {
        name: "fig_cc",
        title: "Concurrency-control sweep: 2PL vs partitioned vs ordered under skew",
        paper_ref: "§5.2 ext",
        run: extensions::fig_cc,
    },
    Figure {
        name: "fig_asym",
        title: "fig_asym: fat:lean core-ratio sweep on one chip",
        paper_ref: "no single figure — the asymmetric-CMP extension of §4/§7",
        run: extensions::fig_asym,
    },
    Figure {
        name: "fig_islands",
        title: "fig_islands: OLTP, scan and join DSS on shared L2 -> 2x2 islands -> private L2s",
        paper_ref: "Figure 7's endpoints joined by the island continuum",
        run: extensions::fig_islands,
    },
    Figure {
        name: "fig_deploy",
        title: "fig_deploy: shared-everything -> islands -> shared-nothing per core",
        paper_ref: "fixed total cores/L2, partitioned warehouses, interconnect-priced messages",
        run: extensions::fig_deploy,
    },
    Figure {
        name: "fig_network",
        title: "fig_network: distributed Q3/Q5 joins across 1/2/4 chips per link class",
        paper_ref: "the multi-chip DSS extension of the §4-§5 camps",
        run: extensions::fig_network,
    },
    Figure {
        name: "ablations",
        title: "Ablations: simulator design choices",
        paper_ref: "DESIGN.md mechanisms",
        run: ablations::ablations,
    },
];

/// The `--list` text: one `name  title` line per registry row.
fn list() -> String {
    FIGURES
        .iter()
        .map(|f| format!("{:<18} {}\n", f.name, f.title))
        .collect()
}

fn main() -> ExitCode {
    let usage = |problem: String| {
        eprintln!("error: {problem}");
        eprintln!("usage: fig <name> [--quick] | fig --list");
        eprintln!("figures:");
        eprint!("{}", list());
        ExitCode::from(2)
    };
    let cli = match Cli::parse(std::env::args().skip(1), &["--quick", "--list"]) {
        Ok(cli) => cli,
        Err(e) => return usage(e),
    };
    if cli.has("--list") {
        print!("{}", list());
        return ExitCode::SUCCESS;
    }
    let [name] = cli.positional.as_slice() else {
        return usage("expected exactly one figure name".to_string());
    };
    let Some(figure) = FIGURES.iter().find(|f| f.name == name) else {
        return usage(format!("unknown figure `{name}`"));
    };
    let start = header(figure.title, figure.paper_ref);
    (figure.run)(&cli.scale());
    footer(start);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_listed() {
        let listing = list();
        assert_eq!(listing.lines().count(), FIGURES.len());
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|g| g.name != f.name),
                "duplicate figure name {}",
                f.name
            );
            assert!(
                listing
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(f.name)),
                "{} missing from --list",
                f.name
            );
        }
    }
}
