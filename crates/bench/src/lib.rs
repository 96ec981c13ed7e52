//! Benchmark harness support: the figure registry, the printers that
//! render each figure's stdout, and strict argument parsing.
//!
//! Every paper table/figure and every extension sweep is a row of
//! [`FIGURES`]: `cargo run --release --bin fig -- --list` prints them,
//! and `fig <name> [--quick]` regenerates one (`--quick` is a fast,
//! smaller-scale pass over the same code paths). A row's printer is a
//! function of its generator's output that returns the figure's exact
//! stdout as a [`Page`], so `tests/fig_smoke.rs` compares the very text
//! `fig` prints with the golden texts in `tests/expected/`. The
//! simulation points inside each figure fan out over OS threads via
//! `dbcmp_core::experiment::grid` (results are byte-identical to a
//! sequential run).
//!
//! The performance record is the `bench_pipeline` binary: it times the
//! whole pipeline end to end and layer by layer — codec encode/decode
//! throughput and bytes/event included — behind hard digest goldens
//! (see its README and `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![allow(
    clippy::disallowed_methods,
    reason = "crates/bench is the wall-clock layer; its clocks go to stderr, never into a capture or figure datum"
)]

mod ablations;
pub mod extensions;
pub mod paper;

use std::time::{Duration, Instant};

use dbcmp_core::report::{claims_block, Claim};
use dbcmp_core::{deploy, figures, network, FigScale};

/// One figure: its subcommand name, the header it prints, and the
/// generator-plus-printer behind it.
#[derive(Debug)]
pub struct Figure {
    pub name: &'static str,
    pub(crate) title: &'static str,
    pub(crate) paper_ref: &'static str,
    /// Runs the generator at a scale and prints its output below the
    /// header on the page it is handed.
    run: fn(Page, &FigScale) -> Page,
}

/// Every figure, in paper order, then the extensions, then the
/// simulator's own ablations.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "table1_camps",
        title: "Table 1: CMP camp characteristics",
        paper_ref: "Table 1",
        run: |out, _| paper::table1_camps(out),
    },
    Figure {
        name: "fig1_cache_trends",
        title: "Fig. 1: historic on-chip cache trends",
        paper_ref: "Figure 1 (a) and (b)",
        run: |out, _| paper::fig1_cache_trends(out),
    },
    Figure {
        name: "fig2_saturation",
        title: "Fig. 2: unsaturated vs saturated workloads",
        paper_ref: "Figure 2",
        run: |out, scale| paper::fig2_saturation(out, &figures::fig2_saturation(scale)),
    },
    Figure {
        name: "fig3_validation",
        title: "Fig. 3: simulator validation (saturated DSS, FC)",
        paper_ref: "Figure 3",
        run: |out, scale| paper::fig3_validation(out, &figures::fig3_validation(scale)),
    },
    Figure {
        name: "fig4_camps",
        title: "Fig. 4: LC vs FC response time and throughput",
        paper_ref: "Figure 4 (a) and (b)",
        run: |out, scale| paper::fig4_camps(out, &figures::fig45_quadrants(scale)),
    },
    Figure {
        name: "fig5_breakdown",
        title: "Fig. 5: execution time breakdown",
        paper_ref: "Figure 5",
        run: |out, scale| paper::fig5_breakdown(out, &figures::fig45_quadrants(scale)),
    },
    Figure {
        name: "fig6_cache_size",
        title: "Fig. 6: impact of L2 cache size and latency",
        paper_ref: "Figure 6 (a), (b), (c)",
        run: |out, scale| paper::fig6_cache_size(out, &figures::fig6_cache_sweep(scale)),
    },
    Figure {
        name: "fig7_smp_cmp",
        title: "Fig. 7: SMP vs CMP",
        paper_ref: "Figure 7",
        run: |out, scale| paper::fig7_smp_cmp(out, &figures::fig7_smp_vs_cmp(scale)),
    },
    Figure {
        name: "fig8_core_count",
        title: "Fig. 8: core-count scaling",
        paper_ref: "Figure 8",
        run: |out, scale| paper::fig8_core_count(out, &figures::fig8_core_scaling(scale)),
    },
    Figure {
        name: "fig9_staged",
        title: "§6 ablation: staged database execution",
        paper_ref: "Section 6 (StagedDB)",
        run: |out, scale| paper::fig9_staged(out, &figures::fig9_staged(scale)),
    },
    Figure {
        name: "fig_cc",
        title: "Concurrency-control sweep: 2PL vs partitioned vs ordered under skew",
        paper_ref: "§5.2 ext",
        run: |out, scale| extensions::fig_cc(out, &figures::fig_cc(scale)),
    },
    Figure {
        name: "fig_asym",
        title: "fig_asym: fat:lean core-ratio sweep on one chip",
        paper_ref: "no single figure — the asymmetric-CMP extension of §4/§7",
        run: |out, scale| extensions::fig_asym(out, &figures::fig_asym(scale)),
    },
    Figure {
        name: "fig_islands",
        title: "fig_islands: OLTP, scan and join DSS on shared L2 -> 2x2 islands -> private L2s",
        paper_ref: "Figure 7's endpoints joined by the island continuum",
        run: |out, scale| extensions::fig_islands(out, &figures::fig_islands(scale)),
    },
    Figure {
        name: "fig_deploy",
        title: "fig_deploy: shared-everything -> islands -> shared-nothing per core",
        paper_ref: "fixed total cores/L2, partitioned warehouses, interconnect-priced messages",
        run: |out, scale| extensions::fig_deploy(out, &deploy::fig_deploy(scale)),
    },
    Figure {
        name: "fig_network",
        title: "fig_network: distributed Q3/Q5 joins across 1/2/4 chips per link class",
        paper_ref: "the multi-chip DSS extension of the §4-§5 camps",
        run: |out, scale| extensions::fig_network(out, &network::fig_network(scale)),
    },
    Figure {
        name: "ablations",
        title: "Ablations: simulator design choices",
        paper_ref: "DESIGN.md mechanisms",
        run: ablations::ablations,
    },
];

/// The registry row called `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The `--list` text: one `name  title` line per registry row.
pub fn list() -> String {
    FIGURES
        .iter()
        .map(|f| format!("{:<18} {}\n", f.name, f.title))
        .collect()
}

impl Figure {
    /// A page holding only this figure's header, for its printer.
    pub fn page(&self) -> Page {
        Page {
            name: self.name,
            text: format!(
                "=== {} ===\n(reproduces {} of Hardavellas et al., CIDR 2007)\n\n",
                self.title, self.paper_ref
            ),
            claims: Vec::new(),
        }
    }

    /// The figure's stdout at `scale`.
    pub fn render(&self, scale: &FigScale) -> Page {
        (self.run)(self.page(), scale)
    }

    /// [`Figure::render`], and the wall clock it took (which `fig`
    /// reports on stderr, so stdout stays byte-identical across runs).
    pub fn timed(&self, scale: &FigScale) -> (Page, Duration) {
        let start = Instant::now();
        (self.render(scale), start.elapsed())
    }
}

/// A figure's stdout, header included, and the claims printed in it.
#[derive(Debug)]
pub struct Page {
    /// The registry name of the figure.
    pub name: &'static str,
    /// Exactly what `fig <name>` prints to stdout.
    pub text: String,
    /// The claims the page prints, in order (none for a table).
    pub claims: Vec<Claim>,
}

impl Page {
    /// Append `text` as it is.
    fn push(&mut self, text: &str) {
        self.text.push_str(text);
    }

    /// Append `text` and a line break.
    fn line(&mut self, text: &str) {
        self.push(text);
        self.push("\n");
    }

    /// Append a blank line and the claims block, and keep the claims.
    fn claims(mut self, claims: Vec<Claim>) -> Page {
        self.push("\n");
        self.push(&claims_block(&claims));
        self.claims = claims;
        self
    }
}

/// The flags `fig` accepts.
const FLAGS: [&str; 2] = ["--quick", "--list"];

/// A harness command line, parsed strictly: every `--flag` must be one
/// of `FLAGS`, so a typo (`--quikc`) is an error instead of a silent
/// paper-scale run.
#[derive(Debug, PartialEq, Eq)]
pub struct Cli {
    flags: Vec<String>,
    /// Arguments that do not start with `--`, in order.
    pub positional: Vec<String>,
}

impl Cli {
    /// Split `args` (without the program name) into flags and
    /// positionals, rejecting any flag not in `FLAGS`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        for arg in args {
            if !arg.starts_with("--") {
                cli.positional.push(arg);
            } else if FLAGS.contains(&arg.as_str()) {
                cli.flags.push(arg);
            } else {
                return Err(format!("unknown flag `{arg}`"));
            }
        }
        Ok(cli)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// `--quick` selects the test scale; the default is paper scale.
    pub fn scale(&self) -> FigScale {
        if self.has("--quick") {
            FigScale::quick()
        } else {
            FigScale::paper()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn default_scale_is_paper() {
        let paper = parse(&["fig7_smp_cmp"]).expect("no flags is valid");
        assert_eq!(paper.positional, ["fig7_smp_cmp"]);
        assert!(paper.scale().oltp_clients > FigScale::quick().oltp_clients);
        let quick = parse(&["--quick", "fig7_smp_cmp"]).expect("known flag");
        assert_eq!(quick.scale().oltp_clients, FigScale::quick().oltp_clients);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert_eq!(
            parse(&["fig7_smp_cmp", "--quikc"]),
            Err("unknown flag `--quikc`".to_string())
        );
        assert!(parse(&["--list"]).expect("known flag").has("--list"));
    }

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
