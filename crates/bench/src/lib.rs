//! Benchmark harness support: strict argument parsing and the
//! header/footer shared by the harness binaries.
//!
//! Every paper table/figure and every extension sweep is a row of the
//! `fig` binary's registry (`src/bin/fig/main.rs`):
//! `cargo run --release --bin fig -- --list` prints them, and
//! `fig <name> [--quick]` regenerates one (`--quick` is a fast,
//! smaller-scale pass over the same code paths). The simulation points
//! inside each figure fan out over OS threads via
//! `dbcmp_core::experiment::grid` (results are byte-identical to a
//! sequential run).
//!
//! The performance record is the `bench_pipeline` binary: it times the
//! whole pipeline end to end and layer by layer — codec encode/decode
//! throughput and bytes/event included — behind hard digest goldens
//! (see its README and `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_methods,
    reason = "crates/bench is the wall-clock layer; its clocks go to stderr, never into a capture or figure datum"
)]

use dbcmp_core::FigScale;

/// A harness command line, parsed strictly: every `--flag` must be one
/// the binary declares, so a typo (`--quikc`) is an error instead of a
/// silent paper-scale run.
#[derive(Debug, PartialEq, Eq)]
pub struct Cli {
    flags: Vec<String>,
    /// Arguments that do not start with `--`, in order.
    pub positional: Vec<String>,
}

impl Cli {
    /// Split `args` (without the program name) into flags and
    /// positionals, rejecting any flag not in `known`.
    pub fn parse(args: impl IntoIterator<Item = String>, known: &[&str]) -> Result<Cli, String> {
        let mut cli = Cli {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        for arg in args {
            if !arg.starts_with("--") {
                cli.positional.push(arg);
            } else if known.contains(&arg.as_str()) {
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

/// Print a standard harness header and start the wall-clock for
/// [`footer`].
pub fn header(title: &str, paper_ref: &str) -> std::time::Instant {
    println!("=== {title} ===");
    println!("(reproduces {paper_ref} of Hardavellas et al., CIDR 2007)");
    println!();
    std::time::Instant::now()
}

/// Print the standard harness footer: total wall-clock of the binary
/// (capture + parallel sweep + report). Goes to **stderr** so stdout
/// stays byte-identical across runs (the determinism check in the
/// verify workflow diffs stdout).
pub fn footer(start: std::time::Instant) {
    eprintln!();
    eprintln!("[regenerated in {:.2} s]", start.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|a| a.to_string()), &["--quick", "--list"])
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
}
