//! `fig`: regenerate any table or figure of the reproduction.
//!
//! ```text
//! fig --list               # every figure, one per line
//! fig <name> [--quick]     # print one (--quick: same code paths, small scale)
//! ```
//!
//! Tables and shape notes go to stdout, which is byte-identical across
//! runs; wall-clock reports go to stderr. An unknown figure or flag
//! exits 2 with the usage and the figure list. The figures themselves
//! live in the `dbcmp_bench` library (`dbcmp_bench::FIGURES`).

use std::process::ExitCode;

use dbcmp_bench::{figure, list, Cli};

fn main() -> ExitCode {
    let usage = |problem: String| {
        eprintln!("error: {problem}");
        eprintln!("usage: fig <name> [--quick] | fig --list");
        eprintln!("figures:");
        eprint!("{}", list());
        ExitCode::from(2)
    };
    let cli = match Cli::parse(std::env::args().skip(1)) {
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
    let Some(figure) = figure(name) else {
        return usage(format!("unknown figure `{name}`"));
    };
    let (page, took) = figure.timed(&cli.scale());
    print!("{}", page.text);
    eprintln!();
    eprintln!("[regenerated in {:.2} s]", took.as_secs_f64());
    ExitCode::SUCCESS
}
