//! `bench_pipeline`: the whole capture → bundle → replay pipeline under
//! a stopwatch — four workloads, wall clock end to end, every layer
//! timed from outside. See README.md beside this file.
//!
//! ```text
//! bench_pipeline --workload <name> [--seed N] [--seconds S | --reps N]
//!                [--trace 0|1] [--json PATH] [--smoke]
//! bench_pipeline --compare a.json b.json
//! ```
//!
//! One workload per process. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

#![forbid(unsafe_code)]
// Harness binary in the wall-clock layer; rule D2 exempts crates/bench.
#![allow(clippy::disallowed_methods)]

mod compare;
mod harness;
mod json;
mod metrics;
mod pipelines;
mod probes;
mod report;
mod spans;
mod stats;
mod verify;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{Budget, RunConfig};
use json::Json;
use pipelines::{Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: bench_pipeline --workload <oltp_camps|dss_capture|oltp_contended|dist_joins> \
[--seed N] [--seconds S | --reps N] [--trace 0|1] [--json PATH] [--smoke]\n       \
bench_pipeline --compare a.json b.json";

/// `--seconds` when neither it nor `--reps` is given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workload: Workload,
        seed: u64,
        budget: Budget,
        traced: bool,
        json: Option<PathBuf>,
        smoke: bool,
    },
    Compare(PathBuf, PathBuf),
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut budget = Budget::Seconds(DEFAULT_SECONDS);
    let mut traced = false;
    let mut json = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => {
                let (a, b) = (value()?, value()?);
                return Ok(Command::Compare(a.into(), b.into()));
            }
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = parse_u64(v).ok_or_else(|| format!("--seed: '{v}' is not a number"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: '{v}' is not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds: {s} is outside (0, 600]"));
                }
                budget = Budget::Seconds(s);
            }
            "--reps" => {
                let v = value()?;
                match v.parse::<usize>() {
                    Ok(n) if (1..=1000).contains(&n) => budget = Budget::Reps(n),
                    _ => return Err(format!("--reps: '{v}' is not a count in 1..=1000")),
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                };
            }
            "--json" => json = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        seed,
        budget,
        traced,
        json,
        smoke,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Ok(Command::Compare(a, b)) => run_compare(&a, &b),
        Ok(Command::Run {
            workload,
            seed,
            budget,
            traced,
            json,
            smoke,
        }) => run_workload(workload, seed, budget, traced, json.as_deref(), smoke),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_pipeline: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    Ok(if compare::print(&rows) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn run_workload(
    workload: Workload,
    seed: u64,
    budget: Budget,
    traced: bool,
    json: Option<&Path>,
    smoke: bool,
) -> Result<ExitCode, String> {
    let cfg = RunConfig {
        workload,
        scale: if smoke {
            workload.smoke_scale(seed)
        } else {
            workload.scale(seed)
        },
        golden: (seed == DEFAULT_SEED && !smoke).then(|| verify::golden(workload)),
        budget,
        traced,
    };
    println!(
        "bench_pipeline: workload {} seed {seed:#x} {budget:?} trace {} host threads {}{}",
        workload.name(),
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        if smoke { " (smoke scale)" } else { "" }
    );
    println!("closed loop, one driver process; scale: {:?}", cfg.scale);
    let out = harness::run(&cfg);

    println!(
        "\n{} timed repetitions after 1 discarded warm-up{}",
        out.walls.len(),
        if traced {
            " (odd ones traced), then probes"
        } else {
            ""
        }
    );
    println!("wall_s of each, in run order: {:.3?}", out.walls);
    report::print_metrics(&out.metrics);
    if let Some(doc) = &out.trace {
        report::print_self_times(&doc.spans);
        let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
            .join("bench_pipeline");
        let path = dir.join(format!("{}.trace.json", workload.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, doc.to_json(workload, seed).render() + "\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nspans and exact counters written to {}", path.display());
    }
    println!(
        "\noperations: {} attempted, {} failed (fail_share {})",
        out.verdict.attempted,
        out.verdict.failed,
        out.verdict.failed as f64 / out.verdict.attempted.max(1) as f64
    );
    for note in &out.verdict.notes {
        println!("  FAILED {note}");
    }
    println!(
        "digests: capture {:#018x} sim {:#018x} — {}",
        out.digests.0,
        out.digests.1,
        match out.golden_match {
            None => "no golden at this seed/scale; repetitions compared with each other".into(),
            Some((c, s)) => format!(
                "golden capture {} sim {}",
                if c { "match" } else { "MISMATCH" },
                if s { "match" } else { "MISMATCH" }
            ),
        }
    );

    if let Some(path) = json {
        merge_into(
            path,
            report::run_json(workload, seed, traced, out.walls.len(), &out.metrics),
        )?;
    }

    let metrics = out
        .metrics
        .iter()
        .map(|(d, v)| {
            (
                d.name.to_string(),
                Json::obj([("value", Json::Num(v.median)), ("unit", Json::str(d.unit))]),
            )
        })
        .collect();
    let line = Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.verdict.attempted as f64)),
        ("failed", Json::Num(out.verdict.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

/// Add `run` to the result document at `path`, replacing an earlier run
/// of the same `(workload, trace)`, so one file can hold a whole set.
fn merge_into(path: &Path, run: Json) -> Result<(), String> {
    let existing = std::fs::read_to_string(path).ok();
    let doc = merged(existing.as_deref(), run).map_err(|e| format!("{}: {e}", path.display()))?;
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn merged(existing: Option<&str>, run: Json) -> Result<Json, String> {
    let key = |r: &Json| {
        (
            r.get("workload").and_then(Json::as_str).map(str::to_string),
            r.get("trace").and_then(Json::as_f64),
        )
    };
    let mut runs = match existing {
        Some(text) => Json::parse(text)
            .ok()
            .and_then(|d| d.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec))
            .ok_or("exists but is not a result document")?,
        None => Vec::new(),
    };
    runs.retain(|r| key(r) != key(&run));
    runs.push(run);
    Ok(Json::obj([
        ("schema", Json::str("dbcmp-pipeline-bench/1")),
        ("runs", Json::Arr(runs)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let cmd = parse_args(&args(
            "--workload dist_joins --seed 12 --seconds 16 --trace 1",
        ));
        assert_eq!(
            cmd,
            Ok(Command::Run {
                workload: Workload::DistJoins,
                seed: 12,
                budget: Budget::Seconds(16.0),
                traced: true,
                json: None,
                smoke: false,
            })
        );
        let cmd = parse_args(&args(
            "--workload oltp_camps --seed 0xC1D7 --reps 5 --json out.json",
        ));
        assert_eq!(
            cmd,
            Ok(Command::Run {
                workload: Workload::OltpCamps,
                seed: DEFAULT_SEED,
                budget: Budget::Reps(5),
                traced: false,
                json: Some("out.json".into()),
                smoke: false,
            })
        );
        assert_eq!(
            parse_args(&args("--compare a.json b.json")),
            Ok(Command::Compare("a.json".into(), "b.json".into()))
        );
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload oltp_camps --trace 2",
            "--workload oltp_camps --seconds 0",
            "--workload oltp_camps --seconds x",
            "--workload oltp_camps --reps 0",
            "--workload oltp_camps --seed minus",
            "--workload oltp_camps --frobnicate",
            "--compare only-one.json",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn result_documents_accumulate_runs_by_workload_and_mode() {
        let run = |w: Workload, traced, wall| {
            let mut m = metrics::MetricSet::new(&metrics::END_TO_END);
            m.set_value("wall_s", wall);
            report::run_json(w, 1, traced, 3, &m)
        };
        let add = |text: Option<String>, r| merged(text.as_deref(), r).map(|d| d.render());
        let text = add(None, run(Workload::OltpCamps, false, 1.0)).expect("new");
        let text = add(Some(text), run(Workload::DistJoins, false, 2.0)).expect("append");
        let text = add(Some(text), run(Workload::OltpCamps, true, 9.0)).expect("other mode");
        let text = add(Some(text), run(Workload::OltpCamps, false, 3.0)).expect("replace");
        let doc = Json::parse(&text).expect("parse");
        let walls: Vec<_> = doc
            .get("runs")
            .and_then(Json::as_arr)
            .expect("runs")
            .iter()
            .map(|r| r.get("metrics").and_then(Json::as_arr).expect("metrics")[0].get("median"))
            .map(|m| m.and_then(Json::as_f64))
            .collect();
        assert_eq!(walls, vec![Some(2.0), Some(9.0), Some(3.0)]);
        assert!(add(
            Some("not json".into()),
            run(Workload::OltpCamps, false, 1.0)
        )
        .is_err());
        assert!(add(Some("{}".into()), run(Workload::OltpCamps, false, 1.0)).is_err());
    }
}
