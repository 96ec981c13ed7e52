//! Harness perf trajectory: measure the streaming trace pipeline and
//! maintain `BENCH_trace.json` (ISSUE 6).
//!
//! Measures, on the fig7 OLTP capture (the golden-anchor workload):
//!
//! * **bytes/event** and the encoded bundle size — deterministic
//!   functions of the capture, used by `--check` to detect a stale
//!   committed trajectory point;
//! * **events/sec captured** — tracer ingest + columnar encode
//!   throughput, measured by streaming the decoded events through a
//!   fresh non-retaining tracer;
//! * **events/sec replayed** — block-decode cursor throughput, measured
//!   by draining a completion-mode `TraceCursor` over every thread.
//!
//! Modes:
//!
//! * default — measure and print the JSON point to stdout;
//! * `--update [path]` — append the point to the trajectory file;
//! * `--check [path]` — re-derive the deterministic fields and fail if
//!   the file is missing, malformed, off-schema, or stale (CI gate).
//!
//! `--quick` selects the quick scale (the committed trajectory records
//! quick-scale points so CI can re-derive them cheaply).

// Harness binary in the wall-clock layer; rule D2 exempts crates/bench.
#![allow(clippy::disallowed_methods)]

use std::hint::black_box;
use std::time::Instant;

use dbcmp_bench::trajectory::{TracePoint, Trajectory};
use dbcmp_bench::{footer, header, Cli};
use dbcmp_core::{CapturedWorkload, WorkloadKind};
use dbcmp_sim::cursor::TraceCursor;
use dbcmp_trace::{CountingSink, Event, TraceBundle, TraceSummary, Tracer, SEGMENT_EVENTS};

const DEFAULT_PATH: &str = "BENCH_trace.json";

/// Hot-row skew of the contended trajectory capture (the
/// `fig_contention`/`fig_cc` high-skew point: heavy lock parking).
const CONTENDED_HOT_PCT: u8 = 90;

/// Keep timing loops running at least this long for stable rates.
const MIN_MEASURE_SECS: f64 = 0.25;

fn main() {
    let cli = Cli::parse(
        std::env::args().skip(1),
        &["--quick", "--check", "--update"],
    )
    .and_then(|cli| match cli.positional.len() {
        0 | 1 => Ok(cli),
        _ => Err("at most one trajectory path".to_string()),
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: bench_trace [--quick] [--check | --update] [path]");
        std::process::exit(2);
    });
    let check = cli.has("--check");
    let update = cli.has("--update");
    let path = cli
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| DEFAULT_PATH.to_string());
    let scale = cli.scale();
    let scale_label = if cli.has("--quick") { "quick" } else { "paper" };
    let start = header(
        "trace pipeline benchmark",
        "the harness itself, not a figure",
    );

    println!("capturing fig7 OLTP workload at {scale_label} scale ...");
    let w = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let bundle = &w.bundle;
    let events = bundle.total_events() as u64;
    let encoded_bytes = bundle.encoded_bytes() as u64;
    let bytes_per_event = encoded_bytes as f64 / events as f64;
    // Peak capture-side trace memory: the retained encoded segments plus
    // one 8 B/event staging block per client.
    let peak_bundle_bytes = encoded_bytes + (bundle.threads.len() * SEGMENT_EVENTS * 8) as u64;

    println!(
        "  {events} events, {encoded_bytes} encoded bytes, {bytes_per_event:.3} bytes/event \
         (flat format: 8.000)"
    );
    assert!(
        bytes_per_event < 8.0,
        "columnar format must beat the flat 8 B/event"
    );

    println!("capturing contended OLTP workload ({CONTENDED_HOT_PCT}% hot skew) ...");
    let (cw, cstats) = CapturedWorkload::oltp_contended(&scale, CONTENDED_HOT_PCT);
    let contended_events = cw.bundle.total_events() as u64;
    let contended_encoded_bytes = cw.bundle.encoded_bytes() as u64;
    let contended_blocks = TraceSummary::compute(&cw.bundle.regions, &cw.bundle.threads).blocks;
    println!(
        "  {contended_events} events, {contended_encoded_bytes} encoded bytes, \
         {contended_blocks} lock parks ({} deadlock aborts)",
        cstats.deadlock_aborts
    );
    assert!(
        contended_blocks > 0,
        "the contended capture must park on the hot lock path"
    );

    if check {
        run_check(
            &path,
            scale_label,
            Deterministic {
                events,
                encoded_bytes,
                peak_bundle_bytes,
                contended_events,
                contended_encoded_bytes,
                contended_blocks,
            },
        );
        footer(start);
        return;
    }

    let events_captured_per_sec = measure_capture(bundle);
    let events_replayed_per_sec = measure_replay(bundle);
    let contended_captured_per_sec = measure_capture(&cw.bundle);
    println!("  capture {events_captured_per_sec:.3e} events/s, replay {events_replayed_per_sec:.3e} events/s");
    println!("  contended capture {contended_captured_per_sec:.3e} events/s");

    let point = |seq| TracePoint {
        seq,
        scale: scale_label.to_string(),
        events,
        encoded_bytes,
        bytes_per_event,
        peak_bundle_bytes,
        events_captured_per_sec,
        events_replayed_per_sec,
        contended_events,
        contended_encoded_bytes,
        contended_blocks,
        contended_captured_per_sec,
    };

    if update {
        let mut traj = match std::fs::read_to_string(&path) {
            Ok(text) => Trajectory::parse(&text).unwrap_or_else(|e| {
                eprintln!("error: existing {path} is invalid: {e}");
                std::process::exit(1);
            }),
            Err(_) => Trajectory::default(),
        };
        let seq = traj.last().map_or(1, |p| p.seq + 1);
        traj.points.push(point(seq));
        std::fs::write(&path, traj.to_json()).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("appended point seq={seq} to {path}");
    } else {
        let traj = Trajectory {
            points: vec![point(1)],
        };
        print!("{}", traj.to_json());
    }
    footer(start);
}

/// Today's deterministic measurements, compared against the committed
/// point by `--check`.
struct Deterministic {
    events: u64,
    encoded_bytes: u64,
    peak_bundle_bytes: u64,
    contended_events: u64,
    contended_encoded_bytes: u64,
    contended_blocks: u64,
}

/// CI gate: the committed trajectory must exist, parse, match the
/// schema, and its latest point must reproduce today's deterministic
/// measurements.
fn run_check(path: &str, scale_label: &str, now: Deterministic) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|_| {
        eprintln!("error: {path} is missing — run `bench_trace --quick --update` and commit it");
        std::process::exit(1);
    });
    let traj = Trajectory::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path} failed schema validation: {e}");
        std::process::exit(1);
    });
    let Some(last) = traj.last() else {
        // `parse` rejects empty-points documents, but keep the gate
        // panic-free if that invariant ever loosens.
        eprintln!("error: {path} has no trajectory points — run `bench_trace --quick --update`");
        std::process::exit(1);
    };
    if last.scale != scale_label {
        eprintln!(
            "error: latest trajectory point is {} scale, check ran at {scale_label}",
            last.scale
        );
        std::process::exit(1);
    }
    if last.contended_events == 0 {
        eprintln!(
            "error: latest trajectory point predates the contended capture — \
             re-run `bench_trace --quick --update` and commit"
        );
        std::process::exit(1);
    }
    let mut stale = Vec::new();
    for (name, committed, current) in [
        ("events", last.events, now.events),
        ("encoded_bytes", last.encoded_bytes, now.encoded_bytes),
        (
            "peak_bundle_bytes",
            last.peak_bundle_bytes,
            now.peak_bundle_bytes,
        ),
        (
            "contended_events",
            last.contended_events,
            now.contended_events,
        ),
        (
            "contended_encoded_bytes",
            last.contended_encoded_bytes,
            now.contended_encoded_bytes,
        ),
        (
            "contended_blocks",
            last.contended_blocks,
            now.contended_blocks,
        ),
    ] {
        if committed != current {
            stale.push(format!("{name}: committed {committed} vs now {current}"));
        }
    }
    if !stale.is_empty() {
        eprintln!(
            "error: {path} is stale — re-run `bench_trace --quick --update` and commit:\n  {}",
            stale.join("\n  ")
        );
        std::process::exit(1);
    }
    println!(
        "{path} OK: {} point(s), latest seq={} matches current capture",
        traj.points.len(),
        last.seq
    );
}

/// Tracer ingest + encode throughput: stream every thread's decoded
/// events through a fresh non-retaining tracer (pure pipeline cost, no
/// engine work, no retention).
fn measure_capture(bundle: &TraceBundle) -> f64 {
    let decoded: Vec<Vec<Event>> = bundle.threads.iter().map(|t| t.iter().collect()).collect();
    let mut fed = 0u64;
    let t0 = Instant::now();
    loop {
        for events in &decoded {
            let mut tr = Tracer::streaming(Box::<CountingSink>::default());
            for &e in events {
                match e {
                    Event::Exec { region, instrs } => tr.exec(region, instrs),
                    Event::Load { addr, size, dep } => {
                        if dep {
                            tr.load_dep(addr, size as u32)
                        } else {
                            tr.load(addr, size as u32)
                        }
                    }
                    Event::Store { addr, size } => tr.store(addr, size as u32),
                    Event::Fence => tr.fence(),
                    Event::UnitEnd => tr.unit_end(),
                    Event::Block => tr.block(),
                    Event::Wake => tr.wake(),
                    Event::RemoteSend { bytes } => tr.remote_send(bytes),
                    Event::RemoteRecv { bytes } => tr.remote_recv(bytes),
                }
            }
            let done = tr.finish();
            fed += done.len() as u64;
            black_box(done.instrs());
        }
        if t0.elapsed().as_secs_f64() >= MIN_MEASURE_SECS {
            break;
        }
    }
    fed as f64 / t0.elapsed().as_secs_f64()
}

/// Cursor replay throughput: drain a completion-mode cursor over every
/// thread, accumulating a checksum so the decode cannot be elided.
fn measure_replay(bundle: &TraceBundle) -> f64 {
    let mut replayed = 0u64;
    let mut checksum = 0u64;
    let t0 = Instant::now();
    loop {
        for t in &bundle.threads {
            let mut c = TraceCursor::new(t, false);
            while let Some(e) = c.next_event() {
                replayed += 1;
                checksum = checksum.wrapping_add(match e {
                    Event::Exec { instrs, .. } => instrs as u64,
                    Event::Load { addr, .. } | Event::Store { addr, .. } => addr,
                    _ => 1,
                });
            }
        }
        if t0.elapsed().as_secs_f64() >= MIN_MEASURE_SECS {
            break;
        }
    }
    black_box(checksum);
    replayed as f64 / t0.elapsed().as_secs_f64()
}
