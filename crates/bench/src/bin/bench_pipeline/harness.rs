//! The run loop: one discarded warm-up repetition, then timed
//! repetitions (fresh populate each) until the budget is spent, every
//! one verified against the warm-up's fingerprint.
//!
//! The untraced run (`--trace 0`) keeps no spans and reports the
//! end-to-end metrics. The traced run (`--trace 1`) alternates untraced
//! and traced repetitions — their difference is the tracing overhead —
//! then runs the probes and reports the per-layer metrics.

use std::time::Instant;

use dbcmp_core::FigScale;

use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::pipelines::{run_rep, Rep, Times, Workload};
use crate::probes::{self, Probes};
use crate::report;
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::verify::{check_rep, check_sequential, Fingerprint, Verdict};

/// How long the timed phase lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Start repetitions until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many timed repetitions.
    Reps(usize),
}

/// Fewest timed repetitions of a `Seconds` budget: a median and two
/// quartiles need three samples.
const MIN_REPS: usize = 3;
/// Share of a traced run's `Seconds` budget spent on repetitions; the
/// rest is left for the probes.
const TRACED_REP_SHARE: f64 = 0.5;

pub struct RunConfig {
    pub workload: Workload,
    pub scale: FigScale,
    /// `(capture, sim)` digests the run must reproduce, if it is the
    /// default seed at the benchmark scale.
    pub golden: Option<(u64, u64)>,
    pub budget: Budget,
    pub traced: bool,
}

pub struct RunOutcome {
    pub metrics: MetricSet,
    pub verdict: Verdict,
    /// `(capture, sim)` digests of this run's (identical) repetitions.
    pub digests: (u64, u64),
    /// `None` when no golden applies (other seeds, smoke scale).
    pub golden_match: Option<(bool, bool)>,
    /// `wall_s` of every timed repetition, in run order.
    pub walls: Vec<f64>,
    /// Traced runs only: the spans and what the last repetition held.
    pub trace: Option<report::TraceDoc>,
}

impl RunOutcome {
    pub fn correct(&self) -> bool {
        self.verdict.failed == 0 && self.golden_match.is_none_or(|(c, s)| c && s)
    }
}

pub fn run(cfg: &RunConfig) -> RunOutcome {
    let mut rec = Recorder::new();
    rec.begin_rep(0, false);
    // Warm-up: pays first-touch page faults and allocator growth, and
    // provides the fingerprint every timed repetition must reproduce.
    let reference = Fingerprint::of(&run_rep(cfg.workload, &cfg.scale, &mut rec));

    let mut verdict = Verdict::default();
    let mut samples: Vec<(Times, bool)> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let started = Instant::now();
    let last: Rep = loop {
        let n = samples.len();
        let traced = cfg.traced && traced_next(n);
        rec.begin_rep(n as u32 + 1, traced);
        reset_peak_rss();
        let rep = run_rep(cfg.workload, &cfg.scale, &mut rec);
        peaks.push(peak_rss_mib());
        verdict.absorb(check_rep(&rep, &Fingerprint::of(&rep), &reference));
        samples.push((rep.times, traced));
        let n = n + 1;
        let spent = started.elapsed().as_secs_f64();
        let done = match cfg.budget {
            Budget::Reps(reps) => n >= reps,
            // A traced run ends on a traced repetition, so both kinds
            // have as many samples.
            Budget::Seconds(s) if cfg.traced => {
                n > MIN_REPS && !traced_next(n) && spent >= s * TRACED_REP_SHARE
            }
            Budget::Seconds(s) => n >= MIN_REPS && spent >= s,
        };
        if done {
            break rep;
        }
        // `rep` drops here: repetitions never overlap in memory, so
        // peak_rss_mb is one repetition's footprint.
    };

    let digests = reference.folded();
    let golden_match = cfg.golden.map(|g| (g.0 == digests.0, g.1 == digests.1));
    let walls = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.1 == traced)
            .map(|s| s.0.wall_s)
            .collect()
    };

    let (metrics, trace) = if cfg.traced {
        rec.begin_rep(samples.len() as u32 + 1, true);
        let probes: Probes = probes::run(&last, &mut rec);
        verdict.absorb(check_sequential(&last, &probes.sequential));
        let mut m = MetricSet::new(&PER_LAYER);
        let times: Vec<Times> = samples.iter().map(|s| s.0).collect();
        report::per_layer(&mut m, &times, &last, &probes);
        report::harness_metrics(
            &mut m,
            &walls(false),
            &walls(true),
            rec.spans(),
            &verdict,
            golden_match,
        );
        let doc = report::TraceDoc::new(rec.spans(), &last, &probes);
        (m, Some(doc))
    } else {
        let mut m = MetricSet::new(&END_TO_END);
        m.set("wall_s", Summary::of(&walls(false)));
        let setups: Vec<f64> = samples.iter().map(|s| s.0.setup_s).collect();
        m.set("setup_s", Summary::of(&setups));
        m.set("peak_rss_mb", Summary::of(&peaks));
        (m, None)
    };
    RunOutcome {
        metrics,
        verdict,
        digests,
        golden_match,
        walls: samples.iter().map(|s| s.0.wall_s).collect(),
        trace,
    }
}

/// Of a traced run's timed repetitions, every second one records spans.
fn traced_next(done: usize) -> bool {
    done % 2 == 1
}

/// Start a new resident-memory high-water mark (`VmHWM`), so that each
/// repetition reports its own peak. The process-wide peak is the maximum
/// over a run's repetitions, and whether *some* repetition's sweep
/// workers happened to hold their freed tag arrays (glibc's mmap
/// threshold adapts to the last freed mapping) made it land in one of
/// two modes 12 % apart; the median of per-repetition peaks does not.
/// Where the kernel refuses the reset, the readings are cumulative.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process: the most resident memory it held since the
/// last reset.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::self_times_ns;

    fn smoke(workload: Workload, traced: bool) -> RunOutcome {
        run(&RunConfig {
            workload,
            scale: workload.smoke_scale(7),
            golden: None,
            budget: Budget::Reps(2),
            traced,
        })
    }

    /// The end-to-end branch, on the cheapest workload.
    #[test]
    fn smoke_untraced_run_reports_nonzero_end_to_end_metrics() {
        let out = smoke(Workload::OltpCamps, false);
        assert_eq!(out.verdict.failed, 0, "{:?}", out.verdict.notes);
        assert!(out.correct());
        assert_eq!(out.verdict.attempted, 2 * (1 + 6));
        assert!(out.trace.is_none());
        for (d, v) in out.metrics.iter() {
            assert!(v.median > 0.0, "{} must never be 0", d.name);
            assert_eq!(v.n, 2);
        }
    }

    /// Tier-1 exercises every code path of all four workloads, at a
    /// scale small enough for a debug build. A traced run alternates
    /// untraced and traced repetitions, so it covers both.
    #[test]
    fn smoke_all_workloads_traced() {
        for w in Workload::ALL {
            let out = smoke(w, true);
            assert_eq!(
                out.verdict.failed,
                0,
                "{}: {:?}",
                w.name(),
                out.verdict.notes
            );
            let get = |name: &str| out.metrics.get(name).expect(name).median;
            assert!(get("trace.events") > 0.0);
            assert!(get("sim.instrs") > 0.0);
            assert!(get("sim.execute_s") > 0.0);
            assert!(get("core.sweep_points") >= 1.0);
            assert_eq!(get("bench.fail_share"), 0.0);
            assert_eq!(get("bench.reps"), 2.0);
            assert!(get("bench.span_coverage_pct") > 50.0);
            let share =
                get("bench.setup_share") + get("bench.capture_share") + get("bench.replay_share");
            assert!(
                (0.9..=1.0).contains(&share),
                "{}: phases cover the rep ({share})",
                w.name()
            );
            match w {
                Workload::OltpCamps => {
                    assert_eq!(get("core.sweep_points"), 6.0);
                    assert!(get("sim.units") > 0.0);
                    assert!(get("sim.smp_ns_per_core_cycle") > 0.0);
                    assert!(get("sim.coherence_transfers") > 0.0);
                }
                Workload::DssCapture => {
                    assert_eq!(
                        get("sim.units"),
                        0.0,
                        "the replay window is a fraction of a query"
                    );
                    assert!(get("staged.events") > 0.0);
                    assert!(get("sim.lean_ns_per_core_cycle") > 0.0);
                }
                Workload::OltpContended => {
                    assert!(get("engine.cc_acquires") > 0.0);
                    assert!(get("workloads.commit_share") > 0.0);
                    assert!(get("workloads.interleave_mevents_per_s") > 0.0);
                }
                Workload::DistJoins => {
                    assert!(get("workloads.exchange_msgs") > 0.0);
                    assert!(get("sim.remote_msgs") > 0.0);
                    assert!(get("sim.link_stall_share") > 0.0);
                    assert_eq!(get("core.sweep_points"), 9.0);
                }
            }
            let doc = out.trace.expect("traced runs keep their spans");
            let st = self_times_ns(&doc.spans);
            assert!(doc
                .spans
                .iter()
                .zip(&st)
                .all(|(s, &t)| t <= s.duration_ns()));
            assert!(doc.spans.iter().any(|s| s.name == "probes"));
            let text = doc.to_json(w, 7).render();
            crate::json::Json::parse(&text).expect("the trace file is valid JSON");
        }
    }

    #[test]
    fn fingerprints_differ_across_seeds_and_repeat_within_one() {
        let w = Workload::OltpCamps;
        let mut rec = Recorder::new();
        let fp = |seed| Fingerprint::of(&run_rep(w, &w.smoke_scale(seed), &mut Recorder::new()));
        let a = Fingerprint::of(&run_rep(w, &w.smoke_scale(7), &mut rec));
        assert_eq!(a, fp(7));
        assert_ne!(a.folded(), fp(8).folded());
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mib() > 1.0);
    }
}
