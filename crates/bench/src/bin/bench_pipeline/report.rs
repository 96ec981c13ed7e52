//! Turning a run into numbers and text: the per-layer metric values,
//! the self-time table, the trace file and the result documents.

use dbcmp_sim::analytic::Validation;
use dbcmp_sim::stats::MemCounters;
use dbcmp_sim::CycleClass;

use crate::json::Json;
use crate::metrics::{Kind, MetricSet};
use crate::pipelines::{Camp, CaptureLayer, Rep, Times, Workload};
use crate::probes::{simulated_cycles, Probes};
use crate::spans::{self_times_ns, Span};
use crate::stats::{median, Summary};
use crate::verify::Verdict;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fill the layer metrics: host times as summaries over the run's
/// repetitions, exact counters from the last repetition (every
/// repetition was verified identical to it), probe times from the one
/// probe pass.
pub fn per_layer(m: &mut MetricSet, times: &[Times], rep: &Rep, probes: &Probes) {
    let over = |f: fn(&Times) -> f64| Summary::of(&times.iter().map(f).collect::<Vec<_>>());
    let med = |f: fn(&Times) -> f64| over(f).median;

    // -- workloads: populate and capture -------------------------------
    m.set("workloads.populate_s", over(|t| t.populate_s));
    m.set_value(
        "workloads.populate_mrows_per_s",
        ratio(rep.rows_populated as f64 / 1e6, med(|t| t.populate_s)),
    );
    m.set("cacti.preset_build_s", over(|t| t.preset_s));
    let events_of = |layer: Option<CaptureLayer>| -> u64 {
        rep.captures
            .iter()
            .filter(|c| layer.is_none_or(|l| c.layer == l))
            .map(|c| c.events())
            .sum()
    };
    let staged_events = events_of(Some(CaptureLayer::Staged));
    let interleaved_events = events_of(Some(CaptureLayer::Interleaved));
    let events = events_of(None);
    m.set("workloads.capture_s", over(|t| t.capture_s));
    m.set_value(
        "workloads.capture_mevents_per_s",
        ratio((events - staged_events) as f64 / 1e6, med(|t| t.capture_s)),
    );
    m.set_value(
        "workloads.interleave_mevents_per_s",
        ratio(interleaved_events as f64 / 1e6, med(|t| t.interleave_s)),
    );
    for (metric, counter) in [
        ("workloads.lock_waits", "lock_waits"),
        ("workloads.deadlock_aborts", "deadlock_aborts"),
        ("workloads.conflict_retries", "conflict_retries"),
        ("workloads.starved_units", "starved_units"),
        ("workloads.exchange_msgs", "exchange_msgs"),
        ("workloads.exchange_bytes", "exchange_sent_bytes"),
        ("workloads.shuffles", "shuffles"),
        ("workloads.broadcasts", "broadcasts"),
        ("engine.cc_acquires", "cc_acquires"),
        ("engine.cc_waits", "cc_waits"),
        ("engine.cc_ordering_waits", "cc_ordering_waits"),
        ("engine.cc_remote_msgs", "cc_remote_msgs"),
        ("engine.cc_fallback_conflicts", "cc_fallback_conflicts"),
    ] {
        m.set_value(metric, rep.counter(counter) as f64);
    }
    let commits = rep.counter("commits");
    let attempts = commits
        + rep.counter("rollbacks")
        + rep.counter("deadlock_aborts")
        + rep.counter("conflict_retries");
    m.set_value(
        "workloads.commit_share",
        ratio(commits as f64, attempts as f64),
    );

    // -- engine and trace: what the captures hold ----------------------
    let bundles = || rep.captures.iter().flat_map(|c| &c.bundles);
    let instrs: u64 = bundles().map(|b| b.total_instrs()).sum();
    let units: u64 = bundles().map(|b| b.total_units()).sum();
    let encoded: u64 = bundles().map(|b| b.encoded_bytes() as u64).sum();
    m.set_value(
        "engine.instrs_per_event",
        ratio(instrs as f64, events as f64),
    );
    m.set_value("engine.events_per_unit", ratio(events as f64, units as f64));
    m.set_value("trace.events", events as f64);
    m.set_value("trace.encoded_bytes", encoded as f64);
    m.set_value(
        "trace.bytes_per_event",
        ratio(encoded as f64, events as f64),
    );
    m.set_value("trace.encode_s", probes.encode_s);
    m.set_value(
        "trace.encode_mevents_per_s",
        ratio(probes.codec_events as f64 / 1e6, probes.encode_s),
    );
    m.set_value("trace.decode_s", probes.decode_s);
    m.set_value(
        "trace.decode_mevents_per_s",
        ratio(probes.codec_events as f64 / 1e6, probes.decode_s),
    );
    m.set("trace.summary_s", over(|t| t.summary_s));
    // Derived, not measured: what the engine and its operators cost once
    // the tracer's share of every capture call is taken out.
    m.set_value(
        "engine.capture_self_s",
        med(|t| t.capture_s) + med(|t| t.staged_s) - probes.encode_s,
    );
    m.set("staged.capture_s", over(|t| t.staged_s));
    m.set_value(
        "staged.capture_mevents_per_s",
        ratio(staged_events as f64 / 1e6, med(|t| t.staged_s)),
    );
    m.set_value("staged.events", staged_events as f64);

    // -- sim: host cost from the sequential probes ---------------------
    let execute_s: f64 = probes.execute_s.iter().sum();
    let sim_instrs: u64 = rep.results.iter().map(|r| r.instrs).sum();
    m.set_value("sim.build_s", probes.build_s);
    m.set_value("sim.execute_s", execute_s);
    m.set_value("sim.mips", ratio(sim_instrs as f64 / 1e6, execute_s));
    for (metric, camp) in [
        ("sim.fat_ns_per_core_cycle", Camp::Fat),
        ("sim.lean_ns_per_core_cycle", Camp::Lean),
        ("sim.smp_ns_per_core_cycle", Camp::Smp),
    ] {
        let (mut secs, mut core_cycles) = (0.0, 0u64);
        for ((p, r), s) in rep
            .points
            .iter()
            .zip(&probes.sequential)
            .zip(&probes.execute_s)
        {
            if p.camp == camp {
                secs += s;
                core_cycles += simulated_cycles(p.mode, r) * p.cfg.n_cores as u64;
            }
        }
        m.set_value(metric, ratio(secs * 1e9, core_cycles as f64));
    }
    m.set_value(
        "sim.memsys_ns_per_access",
        ratio(probes.memsys_s * 1e9, probes.memsys_accesses as f64),
    );

    // -- sim: the simulated statistics, aggregated over the sweep ------
    let mut mem = MemCounters::default();
    let mut class = [0u64; 7];
    let (mut remote_msgs, mut remote_bytes, mut link_stall) = (0u64, 0u64, 0u64);
    for r in &rep.results {
        mem.merge(&r.mem);
        for (acc, c) in class.iter_mut().zip(r.breakdown.cycles) {
            *acc += c;
        }
        remote_msgs += r.remote.sends + r.remote.recvs;
        remote_bytes += r.remote.bytes;
        link_stall += r.remote.stall_cycles;
    }
    let core_cycles: u64 = class.iter().sum();
    let share = |classes: &[CycleClass]| {
        let c: u64 = classes.iter().map(|&c| class[c as usize]).sum();
        ratio(c as f64, core_cycles as f64)
    };
    m.set_value("sim.core_cycles", core_cycles as f64);
    m.set_value("sim.instrs", sim_instrs as f64);
    m.set_value(
        "sim.units",
        rep.results.iter().map(|r| r.units).sum::<u64>() as f64,
    );
    m.set_value("sim.compute_share", share(&[CycleClass::Compute]));
    m.set_value(
        "sim.dstall_share",
        share(&[
            CycleClass::DStallL2Hit,
            CycleClass::DStallMem,
            CycleClass::DStallCoherence,
        ]),
    );
    m.set_value(
        "sim.istall_share",
        share(&[CycleClass::IStallL2, CycleClass::IStallMem]),
    );
    m.set_value("sim.l2_miss_rate", mem.l2_miss_rate());
    m.set_value(
        "sim.offchip_accesses",
        (mem.mem_accesses + mem.mem_accesses_instr) as f64,
    );
    m.set_value("sim.coherence_transfers", mem.coherence_transfers as f64);
    m.set_value("sim.l2_queue_cycles", mem.l2_queue_cycles as f64);
    m.set_value("sim.remote_msgs", remote_msgs as f64);
    m.set_value("sim.remote_bytes", remote_bytes as f64);
    m.set_value(
        "sim.link_stall_share",
        ratio(link_stall as f64, core_cycles as f64),
    );
    // The repo's only reference model is the closed-form CPI of Fig. 3;
    // informational, on the single-chip CMP points that model covers.
    let cpi_err = rep.analytic.map_or(0.0, |w| {
        rep.points
            .iter()
            .zip(&rep.results)
            .filter(|(p, _)| p.camp != Camp::Smp)
            .map(|(p, r)| Validation::new(&p.cfg, r, w).total_error())
            .fold(0.0, f64::max)
    });
    m.set_value("sim.analytic_cpi_err_pct", cpi_err * 100.0);

    // -- core: the parallel sweep ---------------------------------------
    m.set("core.sweep_s", over(|t| t.sweep_s));
    m.set_value("core.sweep_points", rep.points.len() as f64);
    m.set_value("core.sweep_speedup", ratio(execute_s, med(|t| t.sweep_s)));

    m.set_value(
        "bench.setup_share",
        ratio(med(|t| t.setup_s), med(|t| t.wall_s)),
    );
    m.set_value(
        "bench.capture_share",
        ratio(med(|t| t.capture_phase_s), med(|t| t.wall_s)),
    );
    m.set_value(
        "bench.replay_share",
        ratio(med(|t| t.replay_phase_s), med(|t| t.wall_s)),
    );
}

/// The harness's statements about itself: noise, overhead, coverage and
/// the outcome of the output checks.
pub fn harness_metrics(
    m: &mut MetricSet,
    untraced_walls: &[f64],
    traced_walls: &[f64],
    spans: &[Span],
    verdict: &Verdict,
    golden_match: Option<(bool, bool)>,
) {
    let all: Vec<f64> = untraced_walls.iter().chain(traced_walls).copied().collect();
    m.set_value("bench.rep_spread_pct", Summary::of(&all).spread() * 100.0);
    m.set_value("bench.reps", all.len() as f64);
    if !untraced_walls.is_empty() && !traced_walls.is_empty() {
        let (u, t) = (median(untraced_walls), median(traced_walls));
        m.set_value("bench.trace_overhead_pct", ratio(t - u, u) * 100.0);
    }
    // Coverage: the share of the traced repetitions' wall clock that
    // lies inside a crate-named span (the dotted names), as opposed to
    // harness glue between them.
    let rep_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "rep")
        .map(Span::duration_ns)
        .sum();
    let layer_ns: u64 = spans
        .iter()
        .filter(|s| s.name.contains('.') && under(spans, s, "rep"))
        .map(Span::duration_ns)
        .sum();
    m.set_value(
        "bench.span_coverage_pct",
        ratio(layer_ns as f64, rep_ns as f64) * 100.0,
    );
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    m.set_value("bench.host_threads", threads as f64);
    m.set_value("bench.ops_attempted", verdict.attempted as f64);
    m.set_value("bench.ops_failed", verdict.failed as f64);
    m.set_value(
        "bench.fail_share",
        ratio(verdict.failed as f64, verdict.attempted as f64),
    );
    // With no golden to meet (another seed), 1 means every repetition
    // agreed with the warm-up's digest.
    let (capture_ok, sim_ok) =
        golden_match.unwrap_or((!verdict.capture_drift, !verdict.replay_drift));
    m.set_value("bench.capture_digest_match", f64::from(capture_ok));
    m.set_value("bench.sim_digest_match", f64::from(sim_ok));
}

/// Whether `s` is, or descends from, a root span named `root`.
fn under(spans: &[Span], s: &Span, root: &str) -> bool {
    let mut top = s;
    while let Some(i) = top.parent {
        top = &spans[i];
    }
    top.name == root
}

/// Per span name under root spans named `root` (the root included):
/// calls, total seconds and self seconds, in first-seen order.
pub fn self_time_table(spans: &[Span], root: &str) -> Vec<(&'static str, usize, f64, f64)> {
    let st = self_times_ns(spans);
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(st) {
        if !under(spans, s, root) {
            continue;
        }
        let i = rows.iter().position(|r| r.0 == s.name).unwrap_or_else(|| {
            rows.push((s.name, 0, 0.0, 0.0));
            rows.len() - 1
        });
        rows[i].1 += 1;
        rows[i].2 += s.duration_ns() as f64 / 1e9;
        rows[i].3 += self_ns as f64 / 1e9;
    }
    rows
}

/// What a traced run writes out at exit: its spans and the exact
/// counters of the repetition it probed.
pub struct TraceDoc {
    pub spans: Vec<Span>,
    captures: Json,
    points: Json,
}

impl TraceDoc {
    pub fn new(spans: &[Span], rep: &Rep, probes: &Probes) -> TraceDoc {
        let num = |v: u64| Json::Num(v as f64);
        let captures = rep
            .captures
            .iter()
            .map(|c| {
                let encoded: usize = c.bundles.iter().map(|b| b.encoded_bytes()).sum();
                Json::obj([
                    ("label", Json::str(&*c.label)),
                    ("bundles", num(c.bundles.len() as u64)),
                    ("events", num(c.events())),
                    ("encoded_bytes", num(encoded as u64)),
                    (
                        "counters",
                        Json::Obj(
                            c.counters
                                .iter()
                                .map(|(k, v)| (k.to_string(), num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let points = rep
            .points
            .iter()
            .zip(&rep.results)
            .zip(&probes.execute_s)
            .map(|((p, r), &secs)| {
                Json::obj([
                    ("label", Json::str(&*p.label)),
                    ("machine", Json::str(&*r.machine)),
                    ("execute_s", Json::Num(secs)),
                    ("cycles", num(r.cycles)),
                    ("instrs", num(r.instrs)),
                    ("units", num(r.units)),
                    ("compute_share", Json::Num(r.breakdown.compute_fraction())),
                    ("link_stall_cycles", num(r.remote.stall_cycles)),
                ])
            })
            .collect();
        TraceDoc {
            spans: spans.to_vec(),
            captures: Json::Arr(captures),
            points: Json::Arr(points),
        }
    }

    pub fn to_json(&self, w: Workload, seed: u64) -> Json {
        let st = self_times_ns(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(st)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("rep", Json::Num(f64::from(s.rep))),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str("dbcmp-pipeline-trace/1")),
            ("workload", Json::str(w.name())),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
            ("captures", self.captures.clone()),
            ("points", self.points.clone()),
        ])
    }
}

/// One run as a result document (`--json`), the input of `--compare`.
pub fn run_json(w: Workload, seed: u64, traced: bool, reps: usize, m: &MetricSet) -> Json {
    let metrics = m
        .iter()
        .map(|(d, v)| {
            Json::obj([
                ("name", Json::str(d.name)),
                ("unit", Json::str(d.unit)),
                (
                    "kind",
                    Json::str(if d.kind == Kind::Exact {
                        "exact"
                    } else {
                        "timed"
                    }),
                ),
                ("median", Json::Num(v.median)),
                ("q1", Json::Num(v.q1)),
                ("q3", Json::Num(v.q3)),
                ("min", Json::Num(v.min)),
                ("max", Json::Num(v.max)),
                ("n", Json::Num(v.n as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(w.name())),
        ("trace", Json::Num(f64::from(u8::from(traced)))),
        ("seed", Json::Num(seed as f64)),
        ("reps", Json::Num(reps as f64)),
        ("metrics", Json::Arr(metrics)),
    ])
}

/// Print every metric by name with its unit and, where it is a sample
/// over repetitions, its quartiles and range.
pub fn print_metrics(m: &MetricSet) {
    println!(
        "{:<38} {:>16} {:<10} {:<7} {:>12} {:>12} {:>12} {:>12} {:>3}",
        "metric", "median", "unit", "better", "q1", "q3", "min", "max", "n"
    );
    for (d, v) in m.iter() {
        print!(
            "{:<38} {:>16.6} {:<10} {:<7}",
            d.name,
            v.median,
            d.unit,
            d.better.label()
        );
        if v.n > 1 {
            print!(
                " {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>3}",
                v.q1, v.q3, v.min, v.max, v.n
            );
        }
        println!();
    }
}

/// The self-time tables of a traced run: the pipeline spans of the
/// traced repetitions, then the probe spans.
pub fn print_self_times(spans: &[Span]) {
    for root in ["rep", "probes"] {
        let rows = self_time_table(spans, root);
        let root_s: f64 = rows.iter().filter(|r| r.0 == root).map(|r| r.2).sum();
        println!(
            "\n{:<38} {:>6} {:>12} {:>12} {:>10}",
            "span", "calls", "total s", "self s", "self share"
        );
        for (name, calls, total, own) in &rows {
            println!(
                "{name:<38} {calls:>6} {total:>12.6} {own:>12.6} {:>9.1}%",
                ratio(*own, root_s) * 100.0
            );
        }
        let dominant = rows
            .iter()
            .filter(|r| r.0.contains('.'))
            .max_by(|a, b| a.3.total_cmp(&b.3));
        if let Some((name, _, _, own)) = dominant {
            println!(
                "dominant layer under '{root}': {name} ({:.1}% of its wall clock)",
                ratio(*own, root_s) * 100.0
            );
        }
    }
}
