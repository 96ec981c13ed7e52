//! The metric tables: every name the benchmark prints, with its unit,
//! its direction and — for end-to-end metrics — the share of the
//! parent's median by which it may worsen before a change is rejected.
//! `BENCHMARK.json` mirrors these tables (a test keeps them equal).
//! Output order is table order; nothing iterates a hash map.

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric's value arises, which decides how `--compare` judges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or a rate over host time: noisy, compared by bound.
    Timed,
    /// Repeats bit-for-bit at a fixed seed: compared for equality.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Timed,
        bound: Some(bound),
    }
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Timed,
        bound: None,
    }
}

/// Exact counters have no better direction of their own — a speed PR
/// must leave them identical. `better` says which way the *model* reads.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Exact,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the pipeline sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("wall_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.15),
];

/// Layer = crate. Measured by the harness around public calls in the
/// traced run.
pub const PER_LAYER: [MetricDef; 71] = [
    timed("workloads.populate_s", "s", Lower),
    timed("workloads.populate_mrows_per_s", "Mrows/s", Higher),
    timed("cacti.preset_build_s", "s", Lower),
    timed("workloads.capture_s", "s", Lower),
    timed("workloads.capture_mevents_per_s", "Mevents/s", Higher),
    timed("workloads.interleave_mevents_per_s", "Mevents/s", Higher),
    exact("workloads.lock_waits", "count", Lower),
    exact("workloads.deadlock_aborts", "count", Lower),
    exact("workloads.conflict_retries", "count", Lower),
    exact("workloads.starved_units", "count", Lower),
    exact("workloads.commit_share", "ratio", Higher),
    exact("workloads.exchange_msgs", "count", Lower),
    exact("workloads.exchange_bytes", "B", Lower),
    exact("workloads.shuffles", "count", Lower),
    exact("workloads.broadcasts", "count", Lower),
    timed("engine.capture_self_s", "s", Lower),
    exact("engine.instrs_per_event", "ratio", Higher),
    exact("engine.events_per_unit", "ratio", Lower),
    exact("engine.cc_acquires", "count", Lower),
    exact("engine.cc_waits", "count", Lower),
    exact("engine.cc_ordering_waits", "count", Lower),
    exact("engine.cc_remote_msgs", "count", Lower),
    exact("engine.cc_fallback_conflicts", "count", Lower),
    exact("trace.events", "count", Lower),
    exact("trace.encoded_bytes", "B", Lower),
    exact("trace.bytes_per_event", "B", Lower),
    timed("trace.encode_s", "s", Lower),
    timed("trace.encode_mevents_per_s", "Mevents/s", Higher),
    timed("trace.decode_s", "s", Lower),
    timed("trace.decode_mevents_per_s", "Mevents/s", Higher),
    timed("trace.summary_s", "s", Lower),
    timed("staged.capture_s", "s", Lower),
    timed("staged.capture_mevents_per_s", "Mevents/s", Higher),
    exact("staged.events", "count", Lower),
    timed("sim.build_s", "s", Lower),
    timed("sim.execute_s", "s", Lower),
    timed("sim.mips", "Minstr/s", Higher),
    timed("sim.fat_ns_per_core_cycle", "ns", Lower),
    timed("sim.lean_ns_per_core_cycle", "ns", Lower),
    timed("sim.smp_ns_per_core_cycle", "ns", Lower),
    timed("sim.memsys_ns_per_access", "ns", Lower),
    exact("sim.core_cycles", "cycles", Lower),
    exact("sim.instrs", "count", Higher),
    exact("sim.units", "count", Higher),
    exact("sim.compute_share", "ratio", Higher),
    exact("sim.dstall_share", "ratio", Lower),
    exact("sim.istall_share", "ratio", Lower),
    exact("sim.l2_miss_rate", "ratio", Lower),
    exact("sim.offchip_accesses", "count", Lower),
    exact("sim.coherence_transfers", "count", Lower),
    exact("sim.l2_queue_cycles", "cycles", Lower),
    exact("sim.remote_msgs", "count", Lower),
    exact("sim.remote_bytes", "B", Lower),
    exact("sim.link_stall_share", "ratio", Lower),
    exact("sim.analytic_cpi_err_pct", "%", Lower),
    timed("core.sweep_s", "s", Lower),
    exact("core.sweep_points", "count", Higher),
    timed("core.sweep_speedup", "ratio", Higher),
    timed("bench.setup_share", "ratio", Lower),
    timed("bench.capture_share", "ratio", Lower),
    timed("bench.replay_share", "ratio", Lower),
    timed("bench.span_coverage_pct", "%", Higher),
    timed("bench.trace_overhead_pct", "%", Lower),
    timed("bench.rep_spread_pct", "%", Lower),
    exact("bench.host_threads", "count", Higher),
    timed("bench.reps", "count", Higher),
    // Both scale with the number of repetitions the time budget allowed.
    timed("bench.ops_attempted", "count", Higher),
    timed("bench.ops_failed", "count", Lower),
    exact("bench.fail_share", "ratio", Lower),
    exact("bench.capture_digest_match", "0/1", Higher),
    exact("bench.sim_digest_match", "0/1", Higher),
];

/// One run's values for one metric table, in table order.
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<Option<Summary>>,
}

impl MetricSet {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        MetricSet {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Record a metric. An unknown name is a harness bug, caught by the
    /// smoke test.
    pub fn set(&mut self, name: &str, value: Summary) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the table"));
        self.values[i] = Some(value);
    }

    pub fn set_value(&mut self, name: &str, value: f64) {
        self.set(name, Summary::single(value));
    }

    /// Every metric of the table, in table order. A metric a workload
    /// never touches (lock waits on a read-only capture) reads 0.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, Summary)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| (d, v.unwrap_or(Summary::single(0.0))))
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<Summary> {
        self.iter().find(|(d, _)| d.name == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The driver's rule for a name: starts with a letter or digit, at
    /// most 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn name_validator() {
        for ok in ["wall_s", "sim.fat_ns_per_core_cycle", "a", "0x-y.z_1"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/y",
            "pct%",
            "é",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn tables_are_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.name);
        }
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` at the repo root must list exactly these tables.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                let field = |k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
                assert_eq!(field("name").as_deref(), Some(d.name));
                assert_eq!(field("unit").as_deref(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    field("better").as_deref(),
                    Some(d.better.label()),
                    "{}",
                    d.name
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        let listed: Vec<_> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<_> = crate::pipelines::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn metric_set_defaults_to_zero_and_keeps_table_order() {
        let mut m = MetricSet::new(&END_TO_END);
        m.set_value("setup_s", 0.5);
        let got: Vec<_> = m.iter().map(|(d, v)| (d.name, v.median)).collect();
        assert_eq!(
            got,
            vec![("wall_s", 0.0), ("setup_s", 0.5), ("peak_rss_mb", 0.0)]
        );
        assert_eq!(m.get("setup_s").map(|s| s.median), Some(0.5));
        assert!(m.get("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_is_rejected() {
        MetricSet::new(&END_TO_END).set_value("wall_ms", 1.0);
    }
}
