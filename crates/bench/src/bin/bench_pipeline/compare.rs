//! `--compare a.json b.json`: per workload × metric, the delta with its
//! base and a verdict.
//!
//! * End-to-end metrics (those with a bound): `unresolved` when either
//!   side's run-to-run spread (IQR ÷ median) is wider than the bound —
//!   unless every run of one side reads better than every run of the
//!   other — else `regressed` when `b`'s median is worse than `a`'s by
//!   more than the bound, else `within-bound`.
//! * Exact counters: `equal` or `DIFFERS`. A speed-only change must
//!   leave every one of them equal.
//! * Other timed layer metrics carry no bound: the delta is printed
//!   without a verdict.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    WithinBound,
    Regressed,
    Unresolved,
    Equal,
    Differs,
    Info,
}

impl Outcome {
    pub fn label(self) -> &'static str {
        match self {
            Outcome::WithinBound => "within-bound",
            Outcome::Regressed => "regressed",
            Outcome::Unresolved => "unresolved",
            Outcome::Equal => "equal",
            Outcome::Differs => "DIFFERS",
            Outcome::Info => "-",
        }
    }
}

/// Judge one bounded metric: `a` is the base, `b` the candidate.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Outcome {
    let (a_best, a_worst, b_best, b_worst) = match better {
        Better::Lower => (a.min, a.max, b.min, b.max),
        Better::Higher => (a.max, a.min, b.max, b.min),
    };
    let worse = |x: f64, y: f64| match better {
        Better::Lower => x > y,
        Better::Higher => x < y,
    };
    if a.spread().max(b.spread()) > bound {
        // Too noisy for the bound to mean anything — unless the two
        // sides' ranges do not even touch.
        if worse(a_best, b_worst) {
            return Outcome::WithinBound;
        }
        if worse(b_best, a_worst) && worsening(a.median, b.median, better) > bound {
            return Outcome::Regressed;
        }
        return Outcome::Unresolved;
    }
    if worsening(a.median, b.median, better) > bound {
        Outcome::Regressed
    } else {
        Outcome::WithinBound
    }
}

/// By what share of the base `cand` is worse (negative: better).
fn worsening(base: f64, cand: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => cand - base,
        Better::Higher => base - cand,
    };
    if base == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

pub struct Row {
    pub workload: String,
    pub trace: u8,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub cand: f64,
    pub outcome: Outcome,
}

fn summary_of(m: &Json) -> Option<Summary> {
    let f = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Summary {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
        min: f("min")?,
        max: f("max")?,
        n: f("n")? as usize,
    })
}

fn runs(doc: &Json) -> Result<&[Json], String> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no \"runs\" array".to_string())
}

/// Compare two result documents. Runs pair up by `(workload, trace)`;
/// metrics by name. A metric missing from `b` is an error — silently
/// dropping a row would hide a removed counter.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let key = |r: &Json| {
        let w = r.get("workload").and_then(Json::as_str).map(str::to_string);
        let t = r.get("trace").and_then(Json::as_f64);
        w.zip(t)
            .ok_or_else(|| "run without workload/trace".to_string())
    };
    for ra in runs(a)? {
        let ka = key(ra)?;
        let Some(rb) = runs(b)?.iter().find(|r| key(r).as_ref() == Ok(&ka)) else {
            continue;
        };
        let metrics = |r| Json::get(r, "metrics").and_then(Json::as_arr);
        let (ma, mb) = metrics(ra)
            .zip(metrics(rb))
            .ok_or_else(|| format!("{}: run without metrics", ka.0))?;
        for m in ma {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let other = mb
                .iter()
                .find(|o| o.get("name").and_then(Json::as_str) == Some(name))
                .ok_or_else(|| {
                    format!("{}: metric {name} is missing from the second file", ka.0)
                })?;
            let (sa, sb) = summary_of(m)
                .zip(summary_of(other))
                .ok_or_else(|| format!("{}: metric {name} is malformed", ka.0))?;
            let def = END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name);
            let exact = m.get("kind").and_then(Json::as_str) == Some("exact");
            let outcome = match def.and_then(|d| d.bound.map(|b| (d.better, b))) {
                Some((better, bound)) => judge(&sa, &sb, better, bound),
                None if exact && sa.median == sb.median => Outcome::Equal,
                None if exact => Outcome::Differs,
                None => Outcome::Info,
            };
            rows.push(Row {
                workload: ka.0.clone(),
                trace: ka.1 as u8,
                metric: name.to_string(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                base: sa.median,
                cand: sb.median,
                outcome,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, trace) run".into());
    }
    Ok(rows)
}

/// Print the comparison; returns whether anything regressed or differs.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<15} {:>2} {:<38} {:>16} {:>16} {:>9} {:<10} verdict",
        "workload", "tr", "metric", "base", "candidate", "delta", "unit"
    );
    for r in rows {
        let delta = if r.base == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:+.2}%", (r.cand - r.base) / r.base.abs() * 100.0)
        };
        println!(
            "{:<15} {:>2} {:<38} {:>16.6} {:>16.6} {:>9} {:<10} {}",
            r.workload,
            r.trace,
            r.metric,
            r.base,
            r.cand,
            delta,
            r.unit,
            r.outcome.label()
        );
    }
    let bad = |o: Outcome| matches!(o, Outcome::Regressed | Outcome::Differs);
    let count = |o: Outcome| rows.iter().filter(|r| r.outcome == o).count();
    println!(
        "\n{} regressed, {} unresolved, {} within-bound; exact counters: {} equal, {} differ",
        count(Outcome::Regressed),
        count(Outcome::Unresolved),
        count(Outcome::WithinBound),
        count(Outcome::Equal),
        count(Outcome::Differs)
    );
    rows.iter().any(|r| bad(r.outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricSet;
    use crate::pipelines::Workload;
    use crate::report::run_json;

    fn tight(center: f64) -> Summary {
        Summary::of(&[
            center * 0.99,
            center,
            center * 1.01,
            center * 1.005,
            center * 0.995,
        ])
    }

    #[test]
    fn verdicts_on_synthetic_samples() {
        let lower = Better::Lower;
        // Steady samples: the bound decides.
        assert_eq!(
            judge(&tight(1.0), &tight(1.05), lower, 0.10),
            Outcome::WithinBound
        );
        assert_eq!(
            judge(&tight(1.0), &tight(1.2), lower, 0.10),
            Outcome::Regressed
        );
        assert_eq!(
            judge(&tight(1.0), &tight(0.5), lower, 0.10),
            Outcome::WithinBound
        );
        assert_eq!(
            judge(&tight(100.0), &tight(80.0), Better::Higher, 0.10),
            Outcome::Regressed
        );
        // Noisy samples whose ranges overlap: unresolved either way.
        let noisy = Summary::of(&[0.6, 0.8, 1.0, 1.2, 1.4]);
        assert_eq!(
            judge(&noisy, &tight(1.05), lower, 0.10),
            Outcome::Unresolved
        );
        assert_eq!(judge(&tight(1.0), &noisy, lower, 0.10), Outcome::Unresolved);
        // Noisy, but every candidate run beats every base run.
        assert_eq!(
            judge(&noisy, &tight(0.3), lower, 0.10),
            Outcome::WithinBound
        );
        // Noisy, and every candidate run is worse than every base run.
        assert_eq!(judge(&noisy, &tight(3.0), lower, 0.10), Outcome::Regressed);
        // A zero base cannot hide a regression.
        assert_eq!(
            judge(&Summary::single(0.0), &Summary::single(1.0), lower, 0.10),
            Outcome::Regressed
        );
    }

    fn doc(wall: f64, units: f64) -> Json {
        let mut e2e = MetricSet::new(&END_TO_END);
        e2e.set("wall_s", tight(wall));
        e2e.set("setup_s", tight(0.5));
        e2e.set_value("peak_rss_mb", 100.0);
        let mut layers = MetricSet::new(&PER_LAYER);
        layers.set_value("sim.units", units);
        layers.set("core.sweep_s", tight(wall / 2.0));
        Json::obj([(
            "runs",
            Json::Arr(vec![
                run_json(Workload::OltpCamps, 1, false, 5, &e2e),
                run_json(Workload::OltpCamps, 1, true, 4, &layers),
            ]),
        )])
    }

    #[test]
    fn compare_pairs_runs_and_flags_regressions_and_counter_drift() {
        // Round-trip through text, as the real flow does.
        let reparse = |d: Json| Json::parse(&d.render()).expect("round trip");
        let base = reparse(doc(2.0, 500.0));
        let same = compare(&base, &reparse(doc(2.02, 500.0))).expect("comparable");
        assert_eq!(same.len(), END_TO_END.len() + PER_LAYER.len());
        let of = |rows: &[Row], name: &str| {
            rows.iter()
                .find(|r| r.metric == name)
                .map(|r| r.outcome)
                .expect("row")
        };
        assert_eq!(of(&same, "wall_s"), Outcome::WithinBound);
        assert_eq!(of(&same, "sim.units"), Outcome::Equal);
        assert_eq!(of(&same, "core.sweep_s"), Outcome::Info);
        assert!(!print(&same));

        let worse = compare(&base, &reparse(doc(2.6, 499.0))).expect("comparable");
        assert_eq!(of(&worse, "wall_s"), Outcome::Regressed);
        assert_eq!(of(&worse, "setup_s"), Outcome::WithinBound);
        assert_eq!(of(&worse, "sim.units"), Outcome::Differs);
        assert!(print(&worse));

        assert!(compare(&base, &Json::obj([("runs", Json::Arr(vec![]))])).is_err());
        assert!(compare(&base, &Json::Null).is_err());
    }
}
