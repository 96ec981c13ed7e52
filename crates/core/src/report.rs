//! Plain-text table formatting for the figure pages, and the
//! [`Claim`]s each figure makes about its own numbers.

use std::fmt::Display;

use dbcmp_sim::stats::{Breakdown, ALL_CLASSES};

/// The tolerance of an approximate threshold: a figure's "~1.7×" is
/// checked within ±25 % of the written number ([`Claim::near`]).
pub(crate) const APPROX: f64 = 0.25;

/// One statement of a figure's shape, evaluated eagerly against the
/// numbers the figure printed. It holds iff `margin > 0`, so a NaN margin
/// fails. A number a claim quotes is its threshold as written, except an
/// approximate one ("~1.7×"), which is checked within ±`APPROX`.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The statement, with the measured value and the bound it is held to.
    pub(crate) text: String,
    /// Signed distance from the bound, in the measured quantity's units.
    pub(crate) margin: f64,
    /// The ROADMAP item that owns a known contradiction: until that item
    /// lands, the claim is expected to fail.
    pub(crate) gap: Option<&'static str>,
}

impl Claim {
    fn new(text: String, margin: f64) -> Claim {
        Claim {
            text,
            margin,
            gap: None,
        }
    }

    /// `value` is greater than `bound`.
    pub(crate) fn above(what: impl Display, value: f64, bound: f64) -> Claim {
        Claim::new(
            format!("{what}: {} > {}", num(value), num(bound)),
            value - bound,
        )
    }

    /// `value` is less than `bound`.
    pub(crate) fn below(what: impl Display, value: f64, bound: f64) -> Claim {
        Claim::new(
            format!("{what}: {} < {}", num(value), num(bound)),
            bound - value,
        )
    }

    /// `value` lies strictly inside `(lo, hi)`.
    pub(crate) fn within(what: impl Display, value: f64, lo: f64, hi: f64) -> Claim {
        Claim::new(
            format!("{what}: {} in ({}, {})", num(value), num(lo), num(hi)),
            (value - lo).min(hi - value),
        )
    }

    /// `value` is `target` within ±[`APPROX`].
    pub(crate) fn near(what: impl Display, value: f64, target: f64) -> Claim {
        let (lo, hi) = (target * (1.0 - APPROX), target * (1.0 + APPROX));
        Claim {
            text: format!(
                "{what}: {} ~ {} ±{:.0} % = ({}, {})",
                num(value),
                num(target),
                APPROX * 100.0,
                num(lo),
                num(hi)
            ),
            ..Claim::within("", value, lo, hi)
        }
    }

    /// Mark a known contradiction owned by ROADMAP item `item`.
    pub(crate) fn gap(self, item: &'static str) -> Claim {
        Claim {
            gap: Some(item),
            ..self
        }
    }

    pub(crate) fn holds(&self) -> bool {
        self.margin > 0.0
    }
}

/// A claim's number: four significant digits (all of its integer part),
/// trailing zeros dropped — so a value just past its bound never prints
/// as the bound itself.
fn num(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    let s = format!("{:.*}", (3 - magnitude).clamp(0, 12) as usize, x);
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

/// A margin: [`num`] with its sign.
fn signed(x: f64) -> String {
    if x >= 0.0 {
        format!("+{}", num(x))
    } else {
        num(x)
    }
}

/// The smallest of `xs`, or NaN if any is NaN: `f64::min` drops a NaN,
/// which would let a claim hold on a number that is missing.
pub(crate) fn least(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, |a, x| {
        if a.is_nan() || x.is_nan() {
            f64::NAN
        } else {
            a.min(x)
        }
    })
}

/// The largest of `xs`, or NaN if any is NaN (see [`least`]).
pub(crate) fn greatest(xs: impl IntoIterator<Item = f64>) -> f64 {
    -least(xs.into_iter().map(|x| -x))
}

/// The block `fig` prints under a figure: one line per claim with ✓/✗,
/// the signed margin and, for a known contradiction, its ROADMAP item.
pub fn claims_block(claims: &[Claim]) -> String {
    let mut out = String::from("Claims (margin > 0 iff the claim holds):\n");
    for c in claims {
        let mark = if c.holds() { '✓' } else { '✗' };
        let gap = c
            .gap
            .map(|item| format!("  [gap: ROADMAP item {item}]"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {mark} {:>9}  {}{gap}\n",
            signed(c.margin),
            c.text
        ));
    }
    out
}

/// The strict check the figure tests apply: a claim without a gap must
/// hold and a claim with one must fail, so fixing a known contradiction
/// forces its gap marker off. On failure, returns the offending claims'
/// block.
pub fn check_claims(claims: &[Claim]) -> Result<(), String> {
    if claims.is_empty() {
        return Err("a figure with no claims".to_string());
    }
    let off: Vec<Claim> = claims
        .iter()
        .filter(|c| c.holds() == c.gap.is_some())
        .cloned()
        .collect();
    if off.is_empty() {
        Ok(())
    } else {
        Err(claims_block(&off))
    }
}

/// Format an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// One line per class: percentage of execution time.
pub fn breakdown_row(b: &Breakdown) -> Vec<String> {
    let f = b.fractions();
    ALL_CLASSES
        .iter()
        .map(|&c| format!("{:.1}%", f[c as usize] * 100.0))
        .collect()
}

/// Headers matching [`breakdown_row`].
pub fn breakdown_headers() -> Vec<&'static str> {
    ALL_CLASSES.iter().map(|c| c.label()).collect()
}

/// Aggregate a breakdown into the paper's four Fig. 5 components:
/// (computation, I-stalls, D-stalls, other).
pub fn four_components(b: &Breakdown) -> (f64, f64, f64, f64) {
    (
        b.compute_fraction(),
        b.instr_stall_fraction(),
        b.data_stall_fraction(),
        1.0 - b.compute_fraction() - b.instr_stall_fraction() - b.data_stall_fraction(),
    )
}

/// Format a float with fixed precision.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcmp_sim::CycleClass;

    #[test]
    fn table_alignment() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    fn four_components_sum_to_one() {
        let mut b = Breakdown::default();
        b.charge(CycleClass::Compute, 50);
        b.charge(CycleClass::IStallL2, 10);
        b.charge(CycleClass::DStallL2Hit, 30);
        b.charge(CycleClass::Other, 10);
        let (c, i, d, o) = four_components(&b);
        assert!((c + i + d + o - 1.0).abs() < 1e-9);
        assert!((d - 0.3).abs() < 1e-9);
    }

    #[test]
    fn a_nan_margin_fails_and_renders_a_cross() {
        let nan = Claim::above("response ratio", f64::NAN, 1.0);
        assert!(!nan.holds());
        let nan = [nan];
        assert!(claims_block(&nan).contains("✗"));
        assert!(check_claims(&nan).is_err());
        // An aggregate over a missing number stays missing.
        assert!(least([1.0, f64::NAN, 0.5]).is_nan());
        assert!(greatest([f64::NAN, 2.0]).is_nan());
        let ratio = Claim::near("ratio", f64::NAN, 1.7);
        assert!(ratio.margin.is_nan() && !ratio.holds());
    }

    #[test]
    fn a_gap_marked_claim_that_holds_fails_the_strict_check() {
        let holds = Claim::above("speedup", 2.0, 1.5);
        assert_eq!(check_claims(std::slice::from_ref(&holds)), Ok(()));
        let fixed = [holds.gap("2")];
        assert!(fixed[0].holds());
        assert_eq!(
            check_claims(&fixed),
            Err(claims_block(&fixed)),
            "a fixed contradiction must drop its gap marker"
        );
        let known = Claim::below("efficiency", 1.8, 1.0).gap("2");
        assert_eq!(check_claims(&[known]), Ok(()));
        assert!(check_claims(&[]).is_err(), "a figure must claim something");
    }

    #[test]
    fn claims_block_rendering_is_pinned() {
        let block = claims_block(&[
            Claim::above("OLTP LC/FC throughput", 2.29, 1.0),
            Claim::near("DSS LC/FC response time", 3.0246, 1.7).gap("5(c)"),
            Claim::within("DSS efficiency at 8 cores", 0.94, 1.0, 1.25).gap("2"),
            Claim::below("CMP coherence-stall cycles", 0.0, 1.0),
            Claim::below("DSS throughput, 26 MB over 4 MB", 0.99951, 1.0),
            Claim::below("error", f64::NAN, 0.6),
        ]);
        assert_eq!(
            block,
            "Claims (margin > 0 iff the claim holds):\n\
             \x20 ✓     +1.29  OLTP LC/FC throughput: 2.29 > 1\n\
             \x20 ✗   -0.8996  DSS LC/FC response time: 3.025 ~ 1.7 ±25 % = (1.275, 2.125)  [gap: ROADMAP item 5(c)]\n\
             \x20 ✗     -0.06  DSS efficiency at 8 cores: 0.94 in (1, 1.25)  [gap: ROADMAP item 2]\n\
             \x20 ✓        +1  CMP coherence-stall cycles: 0 < 1\n\
             \x20 ✓  +0.00049  DSS throughput, 26 MB over 4 MB: 0.9995 < 1\n\
             \x20 ✗       NaN  error: NaN < 0.6\n"
        );
    }
}
